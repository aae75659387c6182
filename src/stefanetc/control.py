"""Continuous-time feedback law and its sampled realizations.

The continuous law drives the interface to the setpoint s_r:

    q(t) = -c ( (k/alpha) int_0^s u_hat dx + (k/beta) (s - s_r) ).

Event-triggered and periodic modes apply it in zero-order-hold fashion; the
"continuous" baseline is a ZOH at every solver step, the finest rate a
discrete simulator can realize.  The law takes the integral and X that the
supervision of an instant has measured.  That integral is folded into the
observer step: its update returns the unit-interval trapezoid sum of the
new u_hat, and the supervision multiplies it by s, which has the bits of
`integral_u_hat(u_hat, s)`, since the trapezoid multiplies by the length
last.  So `integral_u_hat` itself runs once per run, on the initial
profile.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidityBreach
from .numerics import trapezoid


def integral_u_hat(u_hat: np.ndarray, s: float) -> float:
    """Physical integral of the observer temperature error over [0, s];
    at s = 1.0, its unit-interval trapezoid sum."""
    return trapezoid(u_hat, s)


def continuous_q(integral: float, X: float, phys, c: float) -> float:
    """Evaluate the continuous feedback law from the observer's integral
    `integral_u_hat(u_hat, s)` and X = s - s_r."""
    return -c * (phys.k / phys.alpha * integral + phys.k / phys.beta * X)


def zoh_update(integral: float, X: float, phys, c: float) -> float:
    """Compute the held input q_j at an event instant from the integral and
    X that the supervision of that instant has measured.

    A nonpositive q_j means the positivity hypotheses (Lipschitz/sandwich/
    setpoint conditions) were violated; the run must halt rather than clamp,
    since well-posedness of the plant requires nonnegative heat.
    """
    q_j = continuous_q(integral, X, phys, c)
    if q_j <= 0.0:
        raise ValidityBreach("q_positive", f"held input q_j={q_j:g} <= 0",
                             value=q_j)
    return q_j
