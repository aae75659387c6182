"""Dynamic event-trigger: deviation d(t), dynamic variable m(t), event rule.

Events occur when d^2 > gamma m, or at the latest 1/c after the previous one
(the max dwell bounds every hold; `control.zoh_update`'s q_positive check,
not the dwell, keeps the held input positive).  m obeys

    mdot = -eta m - sigma d^2 + mu1 ||u_hat||^2 + mu2 X^2 + mu3 e^2,

where e is the interface slope of the observer error, realizable from
measurements as -sdot/beta minus the observer's own one-sided slope.  The
trigger is supervised once per solver step, so events land on the step grid.
Over a step the sources are held, and m advances by the exact solution of
the resulting linear ODE.  They are not all taken at one time level: d, X
and e come from the supervised instant t, while ||u_hat||^2 is the observer
profile after the step, at t + dt, integrated over the interface position
at t (`harness.ClosedLoop.step`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation


@dataclass
class Snapshot:
    """Quantities frozen at the last event, defining d(t) until the next one."""
    integral_u_hat: float
    X: float


@dataclass
class EventRecord:
    time: float
    reason: str            # 'initial' | 'threshold' | 'max_dwell' | 'scheduled'
    q_j: float
    dwell: float           # 0.0 for the initial event
    d_squared: float
    gamma_m: float


def deviation(integral_u_hat: float, X: float, snapshot: Snapshot,
              c: float, alpha: float, beta: float) -> float:
    """d(t): gap between the continuous law and the held input, divided by k."""
    return (c / alpha) * (snapshot.integral_u_hat - integral_u_hat) \
        + (c / beta) * (snapshot.X - X)


def step_m(m: float, d: float, u_hat_norm_sq: float, X_sq: float,
           err_slope_sq: float, eta: float, sigma: float,
           mu1: float, mu2: float, mu3: float, dt: float) -> float:
    """Advance m exactly with all sources frozen over the step.

    With frozen inputs the ODE is linear, mdot = -eta m + S, so
    m(t + dt) = m e^{-eta dt} + S (1 - e^{-eta dt}) / eta (eta > 0 is checked
    in params.derive_trigger).  expm1 keeps 1 - e^{-eta dt} accurate for small
    eta dt, and the decay is its own exp, not m - m (1 - e^{-eta dt}), which
    rounds to 0 once e^{-eta dt} falls below half an ulp of 1.  A nonpositive
    result is not clamped: it signals a misconfiguration (the theory
    guarantees m > 0).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    S = -sigma * d * d + mu1 * u_hat_norm_sq + mu2 * X_sq + mu3 * err_slope_sq
    x = eta * dt
    m_new = m * math.exp(-x) - S * math.expm1(-x) / eta
    if m_new <= 0.0:
        raise InvariantViolation(
            "m_positive",
            f"dynamic trigger variable m={m_new:g} <= 0 "
            "(mu/sigma misconfiguration or too-coarse dt)",
        )
    return m_new


def check_event(t: float, t_j: float, d: float, m: float,
                c: float, gamma: float, dt: float) -> str | None:
    """Event decision at a supervised instant.

    Threshold uses the strict inequality d^2 > gamma m; if both the threshold
    and the max dwell fire on the same step, the threshold reason is logged
    (the control action is identical either way).

    `dt` is the supervision step.  The 1/c max dwell bounds every hold, so
    on a step grid the event fires at the last supervised instant that does
    not overshoot: when waiting one more step would push the dwell past 1/c.
    The bound does not make the held input positive: `control.zoh_update`
    checks q_j > 0 at every event and halts the run with a q_positive
    breach otherwise (the shipped config with trigger.eta = 0.005 reaches
    q_j = -3.69e-4 at its max dwell event at t = 3333.0 s).
    """
    if d * d > gamma * m:
        return "threshold"
    if (t - t_j) + dt > 1.0 / c + 1e-12 * max(t, 1.0):
        return "max_dwell"
    return None


def dwell_stats(events: list[EventRecord]) -> tuple[float, float, float]:
    """(min, mean, max) dwell over non-initial events; NaNs when empty."""
    dwells = np.array([e.dwell for e in events if e.reason != "initial"])
    if dwells.size == 0:
        return float("nan"), float("nan"), float("nan")
    return float(dwells.min()), float(dwells.mean()), float(dwells.max())
