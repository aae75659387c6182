"""Backstepping observer on the shared moving domain.

The observer is a copy of the plant PDE driven by the held input plus an
output-injection source p(x, s) * (T_x(s,t) - That_x(s,t)), where the plant
slope T_x(s,t) = -sdot/beta comes from the interface-velocity measurement.
The observer shares the true domain: s and sdot are read from the plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import plant
from .errors import NumericalFailure
from .numerics import (BESSEL_Z_MAX, _RATIO_SERIES_CUT, _ratio_series,
                       trapezoid, unit_grid)
from .plant import advance_profile


@dataclass
class ObserverState:
    u_hat: np.ndarray      # That - Tm on the unit grid [deg C]
    t: float = 0.0


def observer_gain(x, s: float, lam: float, alpha: float):
    """Output-injection gain p(x, s) = -lam s I1(z)/z, z = sqrt(lam (s^2-x^2)/alpha).

    Continuous at x = s with value -lam s / 2.  x is a scalar or an
    ascending array on [0, s], as the grids xi s are.
    The argument w = lam (s^2 - x^2)/alpha then never increases along x:
    its first entry is the largest, so the domain check reads that one, and
    the entries below the series cut (at least the node x = s, where w = 0)
    form a tail.  The head takes the Bessel quotient, the tail the power
    series in Python floats; every entry has the bits of its own branch.
    """
    x = np.asarray(x, dtype=float)
    w = lam * (s * s - x * x) / alpha
    if x.ndim == 0:
        w = w.reshape(1)
    if w.size and math.sqrt(max(w.item(0), 0.0)) > BESSEL_Z_MAX:
        raise ValueError(f"Bessel argument outside [0, {BESSEL_Z_MAX:g}]")
    out = np.empty(w.size)
    head = w.size
    while head and (v := w.item(head - 1)) < _RATIO_SERIES_CUT:
        head -= 1
        out[head] = _ratio_series(max(v, 0.0), 1.0)
    z = np.sqrt(w[:head])
    quotient = special.i1(z, out=out[:head])
    quotient /= z
    out *= -lam * s
    return out.item() if x.ndim == 0 else out


def boundary_slope(values: np.ndarray, s: float) -> float:
    """Physical interface slope: first-order one-sided difference over h*s,
    read from the profile's two end values as `plant.interface_velocity`
    reads them.

    This is the same functional the plant's interface velocity uses, which is
    what makes the discrete observer-error dynamics homogeneous (an error
    initialized at zero stays at roundoff level), and it is the only one-sided
    variant that keeps the injection feedback dissipative on coarse grids.
    """
    h = 1.0 / (values.size - 1)
    return (values.item(-1) - values.item(-2)) / (h * s)


def error_slope(u: np.ndarray, u_hat: np.ndarray, s: float) -> float:
    """`boundary_slope` of u - u_hat, from the four end values."""
    h = 1.0 / (u.size - 1)
    return ((u.item(-1) - u_hat.item(-1))
            - (u.item(-2) - u_hat.item(-2))) / (h * s)


def influence_profile(p: np.ndarray, dt: float, factor) -> np.ndarray:
    """The profile z with A z = p of the injection's Sherman-Morrison update,
    A the step's implicit matrix (`factor`), and z(1) = 0.

    It is `advance_profile` of a zero profile under zero flux and the
    source p/dt, whose right-hand side is the source term dt (p/dt) alone:
    that expression is kept, so z has the bits of that call.
    """
    return plant.solve_tridiagonal(factor, dt * (p[:-1] / dt), np.zeros(p.size))


def step_observer(obs: ObserverState, measurement, phys, lam: float,
                  q: float, dt: float, measured_slope: float,
                  factor) -> ObserverState:
    """Advance the observer one step, paired with the plant step at the same dt.

    `measurement` is the (s, sdot) pair at the old time level; it drives the
    advection of the shared moving grid.  `measured_slope` is the freshest
    interface-gradient measurement T_x(s,t) = -sdot/beta; the caller should
    pass the value from the plant step just taken, so that the injection
    compares plant and observer slopes at the same time level (this keeps the
    discrete error dynamics homogeneous: a converged observer stays converged
    to roundoff).

    The injection is stiff through its dependence on the observer's own
    interface slope, so that slope is taken at the new level.  Because the
    injection is rank-one in u_hat, the implicit correction is a
    Sherman-Morrison update on top of the shared tridiagonal step: two solves
    instead of one.  The feedback slope is the first-order difference of
    `boundary_slope`; w.z > 0 for it, so the update never becomes singular.
    Both solves use `factor`, the step's `plant.implicit_factor`, which the
    paired plant step shares.
    """
    s, sdot = measurement
    n = obs.u_hat.size

    p = observer_gain(unit_grid(n) * s, s, lam, phys.alpha)

    # Base solve: A u* = rhs + dt p measured_slope.
    u_star = advance_profile(obs.u_hat, s, sdot, q, dt, phys.alpha, phys.k,
                             factor, source=p * measured_slope)
    # Influence solve: A z = p.
    z = influence_profile(p, dt, factor)
    # u_new = u* - z dt w.u* / (1 + dt w.z) solves (A + dt p w^T) u_new =
    # rhs + dt p measured_slope, with w^T u the feedback slope.
    w_u_star = boundary_slope(u_star, s)
    w_z = boundary_slope(z, s)
    denom = 1.0 + dt * w_z
    if abs(denom) < 1e-14:
        raise NumericalFailure(
            f"singular injection correction at t={obs.t:g}")
    u_hat_new = u_star - z * (dt * w_u_star / denom)
    u_hat_new[-1] = 0.0
    if not np.isfinite(u_hat_new).all():
        raise NumericalFailure(f"observer profile became non-finite at t={obs.t:g}")
    return ObserverState(u_hat=u_hat_new, t=obs.t + dt)


def error_norms(err: np.ndarray, s):
    """L2 norm on [0, s] of the observer error err = u - u_hat.  A (K, n)
    stack of errors with a length-K s gives the K norms."""
    return np.sqrt(np.maximum(trapezoid(err * err, s), 0.0))
