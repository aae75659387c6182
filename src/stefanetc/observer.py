"""Backstepping observer on the shared moving domain.

The observer is a copy of the plant PDE driven by the held input plus an
output-injection source p(x, s) * (T_x(s,t) - That_x(s,t)), where the plant
slope T_x(s,t) = -sdot/beta comes from the interface-velocity measurement.
The observer shares the true domain: its step takes the plant's s and sdot.

The step forms its two right-hand sides with the `observer_rhs` piece of
`numerics._kernel` (the gain, the base step under the injection source
and the influence right-hand side), solves both through
`plant.solve_tridiagonal`, and updates the profile with its
`observer_update` piece.  `observer_rhs` and `sherman_morrison` are those
pieces in numpy, the ones `numerics.REFERENCE` holds.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import numerics, plant
from ._thomas import profile
from .errors import NumericalFailure
from .numerics import (BESSEL_Z_MAX, _RATIO_SERIES_CUT, _ratio_series,
                       trapezoid, unit_grid)
# Not called here: perfbench's tracer binds `observer.advance_profile`.
from .plant import advance_profile  # noqa: F401

BESSEL_DOMAIN = f"Bessel argument outside [0, {BESSEL_Z_MAX:g}]"
SINGULAR = "singular injection correction"
NON_FINITE = "observer profile became non-finite"


def observer_gain(x, s: float, lam: float, alpha: float):
    """Output-injection gain p(x, s) = -lam s I1(z)/z, z = sqrt(lam (s^2-x^2)/alpha).

    Continuous at x = s with value -lam s / 2.  x is an ascending array on
    [0, s], as the grids xi s are.
    The argument w = lam (s^2 - x^2)/alpha then never increases along x:
    its first entry is the largest, so the domain check reads that one, and
    the entries below the series cut (at least the node x = s, where w = 0)
    form a tail.  The head takes the Bessel quotient, the tail the power
    series in Python floats; every entry has the bits of its own branch.
    """
    w = lam * (s * s - x * x) / alpha
    if w.size and math.sqrt(max(w.item(0), 0.0)) > BESSEL_Z_MAX:
        raise ValueError(BESSEL_DOMAIN)
    out = np.empty(w.size)
    head = w.size
    while head and (v := w.item(head - 1)) < _RATIO_SERIES_CUT:
        head -= 1
        out[head] = _ratio_series(max(v, 0.0), 1.0)
    z = np.sqrt(w[:head])
    quotient = special.i1(z, out=out[:head])
    quotient /= z
    out *= -lam * s
    return out


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


def observer_rhs(u_hat, s, sdot, q, dt, k, r, lam, alpha, slope):
    """The right-hand sides of the base and influence solves, in numpy:
    `numerics.REFERENCE`'s piece.

    The base one is `plant.forced_rhs` of u_hat under the injection
    source p slope, p the `observer_gain` on the grid.  The influence one,
    of A z = p, is that of a zero profile under zero flux and the source
    p/dt, the term dt (p/dt) alone: that expression is kept, so z has the
    bits of that step.
    """
    u_hat = profile(u_hat)
    p = observer_gain(unit_grid(u_hat.size) * s, s, lam, alpha)
    return (plant.forced_rhs(u_hat, s, sdot, q, dt, k, r, p * slope),
            dt * (p[:-1] / dt))


def sherman_morrison(u_star, z, s: float, dt: float):
    """The new observer profile u* - z dt w.u* / (1 + dt w.z), w.v the
    `boundary_slope` of v, and its `trapezoid` of the square over s, in
    numpy: `numerics.REFERENCE`'s `observer_update` piece."""
    u_star = profile(u_star)
    z = profile(z, u_star)
    w_u_star = boundary_slope(u_star, s)
    w_z = boundary_slope(z, s)
    denom = 1.0 + dt * w_z
    if abs(denom) < 1e-14:
        raise NumericalFailure(SINGULAR)
    # u* and z end in +0.0, and so does u* - z c for every finite c.
    u_hat_new = u_star - z * (dt * w_u_star / denom)
    if not np.isfinite(u_hat_new).all():
        raise NumericalFailure(NON_FINITE)
    # The square of a finite profile may overflow to inf, which the
    # compiled piece passes on without a warning; so does this one.
    with np.errstate(over="ignore"):
        return u_hat_new, trapezoid(u_hat_new * u_hat_new, s)


def step_observer(u_hat, s: float, sdot: float, phys, lam: float, q: float,
                  dt: float, measured_slope: float, factor):
    """Advance the observer profile u_hat one step, paired with the plant
    step at the same dt, and return the new profile and
    trapezoid(u_hat_new^2, s), the source of m.

    s and sdot are the measurements at the old time level; they drive the
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
    kernel = numerics._kernel
    rhs = kernel.observer_rhs(u_hat, s, sdot, q, dt, phys.k, -factor[0], lam,
                              phys.alpha, measured_slope)
    # Base solve A u* = rhs + dt p measured_slope, influence solve A z = p;
    # u_new solves (A + dt p w^T) u_new = rhs + dt p measured_slope, with
    # w^T u the feedback slope.
    return kernel.observer_update(plant.solve_tridiagonal(factor, rhs[0]),
                                  plant.solve_tridiagonal(factor, rhs[1]),
                                  s, dt)


def error_norms(err: np.ndarray, s):
    """L2 norm on [0, s] of the observer error err = u - u_hat.  A (K, n)
    stack of errors with a length-K s gives the K norms."""
    return np.sqrt(np.maximum(trapezoid(err * err, s), 0.0))
