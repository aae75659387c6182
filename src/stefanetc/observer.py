"""Backstepping observer on the shared moving domain.

The observer is a copy of the plant PDE driven by the held input plus an
output-injection source p(x, s) * (T_x(s,t) - That_x(s,t)), where the plant
slope T_x(s,t) = -sdot/beta comes from the interface-velocity measurement.
The observer shares the true domain: its step takes the plant's s and sdot.

The step's arithmetic is numpy: `observer_gain`, `advance_profile` under the
injection source, `influence_profile` and `sherman_morrison`.  Where the
compiled kernel is loaded (`numerics.THOMAS_KERNEL`), `step_observer` makes
two C calls with the same bits instead: one forms the gain, with scipy's i1
reached through scipy.special.cython_special, and both right-hand sides;
the other the Sherman-Morrison update, its finiteness check and the
trapezoid of its square.  The two solves between them are
`plant.solve_tridiagonal` on both paths, and each failure raises the same
exception with the same message on both.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import numerics, plant
from .errors import NumericalFailure
from .numerics import (BESSEL_Z_MAX, _RATIO_SERIES_CUT, _ratio_series,
                       trapezoid, unit_grid)
from .plant import advance_profile

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


def influence_rhs(p: np.ndarray, dt: float) -> np.ndarray:
    """The right-hand side of `influence_profile`.

    It is that of `advance_profile` of a zero profile under zero flux and
    the source p/dt, the source term dt (p/dt) alone: that expression is
    kept, so z has the bits of that call.
    """
    return dt * (p[:-1] / dt)


def influence_profile(p: np.ndarray, dt: float, factor) -> np.ndarray:
    """The profile z with A z = p of the injection's Sherman-Morrison update,
    A the step's implicit matrix (`factor`), and z(1) = 0."""
    return plant.solve_tridiagonal(factor, influence_rhs(p, dt))


def sherman_morrison(u_star, z, s: float, dt: float):
    """The new observer profile u* - z dt w.u* / (1 + dt w.z), w.v the
    `boundary_slope` of v, and its `trapezoid` of the square over s, in
    numpy: the reference of the kernel's `observer_update` and the path
    where it is not loaded."""
    w_u_star = boundary_slope(u_star, s)
    w_z = boundary_slope(z, s)
    denom = 1.0 + dt * w_z
    if abs(denom) < 1e-14:
        raise NumericalFailure(SINGULAR)
    # u* and z end in +0.0, and so does u* - z c for every finite c.
    u_hat_new = u_star - z * (dt * w_u_star / denom)
    if not np.isfinite(u_hat_new).all():
        raise NumericalFailure(NON_FINITE)
    # The square of a finite profile may overflow to inf, which the kernel
    # passes on without a warning; so does this path.
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

    Where the compiled kernel is loaded (`numerics.THOMAS_KERNEL`), it forms
    the gain and both right-hand sides in one call and the update and its
    square's trapezoid in another, with the bits of the numpy code; the two
    solves stay here.
    """
    kernel = numerics._kernel
    if kernel is not None:
        rhs = _observer_rhs_compiled(kernel, u_hat, s, sdot, q, dt, phys.k,
                                     factor, lam, phys.alpha, measured_slope)
        # Base solve A u* = rhs + dt p measured_slope, influence solve A z = p.
        return _sherman_morrison_compiled(
            kernel, plant.solve_tridiagonal(factor, rhs[0]),
            plant.solve_tridiagonal(factor, rhs[1]), s, dt)

    n = u_hat.size
    p = observer_gain(unit_grid(n) * s, s, lam, phys.alpha)
    # Base solve: A u* = rhs + dt p measured_slope.
    u_star = advance_profile(u_hat, s, sdot, q, dt, phys.k, factor,
                             source=p * measured_slope)
    # Influence solve: A z = p.
    z = influence_profile(p, dt, factor)
    # u_new solves (A + dt p w^T) u_new = rhs + dt p measured_slope, with
    # w^T u the feedback slope.
    return sherman_morrison(u_star, z, s, dt)


def _observer_rhs_compiled(kernel, u_hat, s, sdot, q, dt, k, factor, lam,
                           alpha, measured_slope):
    """The (2, n - 1) right-hand sides of the base and influence solves,
    `advance_rhs` under the source p measured_slope and `influence_rhs`,
    by the kernel."""
    u_hat = np.ascontiguousarray(u_hat, dtype=float)
    if u_hat.shape != (factor[2].size + 1,):
        raise ValueError("inconsistent tridiagonal band lengths")
    rhs = np.empty((2, u_hat.size - 1))
    buf = kernel.ffi.from_buffer
    if kernel.lib.observer_rhs(u_hat.size, buf("double[]", u_hat), s, sdot,
                               q, dt, k, -factor[0], lam, alpha,
                               measured_slope, kernel.i1,
                               buf("double[]", rhs)):
        raise ValueError(BESSEL_DOMAIN)
    return rhs


def _sherman_morrison_compiled(kernel, u_star, z, s, dt):
    """`sherman_morrison` by the kernel, on two profiles of one size."""
    out = np.empty(u_star.size)
    norm_sq = kernel.ffi.new("double *")
    buf = kernel.ffi.from_buffer
    failed = kernel.lib.observer_update(u_star.size, s, dt,
                                        buf("double[]", u_star),
                                        buf("double[]", z),
                                        buf("double[]", out), norm_sq)
    if failed:
        raise NumericalFailure(SINGULAR if failed == 1 else NON_FINITE)
    return out, norm_sq[0]


def error_norms(err: np.ndarray, s):
    """L2 norm on [0, s] of the observer error err = u - u_hat.  A (K, n)
    stack of errors with a length-K s gives the K norms."""
    return np.sqrt(np.maximum(trapezoid(err * err, s), 0.0))
