"""Backstepping observer on the shared moving domain.

The observer is a copy of the plant PDE driven by the held input plus an
output-injection source p(x, s) * (T_x(s,t) - That_x(s,t)), where the plant
slope T_x(s,t) = -sdot/beta comes from the interface-velocity measurement.
The observer shares the true domain: its step takes the plant's s and sdot.

The step forms its two right-hand sides with the `observer_rhs` piece of
`numerics._kernel` (the gain, the base step under the injection source
and the influence right-hand side), solves both through
`plant.solve_tridiagonal`, and updates the profile with its
`observer_update` piece.  This module holds that step, the error slope
and the error norm; the gain `observer_gain`, the interface slope
`boundary_slope` and the reference pieces `observer_rhs` and
`sherman_morrison` live in `numerics`.
"""

from __future__ import annotations

import numpy as np

from . import numerics, plant
from .numerics import trapezoid
# Not called here: perfbench's tracer binds `observer.advance_profile`.
from .plant import advance_profile  # noqa: F401


def error_slope(u: np.ndarray, u_hat: np.ndarray, s: float) -> float:
    """`numerics.boundary_slope` of u - u_hat, from the four end values."""
    h = 1.0 / (u.size - 1)
    return ((u.item(-1) - u_hat.item(-1))
            - (u.item(-2) - u_hat.item(-2))) / (h * s)


def step_observer(u_hat, s: float, sdot: float, phys, lam: float, q: float,
                  dt: float, measured_slope: float, factor):
    """Advance the observer profile u_hat one step, paired with the plant
    step at the same dt, and return the new profile,
    trapezoid(u_hat_new^2, s), the source of m, and trapezoid(u_hat_new,
    1.0), whose product with the new s is the feedback law's integral.

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
    `numerics.boundary_slope`; w.z > 0 for it, so the update never becomes singular.
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
