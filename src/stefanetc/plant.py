"""One-phase Stefan plant on the immobilized unit grid.

The moving domain [0, s(t)] is mapped to xi = x/s(t) in [0, 1], turning the
heat equation T_t = alpha T_xx into

    u_tau = (alpha/s^2) u_xixi + xi (sdot/s) u_xi,      u := T - Tm,

with a flux condition u_xi(0) = -s q / k, a pinned interface value u(1) = 0,
and the interface ODE sdot = -(beta/s) u_xi(1).

The step is semi-implicit: diffusion implicit (tridiagonal solve), advection
and the s-dependent coefficients explicit at the old time level.  The same
advance is reused by the observer, which only adds an output-injection source.
The implicit matrix depends on the old-level s only, so the plant solve and both
observer solves of a step share one closed-form factorization
(`implicit_factor`), passed to each as `factor`, which carries r; the solve
returns the profile with its pinned interface value.

This module holds the step's physics around the kernel: the initial map,
the interface velocity, the diffusion number of the step, and the plant
step with its validity checks.  The factorization, the right-hand side
and the solve are pieces of `numerics._kernel`; their reference forms,
`advance_rhs` and `forced_rhs` among them, live in `numerics`.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .errors import NumericalFailure, ValidityBreach
from .numerics import solve_tridiagonal, unit_grid


def immobilize(T0, s0: float, phys, n: int) -> np.ndarray:
    """Map an initial physical profile T0, an array sampled uniformly on
    [0, s0], to u = T - Tm on the unit grid.

    T0 is resampled onto the xi-grid by linear interpolation (exact for
    linear profiles).  The far value is pinned to the melting temperature.
    """
    if not 0.0 < s0 < phys.L:
        raise ValidityBreach("mv2", f"s0={s0:g} outside (0, L={phys.L:g})")
    T0 = np.asarray(T0, dtype=float)
    x_src = np.linspace(0.0, s0, T0.size)
    u = np.interp(unit_grid(n) * s0, x_src, T0) - phys.Tm
    u[-1] = 0.0
    return u


def interface_velocity(u: np.ndarray, s: float, beta: float) -> float:
    """sdot = -(beta/s) u_xi(1) via the first-order one-sided difference.

    The first-order stencil is deliberate: the observer's injection closes a
    loop through this same slope functional, and the discretized coupled
    system is only stable when both sides use the first-order difference (the
    higher-order stencil misreads the injection gain's interface boundary
    layer and destabilizes the error dynamics on coarse grids).
    """
    h = 1.0 / (u.size - 1)
    return -(beta / s) * (u.item(-1) - u.item(-2)) / h


def implicit_factor(s: float, dt: float, alpha: float, n: int):
    """The `factor` piece of the step from interface position s, at the
    diffusion number r = alpha dt / (s h)^2: the one factorization the plant
    solve and both observer solves of that step use."""
    h = 1.0 / (n - 1)
    return numerics._kernel.factor(n, alpha * dt / (s * s * h * h))


def advance_profile(u, s, sdot, q, dt, k, factor):
    """One semi-implicit step of the immobilized PDE, returning the new profile.

    Diffusion is implicit with s frozen at the old level; the advection term
    xi (sdot/s) u_xi is explicit and upwinded.  Boundary conditions:
    second-order ghost-node Neumann u_xi(0) = -s q / k, Dirichlet u(1) = 0.
    `factor` is the step's `implicit_factor(s, dt, alpha, n)`, whose one
    band value is -r; the new profile has the pinned interface value.
    """
    return solve_tridiagonal(factor, numerics._kernel.advance_rhs(
        u, s, sdot, q, dt, k, -factor[0]))


def step_plant(u, s: float, sdot: float, phys, q: float, dt: float,
               factor) -> tuple[np.ndarray, float, float]:
    """Advance the plant (u, s, sdot) one step under a held boundary heat
    flux q and return the new (u, s, sdot).

    `factor` is the step's `implicit_factor`.
    """
    if not math.isfinite(q):
        raise NumericalFailure("non-finite input q")
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    u_new = advance_profile(u, s, sdot, q, dt, phys.k, factor)
    if not np.isfinite(u_new).all():
        raise NumericalFailure("plant profile became non-finite")

    sdot_new = interface_velocity(u_new, s, phys.beta)
    s_new = s + dt * sdot_new
    if not 0.0 < s_new < phys.L:
        raise ValidityBreach("mv2", f"interface left (0, L): s={s_new:g}")
    return u_new, s_new, sdot_new
