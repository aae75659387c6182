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
(`implicit_factor`), passed to each as `factor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidityBreach
from .numerics import diffusion_factor, solve_tridiagonal, unit_grid


@dataclass
class PlantState:
    u: np.ndarray          # T - Tm on the unit grid [deg C]
    s: float               # interface position [cm]
    sdot: float            # interface velocity [cm/s]
    t: float = 0.0         # time [s]


def immobilize(T0, s0: float, phys, n: int) -> PlantState:
    """Map an initial physical profile T0 on [0, s0] to a PlantState.

    T0 may be a callable of x or an array sampled uniformly on [0, s0]; arrays
    are resampled onto the xi-grid by linear interpolation (exact for linear
    profiles).  The far value is pinned to the melting temperature.
    """
    if not 0.0 < s0 < phys.L:
        raise ValidityBreach("mv2", f"s0={s0:g} outside (0, L={phys.L:g})", t=0.0)
    x = unit_grid(n) * s0
    if callable(T0):
        u = np.asarray([float(T0(xx)) for xx in x]) - phys.Tm
    else:
        T0 = np.asarray(T0, dtype=float)
        x_src = np.linspace(0.0, s0, T0.size)
        u = np.interp(x, x_src, T0) - phys.Tm
    u[-1] = 0.0
    sdot = interface_velocity(u, s0, phys.beta)
    return PlantState(u=u, s=s0, sdot=sdot, t=0.0)


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


def _diffusion_number(s, dt, alpha, n):
    h = 1.0 / (n - 1)
    return alpha * dt / (s * s * h * h)


def implicit_factor(s: float, dt: float, alpha: float, n: int):
    """`diffusion_factor` of the step from interface position s: the one
    factorization the plant solve and both observer solves of that step use."""
    return diffusion_factor(n, _diffusion_number(s, dt, alpha, n))


def advance_profile(u, s, sdot, q, dt, alpha, k, factor, source=None):
    """One semi-implicit step of the immobilized PDE, returning the new profile.

    Diffusion is implicit with s frozen at the old level; the advection term
    xi (sdot/s) u_xi is explicit and upwinded; `source` (if given) is an
    explicit volumetric term evaluated at the old level.  Boundary conditions:
    second-order ghost-node Neumann u_xi(0) = -s q / k, Dirichlet u(1) = 0.
    `factor` is the step's `implicit_factor(s, dt, alpha, n)`.
    """
    n = u.size
    h = 1.0 / (n - 1)
    r = _diffusion_number(s, dt, alpha, n)

    # Upwinded advection on the interior nodes: a = xi sdot/s has the sign of
    # sdot there, so sdot >= 0 takes the forward difference; it vanishes at
    # both ends.
    a = unit_grid(n)[1:-1] * (sdot / s)
    inner = u[1:-1]
    adv = np.zeros(n - 1)
    if sdot >= 0.0:
        adv[1:] = a * ((u[2:] - inner) / h)
    else:
        adv[1:] = a * ((inner - u[:-2]) / h)

    rhs = u[:-1] + dt * adv
    if source is not None:
        rhs += dt * source[:-1]
    # Ghost node for the flux condition folds into the first row.
    g = -s * q / k
    rhs[0] -= 2.0 * r * h * g

    # The new profile, with the pinned interface value already in place.
    return solve_tridiagonal(factor, rhs, np.zeros(n))


def step_plant(state: PlantState, phys, q: float, dt: float,
               factor) -> PlantState:
    """Advance the plant one step under a held boundary heat flux q.

    `factor` is passed on to `advance_profile`.
    """
    if not math.isfinite(q):
        raise NumericalFailure(f"non-finite input q at t={state.t:g}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    u_new = advance_profile(state.u, state.s, state.sdot, q, dt, phys.alpha,
                            phys.k, factor)
    if not np.isfinite(u_new).all():
        raise NumericalFailure(f"plant profile became non-finite at t={state.t:g}")

    sdot_new = interface_velocity(u_new, state.s, phys.beta)
    s_new = state.s + dt * sdot_new
    if not 0.0 < s_new < phys.L:
        raise ValidityBreach(
            "mv2", f"interface left (0, L): s={s_new:g}", t=state.t + dt
        )
    return PlantState(u=u_new, s=s_new, sdot=sdot_new, t=state.t + dt)


def measure(state: PlantState) -> tuple[float, float]:
    """Available measurements: interface position and velocity.

    The boundary gradient T_x(s, t) is recoverable as -sdot/beta.
    """
    return state.s, state.sdot
