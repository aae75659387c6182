"""Backstepping transforms, Lyapunov values and the forcing-kernel norm f_max.

The transforms map simulated states into the target-system coordinates in
which the stability analysis is immediate, so that decay rates and
boundedness claims can be checked at runtime; `lyapunov_values` gives V1,
V = A V1 + m and W = V e^{-xi s} from them.  `f_max` is the norm of the
forcing kernel f, the controller transform of the observer gain.  Of the
constants `params.derive_trigger` derives, only f_max comes from here, and
it, the weight B built on it and xi weight the Lyapunov values alone: none
of them feeds the closed loop, and nothing the loop uses is computed here.

The monitors take (K, n) stacks of K instants with length-K s (and X, m);
each row has the bits of a one-row stack.  The controller transform's kernel
phi is affine, so its Volterra integral is two right-cumulative trapezoid
sums: O(n) per row.  It lives in `numerics`, beside the reference of the
`lyapunov_rows` piece that applies it, and is bound here for `f_kernel`;
`lyapunov_values` is one call of that piece of `numerics._kernel`, the
last of the seam's eight, which returns the monitor pass's trapezoids and
Lyapunov values after the inverse error transform.  The inverse error
transform takes one of two paths per row, chosen here by where the series
converges.  A row with z = sqrt(lam/alpha) s below the first zero of J1
takes the series path, the `series_integral` piece of `numerics._kernel`
(its reference and
constants live in `numerics`): the multiplication theorem splits the
Bessel ratio at j^2 - i^2 into SERIES_ORDERS products of powers of i^2
and Bessel functions of j^2, so the integral is that many
right-cumulative trapezoid sums combined by Horner, O(SERIES_ORDERS n)
per row, with no Bessel function per grid entry.  Every other row takes
the gathered kernel, in numpy here, the only path that
holds at z >= j_{1,1}: its Bessel ratio depends on (x_i, y_j) only through
j^2 - i^2 on the xi-grid, so it is evaluated once per distinct value of
max(j^2 - i^2, 0) and gathered onto the n x n grid, in chunks of at most
MONITOR_STACK_ENTRIES // n^2 gathered rows, with zero weight below the
diagonal (y < x).  All of them keep the trapezoid rule of the full-matrix
form; they differ from it in floating-point evaluation order, and the
series path also by a truncation below 2^-58 of the kernel's diagonal
value.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from . import numerics
from .numerics import (J1_FIRST_ZERO, observer_gain, ratio_J1_sqrt, simpson,
                       transform_controller_direct, unit_grid)


# Bound on the entries of one (k, n, n) Volterra matrix stack: the inverse
# error transform evaluates its O(n^2) kernel on chunks of at most
# k = max(1, MONITOR_STACK_ENTRIES // n^2) rows, whatever the number of rows
# it is given.
MONITOR_STACK_ENTRIES = 32768


@functools.lru_cache(maxsize=8)
def _grid(n: int):
    """The n x n Volterra matrix on the xi-grid: the distinct values of
    max(j^2 - i^2, 0), the (n, n) index that gathers them onto the grid, and
    the trapezoid weights of int_{x_i}^{s} y . dy in units of s^2 h;
    read-only, since the cache shares them."""
    k = np.arange(n)
    squares, gather = np.unique(np.maximum(k * k - k[:, None] ** 2, 0),
                                return_inverse=True)
    # Trapezoid pattern: 1/2 at both ends of [x_i, s], 1 inside, 0 below the
    # diagonal; the last row (x_i = s) is empty.  Times xi_j = y_j / s.
    pattern = np.triu(np.where((k == k[:, None]) | (k == n - 1), 0.5, 1.0))
    pattern[-1] = 0.0
    grids = (squares.astype(float), gather.reshape(n, n),
             unit_grid(n) * pattern)
    for a in grids:
        a.flags.writeable = False
    return grids


def _volterra_weights(n: int, s: np.ndarray) -> np.ndarray:
    """Trapezoid weights for int_{x_i}^{s} y . dy on the xi-grid, (k, n, n)
    for a length-k `s`; +0.0 below the diagonal."""
    return _grid(n)[2] * (s * s / (n - 1))[:, None, None]


def _error_kernel(n: int, s_c: np.ndarray, lam: float,
                  alpha: float) -> np.ndarray:
    """(lam/alpha) J1(sqrt(w))/sqrt(w), w = lam max(y^2 - x^2, 0)/alpha, on
    the n x n grid for each entry of a length-k s: (k, n, n).

    On the xi-grid w = mu_s max(j^2 - i^2, 0) with mu_s = (lam/alpha)
    (s h)^2, so the Bessel ratio is evaluated once per distinct value and
    gathered.  Below the diagonal it is the diagonal's (lam/alpha)/2.
    """
    squares, gather, _ = _grid(n)
    ratio = ratio_J1_sqrt((lam / alpha) * (s_c[:, None] / (n - 1)) ** 2
                          * squares)
    ratio *= lam / alpha
    return np.take(ratio, gather, axis=-1)


def _gathered_integral(u_tilde: np.ndarray, s: np.ndarray, lam: float,
                       alpha: float) -> np.ndarray:
    """int_{x_i}^{s} Q(x_i, y) u_tilde(y) dy of a (k, n) stack through the
    gathered kernel, in chunks of at most MONITOR_STACK_ENTRIES // n^2 rows.

    Each chunk's weighted kernel is applied with one matmul, which gives
    every row the bits of its own matrix-vector product.
    """
    k, n = u_tilde.shape
    chunk = max(1, MONITOR_STACK_ENTRIES // (n * n))
    out = np.empty((k, n))
    for a in range(0, k, chunk):
        s_c = s[a:a + chunk]
        matrix = _error_kernel(n, s_c, lam, alpha)
        matrix *= _volterra_weights(n, s_c)
        out[a:a + chunk] = (matrix @ u_tilde[a:a + chunk, :, None])[:, :, 0]
    return out


def transform_error_inverse(u_tilde: np.ndarray, s: np.ndarray, lam: float,
                            alpha: float) -> np.ndarray:
    """w_tilde(x) = u_tilde(x) - int_x^s Q(x,y) u_tilde(y) dy on the xi-grid,
    Q(x, y) = (lam/alpha) y J1(sqrt(w))/sqrt(w), w = lam (y^2 - x^2)/alpha,
    for a (K, n) stack u_tilde and a length-K s.

    A row takes the series path when sqrt(lam/alpha) s < J1_FIRST_ZERO,
    where every term of its sum is positive; every other row takes the
    gathered kernel, which holds for any s.  The choice and both paths are
    per row, so each row has the bits of its own one-row stack.
    """
    series = math.sqrt(lam / alpha) * s < J1_FIRST_ZERO
    integral = np.empty(u_tilde.shape)
    for rows, path in ((series, numerics._kernel.series_integral),
                       (~series, _gathered_integral)):
        if rows.any():
            integral[rows] = path(u_tilde[rows], s[rows], lam, alpha)
    return u_tilde - integral


def f_kernel(n: int, s: float, lam: float, alpha: float, beta: float,
             c: float, epsilon: float) -> np.ndarray:
    """Forcing kernel f(x,s) = p - (beta/alpha) int_x^s phi(x-y) p dy + beta phi(x-s)
    on the n nodes x = xi s: the controller transform of p(., s) with X = -beta.
    """
    p = observer_gain(unit_grid(n) * s, s, lam, alpha)
    return transform_controller_direct(p[None], np.array([-beta]),
                                       np.array([s]), epsilon, alpha, beta,
                                       c)[0]


# Simpson panels of the coarse f_max quadrature; the fine one doubles them.
F_MAX_N_QUAD = 512


def f_max(L: float, lam: float, alpha: float, beta: float, c: float,
          epsilon: float) -> float:
    """f_max = sqrt(max over s in (0, L] of int_0^s f(x,s)^2 dx).

    The max is at s = L.  Every term of f is <= 0: p <= 0, phi(x - y) <=
    -epsilon for y >= x, and beta phi(x - s) = c (x - s) - beta epsilon.  So
    |f| = |p(x,s)| + (beta/alpha) int_x^s |phi(x-y)| |p(y,s)| dy + c (s - x)
    + beta epsilon.  At a fixed distance t = s - x from the interface,
    |p(s - tau, s)| = lam s I1(sqrt(w))/sqrt(w) with w = lam tau (2s - tau)/alpha,
    which does not decrease as s grows (I1(sqrt(w))/sqrt(w) increases with
    w), and the phi terms depend on t and tau only.  So int_0^s f(s - t, s)^2 dt
    grows with s: the domain gets larger and the integrand does not shrink.

    Simpson quadrature at s = L; a refinement doubling that moves the result
    by more than 1e-6 relative attaches an accuracy warning.  f grows like
    I1(z)/z with z = sqrt(lam L^2/alpha), so past about z = 356 f^2
    overflows: then the result is inf, with no warning on the way, and
    `params.derive_trigger` rejects the configuration.
    """
    def evaluate(nq):
        f = f_kernel(nq + 1, L, lam, alpha, beta, c, epsilon)
        return math.sqrt(simpson(f * f, L))

    with np.errstate(over="ignore", invalid="ignore"):
        coarse = evaluate(F_MAX_N_QUAD)
        fine = evaluate(2 * F_MAX_N_QUAD)
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return math.inf
    if abs(fine - coarse) > 1e-6 * max(abs(fine), 1e-300):
        warnings.warn(
            f"f_max quadrature not converged to 1e-6 relative "
            f"({coarse:g} vs {fine:g})", RuntimeWarning, stacklevel=2,
        )
    return fine


def lyapunov_values(U: np.ndarray, U_hat: np.ndarray, w_tilde: np.ndarray,
                    s: np.ndarray, m: np.ndarray, s_r: float, epsilon: float,
                    phys, c: float, derived) -> np.ndarray:
    """(||u||^2, ||w_tilde||^2, int u, V1, V, W) over [0, s] from (K, n)
    stacks of the plant profile U, the observer profile U_hat and the
    transformed observer error w_tilde (see `transform_error_inverse`),
    and length-K s and m, with the weights A, B and xi of `derived` (a
    `params.TriggerDerived`): V = A V1 + m and W = V e^{-xi s}, a (6, K)
    array from one call of the `lyapunov_rows` piece of `numerics._kernel`.
    """
    return numerics._kernel.lyapunov_rows(
        U, U_hat, w_tilde, s, m, s_r, epsilon, phys.alpha, phys.beta, c,
        derived.A, derived.B, derived.xi)
