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
sums: O(n) per row.  The inverse error transform's Bessel kernel depends on
(x_i, y_j) only through j^2 - i^2 on the xi-grid; it is evaluated once per
distinct value of max(j^2 - i^2, 0) and gathered onto the n x n grid, in
chunks of at most MONITOR_STACK_ENTRIES // n^2 rows, with zero weight below
the diagonal (y < x).  Both keep the trapezoid rule of the full-matrix form
and differ from it only in floating-point evaluation order.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .numerics import ratio_J1_sqrt, simpson, trapezoid, unit_grid
from .observer import observer_gain


def phi_kernel(x, c: float, beta: float, epsilon: float):
    """Direct controller-transform kernel phi(x) = (c/beta) x - epsilon."""
    return (c / beta) * np.asarray(x, dtype=float) - epsilon


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


def transform_error_inverse(u_tilde: np.ndarray, s: np.ndarray, lam: float,
                            alpha: float) -> np.ndarray:
    """w_tilde(x) = u_tilde(x) - int_x^s Q(x,y) u_tilde(y) dy on the xi-grid,
    Q(x, y) = (lam/alpha) y J1(sqrt(w))/sqrt(w), w = lam (y^2 - x^2)/alpha,
    for a (K, n) stack u_tilde and a length-K s.

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
    return u_tilde - out


def transform_controller_direct(u_hat: np.ndarray, X: np.ndarray,
                                s: np.ndarray, epsilon: float, alpha: float,
                                beta: float, c: float) -> np.ndarray:
    """w_hat = u_hat - (beta/alpha) int_x^s phi(x-y) u_hat dy - phi(x-s) X,
    for a (K, n) stack u_hat and length-K X and s.

    phi(x - y) = ((c/beta) x - epsilon) - (c/beta) y is affine, so the
    trapezoid sum of the integral is ((c/beta) x - epsilon) T0 - (c/beta)
    T1, with T0 and T1 the right-cumulative trapezoid sums of u_hat and
    y u_hat: O(n) per row.
    """
    n = u_hat.shape[1]
    x = unit_grid(n) * s[:, None]
    # Panels (v_j + v_{j+1}) summed from the interface inwards; the last
    # node (x = s) has an empty integral.
    v = np.stack((u_hat, x * u_hat))
    T = np.zeros(v.shape)
    T[..., :-1] = np.cumsum(v[..., :0:-1] + v[..., -2::-1], axis=-1)[..., ::-1]
    T *= (s / (2 * (n - 1)))[:, None]
    integral = ((c / beta) * x - epsilon) * T[0] - (c / beta) * T[1]
    return u_hat - (beta / alpha) * integral \
        - phi_kernel(x - s[:, None], c, beta, epsilon) * X[:, None]


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


def lyapunov_values(w_tilde: np.ndarray, u_hat: np.ndarray, s: np.ndarray,
                    m: np.ndarray, s_r: float, epsilon: float, phys, c: float,
                    derived):
    """(V1, V, W) from (K, n) stacks of the transformed observer error
    w_tilde (see `transform_error_inverse`) and the observer profile u_hat,
    and length-K s and m, with the weights A, B and xi of `derived` (a
    `params.TriggerDerived`): V = A V1 + m and W = V e^{-xi s}, three
    length-K arrays.
    """
    X = s - s_r
    w_hat = transform_controller_direct(u_hat, X, s, epsilon, phys.alpha,
                                        phys.beta, c)
    # np.gradient(w_tilde, h, axis=-1)'s own expressions (edge order 1),
    # over s for the physical slope.
    h = 1.0 / (w_tilde.shape[1] - 1)
    slope = np.empty(w_tilde.shape)
    slope[:, 1:-1] = (w_tilde[:, 2:] - w_tilde[:, :-2]) / (2.0 * h)
    slope[:, 0] = (w_tilde[:, 1] - w_tilde[:, 0]) / h
    slope[:, -1] = (w_tilde[:, -1] - w_tilde[:, -2]) / h
    slope /= s[:, None]
    # One quadrature for the three integrands.
    squares = np.stack((w_hat, w_tilde, slope))
    squares *= squares
    hat_sq, tilde_sq, slope_sq = trapezoid(squares, s)
    V1 = 0.5 * hat_sq \
        + epsilon * phys.alpha / (2.0 * phys.beta) * X * X \
        + 0.5 * tilde_sq \
        + 0.5 * derived.B * slope_sq
    V = derived.A * V1 + m
    # math.exp per row: np.exp does not give the same bits.
    W = V * np.array([math.exp(-derived.xi * si) for si in s.tolist()])
    return V1, V, W
