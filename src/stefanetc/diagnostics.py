"""Backstepping transforms and Lyapunov monitors.

Everything here is diagnostics-only: the closed loop never depends on these
quantities.  The transforms map simulated states into the target-system
coordinates in which the stability analysis is immediate, so that decay rates
and boundedness claims can be checked at runtime.

The monitors take one profile or a (K, n) stack of K instants with length-K
s (and X, m); each row of a stacked call has the bits of its own 1-D call.
The controller transform's kernel phi is affine, so its Volterra integral is
two right-cumulative trapezoid sums: O(n) per row.  The inverse error
transform's Bessel kernel depends on (x_i, y_j) only through j^2 - i^2 on
the xi-grid; it is evaluated once per distinct value on the upper triangle
(y >= x), in chunks of at most MONITOR_STACK_ENTRIES // n^2 rows.  Both keep
the trapezoid rule of the full-matrix form and differ from it only in
floating-point evaluation order.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ConfigurationError
from .numerics import ratio_J1_sqrt, simpson, trapezoid, unit_grid
from .observer import observer_gain


@dataclass(frozen=True)
class TransformConstants:
    """Constants of the controller-transform kernel pair (phi, psi)."""
    epsilon: float
    nu: float
    omega: float
    zeta: float


def transform_constants(alpha: float, beta: float, c: float,
                        epsilon: float) -> TransformConstants:
    limit = 2.0 * math.sqrt(alpha * c) / beta
    if not 0.0 < epsilon < limit:
        raise ConfigurationError(
            f"epsilon={epsilon:g} outside (0, 2*sqrt(alpha*c)/beta={limit:g})"
        )
    nu = beta * epsilon / (2.0 * alpha)
    omega = math.sqrt((4.0 * alpha * c - (epsilon * beta) ** 2) / (4.0 * alpha * alpha))
    zeta = -(2.0 * alpha * c - (epsilon * beta) ** 2) / (2.0 * alpha * beta * omega)
    # For epsilon below sqrt(alpha c)/beta the kernel bound must hold exactly.
    if epsilon < math.sqrt(alpha * c) / beta:
        bound = 4.0 * alpha * c / (beta * beta)
        if zeta * zeta + epsilon * epsilon >= bound:
            raise ConfigurationError(
                f"zeta^2+eps^2={zeta * zeta + epsilon * epsilon:g} "
                f"not below 4*alpha*c/beta^2={bound:g}"
            )
    return TransformConstants(epsilon=epsilon, nu=nu, omega=omega, zeta=zeta)


def phi_kernel(x, c: float, beta: float, epsilon: float):
    """Direct controller-transform kernel phi(x) = (c/beta) x - epsilon."""
    return (c / beta) * np.asarray(x, dtype=float) - epsilon


# Bound on the entries of one (k, n, n) Volterra matrix stack: the inverse
# error transform evaluates its O(n^2) kernel on chunks of at most
# k = max(1, MONITOR_STACK_ENTRIES // n^2) rows, whatever the number of rows
# it is given.
MONITOR_STACK_ENTRIES = 32768


@functools.lru_cache(maxsize=8)
def _triangle(n: int):
    """The upper triangle (j >= i) of an n x n Volterra matrix on the xi-grid,
    packed in row-major order: the distinct values of j^2 - i^2 and the index
    that gathers them back onto the triangle, the trapezoid weights of
    int_{x_i}^{s} y . dy in units of s^2 h, and the triangle's boolean mask;
    read-only, since the cache shares them."""
    i, j = np.triu_indices(n)
    squares, gather = np.unique(j * j - i * i, return_inverse=True)
    # Trapezoid pattern: 1/2 at both ends of [x_i, s], 1 inside; the last
    # row (x_i = s) is empty.  Times xi_j = y_j / s.
    pattern = np.where((i == j) | (j == n - 1), 0.5, 1.0)
    pattern[i == n - 1] = 0.0
    mask = np.zeros((n, n), dtype=bool)
    mask[i, j] = True
    grids = (squares.astype(float), gather, unit_grid(n)[j] * pattern, mask)
    for a in grids:
        a.flags.writeable = False
    return grids


def _volterra_weights(n: int, s) -> np.ndarray:
    """Trapezoid weights for int_{x_i}^{s} y . dy on the xi-grid, packed on
    the upper triangle; one row per entry of a length-k `s`."""
    return _triangle(n)[2] * (s * s / (n - 1))[:, None]


def _stack(profiles, *scalars):
    """A (K, n) stack and length-K arrays from a stack or one 1-D profile
    with its scalars."""
    return (np.atleast_2d(np.asarray(profiles, dtype=float)),
            *(np.atleast_1d(np.asarray(v, dtype=float)) for v in scalars))


def _volterra(kernel, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """int_{x_i}^{s} y kernel(x_i, y) v(y) dy for each row of a (K, n) stack v.

    `kernel(s_c)` gives the packed upper-triangle values, (k, n(n+1)/2), for
    a (k, 1) column of s.  It is called on chunks of at most
    MONITOR_STACK_ENTRIES // n^2 rows; each chunk is weighted, written row by
    row into a zeroed (k, n, n) array (its lower triangle stays zero) and
    applied with matmul, which gives every row the bits of its own
    matrix-vector product.
    """
    k, n = v.shape
    chunk = max(1, MONITOR_STACK_ENTRIES // (n * n))
    mask = _triangle(n)[3]
    matrices = np.zeros((min(chunk, k), n, n))
    out = np.empty((k, n))
    for a in range(0, k, chunk):
        s_c = s[a:a + chunk]
        packed = kernel(s_c[:, None])
        packed *= _volterra_weights(n, s_c)
        matrix = matrices[:s_c.size]
        for r, row in enumerate(packed):
            matrix[r][mask] = row
        out[a:a + chunk] = (matrix @ v[a:a + chunk, :, None])[:, :, 0]
    return out


def _error_kernel(n: int, s_c: np.ndarray, lam: float,
                  alpha: float) -> np.ndarray:
    """(lam/alpha) J1(sqrt(w))/sqrt(w), w = lam (y^2 - x^2)/alpha, packed on
    the upper triangle for a (k, 1) column of s: the inverse error kernel
    Q(x, y) over y.

    On the xi-grid w = mu_s (j^2 - i^2) with mu_s = (lam/alpha) (s h)^2, so
    the Bessel ratio is evaluated once per distinct j^2 - i^2 and gathered.
    """
    squares, gather, _, _ = _triangle(n)
    ratio = ratio_J1_sqrt((lam / alpha) * (s_c / (n - 1)) ** 2 * squares)
    ratio *= lam / alpha
    return np.take(ratio, gather, axis=-1)


def transform_error_inverse(u_tilde: np.ndarray, s, lam: float,
                            alpha: float) -> np.ndarray:
    """w_tilde(x) = u_tilde(x) - int_x^s Q(x,y) u_tilde(y) dy on the xi-grid,
    Q(x, y) = (lam/alpha) y J1(sqrt(w))/sqrt(w), w = lam (y^2 - x^2)/alpha.

    Takes one profile and its s, or a (K, n) stack and a length-K s.
    """
    u, s_k = _stack(u_tilde, s)
    n = u.shape[1]
    out = u - _volterra(lambda s_c: _error_kernel(n, s_c, lam, alpha), s_k, u)
    return out.reshape(np.shape(u_tilde))


def transform_controller_direct(u_hat: np.ndarray, X, s,
                                tc: TransformConstants, alpha: float,
                                beta: float, c: float) -> np.ndarray:
    """w_hat = u_hat - (beta/alpha) int_x^s phi(x-y) u_hat dy - phi(x-s) X.

    Takes one profile with its X and s, or a (K, n) stack with length-K X
    and s.  phi(x - y) = ((c/beta) x - epsilon) - (c/beta) y is affine, so
    the trapezoid sum of the integral is ((c/beta) x - epsilon) T0 -
    (c/beta) T1, with T0 and T1 the right-cumulative trapezoid sums of u_hat
    and y u_hat: O(n) per row.
    """
    u, s_k, X = _stack(u_hat, s, X)
    n = u.shape[1]
    x = unit_grid(n) * s_k[:, None]
    # Panels (v_j + v_{j+1}) summed from the interface inwards; the last
    # node (x = s) has an empty integral.
    v = np.stack((u, x * u))
    T = np.zeros(v.shape)
    T[..., :-1] = np.cumsum(v[..., :0:-1] + v[..., -2::-1], axis=-1)[..., ::-1]
    T *= (s_k / (2 * (n - 1)))[:, None]
    integral = ((c / beta) * x - tc.epsilon) * T[0] - (c / beta) * T[1]
    out = u - (beta / alpha) * integral \
        - phi_kernel(x - s_k[:, None], c, beta, tc.epsilon) * X[:, None]
    return out.reshape(np.shape(u_hat))


def f_kernel(x, s: float, lam: float, alpha: float, beta: float, c: float,
             epsilon: float):
    """Forcing kernel f(x,s) = p - (beta/alpha) int_x^s phi(x-y) p dy + beta phi(x-s).

    Evaluated on an array of x covering [0, s]; phi is affine in (x - y), so
    the inner integral splits into two right-cumulative integrals of p and y p.
    """
    x = np.asarray(x, dtype=float)
    p = observer_gain(x, s, lam, alpha)
    # Right-cumulative integrals int_x^s p dy and int_x^s y p dy.
    cum_p = cumulative_trapezoid(p, x, initial=0.0)
    cum_yp = cumulative_trapezoid(x * p, x, initial=0.0)
    ip = cum_p[-1] - cum_p
    iyp = cum_yp[-1] - cum_yp
    inner = ((c / beta) * x - epsilon) * ip - (c / beta) * iyp
    return p - (beta / alpha) * inner + beta * phi_kernel(x - s, c, beta, epsilon)


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
        x = np.linspace(0.0, L, nq + 1)
        f = f_kernel(x, L, lam, alpha, beta, c, epsilon)
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


def lyapunov_values(w_tilde: np.ndarray, u_hat: np.ndarray, s, m,
                    s_r: float, tc: TransformConstants, phys, c: float,
                    derived):
    """(V1, V, W) from the transformed observer error w_tilde (see
    `transform_error_inverse`), the observer profile u_hat and m, with the
    weights A, B and xi of `derived` (a `params.TriggerDerived`):
    V = A V1 + m and W = V e^{-xi s}.

    Takes one instant, or (K, n) stacks with length-K s and m and then
    returns three length-K arrays.
    """
    w_tilde_k, s_k = _stack(w_tilde, s)
    u_hat_k, X = _stack(u_hat, s_k - s_r)
    w_hat = transform_controller_direct(u_hat_k, X, s_k, tc, phys.alpha,
                                        phys.beta, c)
    # np.gradient(w_tilde, h, axis=-1)'s own expressions (edge order 1),
    # over s for the physical slope.
    h = 1.0 / (w_tilde_k.shape[1] - 1)
    slope = np.empty(w_tilde_k.shape)
    slope[:, 1:-1] = (w_tilde_k[:, 2:] - w_tilde_k[:, :-2]) / (2.0 * h)
    slope[:, 0] = (w_tilde_k[:, 1] - w_tilde_k[:, 0]) / h
    slope[:, -1] = (w_tilde_k[:, -1] - w_tilde_k[:, -2]) / h
    slope /= s_k[:, None]
    # One quadrature for the three integrands.
    squares = np.stack((w_hat, w_tilde_k, slope))
    squares *= squares
    hat_sq, tilde_sq, slope_sq = trapezoid(squares, s_k)
    V1 = 0.5 * hat_sq \
        + tc.epsilon * phys.alpha / (2.0 * phys.beta) * X * X \
        + 0.5 * tilde_sq \
        + 0.5 * derived.B * slope_sq
    V = derived.A * V1 + m
    # math.exp per row: np.exp does not give the same bits.
    W = V * np.array([math.exp(-derived.xi * si) for si in s_k.tolist()])
    if np.ndim(w_tilde) == 1:
        return float(V1[0]), float(V[0]), float(W[0])
    return V1, V, W
