"""Backstepping transforms and Lyapunov monitors.

Everything here is diagnostics-only: the closed loop never depends on these
quantities.  The transforms map simulated states into the target-system
coordinates in which the stability analysis is immediate, so that decay rates
and boundedness claims can be checked at runtime.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ConfigurationError
from .numerics import (ratio_I1_sqrt, ratio_J1_sqrt, simpson, trapezoid,
                       unit_grid)
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


def psi_kernel(x, tc: TransformConstants):
    """Inverse controller-transform kernel psi(x) = e^{nu x}(zeta sin wx + eps cos wx)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(tc.nu * x) * (tc.zeta * np.sin(tc.omega * x)
                               + tc.epsilon * np.cos(tc.omega * x))
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=8)
def _volterra_pattern(n: int) -> np.ndarray:
    # Trapezoid weights in units of h: 1/2 at both ends of [x_i, s], 1 inside;
    # the last row (x_i = s) is empty.  Read-only, since the cache shares it.
    w = np.triu(np.ones((n, n)))
    np.fill_diagonal(w, 0.5)
    w[:, -1] = 0.5
    w[-1, :] = 0.0
    w.flags.writeable = False
    return w


def _volterra_weights(n: int, s: float) -> np.ndarray:
    """Trapezoid weights for int_{x_i}^{s} . dy on the xi-grid, row per x_i."""
    return _volterra_pattern(n) * (s / (n - 1))


def transform_error_direct(w_tilde: np.ndarray, s: float, lam: float,
                           alpha: float) -> np.ndarray:
    """u_tilde(x) = w_tilde(x) + int_x^s P(x,y) w_tilde(y) dy on the xi-grid."""
    n = w_tilde.size
    y = unit_grid(n) * s
    diff = np.maximum(y[None, :] ** 2 - y[:, None] ** 2, 0.0)
    K = (lam / alpha) * y[None, :] * ratio_I1_sqrt(lam * diff / alpha)
    K = np.triu(K)
    return w_tilde + (K * _volterra_weights(n, s)) @ w_tilde


def transform_error_inverse(u_tilde: np.ndarray, s: float, lam: float,
                            alpha: float) -> np.ndarray:
    """w_tilde(x) = u_tilde(x) - int_x^s Q(x,y) u_tilde(y) dy on the xi-grid."""
    n = u_tilde.size
    y = unit_grid(n) * s
    diff = np.maximum(y[None, :] ** 2 - y[:, None] ** 2, 0.0)
    K = (lam / alpha) * y[None, :] * ratio_J1_sqrt(lam * diff / alpha)
    K = np.triu(K)
    return u_tilde - (K * _volterra_weights(n, s)) @ u_tilde


def transform_controller_direct(u_hat: np.ndarray, X: float, s: float,
                                tc: TransformConstants, alpha: float,
                                beta: float, c: float) -> np.ndarray:
    """w_hat = u_hat - (beta/alpha) int_x^s phi(x-y) u_hat dy - phi(x-s) X."""
    n = u_hat.size
    x = unit_grid(n) * s
    K = phi_kernel(x[:, None] - x[None, :], c, beta, tc.epsilon)
    K = np.triu(K)
    integral = (K * _volterra_weights(n, s)) @ u_hat
    return u_hat - (beta / alpha) * integral - phi_kernel(x - s, c, beta, tc.epsilon) * X


def transform_controller_inverse(w_hat: np.ndarray, X: float, s: float,
                                 tc: TransformConstants, alpha: float,
                                 beta: float) -> np.ndarray:
    """u_hat = w_hat - (beta/alpha) int_x^s psi(x-y) w_hat dy - psi(x-s) X."""
    n = w_hat.size
    x = unit_grid(n) * s
    K = psi_kernel(x[:, None] - x[None, :], tc)
    K = np.triu(K)
    integral = (K * _volterra_weights(n, s)) @ w_hat
    return w_hat - (beta / alpha) * integral - psi_kernel(x - s, tc) * X


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
    by more than 1e-6 relative attaches an accuracy warning.
    """
    def evaluate(nq):
        x = np.linspace(0.0, L, nq + 1)
        f = f_kernel(x, L, lam, alpha, beta, c, epsilon)
        return math.sqrt(simpson(f * f, L))

    coarse = evaluate(F_MAX_N_QUAD)
    fine = evaluate(2 * F_MAX_N_QUAD)
    if abs(fine - coarse) > 1e-6 * max(abs(fine), 1e-300):
        warnings.warn(
            f"f_max quadrature not converged to 1e-6 relative "
            f"({coarse:g} vs {fine:g})", RuntimeWarning, stacklevel=2,
        )
    return fine


@dataclass(frozen=True)
class LyapunovConfig:
    """Weights of the composite Lyapunov functional V = A V1 + m, W = V e^{-xi s}."""
    A: float
    B: float
    xi: float
    b_star: float


def lyapunov_config(A: float, b_star: float, f_max_value: float, L: float,
                    alpha: float, beta: float, c: float,
                    epsilon: float) -> LyapunovConfig:
    B = 4.0 * L * L * f_max_value ** 2 / (alpha * alpha) \
        + epsilon * beta / (2.0 * c) + b_star
    xi = max(c * L / beta,
             (beta / (alpha * epsilon)) * (epsilon * epsilon + c / beta))
    return LyapunovConfig(A=A, B=B, xi=xi, b_star=b_star)


def lyapunov_values(w_tilde: np.ndarray, u_hat: np.ndarray, s: float,
                    m: float, s_r: float, tc: TransformConstants, phys,
                    c: float, lyap: LyapunovConfig):
    """(V1, V, W) at one instant, from the transformed observer error w_tilde
    (see `transform_error_inverse`), the observer profile u_hat and m."""
    X = s - s_r
    w_hat = transform_controller_direct(u_hat, X, s, tc, phys.alpha,
                                        phys.beta, c)
    h = 1.0 / (w_tilde.size - 1)
    w_tilde_x = np.gradient(w_tilde, h) / s
    V1 = 0.5 * trapezoid(w_hat * w_hat, s) \
        + tc.epsilon * phys.alpha / (2.0 * phys.beta) * X * X \
        + 0.5 * trapezoid(w_tilde * w_tilde, s) \
        + 0.5 * lyap.B * trapezoid(w_tilde_x * w_tilde_x, s)
    V = lyap.A * V1 + m
    W = V * math.exp(-lyap.xi * s)
    return V1, V, W


# Grid points of the psi bound check over [0, L].
PSI_CHECK_N = 1000


def psi_bound_holds(tc: TransformConstants, L: float, R: float) -> bool:
    """Check |psi(-x)| < R on a grid over [0, L], the inverse-kernel bound
    the convergence analysis relies on."""
    x = np.linspace(0.0, L, PSI_CHECK_N)
    return bool(np.all(np.abs(psi_kernel(-x, tc)) < R))
