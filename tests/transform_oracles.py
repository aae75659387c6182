"""Test oracles for the backstepping transforms: the direct error transform,
the inverse controller transform, its psi kernel constants and bound, the
forcing kernel by scipy's cumulative trapezoid, and the monitor transforms
of one profile.

Only the tests call these.  They are the other halves of the transform pairs
whose monitor halves live in `stefanetc.diagnostics`, written on the full
n x n Volterra matrix cut by np.triu rather than the distinct-value kernel
and structured sums the package uses, so a round trip also checks those.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid

from stefanetc import diagnostics
from stefanetc.numerics import unit_grid

from observer_reference import observer_gain, ratio_I1_sqrt


def volterra_weights(n: int, s: float) -> np.ndarray:
    """Trapezoid weights for int_{x_i}^{s} . dy on the xi-grid, row per x_i:
    h/2 at both ends of [x_i, s], h inside; the last row (x_i = s) is empty."""
    w = np.triu(np.ones((n, n)))
    np.fill_diagonal(w, 0.5)
    w[:, -1] = 0.5
    w[-1, :] = 0.0
    return w * (s / (n - 1))


def error_inverse(u_tilde, s, lam, alpha):
    """`diagnostics.transform_error_inverse` of one profile: a one-row stack."""
    return diagnostics.transform_error_inverse(u_tilde[None], np.array([s]),
                                               lam, alpha)[0]


def controller_direct(u_hat, X, s, epsilon, alpha, beta, c):
    """`diagnostics.transform_controller_direct` of one profile: a one-row
    stack."""
    return diagnostics.transform_controller_direct(
        u_hat[None], np.array([X]), np.array([s]), epsilon, alpha, beta, c)[0]


class KernelConstants(NamedTuple):
    """Constants of psi(x) = e^{nu x}(zeta sin(omega x) + epsilon cos(omega x))."""
    epsilon: float
    nu: float
    omega: float
    zeta: float


def kernel_constants(alpha, beta, c, epsilon):
    """The psi constants for epsilon in (0, 2 sqrt(alpha c)/beta), where omega
    is real: the reference for `params.TriggerDerived.zeta`."""
    nu = beta * epsilon / (2.0 * alpha)
    omega = math.sqrt((4.0 * alpha * c - (epsilon * beta) ** 2) / (4.0 * alpha * alpha))
    zeta = -(2.0 * alpha * c - (epsilon * beta) ** 2) / (2.0 * alpha * beta * omega)
    return KernelConstants(epsilon=epsilon, nu=nu, omega=omega, zeta=zeta)


def psi_kernel(x, tc):
    """Inverse controller-transform kernel psi(x) = e^{nu x}(zeta sin wx + eps cos wx)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(tc.nu * x) * (tc.zeta * np.sin(tc.omega * x)
                               + tc.epsilon * np.cos(tc.omega * x))
    return float(out) if out.ndim == 0 else out


def transform_error_direct(w_tilde, s, lam, alpha):
    """u_tilde(x) = w_tilde(x) + int_x^s P(x,y) w_tilde(y) dy on the xi-grid."""
    n = w_tilde.size
    y = unit_grid(n) * s
    diff = np.maximum(y[None, :] ** 2 - y[:, None] ** 2, 0.0)
    K = (lam / alpha) * y[None, :] * ratio_I1_sqrt(lam * diff / alpha)
    K = np.triu(K)
    return w_tilde + (K * volterra_weights(n, s)) @ w_tilde


def transform_controller_inverse(w_hat, X, s, tc, alpha, beta):
    """u_hat = w_hat - (beta/alpha) int_x^s psi(x-y) w_hat dy - psi(x-s) X."""
    n = w_hat.size
    x = unit_grid(n) * s
    K = psi_kernel(x[:, None] - x[None, :], tc)
    K = np.triu(K)
    integral = (K * volterra_weights(n, s)) @ w_hat
    return w_hat - (beta / alpha) * integral - psi_kernel(x - s, tc) * X


def right_integral(v, x):
    """int_x^s v dy on an ascending grid x over [0, s]: scipy's cumulative
    trapezoid from 0, taken from its total, so its rounding is relative to
    the whole integral."""
    cum = cumulative_trapezoid(v, x, initial=0.0)
    return cum[-1] - cum


def forcing_kernel(x, s, lam, alpha, beta, c, epsilon):
    """f(x,s) = p - (beta/alpha) int_x^s phi(x-y) p dy + beta phi(x-s) on an
    ascending grid x over [0, s]; phi is affine, so the integral splits into
    those of p and y p."""
    p = observer_gain(x, s, lam, alpha)
    inner = ((c / beta) * x - epsilon) * right_integral(p, x) \
        - (c / beta) * right_integral(x * p, x)
    return p - (beta / alpha) * inner \
        + beta * diagnostics.phi_kernel(x - s, c, beta, epsilon)


# Grid points of the psi bound check over [0, L].
PSI_CHECK_N = 1000


def psi_bound_holds(tc, L, R):
    """Check |psi(-x)| < R on a grid over [0, L], the inverse-kernel bound
    the convergence analysis relies on."""
    x = np.linspace(0.0, L, PSI_CHECK_N)
    return bool(np.all(np.abs(psi_kernel(-x, tc)) < R))
