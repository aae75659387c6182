"""Test oracles for the backstepping transforms: the direct error transform,
the inverse controller transform and its psi kernel bound.

Only the tests call these.  They are the other halves of the transform pairs
whose monitor halves live in `stefanetc.diagnostics`, written on the full
n x n Volterra matrix rather than the packed upper triangle the package uses,
so a round trip also checks the packing.
"""

import numpy as np

from stefanetc.numerics import unit_grid

from observer_reference import ratio_I1_sqrt


def volterra_weights(n: int, s: float) -> np.ndarray:
    """Trapezoid weights for int_{x_i}^{s} . dy on the xi-grid, row per x_i:
    h/2 at both ends of [x_i, s], h inside; the last row (x_i = s) is empty."""
    w = np.triu(np.ones((n, n)))
    np.fill_diagonal(w, 0.5)
    w[:, -1] = 0.5
    w[-1, :] = 0.0
    return w * (s / (n - 1))


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


# Grid points of the psi bound check over [0, L].
PSI_CHECK_N = 1000


def psi_bound_holds(tc, L, R):
    """Check |psi(-x)| < R on a grid over [0, L], the inverse-kernel bound
    the convergence analysis relies on."""
    x = np.linspace(0.0, L, PSI_CHECK_N)
    return bool(np.all(np.abs(psi_kernel(-x, tc)) < R))
