"""Special functions and low-level numerical kernels.

Everything here is stateless and accepts scalars or numpy arrays.  The grid
convention throughout the package: profiles live on a uniform grid of the
immobilized coordinate xi in [0, 1] with n nodes and spacing h = 1/(n-1); a
physical integral over [0, s] is s times the unit-interval integral.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import NumericalFailure

# Largest Bessel argument accepted before exp(z) overflows double precision.
BESSEL_Z_MAX = 700.0

# Below this argument the ratio functions use their power series to avoid the
# 0/0 form at the removable singularity.
_RATIO_SERIES_CUT = 1e-3


def _ratio_series(w, sign):
    # I1(sqrt(w))/sqrt(w) = (1/2) sum_k (w/4)^k / (k! (k+1)!); J1 alternates.
    return 0.5 + sign * w / 16.0 + w * w / 384.0


def ratio_I1_sqrt(w):
    """I1(sqrt(w))/sqrt(w), continuous at w = 0 with value 1/2."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("ratio_I1_sqrt requires w >= 0")
    z = np.sqrt(w)
    if np.any(z > BESSEL_Z_MAX):
        raise ValueError(f"Bessel argument outside [0, {BESSEL_Z_MAX:g}]")
    small = w < _RATIO_SERIES_CUT
    safe_z = np.where(small, 1.0, z)
    out = np.where(small, _ratio_series(w, +1.0), special.i1(safe_z) / safe_z)
    return float(out) if out.ndim == 0 else out


def ratio_J1_sqrt(w):
    """J1(sqrt(w))/sqrt(w), continuous at w = 0 with value 1/2."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("ratio_J1_sqrt requires w >= 0")
    z = np.sqrt(w)
    small = w < _RATIO_SERIES_CUT
    safe_z = np.where(small, 1.0, z)
    out = np.where(small, _ratio_series(w, -1.0), special.j1(safe_z) / safe_z)
    return float(out) if out.ndim == 0 else out


def trapezoid(values, length: float) -> float:
    """Composite trapezoid rule over the unit grid, scaled to physical length.

    Realizes the physical integral over [0, length] of a field sampled on the
    immobilized unit grid: integral = length * int_0^1 f(xi) dxi.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("trapezoid needs at least 2 samples")
    h = 1.0 / (values.size - 1)
    return float(length * np.trapezoid(values, dx=h))


def simpson(values, length: float) -> float:
    """Composite Simpson rule over the unit grid (O(h^4) for smooth data)."""
    from scipy.integrate import simpson as _simpson

    values = np.asarray(values, dtype=float)
    h = 1.0 / (values.size - 1)
    return float(length * _simpson(values, dx=h))


def solve_tridiagonal(lower, diag, upper, rhs):
    """Thomas-algorithm solve of a tridiagonal system.

    lower: subdiagonal, length n-1 (first row has no lower entry)
    diag:  main diagonal, length n
    upper: superdiagonal, length n-1
    """
    a = np.asarray(lower, dtype=float)
    b = np.asarray(diag, dtype=float)
    c = np.asarray(upper, dtype=float)
    d = np.asarray(rhs, dtype=float)
    n = b.size
    if a.size != n - 1 or c.size != n - 1 or d.size != n:
        raise ValueError("inconsistent tridiagonal band lengths")
    off = np.zeros(n)
    off[1:] += np.abs(a)
    off[:-1] += np.abs(c)
    if np.any(np.abs(b) < off * (1.0 - 1e-12)):
        raise ValueError("tridiagonal system is not diagonally dominant")

    cp = np.empty(n - 1)
    dp = np.empty(n)
    beta = b[0]
    if beta == 0.0:
        raise NumericalFailure("zero pivot in tridiagonal solve (row 0)")
    dp[0] = d[0] / beta
    for i in range(1, n):
        cp[i - 1] = c[i - 1] / beta
        beta = b[i] - a[i - 1] * cp[i - 1]
        if beta == 0.0:
            raise NumericalFailure(f"zero pivot in tridiagonal solve (row {i})")
        dp[i] = (d[i] - a[i - 1] * dp[i - 1]) / beta

    x = dp
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x
