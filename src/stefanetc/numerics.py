"""Special functions and low-level numerical kernels.

Everything here is stateless and accepts scalars or numpy arrays.  The grid
convention throughout the package: profiles live on a uniform grid of the
immobilized coordinate xi in [0, 1] with n nodes and spacing h = 1/(n-1); a
physical integral over [0, s] is s times the unit-interval integral.
"""

from __future__ import annotations

import functools

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


def _ratio_sqrt(w, sign, bessel):
    # Power series where w < _RATIO_SERIES_CUT, Bessel quotient elsewhere;
    # each branch is evaluated only on its own entries.
    small = w < _RATIO_SERIES_CUT
    large = ~small
    out = np.empty(w.shape)
    out[small] = _ratio_series(w[small], sign)
    z = np.sqrt(w[large])
    out[large] = bessel(z) / z
    return float(out) if out.ndim == 0 else out


def ratio_I1_sqrt(w):
    """I1(sqrt(w))/sqrt(w), continuous at w = 0 with value 1/2."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("ratio_I1_sqrt requires w >= 0")
    if np.any(np.sqrt(w) > BESSEL_Z_MAX):
        raise ValueError(f"Bessel argument outside [0, {BESSEL_Z_MAX:g}]")
    return _ratio_sqrt(w, +1.0, special.i1)


def ratio_J1_sqrt(w):
    """J1(sqrt(w))/sqrt(w), continuous at w = 0 with value 1/2."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("ratio_J1_sqrt requires w >= 0")
    return _ratio_sqrt(w, -1.0, special.j1)


@functools.lru_cache(maxsize=8)
def unit_grid(n: int) -> np.ndarray:
    """The xi-grid linspace(0, 1, n); read-only, since the cache shares it."""
    xi = np.linspace(0.0, 1.0, n)
    xi.flags.writeable = False
    return xi


def trapezoid(values, length):
    """Composite trapezoid rule over the unit grid, scaled to physical length.

    Realizes the physical integral over [0, length] of a field sampled on the
    immobilized unit grid: integral = length * int_0^1 f(xi) dxi.  A (K, n)
    stack of fields with a length-K `length` gives the K integrals, each
    bitwise equal to its own 1-D call.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] < 2:
        raise ValueError("trapezoid needs at least 2 samples")
    h = 1.0 / (values.shape[-1] - 1)
    out = length * np.trapezoid(values, dx=h, axis=-1)
    return float(out) if out.ndim == 0 else out


def simpson(values, length: float) -> float:
    """Composite Simpson rule over the unit grid (O(h^4) for smooth data)."""
    from scipy.integrate import simpson as _simpson

    values = np.asarray(values, dtype=float)
    h = 1.0 / (values.size - 1)
    return float(length * _simpson(values, dx=h))


def thomas_factor(lower, diag, upper):
    """Thomas-algorithm factorization of a tridiagonal matrix.

    lower: subdiagonal, length n-1 (first row has no lower entry)
    diag:  main diagonal, length n
    upper: superdiagonal, length n-1

    Returns (lower, ratios, pivots) as tuples of floats for
    `solve_tridiagonal`, so one factorization serves any number of
    right-hand sides.
    """
    a = np.asarray(lower, dtype=float)
    b = np.asarray(diag, dtype=float)
    c = np.asarray(upper, dtype=float)
    n = b.size
    if a.size != n - 1 or c.size != n - 1:
        raise ValueError("inconsistent tridiagonal band lengths")
    off = np.zeros(n)
    off[1:] += np.abs(a)
    off[:-1] += np.abs(c)
    if np.any(np.abs(b) < off * (1.0 - 1e-12)):
        raise ValueError("tridiagonal system is not diagonally dominant")

    a, b, c = a.tolist(), b.tolist(), c.tolist()
    ratios, pivots = [], [b[0]]
    for i in range(n):
        if pivots[i] == 0.0:
            raise NumericalFailure(f"zero pivot in tridiagonal solve (row {i})")
        if i < n - 1:
            ratios.append(c[i] / pivots[i])
            pivots.append(b[i + 1] - a[i] * ratios[i])
    return tuple(a), tuple(ratios), tuple(pivots)


def solve_tridiagonal(factor, rhs):
    """Forward and back substitution through a `thomas_factor` result."""
    lower, ratios, pivots = factor
    d = np.asarray(rhs, dtype=float).tolist()
    n = len(pivots)
    if len(d) != n:
        raise ValueError("inconsistent tridiagonal band lengths")
    x = [d[0] / pivots[0]]
    for i in range(1, n):
        x.append((d[i] - lower[i - 1] * x[i - 1]) / pivots[i])
    for i in range(n - 2, -1, -1):
        x[i] -= ratios[i] * x[i + 1]
    return np.array(x)
