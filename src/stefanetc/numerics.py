"""Special functions and low-level numerical kernels.

Everything here is stateless and accepts scalars or numpy arrays.  The grid
convention throughout the package: profiles live on a uniform grid of the
immobilized coordinate xi in [0, 1] with n nodes and spacing h = 1/(n-1); a
physical integral over [0, s] is s times the unit-interval integral.
"""

from __future__ import annotations

import functools
import math

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
    return 0.5 + sign * w / 16.0 + w * w / 384.0 + sign * w * w * w / 18432.0


def ratio_J1_sqrt(w):
    """J1(sqrt(w))/sqrt(w), continuous at w = 0 with value 1/2."""
    # The domain check reads the least w, skipping NaNs as the comparison
    # w < 0 does, before the one sqrt, so a negative entry raises instead of
    # warning.  Then the Bessel quotient of z = sqrt(w) on the whole array
    # (skipping z = 0, so no 0/0 is formed), and the power series over the
    # few entries where w < _RATIO_SERIES_CUT, which include every z = 0.
    # Both are elementwise, so every entry has the bits of its own branch.
    w = np.asarray(w, dtype=float)
    if np.fmin.reduce(w, axis=None, initial=0.0) < 0.0:
        raise ValueError("ratio_J1_sqrt requires w >= 0")
    z = np.sqrt(w)
    out = special.j1(z, out=np.empty(w.shape))
    np.divide(out, z, out=out, where=z != 0.0)
    small = (w < _RATIO_SERIES_CUT).reshape(-1).nonzero()[0]
    if small.size:
        out.reshape(-1)[small] = _ratio_series(w.reshape(-1)[small], -1.0)
    return float(out) if out.ndim == 0 else out


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
    # np.trapezoid(values, dx=h, axis=-1)'s own expression, without its
    # argument handling.
    out = length * (h * (values[..., 1:] + values[..., :-1]) / 2.0).sum(-1)
    return float(out) if out.ndim == 0 else out


def simpson(values, length: float) -> float:
    """Composite Simpson rule over the unit grid (O(h^4) for smooth data)."""
    from scipy.integrate import simpson as _simpson

    values = np.asarray(values, dtype=float)
    h = 1.0 / (values.size - 1)
    return float(length * _simpson(values, dx=h))


def diffusion_factor(n: int, r: float):
    """Thomas factorization of the implicit diffusion matrix of the plant step.

    The matrix acts on the n - 1 unknowns u_0..u_{n-2}: -r below the
    diagonal, 1 + 2r on it, -r above it except the first entry, -2r, where
    the ghost node of the flux condition folds in.  The last unknown couples
    to the pinned u_{n-1} = 0, which adds nothing.  Returns (lower, ratios,
    pivots) as tuples of floats for `solve_tridiagonal`: the general Thomas
    recurrence on these constant bands, in the same operations and order.

    The guard r > 0 with 1 + 2r finite stands for the dominance and
    zero-pivot checks of a general factorization: for such r each diagonal
    entry exceeds its row's off-diagonal sum by at least 1, and every pivot
    is above 1 + r, so none can vanish.
    """
    if n < 3:
        raise ValueError("the diffusion matrix needs n >= 3 nodes")
    r = float(r)
    diag = 1.0 + 2.0 * r
    if not (r > 0.0 and diag < math.inf):
        raise NumericalFailure(f"diffusion number r={r!r} outside (0, inf)")
    lower = -r
    pivot = diag
    ratio = -2.0 * r / pivot
    ratios, pivots = [ratio], [pivot]
    for _ in range(n - 3):
        pivot = diag - lower * ratio
        ratio = lower / pivot
        pivots.append(pivot)
        ratios.append(ratio)
    pivots.append(diag - lower * ratio)
    return (lower,) * (n - 2), tuple(ratios), tuple(pivots)


def solve_tridiagonal(factor, rhs, out):
    """Forward and back substitution through a (lower, ratios, pivots)
    factorization such as `diffusion_factor`'s.

    Writes the solution into out[:len(rhs)] and returns `out`; entries past
    it are left as they are, so a profile can hold its pinned end value.
    """
    lower, ratios, pivots = factor
    x = np.asarray(rhs, dtype=float).tolist()
    n = len(pivots)
    if len(x) != n:
        raise ValueError("inconsistent tridiagonal band lengths")
    xi = x[0] = x[0] / pivots[0]
    for i in range(1, n):
        xi = x[i] = (x[i] - lower[i - 1] * xi) / pivots[i]
    for i in range(n - 2, -1, -1):
        xi = x[i] = x[i] - ratios[i] * xi
    out[:n] = x
    return out
