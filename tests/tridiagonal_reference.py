"""Reference Thomas algorithm for general tridiagonal bands.

Only the tests call these.  The package factors one matrix, the plant's
implicit diffusion matrix, by the closed-form recurrence of the `factor`
piece in `stefanetc.numerics`; this is the general factorization it
replaced, kept to check it on the same bands, with its band-length,
dominance and zero-pivot checks.
"""

import numpy as np

from stefanetc.errors import NumericalFailure


def thomas_factor(lower, diag, upper):
    """Thomas-algorithm factorization of a tridiagonal matrix.

    lower: subdiagonal, length n-1 (first row has no lower entry)
    diag:  main diagonal, length n
    upper: superdiagonal, length n-1

    Returns (lower, ratios, pivots) as tuples of floats.
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


def thomas_solve(factor, rhs):
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


def diffusion_bands(n: int, r: float):
    """(lower, diag, upper) of the plant's implicit diffusion matrix on the
    n - 1 unknowns: the ghost node doubles the first upper entry."""
    return ([-r] * (n - 2), [1.0 + 2.0 * r] * (n - 1),
            [-2.0 * r] + [-r] * (n - 3))
