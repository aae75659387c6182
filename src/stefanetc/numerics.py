"""Special functions and low-level numerical kernels.

Everything here is stateless and accepts scalars or numpy arrays; the Thomas
path below is fixed at import.  The grid convention throughout the package:
profiles live on a uniform grid of the immobilized coordinate xi in [0, 1]
with n nodes and spacing h = 1/(n-1); a physical integral over [0, s] is s
times the unit-interval integral.

The Thomas factorization and substitution of the plant's diffusion matrix,
and the per-node arithmetic of a closed-loop step (the right-hand side of
`plant.advance_profile`, the observer gain with the influence right-hand
side, and the Sherman-Morrison update of `observer.step_observer` with the
trapezoid of its square), run as a compiled kernel, `_thomas.c`.  Its
results have the bits of the Python loops below (`_factor_loops`,
`_solve_loops`) and of the numpy code in `plant` and `observer`: the same
IEEE operations in the same order, built with -O2 -ffp-contract=off
-fno-fast-math and no -march.  -ffp-contract=off matters: a fused
multiply-add rounds a - b * c once instead of twice, and such last-bit
changes per solve move the closed loop's m past the benchmark's 1e-9 gate.
The gain's Bessel function is scipy's own i1, which the kernel calls
through the C function scipy.special.cython_special exports.  The first
import builds the kernel in a child process, about 0.8 s, into
$XDG_CACHE_HOME/stefanetc (or ~/.cache/stefanetc).  Every import then
loads it (`load_kernel`, which the package's __init__ calls once `plant`
and `observer` are defined) and uses it only if it reproduces those bits
on fixed cases (`check_kernel`).  The kernel also formats the rows of
series.csv for `harness.emit_outputs`, and the check holds that formatter
to repr's bytes.  Where cffi, a C compiler or scipy's exported i1 is
missing, the build fails, or the check does, the loops, the numpy code
and repr run instead, with the same results.  `THOMAS_KERNEL` says which
path runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

from . import _thomas
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
    """J1(sqrt(w))/sqrt(w) of an array w, continuous at w = 0 with value
    1/2."""
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
    return out


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
    """Composite Simpson rule over the unit grid (O(h^4) for smooth data),
    on a 1-D array of an odd number of at least 3 samples."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise ValueError("simpson needs a 1-D array of an odd number of "
                         f"at least 3 samples, not shape {y.shape}")
    # scipy.integrate.simpson(y, dx=h)'s evenly spaced rule for odd N, in
    # its order of operations.
    total = np.sum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    total *= (1.0 / (y.size - 1)) / 3.0
    return float(length * total)


def diffusion_factor(n: int, r: float):
    """Thomas factorization of the implicit diffusion matrix of the plant step.

    The matrix acts on the n - 1 unknowns u_0..u_{n-2}: -r below the
    diagonal, 1 + 2r on it, -r above it except the first entry, -2r, where
    the ghost node of the flux condition folds in.  The last unknown couples
    to the pinned u_{n-1} = 0, which adds nothing.  Returns (lower, ratios,
    pivots) for `solve_tridiagonal`: the one band value -r, then the n - 2
    Thomas ratios and n - 1 pivots as float64 arrays, in the general
    recurrence's order.

    The guard r > 0 with 1 + 2r finite stands for the dominance and
    zero-pivot checks of a general factorization: for such r each diagonal
    entry exceeds its row's off-diagonal sum by at least 1, and every pivot
    is above 1 + r, so none can vanish.
    """
    if n < 3:
        raise ValueError("the diffusion matrix needs n >= 3 nodes")
    r = float(r)
    if not (r > 0.0 and 1.0 + 2.0 * r < math.inf):
        raise NumericalFailure(f"diffusion number r={r!r} outside (0, inf)")
    if _kernel is None:
        return _factor_loops(n, r)
    return _factor_compiled(_kernel, n, r)


def solve_tridiagonal(factor, rhs):
    """Forward and back substitution through the (lower, ratios, pivots)
    that `diffusion_factor` returns; returns the len(rhs) + 1 node profile,
    the solution and then the pinned interface value +0.0."""
    lower, ratios, pivots = factor
    x = np.ascontiguousarray(rhs, dtype=float)
    if x.shape != pivots.shape or ratios.shape != (x.size - 1,):
        raise ValueError("inconsistent tridiagonal band lengths")
    if _kernel is None:
        return _solve_loops(lower, ratios, pivots, x)
    return _solve_compiled(_kernel, lower, ratios, pivots, x)


# The Thomas loops in Python floats: the reference every compiled result is
# held to, and the path taken where the kernel is not available.

def _factor_loops(n, r):
    lower = -r
    diag = 1.0 + 2.0 * r
    pivot = diag
    ratio = -2.0 * r / pivot
    ratios, pivots = [ratio], [pivot]
    for _ in range(n - 3):
        pivot = diag - lower * ratio
        ratio = lower / pivot
        pivots.append(pivot)
        ratios.append(ratio)
    pivots.append(diag - lower * ratio)
    return lower, np.array(ratios), np.array(pivots)


def _solve_loops(lower, ratios, pivots, rhs):
    ratios, pivots, x = ratios.tolist(), pivots.tolist(), rhs.tolist()
    n = len(pivots)
    xi = x[0] = x[0] / pivots[0]
    for i in range(1, n):
        xi = x[i] = (x[i] - lower * xi) / pivots[i]
    for i in range(n - 2, -1, -1):
        xi = x[i] = x[i] - ratios[i] * xi
    x.append(0.0)
    return np.array(x)


# The same loops in C (`_thomas.c`), on the callers' checked sizes.

def _factor_compiled(kernel, n, r):
    ratios, pivots = np.empty(n - 2), np.empty(n - 1)
    buf = kernel.ffi.from_buffer
    kernel.lib.diffusion_factor(n - 1, r, buf("double[]", ratios),
                                buf("double[]", pivots))
    return -r, ratios, pivots


def _solve_compiled(kernel, lower, ratios, pivots, rhs):
    out = np.empty(rhs.size + 1)
    buf = kernel.ffi.from_buffer
    kernel.lib.solve_tridiagonal(rhs.size, lower, buf("double[]", ratios),
                                 buf("double[]", pivots), buf("double[]", rhs),
                                 buf("double[]", out))
    return out


def _reproduces_loops(kernel) -> bool:
    """Whether `kernel` gives the bits of the Python loops on fixed cases:
    n from 3 to 400, diffusion numbers over six decades, and right-hand
    sides of generic floats, for n > 20 also with signed zeros and
    subnormals, and with infinities and a NaN.  No random generator: a
    check at every import should not touch code the run never uses."""
    specials = ([0.0, -0.0, 5e-324, -2.5e-310], [math.inf, -math.inf, math.nan])
    for n in (3, 4, 5, 21, 41, 161, 400):
        for r in (1.3e-3, 0.37, 7.1, 913.0):
            want = _factor_loops(n, r)
            got = _factor_compiled(kernel, n, r)
            if any(a.tobytes() != b.tobytes()
                   for a, b in zip(want[1:], got[1:])):
                return False
            rhs = np.sin(r + np.arange(3.0 * (n - 1))).reshape(3, n - 1)
            if n > 20:
                for row, special in zip(rhs[1:], specials):
                    row[3::n // 4][:len(special)] = special
            for row in rhs:
                if (_solve_loops(*want, row).tobytes()
                        != _solve_compiled(kernel, *got, row).tobytes()):
                    return False
    return True


def _reproduces_step(kernel) -> bool:
    """Whether `kernel` gives the bits of the numpy step on fixed cases: the
    plant's right-hand side at n from 3 to 400 with sdot of both signs and
    both zeros, the observer's at gains all below, across and above the
    series cut and beyond the Bessel range, and the Sherman-Morrison update
    on generic, singular and non-finite profiles; profiles with signed
    zeros; the same exception where the numpy code raises."""
    from . import observer, plant

    if (kernel.lib.BESSEL_Z_MAX, kernel.lib.RATIO_SERIES_CUT) \
            != (BESSEL_Z_MAX, _RATIO_SERIES_CUT):
        return False

    def outcome(f, *args):
        try:
            out = f(*args)
        except (ValueError, NumericalFailure) as exc:
            return type(exc), str(exc)
        return [np.asarray(part).tobytes() for part in out]

    def observer_rhs(u, sdot, factor, lam):
        p = observer.observer_gain(unit_grid(u.size) * s, s, lam, alpha)
        return (plant.advance_rhs(u, s, sdot, q, dt, k, -factor[0],
                                  p * slope), observer.influence_rhs(p, dt))

    s, q, dt, k, alpha, slope = 0.35, 2.9, 0.37, 2.2e-3, 1.3e-3, -41.0
    for n in (3, 4, 21, 161, 400):
        u = np.sin(0.3 + np.arange(n))
        u[1::7], u[-1] = -0.0, 0.0
        factor = _factor_loops(n, 0.9)
        # Each sdot with a gain whose w = lam (s^2 - x^2) / alpha starts at
        # w0.
        for sdot, w0 in zip((2.7e-4, -3.1e-4, 0.0, -0.0),
                            (5e-4, 3e-3, 40.0, 6e5)):
            if (outcome(lambda: [plant.advance_rhs(u, s, sdot, q, dt, k,
                                                   -factor[0])])
                    != outcome(lambda: [plant._advance_rhs_compiled(
                        kernel, u, s, sdot, q, dt, k, factor)])):
                return False
            lam = w0 * alpha / (s * s)
            if (outcome(observer_rhs, u, sdot, factor, lam)
                    != outcome(observer._observer_rhs_compiled, kernel, u, s,
                               sdot, q, dt, k, factor, lam, alpha, slope)):
                return False
        h = 1.0 / (n - 1)
        u_star = np.cos(0.2 + np.arange(n))
        z = 0.01 * np.sin(1.1 + 0.5 * np.arange(n))
        u_star[-1] = z[-1] = 0.0
        singular, infinite = z.copy(), u_star.copy()
        singular[-2] = h * s / dt
        infinite[0] = math.inf
        for a, b in ((u_star, z), (u_star, singular), (infinite, z)):
            if (outcome(observer.sherman_morrison, a, b, s, dt)
                    != outcome(observer._sherman_morrison_compiled, kernel,
                               a, b, s, dt)):
                return False
    return True


def _reproduces_repr(kernel) -> bool:
    """Whether `kernel`'s formatter writes the bytes of `harness`'s repr
    writer on fixed cases: every power of two, the neighbours of every 16th,
    the first 300 subnormals, the powers of ten, both sides of the switches
    to exponent notation at 1e-4 and 1e16 with both signs, and +-0, +-inf
    and NaNs of both signs; rows of 1 to 632 values.  Not every neighbour
    of every power of two: repr takes about 1 us for each 17-digit one."""
    from . import harness

    p = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.array([1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0])
    edges = np.concatenate((edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, math.inf)))
    cases = (
        p.reshape(-1, 2),
        np.column_stack((np.nextafter(p[::16], 0.0),
                         np.nextafter(p[::16], math.inf))),
        np.arange(1.0, 301.0).reshape(-1, 5) * 5e-324,
        np.array([[float(f"1e{k}") for k in range(-323, 309)]]),
        np.concatenate((edges, -edges)).reshape(-1, 1),
        np.array([[0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]]))
    buf = bytearray()
    return all(bytes(harness._format_rows_compiled(kernel, rows, buf))
               == harness._format_rows(rows) for rows in cases)


# Which path the Thomas functions and the step's per-node arithmetic take:
# "compiled" when the kernel built, loaded, found scipy's i1 and passed the
# check, else "python: " and the reason.  The package's __init__ calls
# `load_kernel` once the plant and observer code the check compares against
# is defined.
_kernel, THOMAS_KERNEL = None, "python: the kernel is not loaded yet"


def check_kernel(kernel) -> bool:
    """The load-time check: whether `kernel` reproduces the Thomas loops and
    the numpy step bit for bit, and repr byte for byte."""
    return (_reproduces_loops(kernel) and _reproduces_step(kernel)
            and _reproduces_repr(kernel))


def load_kernel() -> None:
    global _kernel, THOMAS_KERNEL
    _kernel, THOMAS_KERNEL = _thomas.load(check_kernel)
