"""Special functions, quadrature, and both sets of the step's kernel.

The helpers here (`ratio_J1_sqrt`, `unit_grid`, `trapezoid`, `simpson`)
accept scalars or numpy arrays.  The grid convention throughout the
package: profiles live on a uniform grid of the immobilized coordinate xi
in [0, 1] with n nodes and spacing h = 1/(n-1); a physical integral over
[0, s] is s times the unit-interval integral.

The per-node arithmetic of a closed-loop step, the formatting of
series.csv, the series path of the inverse error transform and the
monitor rows' Lyapunov values are eight pieces with one signature each:
`factor(n, r)`, `solve(lower, ratios, pivots, rhs)`,
`advance_rhs(u, s, sdot, q, dt, k, r)`,
`observer_rhs(u_hat, s, sdot, q, dt, k, r, lam, alpha, slope)`,
`observer_update(u_star, z, s, dt)`, `format_rows(rows, buf)`,
`series_integral(u_tilde, s, lam, alpha)` and
`lyapunov_rows(u, u_hat, w_tilde, s, m, s_r, epsilon, alpha, beta, c, A,
B, xi)`.  `REFERENCE` is the set of them in Python and numpy, defined
below with the observer gain, the interface slope, the series constants
and the controller transform they use; `_thomas.Kernel` is the compiled
set.  `_kernel` holds one of the two, chosen once at the end of
this module's import.  The reference pieces return fresh arrays.  The
compiled step reuses its outputs: the factor's bands, the right-hand
sides of `advance_rhs` and `observer_rhs` and `solve`'s u* and z of the
observer's two right-hand sides live in one workspace per profile length
and hold until the next call that writes them; only the profiles a
caller keeps, `solve`'s of the plant's right-hand side and
`observer_update`'s, are fresh.  The compiled pieces do the same IEEE
operations in the same order, built with -O2 -ffp-contract=off
-fno-fast-math and no -march, so each result has the reference's bits
(-ffp-contract=off matters: a fused multiply-add rounds a - b * c once
instead of twice, and such last-bit changes per solve move the closed
loop's m past the benchmark's 1e-9 gate), and the formatter writes repr's
bytes.  The compiled series path runs two rows at a time in the lanes of
a vector, each lane doing its own row's operations.  The first import
builds the kernel in a child process, about 0.8 s, into
$XDG_CACHE_HOME/stefanetc (or ~/.cache/stefanetc); every import loads it
and uses it only if it passes `check_kernel`.  `THOMAS_KERNEL` says which
set runs.
"""
from __future__ import annotations

import functools
import math
import types

import numpy as np
from scipy import special

from . import _thomas
from ._thomas import (BESSEL_DOMAIN, NON_FINITE, NON_FINITE_ROWS, SINGULAR,
                      profile)
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


def solve_tridiagonal(factor, rhs):
    """Forward and back substitution through the (lower, ratios, pivots)
    that the `factor` piece returns; returns the len(rhs) + 1 node profile,
    the solution and then the pinned interface value +0.0."""
    return _kernel.solve(*factor, rhs)


# The reference set: the Thomas loops in Python floats, and the step's
# right-hand sides, update and series formatter in numpy.

def _factor_loops(n, r):
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
    r = _thomas.factor_args(n, r)
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
    ratios, pivots, x = (a.tolist() for a in _thomas.bands(ratios, pivots,
                                                            rhs))
    n = len(pivots)
    xi = x[0] = x[0] / pivots[0]
    for i in range(1, n):
        xi = x[i] = (x[i] - lower * xi) / pivots[i]
    for i in range(n - 2, -1, -1):
        xi = x[i] = x[i] - ratios[i] * xi
    x.append(0.0)
    return np.array(x)


def advance_rhs(u, s, sdot, q, dt, k, r):
    """The right-hand side of `plant.advance_profile` at diffusion number r."""
    return forced_rhs(u, s, sdot, q, dt, k, r, None)


def forced_rhs(u, s, sdot, q, dt, k, r, source):
    """`advance_rhs` under `source`, an explicit volumetric term evaluated
    at the old level, or None."""
    u = profile(u)
    n = u.size
    h = 1.0 / (n - 1)

    # Upwinded advection on the interior nodes: a = xi sdot/s has the sign of
    # sdot there, so sdot >= 0 takes the forward difference; it vanishes at
    # both ends.
    a = unit_grid(n)[1:-1] * (sdot / s)
    inner = u[1:-1]
    adv = np.zeros(n - 1)
    if sdot >= 0.0:
        adv[1:] = a * ((u[2:] - inner) / h)
    else:
        adv[1:] = a * ((inner - u[:-2]) / h)

    rhs = u[:-1] + dt * adv
    if source is not None:
        rhs += dt * source[:-1]
    # Ghost node for the flux condition folds into the first row.
    g = -s * q / k
    rhs[0] -= 2.0 * r * h * g
    return rhs


def observer_gain(x, s: float, lam: float, alpha: float):
    """Output-injection gain p(x, s) = -lam s I1(z)/z, z = sqrt(lam (s^2-x^2)/alpha).

    Continuous at x = s with value -lam s / 2.  x is an ascending array on
    [0, s], as the grids xi s are.
    The argument w = lam (s^2 - x^2)/alpha then never increases along x:
    its first entry is the largest, so the domain check reads that one, and
    the entries below the series cut (at least the node x = s, where w = 0)
    form a tail.  The head takes the Bessel quotient, the tail the power
    series in Python floats; every entry has the bits of its own branch.
    """
    w = lam * (s * s - x * x) / alpha
    if w.size and math.sqrt(max(w.item(0), 0.0)) > BESSEL_Z_MAX:
        raise ValueError(BESSEL_DOMAIN.format(BESSEL_Z_MAX))
    out = np.empty(w.size)
    head = w.size
    while head and (v := w.item(head - 1)) < _RATIO_SERIES_CUT:
        head -= 1
        out[head] = _ratio_series(max(v, 0.0), 1.0)
    z = np.sqrt(w[:head])
    quotient = special.i1(z, out=out[:head])
    quotient /= z
    out *= -lam * s
    return out


def boundary_slope(values: np.ndarray, s: float) -> float:
    """Physical interface slope: first-order one-sided difference over h*s,
    read from the profile's two end values as `plant.interface_velocity`
    reads them.

    This is the same functional the plant's interface velocity uses, which is
    what makes the discrete observer-error dynamics homogeneous (an error
    initialized at zero stays at roundoff level), and it is the only one-sided
    variant that keeps the injection feedback dissipative on coarse grids.
    """
    h = 1.0 / (values.size - 1)
    return (values.item(-1) - values.item(-2)) / (h * s)


def observer_rhs(u_hat, s, sdot, q, dt, k, r, lam, alpha, slope):
    """The right-hand sides of the base and influence solves of
    `observer.step_observer`.

    The base one is `forced_rhs` of u_hat under the injection source
    p slope, p the `observer_gain` on the grid.  The influence one, of
    A z = p, is that of a zero profile under zero flux and the source p/dt,
    the term dt (p/dt) alone: that expression is kept, so z has the bits of
    that step.
    """
    u_hat = profile(u_hat)
    p = observer_gain(unit_grid(u_hat.size) * s, s, lam, alpha)
    return (forced_rhs(u_hat, s, sdot, q, dt, k, r, p * slope),
            dt * (p[:-1] / dt))


def sherman_morrison(u_star, z, s: float, dt: float):
    """The new observer profile u* - z dt w.u* / (1 + dt w.z), w.v the
    `boundary_slope` of v, its `trapezoid` of the square over s and its
    `trapezoid` over the unit interval, whose product with s has the bits
    of its `trapezoid` over s: the `observer_update` piece."""
    u_star = profile(u_star)
    z = profile(z, u_star.size)
    w_u_star = boundary_slope(u_star, s)
    w_z = boundary_slope(z, s)
    denom = 1.0 + dt * w_z
    if abs(denom) < 1e-14:
        raise NumericalFailure(SINGULAR)
    # u* and z end in +0.0, and so does u* - z c for every finite c.
    u_hat_new = u_star - z * (dt * w_u_star / denom)
    if not np.isfinite(u_hat_new).all():
        raise NumericalFailure(NON_FINITE)
    # The square of a finite profile, and its sums, may overflow to inf, and
    # a sum may meet infinities of both signs, which the compiled piece
    # passes on without a warning; so does this one.
    with np.errstate(over="ignore", invalid="ignore"):
        return (u_hat_new, trapezoid(u_hat_new * u_hat_new, s),
                trapezoid(u_hat_new, 1.0))


# The first positive zero j_{1,1} of J1.
J1_FIRST_ZERO = 3.8317059702075125

# The series path of `diagnostics.transform_error_inverse`.  With a = c j^2,
# b = c i^2 and c = (lam/alpha)(s h)^2, Taylor's theorem in a, with
# d/da R_m(a) = -R_{m+1}(a)/2, is the multiplication theorem (DLMF 10.23.1):
#     J1(sqrt(a - b))/sqrt(a - b) = sum_m (b/2)^m/m! R_m(a),
#     R_m(a) = J_{m+1}(sqrt a)/sqrt(a)^{m+1}.
# |J_nu(x)| <= (x/2)^nu/nu! gives 0 <= R_m(a) <= 1/(2^{m+1} (m+1)!) for
# sqrt(a) < j_{1,1} (below every j_{m+1,1}), and b <= z^2 with
# z = sqrt(lam/alpha) s, so term m is at most (z^2/4)^m/(2 m! (m+1)!).  At
# z = J1_FIRST_ZERO term 16 is 7.3e-20 and the terms then fall by a factor
# of at least 80, so the SERIES_ORDERS = 16 orders m = 0..15 leave out less
# than 2^-58 of the diagonal's 1/2 (term 15, 5.4e-18, is not).
SERIES_ORDERS = 16
# R_15 and R_16 by their power series 2^{-m-1} sum_k (-a/4)^k/(k! (m+k+1)!).
# For a < J1_FIRST_ZERO^2 its terms alternate and fall, so the first left
# out bounds the error: with TOP_ORDER_TERMS = 12 it is below 2^-58 of the
# first term (8.6e-19 for R_15; 11 terms leave 7.8e-17).
TOP_ORDER_TERMS = 12
_TOP_ORDER_COEFFICIENTS = np.reshape(_thomas.top_order_coefficients(
    SERIES_ORDERS, TOP_ORDER_TERMS), (TOP_ORDER_TERMS, 2))


def _bessel_orders(a: np.ndarray):
    """R_m(a) = J_{m+1}(sqrt a)/sqrt(a)^{m+1} for m = SERIES_ORDERS - 1 down
    to 0, elementwise over 0 <= a < J1_FIRST_ZERO^2: the top two orders by
    their power series, the others by the downward recurrence
    R_{m-1} = 2 (m+1) R_m - a R_{m+1}."""
    coefficients = _TOP_ORDER_COEFFICIENTS.reshape(
        TOP_ORDER_TERMS, 2, *(1,) * a.ndim)
    top = coefficients[-1] * a
    for coefficient in coefficients[-2:0:-1]:
        top += coefficient
        top *= a
    top += coefficients[0]
    r, above = top
    yield r
    for m in range(SERIES_ORDERS - 1, 0, -1):
        r, above = 2.0 * (m + 1) * r - a * above, r
        yield r


def _series_integral(u_tilde, s, lam, alpha):
    """int_{x_i}^{s} Q(x_i, y) u_tilde(y) dy of a (k, n) stack whose rows
    have sqrt(lam/alpha) s < J1_FIRST_ZERO, by the series above: row i is
    (lam/alpha) s^2 h sum_m (b_i/2)^m/m! T_m(i), with T_m the
    right-cumulative trapezoid sums of xi u_tilde R_m(a), summed over m by
    Horner.  Elementwise ops and per-row cumulative sums only:
    O(SERIES_ORDERS n) per row.  The `series_integral` piece; like the
    compiled one, it passes on infinities and NaNs without a warning.
    """
    u_tilde, s = _thomas.series_args(u_tilde, s)
    k, n = u_tilde.shape
    # Node-major, from the interface inwards: row l of these (n, k) arrays
    # is node n - 1 - l, so the sums from the interface are accumulations
    # down axis 0, and row l of those is node n - 2 - l.
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.arange(n - 1.0, -1.0, -1.0)[:, None] ** 2 \
            * ((lam / alpha) * (s / (n - 1)) ** 2)
        v = np.multiply(unit_grid(n)[::-1, None], u_tilde.T[::-1], order="C")
        half_b = 0.5 * a[1:]
        g, sums = np.empty((n, k)), np.empty((n - 1, k))
        acc = np.zeros((n - 1, k))
        for m, r in zip(range(SERIES_ORDERS - 1, -1, -1), _bessel_orders(a)):
            np.multiply(v, r, out=g)
            np.add(g[1:], g[:-1], out=sums)
            np.add.accumulate(sums, axis=0, out=sums)
            acc *= half_b / (m + 1)
            acc += sums
        out = np.zeros((k, n))
        out[:, -2::-1] = acc.T
        out *= ((lam / alpha) * s * s / (2 * (n - 1)))[:, None]
    return out


def phi_kernel(x, c: float, beta: float, epsilon: float):
    """Direct controller-transform kernel phi(x) = (c/beta) x - epsilon."""
    return (c / beta) * np.asarray(x, dtype=float) - epsilon


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


def _lyapunov_rows(u, u_hat, w_tilde, s, m, s_r, epsilon, alpha, beta, c,
                   A, B, xi):
    """The monitor columns of K rows after the inverse error transform,
    from (K, n) stacks of u, u_hat and w_tilde and length-K s and m: a
    (7, K) array of ||u||^2, ||u - u_hat||^2, ||w_tilde||^2 and int u over
    [0, s], V1, V = A V1 + m and W = V e^{-xi s}, with X = s - s_r, w_hat
    the `transform_controller_direct` of u_hat and the weights A, B and xi
    of a `params.TriggerDerived`.  The `lyapunov_rows` piece; like the
    compiled one, it passes on infinities and NaNs without a warning, and
    both reject non-finite input, whose NaNs the two would order apart.
    """
    weights = (s_r, epsilon, alpha, beta, c, A, B, xi)
    u, u_hat, w_tilde, s, m = _thomas.lyapunov_args(u, u_hat, w_tilde, s, m,
                                                    weights)
    if not all(np.isfinite(a).all() for a in (u, u_hat, w_tilde, s, m)):
        raise ValueError(NON_FINITE_ROWS)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # One quadrature for the three squared norms and the energy.
        err = u - u_hat
        u_sq, err_sq, tilde_sq, u_int = trapezoid(
            np.stack((u * u, err * err, w_tilde * w_tilde, u)), s)
        X = s - s_r
        w_hat = transform_controller_direct(u_hat, X, s, epsilon, alpha,
                                            beta, c)
        # np.gradient(w_tilde, h, axis=-1)'s own expressions (edge order 1),
        # over s for the physical slope.
        h = 1.0 / (w_tilde.shape[1] - 1)
        slope = np.empty(w_tilde.shape)
        slope[:, 1:-1] = (w_tilde[:, 2:] - w_tilde[:, :-2]) / (2.0 * h)
        slope[:, 0] = (w_tilde[:, 1] - w_tilde[:, 0]) / h
        slope[:, -1] = (w_tilde[:, -1] - w_tilde[:, -2]) / h
        slope /= s[:, None]
        # One quadrature for the two integrands.
        squares = np.stack((w_hat, slope))
        squares *= squares
        hat_sq, slope_sq = trapezoid(squares, s)
        V1 = 0.5 * hat_sq \
            + epsilon * alpha / (2.0 * beta) * X * X \
            + 0.5 * tilde_sq \
            + 0.5 * B * slope_sq
        V = A * V1 + m
        # math.exp per row: np.exp does not give the same bits.
        W = V * np.array([math.exp(-xi * si) for si in s.tolist()])
    return np.stack((u_sq, err_sq, tilde_sq, u_int, V1, V, W))


def _format_rows(rows: np.ndarray, buf: bytearray) -> bytes:
    """The CSV lines of a 2-D float array: the repr of each value, "," between
    the values of a row and "\r\n" after each row; `buf`, which the compiled
    piece writes into, is not used."""
    return "".join(",".join(map(repr, row)) + "\r\n"
                   for row in rows.tolist()).encode("ascii")


def _check_cases():
    """The (piece, arguments) cases of `check_kernel`, where a piece is
    named, or is a function of the set, as `_two_steps`.  No random
    generator: a check at every import should not touch code the run never
    uses."""
    # The Thomas loops: n from 3 to 400, diffusion numbers over six
    # decades, and right-hand sides of generic floats, for n > 20 also with
    # signed zeros and subnormals, and with infinities and a NaN; bands
    # that are strided views.
    specials = ([0.0, -0.0, 5e-324, -2.5e-310], [math.inf, -math.inf, math.nan])
    for n in (3, 4, 5, 21, 41, 161, 400):
        for r in (1.3e-3, 0.37, 7.1, 913.0):
            yield "factor", (n, r)
            factor = _factor_loops(n, r)
            rhs = np.sin(r + np.arange(3.0 * (n - 1))).reshape(3, n - 1)
            if n > 20:
                for row, special in zip(rhs[1:], specials):
                    row[3::n // 4][:len(special)] = special
            for row in rhs:
                yield "solve", (*factor, row)
            yield "solve", (factor[0], *(np.repeat(band, 2)[::2]
                                         for band in factor[1:]), rhs[0])
    # The step: the plant's right-hand side at n from 3 to 400 with sdot of
    # both signs and both zeros, the observer's with gains all below,
    # across and above the series cut and beyond the Bessel range, and the
    # Sherman-Morrison update on generic, singular, non-finite and
    # mismatched profiles; profiles with signed zeros; and two steps
    # chained through the pieces.
    s, q, dt, k, r, alpha, slope = 0.35, 2.9, 0.37, 2.2e-3, 0.9, 1.3e-3, -41.0
    for n in (3, 4, 21, 161, 400):
        u = np.sin(0.3 + np.arange(n))
        u[1::7], u[-1] = -0.0, 0.0
        # Each sdot with a gain whose w = lam (s^2 - x^2) / alpha starts at
        # w0.
        for sdot, w0 in zip((2.7e-4, -3.1e-4, 0.0, -0.0),
                            (5e-4, 3e-3, 40.0, 6e5)):
            yield "advance_rhs", (u, s, sdot, q, dt, k, r)
            yield "observer_rhs", (u, s, sdot, q, dt, k, r,
                                   w0 * alpha / (s * s), alpha, slope)
        u_star = np.cos(0.2 + np.arange(n))
        z = 0.01 * np.sin(1.1 + 0.5 * np.arange(n))
        u_star[-1] = z[-1] = 0.0
        singular, infinite = z.copy(), u_star.copy()
        singular[-2] = 1.0 / (n - 1) * s / dt
        infinite[0] = math.inf
        for a, b in ((u_star, z), (u_star, singular), (infinite, z),
                     (u_star, z[1:])):
            yield "observer_update", (a, b, s, dt)
        yield _two_steps, (u, u_star, s, 2.7e-4, q, dt, k, r,
                           40.0 * alpha / (s * s), alpha, slope)
    # The series path: stacks of n from 2 to 400 and an odd number of
    # rows, whose s are 0, tiny, mid-range and one ulp below the edge
    # sqrt(lam/alpha) s = J1_FIRST_ZERO, two of them with signed zeros and
    # subnormals, and with a huge value, infinities and a NaN; and stacks
    # of the wrong shapes.
    lam = 0.09
    edge = np.nextafter(J1_FIRST_ZERO / math.sqrt(lam / alpha), 0.0)
    s = np.array([0.0, 1e-300, 0.3 * edge, edge, 0.3 * edge, edge,
                  0.7 * edge])
    specials = ([-0.0, 0.0, 5e-324, -2.5e-310],
                [1e300, math.inf, -math.inf, math.nan])
    for n in (2, 3, 4, 21, 161, 400):
        u = np.sin(0.7 + np.arange(7.0 * n)).reshape(7, n)
        for row, special in zip(u[4:], specials):
            np.put(row, range(n - 1, -1, -3)[:4], special)
        yield "series_integral", (u, s, lam, alpha)
    for u, s in ((np.zeros((2, 1)), np.zeros(2)), (np.zeros(3), np.zeros(1)),
                 (np.zeros((2, 3)), np.zeros(3))):
        yield "series_integral", (u, s, lam, alpha)
    # The monitor rows: stacks of n from 2 to 400 and an odd number of rows,
    # whose s are 0, tiny and mid-range, with signed zeros, subnormals and
    # +-1e300 in them, under weights (s_r, epsilon, alpha, beta, c, A, B,
    # xi) where V1's slope term, its controller-transform term and its X
    # term lead in turn; stacks, s, m and weights with a non-finite entry,
    # an s whose e^{-xi s} overflows, and stacks of the wrong shapes.
    weight_sets = ((2.0, 10.0, alpha, 0.25, 3e-4, 1.3, 7.9e4, 0.9),
                   (1.1, 1e-3, 0.3, 1.9, 2.3, 1.1, 0.0, 0.2),
                   (-37.0, 0.011, 3.0, 0.1, 1e-4, 0.9, 0.0, 0.4))
    weights = weight_sets[0]
    s = np.array([0.0, 1e-300, 1.7, 0.35, 2.9])
    m = np.array([1e-4, 0.0, 2.5, 1e-300, 7.0])
    specials = ([-0.0, 0.0, 5e-324, -2.5e-310], [1e300, -1e300, 1e300, 3.0])
    for n in (2, 3, 21, 161, 400):
        stacks = np.sin(0.4 + np.arange(15.0 * n)).reshape(3, 5, n)
        for rows, special in zip((stacks[:, 1], stacks[:, 3]), specials):
            for row in rows:
                np.put(row, range(0, n, 2)[:4], special)
        for case_weights in weight_sets:
            yield "lyapunov_rows", (*stacks, s, m, *case_weights)
    stacks = np.cos(np.arange(3 * 5 * 21.0)).reshape(3, 5, 21)
    for i, value in enumerate((math.nan, math.inf, -math.inf)):
        bad = stacks.copy()
        bad[i, 2, 7] = value
        yield "lyapunov_rows", (*bad, s, m, *weights)
    for bad_s, bad_m, bad_weights in (
            (np.where(s == 1.7, math.nan, s), m, weights),
            (s, np.where(m == 2.5, math.inf, m), weights),
            (s, m, weights[:6] + (math.inf,) + weights[7:]),
            (np.where(s == 1.7, -1e3, s), m, weights)):
        yield "lyapunov_rows", (*stacks, bad_s, bad_m, *bad_weights)
    for u, u_hat, w_tilde, s_rows, m_rows in (
            (*stacks[:, :, :1], s, m),
            (stacks[0], stacks[1, :, 1:], stacks[2], s, m),
            (*stacks, s[1:], m), (*stacks, s, m[:, None]),
            (*stacks[:, 0], s[:1], m[:1])):
        yield "lyapunov_rows", (u, u_hat, w_tilde, s_rows, m_rows, *weights)
    # The formatter: every power of two, the neighbours of every 16th, the
    # first 300 subnormals, the powers of ten, both sides of the switches
    # to exponent notation at 1e-4 and 1e16 with both signs, and +-0, +-inf
    # and NaNs of both signs; rows of 1 to 632 values.  Not every neighbour
    # of every power of two: repr takes about 1 us for each 17-digit one.
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.array([1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0])
    edges = np.concatenate((edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, math.inf)))
    buf = bytearray()
    for rows in (
            p.reshape(-1, 2),
            np.column_stack((np.nextafter(p[::16], 0.0),
                             np.nextafter(p[::16], math.inf))),
            np.arange(1.0, 301.0).reshape(-1, 5) * 5e-324,
            np.array([[float(f"1e{k}") for k in range(-323, 309)]]),
            np.concatenate((edges, -edges)).reshape(-1, 1),
            np.array([[0.0, -0.0, math.inf, -math.inf, math.nan,
                       -math.nan]])):
        yield "format_rows", (rows, buf)


def _two_steps(pieces, u, u_hat, s, sdot, q, dt, k, r, lam, alpha, slope):
    """The outputs of two steps of the closed loop's pieces of the set
    `pieces`, in the loop's order (factor, advance_rhs, solve, observer_rhs,
    two solves and observer_update), the second from the profiles of the
    first, all read after the second: on the compiled set, the workspace
    and the profiles it holds, which must leave what a caller keeps as it
    was."""
    outputs = []
    for _ in range(2):
        lower, ratios, pivots = pieces.factor(u.size, r)
        u = pieces.solve(lower, ratios, pivots,
                         pieces.advance_rhs(u, s, sdot, q, dt, k, r))
        base, influence = pieces.observer_rhs(u_hat, s, sdot, q, dt, k, r,
                                              lam, alpha, slope)
        u_hat, square, total = pieces.observer_update(
            pieces.solve(lower, ratios, pivots, base),
            pieces.solve(lower, ratios, pivots, influence), s, dt)
        outputs += (u, u_hat, square, total)
    return tuple(outputs)


def _outcome(pieces, case, args):
    """The bytes of what the piece named `case` of the set `pieces` returns
    on `args`, or of `case(pieces, *args)` where `case` is a function, of
    each part of a tuple in turn, or the type and message of the exception
    it raises."""
    try:
        result = getattr(pieces, case)(*args) if isinstance(case, str) \
            else case(pieces, *args)
    except (ValueError, OverflowError, NumericalFailure) as exc:
        return type(exc), str(exc)
    return b"".join(part if isinstance(part, (bytes, memoryview))
                    else np.asarray(part).tobytes()
                    for part in (result if isinstance(result, tuple)
                                 else (result,)))


def check_kernel(kernel) -> bool:
    """The load-time check: whether `kernel`'s C constants are the Python
    ones and each of its pieces, on every case of `_check_cases`, gives the
    outcome of its namesake in `REFERENCE`."""
    return kernel.constants == (BESSEL_Z_MAX, _RATIO_SERIES_CUT,
                                SERIES_ORDERS, TOP_ORDER_TERMS) and all(
        _outcome(kernel, case, args) == _outcome(REFERENCE, case, args)
        for case, args in _check_cases())


REFERENCE = types.SimpleNamespace(
    factor=_factor_loops, solve=_solve_loops, advance_rhs=advance_rhs,
    observer_rhs=observer_rhs, observer_update=sherman_morrison,
    format_rows=_format_rows, series_integral=_series_integral,
    lyapunov_rows=_lyapunov_rows)

# The set of pieces the step and `harness.emit_outputs` call: the kernel
# when it built, loaded, found scipy's i1 and passed the check, and
# THOMAS_KERNEL "compiled"; else REFERENCE, and "python: " and the reason.
_kernel, THOMAS_KERNEL = _thomas.load(check_kernel)
if _kernel is None:
    _kernel = REFERENCE
