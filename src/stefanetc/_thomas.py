"""Build, cache and load the compiled kernel of the step, of the monitor's
series path and Lyapunov rows and of the series formatter, `_thomas.c`, and
wrap it as `Kernel`, the compiled set of the eight pieces that
`numerics.REFERENCE` holds in Python and numpy.

`load(check)` returns ``(Kernel, "compiled")`` when the kernel builds, loads,
finds scipy's i1 and passes `check`, else ``(None, "python: <reason>")``; it
never raises.
The build runs cffi in API mode in a child interpreter, so neither cffi
nor setuptools is imported here: the loaded module needs only
`_cffi_backend`, and scipy's i1 is read with ctypes from the capsule that
scipy.special.cython_special exports.  Each build is cached in
`cache_dir()`, named by a digest of the source, the declarations, the
compile flags, the cffi version and the interpreter's cache tag, and moved
into place with one atomic `os.replace`, so concurrent builds of one key
leave one complete file.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import NumericalFailure

SOURCE = Path(__file__).with_name("_thomas.c")

# -ffp-contract=off keeps every a - b * c two roundings, as in the Python
# loops; -fno-fast-math keeps the order as written.  No -march: the kernel
# must not depend on the building host's instruction set.
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math")

CDEF = """
static const double BESSEL_Z_MAX;
static const double RATIO_SERIES_CUT;
typedef double (*bessel_i1)(double, int);
void diffusion_factor(long m, double r, double *ratios, double *pivots);
void solve_tridiagonal(long m, double lower, const double *ratios,
                       const double *pivots, const double *rhs, double *out);
void advance_rhs(long n, const double *u, double s, double sdot, double q,
                 double dt, double k, double r, const double *p,
                 double slope, double *rhs);
int observer_rhs(long n, const double *u_hat, double s, double sdot,
                 double q, double dt, double k, double r, double lam,
                 double alpha, double slope, bessel_i1 i1, double *rhs);
int observer_update(long n, double s, double dt, const double *u_star,
                    const double *z, double *out, double *sums);
static const int SERIES_ORDERS;
static const int TOP_ORDER_TERMS;
void series_integral(long k, long n, const double *u, const double *s,
                     double lam, double alpha, const double *c, double *out);
int lyapunov_rows(long k, long n, const double *u, const double *u_hat,
                  const double *w_tilde, const double *s, const double *m,
                  double s_r, double epsilon, double alpha, double beta,
                  double c, double A, double B, double xi, double *work,
                  double *out);
static const int POW10_K_MIN;
static const int POW10_K_MAX;
static const int REPR_MAX;
long format_rows(long rows, long cols, const double *values,
                 const uint64_t *g, char *out);
"""

# The name and signature under which scipy.special.cython_special exports
# its i1, the function the scipy.special.i1 ufunc evaluates.
I1_CAPSULE = ("i1", b"double (double, int __pyx_skip_dispatch)")


def _pow10_table(k_min: int, k_max: int) -> list[int]:
    """Schubfach's g(k) = floor(10^-k / 2^r) + 1, r = floor(log2(10^-k)) -
    125, for k from k_min to k_max, from exact integers, each as the pair
    g >> 63, g mod 2^63."""
    table = []
    for k in range(k_min, k_max + 1):
        if k <= 0:
            r = (10 ** -k).bit_length() - 126
            g = (10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1
        else:   # 10^k is no power of two: floor(log2(10^-k)) = -bits(10^k)
            r = -(10 ** k).bit_length() - 125
            g = (1 << -r) // 10 ** k + 1
        table += [g >> 63, g & ((1 << 63) - 1)]
    return table


def top_order_coefficients(orders: int, terms: int) -> list[float]:
    """The power series coefficients (-1)^k / (2^{m+1} 4^k k! (m+k+1)!) of
    R_m for k from 0 to terms - 1, m = orders - 1 and orders, each the
    exactly rounded quotient of exact integers, row-major: for each k the
    pair for the two m."""
    return [(-1) ** k / (2 ** (m + 1) * 4 ** k * math.factorial(k)
                         * math.factorial(m + k + 1))
            for k in range(terms) for m in (orders - 1, orders)]


BUILD_TIMEOUT_S = 300.0

# Run by the child interpreter: argv is the module name, the source path,
# the build directory, the declarations and the compile flags.
_BUILD_SCRIPT = """
import sys
import cffi
name, source, build_dir, cdef, *flags = sys.argv[1:]
ffi = cffi.FFI()
ffi.cdef(cdef)
with open(source) as f:
    ffi.set_source(name, f.read(), extra_compile_args=flags)
print(ffi.compile(tmpdir=build_dir))
"""


def cache_dir() -> Path:
    """$XDG_CACHE_HOME/stefanetc, or ~/.cache/stefanetc where that is unset
    or, as the XDG base directory rules have it, not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = Path.home() / ".cache"
    return Path(base) / "stefanetc"


def _build(name: str, source: Path, flags, target: Path) -> str | None:
    """Compile `source` as extension module `name` into `target`; the
    reason it failed, or None."""
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        build_dir = tempfile.mkdtemp(prefix=".build-", dir=target.parent)
    except OSError as exc:
        return f"no writable kernel cache ({exc})"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT, name, str(source),
             build_dir, CDEF, *flags],
            cwd=build_dir, capture_output=True, text=True, errors="replace",
            timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            return "the kernel build failed: " + (lines[-1] if lines else
                                                  f"exit {proc.returncode}")
        os.replace(proc.stdout.strip().splitlines()[-1], target)
    except (OSError, subprocess.SubprocessError, IndexError) as exc:
        return f"the kernel build failed ({exc!r})"
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    return None


def _scipy_i1_address() -> int:
    """The address of scipy's i1, from the capsule that
    scipy.special.cython_special exports under I1_CAPSULE; raises
    ImportError, AttributeError, KeyError or ValueError where it is
    missing."""
    import ctypes

    from scipy.special import cython_special
    name, signature = I1_CAPSULE
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(cython_special.__pyx_capi__[name], signature)


# The size checks each piece of both sets makes before any arithmetic, so
# that both raise the same exception on the same input and the compiled
# set passes no pointer past the end of an array, and the messages of the
# step's failures that both raise.

SINGULAR = "singular injection correction"
NON_FINITE = "observer profile became non-finite"
NON_FINITE_ROWS = "the monitor rows need finite stacks, s, m and weights"
# Formatted with the set's largest Bessel argument.
BESSEL_DOMAIN = "Bessel argument outside [0, {:g}]"


def factor_args(n: int, r) -> float:
    """r as a float, for a diffusion matrix of n >= 3 nodes and a diffusion
    number r with r > 0 and 1 + 2r finite (the `factor` piece)."""
    if n < 3:
        raise ValueError("the diffusion matrix needs n >= 3 nodes")
    r = float(r)
    if not (r > 0.0 and 1.0 + 2.0 * r < math.inf):
        raise NumericalFailure(f"diffusion number r={r!r} outside (0, inf)")
    return r


def bands(ratios, pivots, rhs):
    """rhs as a contiguous float64 array with the band lengths of ratios
    and pivots, float64 arrays too."""
    x = np.ascontiguousarray(rhs, dtype=float)
    if (x.shape != pivots.shape or ratios.shape != (x.size - 1,)
            or ratios.dtype != float or pivots.dtype != float):
        raise ValueError("inconsistent tridiagonal band lengths")
    return x


def series_args(u_tilde, s):
    """u_tilde as a contiguous float64 (k, n) stack with n >= 2, and s as a
    contiguous float64 array of its k values (the `series_integral`
    piece)."""
    u_tilde = np.ascontiguousarray(u_tilde, dtype=float)
    s = np.ascontiguousarray(s, dtype=float)
    if u_tilde.ndim != 2 or u_tilde.shape[1] < 2 \
            or s.shape != u_tilde.shape[:1]:
        raise ValueError("the series path needs a (k, n) stack with n >= 2 "
                         "and k values of s")
    return u_tilde, s


def lyapunov_args(u, u_hat, w_tilde, s, m, weights):
    """u, u_hat and w_tilde as contiguous float64 (k, n) stacks of one
    shape with n >= 2, and s and m as contiguous float64 arrays of their k
    values (the `lyapunov_rows` piece); raises ValueError where one of the
    eight scalar `weights` is not finite."""
    stacks = [np.ascontiguousarray(a, dtype=float) for a in (u, u_hat,
                                                             w_tilde, s, m)]
    shape = stacks[0].shape
    if len(shape) != 2 or shape[1] < 2 \
            or any(a.shape != shape for a in stacks[1:3]) \
            or any(a.shape != shape[:1] for a in stacks[3:]):
        raise ValueError("the monitor rows need (k, n) stacks of one shape "
                         "with n >= 2 and k values of s and m")
    if not all(map(math.isfinite, weights)):
        raise ValueError(NON_FINITE_ROWS)
    return stacks


def profile(u, like=None):
    """u as a contiguous float64 profile: 1-D, of at least 2 nodes, and of
    the length of the profile `like` where one is given."""
    u = np.ascontiguousarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2 or like is not None and u.size != like.size:
        raise ValueError("profiles must be 1-D, of one length, with at "
                         "least 2 nodes")
    return u


class Kernel:
    """The compiled set of the eight pieces.  Each method has the signature
    of its namesake in `numerics.REFERENCE`, makes its size checks, and
    returns its bits or raises its exception with its message."""

    def __init__(self, module, i1_address: int):
        self.ffi, self.lib = module.ffi, module.lib
        # The C copies of numerics.BESSEL_Z_MAX, _RATIO_SERIES_CUT,
        # SERIES_ORDERS and TOP_ORDER_TERMS.
        self.constants = (self.lib.BESSEL_Z_MAX, self.lib.RATIO_SERIES_CUT,
                          self.lib.SERIES_ORDERS, self.lib.TOP_ORDER_TERMS)
        self.i1 = self.ffi.cast("bessel_i1", i1_address)
        self.pow10 = self.ffi.new("uint64_t[]", _pow10_table(
            self.lib.POW10_K_MIN, self.lib.POW10_K_MAX))
        self.top_order = self.ffi.new("double[]", top_order_coefficients(
            self.lib.SERIES_ORDERS, self.lib.TOP_ORDER_TERMS))
        # The last factor's bands with their cdata, which `solve` reuses
        # when it is passed those same arrays, and the cells `observer_update`
        # writes its two trapezoid sums into.
        self._bands = (None, None, None, None)
        self._sums = self.ffi.new("double[2]")

    def factor(self, n, r):
        r = factor_args(n, r)
        ratios, pivots = np.empty(n - 2), np.empty(n - 1)
        buf = self.ffi.from_buffer
        self._bands = (ratios, pivots, buf("double[]", ratios),
                       buf("double[]", pivots))
        self.lib.diffusion_factor(n - 1, r, *self._bands[2:])
        return -r, ratios, pivots

    def solve(self, lower, ratios, pivots, rhs):
        rhs = bands(ratios, pivots, rhs)
        out = np.empty(rhs.size + 1)
        buf = self.ffi.from_buffer
        held_ratios, held_pivots, *cdata = self._bands
        if ratios is not held_ratios or pivots is not held_pivots:
            cdata = buf("double[]", ratios), buf("double[]", pivots)
        self.lib.solve_tridiagonal(rhs.size, lower, *cdata,
                                   buf("double[]", rhs), buf("double[]", out))
        return out

    def advance_rhs(self, u, s, sdot, q, dt, k, r):
        u = profile(u)
        rhs = np.empty(u.size - 1)
        buf = self.ffi.from_buffer
        self.lib.advance_rhs(u.size, buf("double[]", u), s, sdot, q, dt, k, r,
                             self.ffi.NULL, 0.0, buf("double[]", rhs))
        return rhs

    def observer_rhs(self, u_hat, s, sdot, q, dt, k, r, lam, alpha, slope):
        u_hat = profile(u_hat)
        rhs = np.empty((2, u_hat.size - 1))
        buf = self.ffi.from_buffer
        if self.lib.observer_rhs(u_hat.size, buf("double[]", u_hat), s, sdot,
                                 q, dt, k, r, lam, alpha, slope, self.i1,
                                 buf("double[]", rhs)):
            raise ValueError(BESSEL_DOMAIN.format(self.lib.BESSEL_Z_MAX))
        return rhs

    def observer_update(self, u_star, z, s, dt):
        u_star = profile(u_star)
        z = profile(z, u_star)
        out = np.empty(u_star.size)
        buf = self.ffi.from_buffer
        failed = self.lib.observer_update(u_star.size, s, dt,
                                          buf("double[]", u_star),
                                          buf("double[]", z),
                                          buf("double[]", out), self._sums)
        if failed:
            raise NumericalFailure(SINGULAR if failed == 1 else NON_FINITE)
        return out, self._sums[0], self._sums[1]

    def series_integral(self, u_tilde, s, lam, alpha):
        u_tilde, s = series_args(u_tilde, s)
        out = np.empty(u_tilde.shape)
        buf = self.ffi.from_buffer
        self.lib.series_integral(*u_tilde.shape, buf("double[]", u_tilde),
                                 buf("double[]", s), lam, alpha,
                                 self.top_order, buf("double[]", out))
        return out

    def lyapunov_rows(self, u, u_hat, w_tilde, s, m, s_r, epsilon, alpha,
                      beta, c, A, B, xi):
        weights = (s_r, epsilon, alpha, beta, c, A, B, xi)
        stacks = lyapunov_args(u, u_hat, w_tilde, s, m, weights)
        k, n = stacks[0].shape
        work, out = np.empty(2 * n), np.empty((6, k))
        buf = self.ffi.from_buffer
        failed = self.lib.lyapunov_rows(
            k, n, *(buf("double[]", a) for a in stacks), *weights,
            buf("double[]", work), buf("double[]", out))
        if failed == 1:
            raise ValueError(NON_FINITE_ROWS)
        if failed:
            raise OverflowError("math range error")
        return out

    def format_rows(self, rows, buf):
        """The text of `rows`, written into `buf` (first grown to what
        `rows` may need), as a view of `buf` that holds until the next
        call."""
        rows = np.ascontiguousarray(rows, dtype=float)
        count, cols = rows.shape
        need = count * (cols * (self.lib.REPR_MAX + 1) + 2)
        if len(buf) < need:
            buf.extend(bytes(need - len(buf)))
        size = self.lib.format_rows(count, cols,
                                    self.ffi.from_buffer("double[]", rows),
                                    self.pow10,
                                    self.ffi.from_buffer("char[]", buf))
        return memoryview(buf)[:size]


def load(check, source: Path = SOURCE, flags=FLAGS):
    """The `Kernel` and "compiled", or None and "python: <reason>".

    `check(kernel)` returns whether each of the kernel's pieces gives what
    its namesake in `numerics.REFERENCE` gives; a kernel that fails it is
    not used.
    """
    try:
        import _cffi_backend
    except ImportError:
        return None, "python: cffi is not installed"
    try:
        text = source.read_bytes()
    except OSError as exc:
        return None, f"python: no kernel source ({exc})"
    key = hashlib.sha256()
    for part in (text, CDEF.encode(), "\0".join(flags).encode(),
                 _cffi_backend.__version__.encode(),
                 str(sys.implementation.cache_tag).encode()):
        key.update(part + b"\0")
    name = f"_stefanetc_thomas_{key.hexdigest()[:16]}"
    try:
        path = cache_dir() / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    except RuntimeError as exc:   # no home directory to put the cache in
        return None, f"python: no kernel cache ({exc})"
    if not path.is_file():
        reason = _build(name, source, flags, path)
        if reason is not None:
            return None, f"python: {reason}"
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        return None, f"python: the built kernel does not load ({exc})"
    try:
        address = _scipy_i1_address()
    except (ImportError, AttributeError, KeyError, ValueError) as exc:
        return None, f"python: scipy's i1 is not available ({exc!r})"
    kernel = Kernel(module, address)
    if not check(kernel):
        return None, ("python: the compiled kernel does not reproduce the "
                      "Python and numpy code's bits or repr's bytes")
    return kernel, "compiled"
