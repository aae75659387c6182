"""Build, cache and load the compiled kernel of the step and of the series
formatter, `_thomas.c`.

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
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

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
                    const double *z, double *out, double *norm_sq);
static const int POW10_K_MIN;
static const int POW10_K_MAX;
static const int REPR_MAX;
long format_rows(long rows, long cols, const double *values,
                 const uint64_t *g, char *out);
"""

# The name and signature under which scipy.special.cython_special exports
# its i1, the function the scipy.special.i1 ufunc evaluates.
I1_CAPSULE = ("i1", b"double (double, int __pyx_skip_dispatch)")


class Kernel(NamedTuple):
    """The loaded module's `ffi` and `lib`, scipy's i1 as a `bessel_i1`
    function pointer for `lib.observer_rhs`, and Schubfach's table as a
    `uint64_t[]` for `lib.format_rows`."""
    ffi: object
    lib: object
    i1: object
    pow10: object


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


def load(check, source: Path = SOURCE, flags=FLAGS):
    """The `Kernel` and "compiled", or None and "python: <reason>".

    `check(kernel)` returns whether the kernel's results have the bits of
    the Python and numpy code it replaces, and its formatter repr's bytes;
    a kernel that fails it is not used.
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
    lib = module.lib
    kernel = Kernel(module.ffi, lib, module.ffi.cast("bessel_i1", address),
                    module.ffi.new("uint64_t[]", _pow10_table(
                        lib.POW10_K_MIN, lib.POW10_K_MAX)))
    if not check(kernel):
        return None, ("python: the compiled kernel does not reproduce the "
                      "Python and numpy code's bits or repr's bytes")
    return kernel, "compiled"
