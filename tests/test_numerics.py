"""Special-function and kernel-level checks against independent oracles.

The Bessel oracles are ascending power series implemented here from the
defining sums, so the library routines are tested against something other
than themselves.
"""

import inspect
import math
import platform
import re
import struct
import sys
import warnings
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special
from scipy.special import cython_special
from scipy.integrate import simpson as scipy_simpson

from stefanetc import (_thomas, config, harness, numerics, observer, params,
                       plant)
from stefanetc.errors import (ConfigurationError, NumericalFailure,
                              ValidityBreach)
from stefanetc.numerics import (BESSEL_Z_MAX, observer_gain, ratio_J1_sqrt,
                                simpson, solve_tridiagonal, trapezoid)
from conftest import thomas_paths
from observer_reference import ratio_I1_sqrt
from tridiagonal_reference import diffusion_bands, thomas_factor, thomas_solve


def series_I1(z: float, terms: int = 30) -> float:
    # I1(z) = sum_k (z/2)^(2k+1) / (k! (k+1)!)
    total = 0.0
    for k in range(terms):
        total += (z / 2.0) ** (2 * k + 1) / (math.factorial(k) * math.factorial(k + 1))
    return total


def series_J1(z: float, terms: int = 40) -> float:
    # J1(z) = sum_k (-1)^k (z/2)^(2k+1) / (k! (k+1)!)
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (z / 2.0) ** (2 * k + 1) \
            / (math.factorial(k) * math.factorial(k + 1))
    return total


def masked_ratio_sqrt(w, sign, bessel):
    # The ratios' earlier form: boolean masks select the entries below the
    # cut for the power series and the others for the Bessel quotient.
    w = np.asarray(w, dtype=float)
    z = np.sqrt(w)
    small = w < numerics._RATIO_SERIES_CUT
    large = ~small
    out = np.empty(w.shape)
    v = w[small]
    out[small] = 0.5 + sign * v / 16.0 + v * v / 384.0 + sign * v * v * v / 18432.0
    z = z[large]
    out[large] = bessel(z) / z
    return float(out) if out.ndim == 0 else out


class TestBessel:
    # I1(z) and J1(z) are reached through the ratio routines as z * ratio(z**2).
    def test_I1_against_series(self):
        for z in (0.0, 1e-4, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0):
            assert z * ratio_I1_sqrt(z * z) == pytest.approx(
                series_I1(z), rel=1e-12, abs=1e-300)

    def test_J1_against_series(self):
        for z in (0.0, 1e-4, 0.1, 0.5, 1.0, 2.5, 5.0, 8.0):
            assert z * ratio_J1_sqrt(np.array([z * z]))[0] == pytest.approx(
                series_J1(z), rel=1e-10, abs=1e-14)

    def test_I1_domain(self):
        with pytest.raises(ValueError):
            ratio_I1_sqrt(-1.0)
        with pytest.raises(ValueError, match="Bessel argument"):
            ratio_I1_sqrt(701.0 ** 2)
        with pytest.raises(ValueError):
            ratio_J1_sqrt(np.array([-0.25]))


class TestRatios:
    def test_values_at_zero(self):
        assert ratio_I1_sqrt(0.0) == pytest.approx(0.5, rel=1e-14)
        assert ratio_J1_sqrt(np.array([0.0]))[0] == pytest.approx(0.5, rel=1e-14)

    def test_continuity_across_series_cut(self):
        # The piecewise definition must agree on both sides of the cut.
        for w in (0.5e-3, 0.999e-3, 1.001e-3, 2e-3):
            z = math.sqrt(w)
            assert ratio_I1_sqrt(w) == pytest.approx(series_I1(z) / z, rel=1e-10)
            assert ratio_J1_sqrt(np.array([w]))[0] == pytest.approx(
                series_J1(z) / z, rel=1e-10)

    @pytest.mark.parametrize("w", [1e-5, 1e-4, 5e-4, 9e-4, 9.99e-4])
    def test_series_below_the_cut_matches_mpmath(self, w):
        # Below the cut both ratios are their power series.  The first
        # omitted term, w^4/1474560, is under 1e-18 of the ratio there, so
        # the sum's rounding (a few ulps of 1/2) decides: within 1e-15
        # relative of the 40-digit values, as the Bessel branch just above
        # the cut is.
        with mpmath.workdps(40):
            z = mpmath.sqrt(mpmath.mpf(w))
            exact_I = mpmath.besseli(1, z) / z
            exact_J = mpmath.besselj(1, z) / z
            for got, exact in ((numerics._ratio_series(w, 1.0), exact_I),
                               (numerics._ratio_series(w, -1.0), exact_J),
                               (ratio_I1_sqrt(w), exact_I),
                               (ratio_J1_sqrt(np.array([w]))[0], exact_J)):
                assert abs(got - exact) <= 1e-15 * exact

    def test_against_series_moderate(self):
        for w in (0.1, 1.0, 9.0, 100.0):
            z = math.sqrt(w)
            assert ratio_I1_sqrt(w) == pytest.approx(series_I1(z) / z, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            ratio_I1_sqrt(-1e-9)
        with pytest.raises(ValueError):
            ratio_J1_sqrt(np.array([-1e-9]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.one_of(st.floats(0.0, 2e-3), st.floats(0.0, 1e4),
                                     st.just(math.nan))),
           st.sampled_from([(-1,), (2, -1), ()]))
    def test_branchwise_equals_both_branch_form(self, drawn, shape):
        # The ratios take the Bessel quotient on every entry and write the
        # series over the entries below the cut.  They must give the bits of
        # the form that evaluated both branches everywhere and picked with
        # np.where, and of the earlier form that evaluated each branch on its
        # own entries only, for zeros, the cut and its neighbours, NaN,
        # 0-d arrays and 2-D stacks, and raise no warning on the 0/0 they
        # skip.
        cut = numerics._RATIO_SERIES_CUT
        w = np.concatenate([[0.0, np.nextafter(cut, 0.0), cut,
                             np.nextafter(cut, 1.0), math.nan], drawn])
        if shape == ():
            w = w[len(drawn) % 5]
        elif w.size % 2 == 0:
            w = w.reshape(shape)

        def both_branches(sign, bessel):
            small = w < cut
            safe_z = np.where(small, 1.0, np.sqrt(w))
            series = 0.5 + sign * w / 16.0 + w * w / 384.0 \
                + sign * w * w * w / 18432.0
            return np.where(small, series, bessel(safe_z) / safe_z)

        for ratio, sign, bessel in ((ratio_I1_sqrt, +1.0, special.i1),
                                    (ratio_J1_sqrt, -1.0, special.j1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ratio(w)
            assert np.shape(got) == np.shape(w)
            for reference in (both_branches(sign, bessel),
                              masked_ratio_sqrt(w, sign, bessel)):
                assert np.float64(got).tobytes() \
                    == np.float64(reference).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.integers(0, 12),
                  elements=st.one_of(st.floats(allow_nan=True),
                                     st.sampled_from([-0.0, 699.9 ** 2,
                                                      700.1 ** 2]))))
    def test_domain_checks_match_any_form(self, w):
        # The checks read the extremes; they must raise exactly when the
        # elementwise forms any(w < 0) and any(sqrt(w) > BESSEL_Z_MAX) do.
        negative = bool(np.any(w < 0.0))
        with np.errstate(invalid="ignore"):
            overflow = bool(np.any(np.sqrt(w) > numerics.BESSEL_Z_MAX))
        for ratio, raises in ((ratio_I1_sqrt, negative or overflow),
                              (ratio_J1_sqrt, negative)):
            try:
                with np.errstate(invalid="ignore", over="ignore"):
                    ratio(w)
            except ValueError:
                assert raises
            else:
                assert not raises


class TestQuadrature:
    def test_trapezoid_exact_for_linear(self):
        xi = np.linspace(0.0, 1.0, 17)
        vals = 2.0 * xi + 1.0
        assert trapezoid(vals, 3.0) == pytest.approx(3.0 * 2.0, rel=1e-14)

    def test_trapezoid_second_order(self):
        def err(n):
            xi = np.linspace(0.0, 1.0, n)
            return abs(trapezoid(np.sin(np.pi * xi), 1.0) - 2.0 / np.pi)

        assert err(11) / err(21) == pytest.approx(4.0, rel=0.05)

    def test_simpson_exact_for_cubic(self):
        xi = np.linspace(0.0, 1.0, 21)
        vals = xi ** 3
        assert simpson(vals, 2.0) == pytest.approx(0.5, rel=1e-13)

    def test_trapezoid_needs_two_samples(self):
        with pytest.raises(ValueError):
            trapezoid([1.0], 1.0)

    # Odd lengths from 3 to 2049, values spread over up to 600 decades, and
    # a positive length; the reference is scipy's evenly spaced rule.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 1024), st.integers(0, 2**32 - 1),
           st.integers(0, 300), st.floats(1e-6, 1e6))
    def test_simpson_bitwise_equals_scipy(self, half, seed, decades, length):
        n = 2 * half + 1
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-decades, decades, n)
        want = float(length * scipy_simpson(v, dx=1.0 / (n - 1)))
        got = simpson(v, length)
        assert struct.pack("<d", got) == struct.pack("<d", want), (n, seed)

    @pytest.mark.parametrize("values", [
        np.ones(2), np.ones(4), np.ones(1024), np.ones(1), np.ones(0),
        np.ones((3, 5)), np.float64(1.0)],
        ids=["n2", "n4", "n1024", "n1", "n0", "2d", "0d"])
    def test_simpson_needs_odd_samples_in_one_dimension(self, values):
        with pytest.raises(ValueError, match="odd number"):
            simpson(values, 1.0)


class TestTridiagonal:
    def test_one_factor_many_right_hand_sides(self):
        rng = np.random.default_rng(11)
        n, r = 31, 0.7
        lower, diag, upper = (np.asarray(b) for b in diffusion_bands(n, r))
        M = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        rhs = rng.uniform(-1.0, 1.0, (4, n - 1))
        for kernel in thomas_paths():
            with mock.patch.object(numerics, "_kernel", kernel):
                factor = numerics._kernel.factor(n, r)
                for row, expected in zip(rhs, np.linalg.solve(M, rhs.T).T):
                    got = solve_tridiagonal(factor, row)
                    assert np.allclose(got[:-1], expected, rtol=1e-12,
                                       atol=1e-14)
                # Substitution leaves the shared factor intact: a repeat is
                # bitwise equal.
                assert np.array_equal(solve_tridiagonal(factor, rhs[0]),
                                      solve_tridiagonal(factor, rhs[0]))
                for bad in (rhs[0][:-1], rhs[:, :-1], rhs[0][0]):
                    with pytest.raises(ValueError):
                        solve_tridiagonal(factor, bad)

    def test_rejects_non_dominant(self):
        # The diffusion matrix is dominant exactly when r > 0 and finite;
        # its factor's guard rejects every other r.
        for kernel in thomas_paths():
            with mock.patch.object(numerics, "_kernel", kernel):
                for r in (0.0, -0.0, -1e-6, -1.0, math.nan, math.inf,
                          -math.inf, 1e308):
                    with pytest.raises(NumericalFailure,
                                       match="diffusion number"):
                        numerics._kernel.factor(21, r)
                with pytest.raises(ValueError, match="n >= 3"):
                    numerics._kernel.factor(2, 0.5)

    def test_rejects_bad_lengths(self):
        for kernel in thomas_paths():
            with mock.patch.object(numerics, "_kernel", kernel):
                lower, ratios, pivots = numerics._kernel.factor(4, 0.5)
                with pytest.raises(ValueError):
                    solve_tridiagonal((lower, ratios, pivots), [1.0, 1.0])
                # Bands of 4-byte floats, which C would read past their end.
                for bad in ((lower, ratios.astype(np.float32), pivots),
                            (lower, ratios, pivots.astype(np.float32))):
                    with pytest.raises(ValueError):
                        solve_tridiagonal(bad, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("n", [3, 4, 21, 161, 400])
    def test_special_right_hand_sides_match_reference(self, n):
        # Signed zeros, subnormals, infinities and NaNs take the reference
        # substitution's IEEE path, sign and payload of every NaN included,
        # on the compiled and the Python path alike.
        rng = np.random.default_rng(n)
        m, tiny = n - 1, 5e-324
        cases = [np.zeros(m), -np.zeros(m), np.full(m, tiny),
                 np.full(m, -tiny) * np.arange(m),
                 rng.standard_normal(m) * 2.2250738585072014e-308]
        for value in (math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0):
            for at in sorted({0, m // 2, m - 1}):
                rhs = rng.standard_normal(m)
                rhs[at] = value
                cases.append(rhs)
        rhs = rng.standard_normal(m)
        rhs[rng.choice(m, min(m, 4), replace=False)] = \
            [math.inf, -math.inf, math.nan, -0.0][:min(m, 4)]
        cases.append(rhs)
        for r in (1e-6, 0.37, 1e6):
            reference = thomas_factor(*diffusion_bands(n, r))
            for kernel in thomas_paths():
                with mock.patch.object(numerics, "_kernel", kernel):
                    factor = numerics._kernel.factor(n, r)
                    for rhs in cases:
                        profile = solve_tridiagonal(factor, rhs)
                        assert profile[:-1].tobytes() \
                            == thomas_solve(reference, rhs).tobytes(), \
                            (kernel, r, rhs)
                        assert profile[-1:].tobytes() == bytes(8)


class TestDiffusionFactor:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(3, 400), st.floats(1e-6, 1e6), st.integers(0, 2**32 - 1))
    def test_matches_reference_and_dense_solve(self, n, r, seed):
        # The one band value stands for the general factorization's lower
        # band, and the solve has the bits of the general substitution with
        # the pinned end +0.0 appended, on every path.
        bands = diffusion_bands(n, r)
        reference = thomas_factor(*bands)
        rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, n - 1)
        lower, diag, upper = (np.asarray(b) for b in bands)
        M = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(M, rhs)
        for kernel in thomas_paths():
            with mock.patch.object(numerics, "_kernel", kernel):
                lower, ratios, pivots = numerics._kernel.factor(n, r)
                profile = solve_tridiagonal((lower, ratios, pivots), rhs)
            assert ratios.dtype == pivots.dtype == np.float64
            assert (tuple(ratios.tolist()), tuple(pivots.tolist())) \
                == reference[1:]
            assert reference[0] == (lower,) * (n - 2) and -lower == r
            assert profile.size == n and struct.pack("<d", profile[-1]) \
                == struct.pack("<d", 0.0)
            x = profile[:-1]
            assert x.tobytes() == thomas_solve(reference, rhs).tobytes()
            assert np.max(np.abs(x - expected)) \
                <= 1e-12 * np.max(np.abs(expected))


def host_has_fma() -> bool:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return platform.machine() == "x86_64" and bool(re.search(r"\bfma\b",
                                                              cpuinfo))


def short_run(kernel, cfg, directory):
    """Series and events of a 200 s run of `cfg` on the given set of
    pieces, and the bytes of each file it emits into `directory` on it."""
    with mock.patch.object(numerics, "_kernel", kernel):
        result = harness.run_scenario(
            config.override(cfg, "scheme.horizon", 200.0))
        written = harness.emit_outputs(result, directory)
    return ({c: result.series[c].tobytes() for c in harness.SERIES_COLUMNS},
            result.events, {path.name: path.read_bytes() for path in written})


needs_kernel = pytest.mark.skipif(numerics._kernel is numerics.REFERENCE,
                                  reason=numerics.THOMAS_KERNEL)


class TestThomasKernel:
    """The loader: a cold build in an empty cache, and the fallback to the
    Python loops whenever the kernel cannot be trusted."""

    @staticmethod
    def load(monkeypatch, cache, **kwargs):
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        return _thomas.load(numerics.check_kernel, **kwargs)

    @needs_kernel
    def test_cold_build_loads_then_is_reused(self, monkeypatch, tmp_path):
        kernel, status = self.load(monkeypatch, tmp_path)
        assert status == "compiled" and kernel is not None
        built = [p.name for p in (tmp_path / "stefanetc").iterdir()]
        assert len(built) == 1 and built[0].startswith("_stefanetc_thomas_")

        def no_build(*args):
            raise AssertionError("rebuilt a cached kernel")
        monkeypatch.setattr(_thomas, "_build", no_build)
        assert self.load(monkeypatch, tmp_path)[1] == "compiled"

    # Mutations of the shipped source that compile but fail the check: the
    # old text, which must occur once, and its replacement.
    MUTATIONS = {
        # Division by a pivot as a multiply by its reciprocal.
        "reciprocal": ("/ pivots[i]", "* (1.0 / pivots[i])"),
        # The forward and backward upwind differences swapped.
        "upwind_swapped": ("(u[i + 1] - u[i]) / h\n"
                           "                                : (u[i] - u[i - 1]) / h",
                           "(u[i] - u[i - 1]) / h\n"
                           "                                : (u[i + 1] - u[i]) / h"),
        # The influence right-hand side dt (p / dt) written as p.
        "influence_as_p": ("dt * (z_rhs[i] / dt)", "z_rhs[i]"),
        # A left-to-right sum in place of numpy's pairwise sum.
        "sequential_sum": ("if (m < 8) {", "if (1) {"),
        # A formatter that always writes 17 digits: 0.1 as
        # 0.10000000000000000.
        "seventeen_digits": ("while (f % 10 == 0) {\n"
                             "        f /= 10;\n"
                             "        e++;",
                             "while (f < 10000000000000000ULL) {\n"
                             "        f *= 10;\n"
                             "        e--;"),
        # Exponent notation from 1e15 on, where repr has it from 1e16.
        "exponent_at_1e15": ("&& decpt <= 16)", "&& decpt <= 15)"),
        # Java's two-digit minimum: 10 x 5e-324 as 4.9e-323, not 5e-323.
        "java_two_digits": ("if (s >= 10) {", "if (s >= 100) {"),
        # The series path's Horner factor (a/2)/(m+1) as a multiply by the
        # reciprocal of m + 1.
        "series_reciprocal": ("half_b / (double)(m + 1)",
                              "half_b * (1.0 / (m + 1))"),
        # The top orders' power series one term short.
        "horner_short": ("j > 0; j--", "j > 1; j--"),
        # The downward recurrence's 2 (m+1) as 2 m.
        "recurrence_2m": ("2.0 * (m + 1) * rm", "2.0 * m * rm"),
        # The controller transform's running sum taking node j + 1, then
        # node j, where numpy adds their panel.
        "controller_regrouped": ("t0 = t0 + (above + v);",
                                 "t0 = t0 + above + v;"),
        # V1's term eps alpha / (2 beta) X^2 with X^2 formed first.
        "weight_X_regrouped": ("weight_X * X * X", "weight_X * (X * X)"),
        # W's decay e^{-xi s} taken once per stack, at its first row's s.
        "decay_per_stack": ("double arg = -xi * sr;",
                            "double arg = -xi * s[0];"),
    }

    @needs_kernel
    @pytest.mark.parametrize("fault", ["no_compile", "fma", "no_i1",
                                       *MUTATIONS])
    def test_untrusted_kernel_falls_back_bitwise(self, fault, default_cfg,
                                                 monkeypatch, tmp_path):
        # A source that cannot compile; the mutations above; the shipped
        # source with a - b * c fused into one rounding (the mutation
        # -ffp-contract=off rules out); and the shipped source where scipy
        # exports no i1.  Each leaves the Python and numpy code and repr in
        # charge, and a run on it has the compiled run's bits and emits the
        # compiled run's bytes.
        flags = _thomas.FLAGS
        source = tmp_path / "thomas.c"
        text = _thomas.SOURCE.read_text()
        expect = "python: the compiled kernel does not reproduce"
        if fault == "no_compile":
            text = "#error this kernel does not compile\n" + text
            expect = "python: the kernel build failed"
        elif fault == "fma":
            if not host_has_fma():
                pytest.skip("needs an x86-64 host with FMA")
            flags = ("-O2", "-ffp-contract=fast", "-mfma")
        elif fault == "no_i1":
            monkeypatch.delitem(cython_special.__pyx_capi__, "i1")
            expect = "python: scipy's i1 is not available"
        else:
            old, new = self.MUTATIONS[fault]
            assert text.count(old) == 1
            text = text.replace(old, new)
        source.write_text(text)
        kernel, status = self.load(monkeypatch, tmp_path / "cache",
                                   source=source, flags=flags)
        assert kernel is None and status.startswith(expect), status
        assert not [p for p in (tmp_path / "cache" / "stefanetc").iterdir()
                    if p.name.startswith(".build-")]
        assert short_run(numerics.REFERENCE, default_cfg,
                         tmp_path / "fallback") \
            == short_run(numerics._kernel, default_cfg, tmp_path / "compiled")

    def test_missing_cffi_or_cache_falls_back(self, monkeypatch, tmp_path):
        blocked = tmp_path / "not_a_directory"
        blocked.write_text("")
        kernel, status = self.load(monkeypatch, blocked)
        assert kernel is None
        assert status.startswith("python: no writable kernel cache"), status
        monkeypatch.setitem(sys.modules, "_cffi_backend", None)
        assert self.load(monkeypatch, tmp_path) \
            == (None, "python: cffi is not installed")

    def test_path_is_reported(self):
        assert (numerics.THOMAS_KERNEL == "compiled") \
            == (numerics._kernel is not numerics.REFERENCE)
        if numerics._kernel is numerics.REFERENCE:
            assert numerics.THOMAS_KERNEL.startswith("python: ")


def compiled_csv(values) -> bytes:
    """The compiled formatter's CSV text of a 2-D float array."""
    return bytes(numerics._kernel.format_rows(
        np.asarray(values, dtype=float), bytearray()))


def repr_csv(values) -> bytes:
    """The same text from repr, value by value."""
    return "".join(",".join(repr(float(v)) for v in row) + "\r\n"
                   for row in values).encode()


@needs_kernel
class TestFormatKernel:
    """The compiled formatter writes repr's bytes, on raw bit patterns and
    on sweeps of the cases where a shortest-digit algorithm or its layout
    goes wrong: the irregular spacing below a power of two, the smallest
    subnormals, which take fewer than 17 digits, the integers where the
    doubles' spacing passes 1, and the switches to exponent notation."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(np.uint64, st.tuples(st.integers(1, 8),
                                       st.integers(1, 18))))
    def test_bit_patterns_match_repr(self, bits):
        values = bits.view(np.float64)
        assert compiled_csv(values) == repr_csv(values)

    def test_sweeps_match_repr(self):
        p = np.ldexp(1.0, np.arange(-1074, 1024))
        near_2_53 = np.arange(2 ** 53 - 300, 2 ** 53 + 300, dtype=np.int64)
        nans = np.array([0x7ff8000000000000, 0xfff8000000000000,
                         0x7ff0000000000001, 0xfff4000000abcdef,
                         0x7fffffffffffffff, 0xffffffffffffffff],
                        dtype=np.uint64).view(np.float64)
        sweeps = {
            "powers_of_two": np.column_stack(
                (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))),
            "powers_of_ten": np.array(
                [[float(f"1e{k}") for k in range(-323, 309)]]).T,
            "subnormals": np.arange(1.0, 100001.0).reshape(-1, 10) * 5e-324,
            "near_2_53": near_2_53.astype(float).reshape(-1, 3),
            "notation_edges": np.array([[1e-4, 1e-5, 1e16,
                                         np.nextafter(1e16, 0.0)]]),
            "nans": nans[None, :],
        }
        for name, values in sweeps.items():
            for signed in (values, -values):
                assert compiled_csv(signed) == repr_csv(signed), name
        assert compiled_csv([[1e-4, 1e-5, 1e16, np.nextafter(1e16, 0.0)]]) \
            == b"0.0001,1e-05,1e+16,9999999999999998.0\r\n"
        assert compiled_csv([[5e-324, 10 * 5e-324, math.nan, -0.0]]) \
            == b"5e-324,5e-323,nan,-0.0\r\n"


PHYS = params.derive_physical(k=0.00220, rho=7.90e-4, cp=2380.0, dH=2.10e5,
                              L=3.0, Tm=37.0)


def outcome(f, *args):
    """The bytes of each array `f(*args)` returns, or the type and message
    of the failure it raises."""
    try:
        out = f(*args)
    except (ValueError, OverflowError, NumericalFailure,
            ValidityBreach) as exc:
        return type(exc), str(exc)
    return [np.asarray(part).tobytes() for part in out]


def profile(rng, n, scale):
    """n generic values in [-scale, scale] with a few +0.0 and -0.0, ending
    in the pinned +0.0."""
    u = rng.uniform(-scale, scale, n)
    u[rng.integers(0, n, 3)] = 0.0
    u[rng.integers(0, n, 3)] = -0.0
    u[-1] = 0.0
    return u


# A step's inputs: n up to 400, where the trapezoid's pairwise sum splits
# its n - 1 terms; s log-uniform from 1e-4 to L; sdot of both signs, and
# both zeros, though no workload's sdot falls below 3.3e-6; the gain's
# first argument w0 = lam s^2 / alpha from 0 over the series cut to beyond
# the Bessel range (700^2).
step_inputs = dict(
    n=st.integers(3, 400),
    s=st.floats(math.log(1e-4), math.log(PHYS.L)).map(
        lambda v: min(math.exp(v), PHYS.L)),
    sdot=st.one_of(st.floats(-1e-2, 1e-2), st.sampled_from([0.0, -0.0])),
    q=st.floats(-1.0, 1.0),
    dt=st.floats(1e-3, 10.0),
    w0=st.one_of(st.just(0.0), st.floats(math.log(1e-7), math.log(1e6)).map(
        math.exp)),
    slope=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2 ** 32 - 1))


class TestStepKernel:
    """The compiled pieces of the step against the reference pieces, bit
    for bit, and the step on both sets.  Overflow warnings are ignored:
    they change no value, and the extreme gains overflow."""

    @needs_kernel
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**step_inputs)
    def test_pieces_match_numpy(self, n, s, sdot, q, dt, w0, slope, seed):
        compiled, k, alpha = numerics._kernel, PHYS.k, PHYS.alpha
        rng = np.random.default_rng(seed)
        u = profile(rng, n, 10.0)
        r = -plant.implicit_factor(s, dt, alpha, n)[0]
        lam = w0 * alpha / (s * s)

        def assert_same(name, *args):
            assert outcome(getattr(compiled, name), *args) \
                == outcome(getattr(numerics.REFERENCE, name), *args), name

        with np.errstate(over="ignore", invalid="ignore"):
            # The plant's right-hand side: advection, ghost node.
            assert_same("advance_rhs", u, s, sdot, q, dt, k, r)
            # The observer's: the gain in the source and in dt (p / dt).
            assert_same("observer_rhs", u, s, sdot, q, dt, k, r, lam, alpha,
                        slope)
            # At dt = 1 the influence right-hand side is the gain itself.
            if w0 <= BESSEL_Z_MAX ** 2:
                assert compiled.observer_rhs(
                    u, s, sdot, q, 1.0, k, r, lam, alpha, slope)[1].tobytes() \
                    == observer_gain(numerics.unit_grid(n) * s, s, lam,
                                     alpha)[:-1].tobytes()
            # The Sherman-Morrison update and its square's trapezoid.
            u_star, z = profile(rng, n, 10.0), profile(rng, n, 1.0)
            assert_same("observer_update", u_star, z, s, dt)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**step_inputs)
    def test_step_has_one_result_on_both_paths(self, n, s, sdot, q, dt, w0,
                                               slope, seed):
        rng = np.random.default_rng(seed)
        u, u_hat = profile(rng, n, 10.0), profile(rng, n, 10.0)
        factor = plant.implicit_factor(s, dt, PHYS.alpha, n)
        lam = w0 * PHYS.alpha / (s * s)
        results = []
        for kernel in thomas_paths():
            with mock.patch.object(numerics, "_kernel", kernel), \
                    np.errstate(over="ignore", invalid="ignore"):
                results.append((
                    outcome(lambda: plant.step_plant(u, s, sdot, PHYS, q, dt,
                                                     factor)),
                    outcome(observer.step_observer, u_hat, s, sdot, PHYS,
                            lam, q, dt, slope, factor)))
        assert results[1:] == results[:-1]

    # Failures of a step of the shipped loop, each made by changing one of
    # its three solves (the plant's, then the observer's base and influence
    # solves) or the gain, and the failure the step raises for it.
    FAILURES = {
        # A NaN profile also moves s to NaN, outside (0, L): the finiteness
        # check comes first.
        "plant_nan": (NumericalFailure, "plant profile became non-finite"),
        "mv2": (ValidityBreach, "interface left (0, L)"),
        "bessel": (ValueError, "Bessel argument outside [0, 700]"),
        "singular": (NumericalFailure, "singular injection correction"),
        "observer_nan": (NumericalFailure,
                         "observer profile became non-finite"),
    }

    @pytest.mark.parametrize("faults", [
        *([f] for f in FAILURES), ["mv2", "bessel"], ["bessel", "singular"],
        ["singular", "observer_nan"]], ids="+".join)
    def test_same_failure_on_both_paths(self, faults, default_cfg,
                                        monkeypatch):
        # Where a step has several faults, the first failure in the order
        # above is raised, on both paths alike.
        solve = plant.solve_tridiagonal

        def faulty_solve(factor, rhs):
            calls.append(1)
            out = solve(factor, rhs)
            if len(calls) == 1 and "plant_nan" in faults:
                out[:] = math.nan
            if len(calls) == 1 and "mv2" in faults:
                out[-2] = 1e6          # sdot far beyond (L - s) / dt
            if len(calls) == 2 and "observer_nan" in faults:
                out[:] = math.nan
            if len(calls) == 3 and "singular" in faults:
                # w.z = -1 / dt, so 1 + dt w.z is 0 to roundoff.
                out[-2] = loop.s / ((out.size - 1) * loop.dt)
            return out

        monkeypatch.setattr(plant, "solve_tridiagonal", faulty_solve)
        raised = []
        for kernel in thomas_paths():
            with mock.patch.object(numerics, "_kernel", kernel):
                loop = harness.ClosedLoop(
                    default_cfg, params.derive_trigger(
                        default_cfg.phys, default_cfg.ctrl, default_cfg.trig))
                loop.start()
                loop.supervise()
                if "bessel" in faults:
                    loop.lam *= 1e6
                calls = []
                with pytest.raises((ValueError, NumericalFailure,
                                    ValidityBreach)) as exc:
                    loop.step()
                raised.append((exc.type, str(exc.value)))
        kind, message = self.FAILURES[faults[0]]
        assert raised[0][0] is kind and raised[0][1].startswith(message), \
            raised
        assert raised[1:] == raised[:-1]


class TestSeam:
    """The two sets of pieces `numerics._kernel` holds: one signature per
    piece, and the same size checks, made before any arithmetic."""

    def test_sets_have_one_signature_per_piece(self):
        pieces = vars(numerics.REFERENCE)
        assert list(pieces) == ["factor", "solve", "advance_rhs",
                                "observer_rhs", "observer_update",
                                "format_rows", "series_integral",
                                "lyapunov_rows"]
        for name, piece in pieces.items():
            assert list(inspect.signature(getattr(_thomas.Kernel, name))
                        .parameters)[1:] \
                == list(inspect.signature(piece).parameters), name
            # The reference set has one home, beside its check.
            assert piece.__module__ == "stefanetc.numerics", name
        assert thomas_paths()[-1] is numerics.REFERENCE
        assert numerics._kernel in thomas_paths()

    def test_update_rejects_profiles_of_two_lengths(self):
        # The compiled update reads z at u_star's length, so both sets raise
        # one ValueError, before any arithmetic, for any pair of profiles
        # that are not 1-D, of one length and of 2 nodes or more.
        u_star, z = np.cos(np.arange(21.0)), 0.01 * np.sin(np.arange(21.0))
        u_star[-1] = z[-1] = 0.0
        for a, b in ((u_star, z[:-1]), (u_star[:-6], z), (u_star[:1], z[:1]),
                     (u_star[:-1].reshape(4, 5), z[:-1].reshape(4, 5))):
            raised = [outcome(kernel.observer_update, a, b, 0.3, 0.5)
                      for kernel in thomas_paths()]
            assert raised[0][0] is ValueError and "one length" in raised[0][1]
            assert raised[1:] == raised[:-1]

    def test_pieces_reject_short_profiles_alike(self):
        # Each piece that reads a profile checks it on both sets, so the
        # compiled one never passes C a pointer past the end of an array.
        for u in (np.zeros(1), np.zeros(0), np.zeros((2, 3))):
            raised = [(outcome(kernel.advance_rhs, u, 0.3, 1e-4, 1.0, 0.5,
                               PHYS.k, 0.7),
                       outcome(kernel.observer_rhs, u, 0.3, 1e-4, 1.0, 0.5,
                               PHYS.k, 0.7, 0.1, PHYS.alpha, -2.0))
                      for kernel in thomas_paths()]
            assert raised[0][0][0] is ValueError, raised
            assert raised[1:] == raised[:-1]
        for kernel in thomas_paths():
            with pytest.raises(ValueError, match="n >= 3"):
                kernel.factor(2, 0.5)

    def test_strided_bands_solve_alike(self):
        # Bands that are strided views of float64 arrays solve on both sets
        # as their contiguous copies do.
        rhs = np.sin(np.arange(5.0))
        lower, ratios, pivots = numerics.REFERENCE.factor(6, 0.7)
        expected = numerics.REFERENCE.solve(lower, ratios, pivots, rhs)
        strided = [np.repeat(band, 2)[::2] for band in (ratios, pivots)]
        assert not strided[0].flags.c_contiguous
        for kernel in thomas_paths():
            assert kernel.solve(lower, *strided, rhs).tobytes() \
                == expected.tobytes(), kernel

    @needs_kernel
    def test_step_converts_at_most_two_buffers(self, default_cfg,
                                               monkeypatch):
        # Past its first step, a step of the loop on the compiled set hands
        # C the buffers of its workspace and of the profiles it holds as
        # they are, and converts only the two fresh profiles it returns.
        class CountingFFI:
            def __init__(self, ffi):
                self.ffi, self.calls = ffi, 0

            def from_buffer(self, *args):
                self.calls += 1
                return self.ffi.from_buffer(*args)

            def __getattr__(self, name):
                return getattr(self.ffi, name)

        counting = CountingFFI(numerics._kernel.ffi)
        monkeypatch.setattr(numerics._kernel, "ffi", counting)
        loop = harness.ClosedLoop(default_cfg, params.derive_trigger(
            default_cfg.phys, default_cfg.ctrl, default_cfg.trig))
        loop.start()
        loop.supervise()
        loop.step()
        for _ in range(5):
            loop.supervise()
            counting.calls = 0
            loop.step()
            assert counting.calls <= 2

    def test_series_rejects_bad_stacks_alike(self):
        # Both sets check the stack's shape and s's length before any
        # arithmetic and raise one ValueError.
        for u, s in ((np.zeros((2, 1)), np.zeros(2)), (np.zeros(3), np.zeros(1)),
                     (np.zeros((2, 3)), np.zeros(3)),
                     (np.zeros((2, 3)), np.zeros((2, 1)))):
            raised = [outcome(kernel.series_integral, u, s, 0.1, PHYS.alpha)
                      for kernel in thomas_paths()]
            assert raised[0][0] is ValueError and "series path" in raised[0][1]
            assert raised[1:] == raised[:-1]

    def test_lyapunov_rows_reject_bad_input_alike(self):
        # Both sets check the stacks' shapes and the lengths of s and m,
        # then that the weights, the stacks, s and m are finite, and raise
        # one ValueError; an e^{-xi s} that overflows raises math.exp's
        # OverflowError on both.
        stacks = np.sin(np.arange(3 * 4 * 5.0)).reshape(3, 4, 5)
        s, m = np.array([0.3, 1.0, 2.0, 2.9]), np.full(4, 1e-3)
        weights = [2.0, 10.0, PHYS.alpha, PHYS.beta, 3e-4, 1.2, 5e4, 0.5]
        shapes = [(*stacks[:, :, :1], s, m), (*stacks[:, 0], s[:1], m[:1]),
                  (stacks[0], stacks[1, :3], stacks[2], s, m),
                  (*stacks, s[:3], m), (*stacks, s, np.ones((4, 1)))]
        non_finite = [(*stacks, np.where(s == 1.0, math.inf, s), m),
                      (*stacks, s, np.where(s == 1.0, -math.inf, m))]
        for i in range(3):
            bad = stacks.copy()
            bad[i, 1, 2] = math.nan
            non_finite.append((*bad, s, m))
        cases = [(args, weights, "(k, n) stacks") for args in shapes]
        cases += [(args, weights, "finite") for args in non_finite]
        cases += [((*stacks, s, m), weights[:k] + [math.nan] + weights[k + 1:],
                   "finite") for k in range(8)]
        cases.append(((*stacks, np.where(s == 1.0, -2e3, s), m), weights,
                      "math range error"))
        for args, row_weights, message in cases:
            raised = [outcome(kernel.lyapunov_rows, *args, *row_weights)
                      for kernel in thomas_paths()]
            assert message in raised[0][1], raised
            assert raised[0][0] is (OverflowError if "range" in message
                                    else ValueError)
            assert raised[1:] == raised[:-1]


class TestValueErrorAudit:
    # observer_gain, ratio_J1_sqrt and trapezoid raise ValueError outside
    # their domains; no configuration that passes validation reaches them.
    # ratio_J1_sqrt's argument in the monitors is mu_s max(j^2 - i^2, 0)
    # >= 0 (test_diagnostics::TestKernelOracles), and
    # trapezoid gets n >= 3 samples (TestStrictness rejects scheme.n = 2).

    def test_bessel_bound_read_in_the_gains_order(self, default_cfg):
        # sqrt(lambda L L / alpha) rounds to 700 here, while the gain's own
        # order, lambda (L L) / alpha, rounds above it: the check must read
        # the gain's order, or derive_trigger's f_max raises ValueError.
        cfg = config.override(default_cfg, "physical.L", "4.387391795507032")
        cfg = config.override(cfg, "controller.lambda", "29.785292884363315")
        with pytest.raises(ConfigurationError, match="Bessel argument"):
            params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 40), st.integers(0, 3), st.floats(0.0, 1.0),
           st.sampled_from([3, 4, 21, 161]))
    def test_gain_within_validated_bound(self, step, below, frac, n):
        # lambda at, or a few ulps below, the largest value the controller
        # check accepts for this L; the gain on the grid at any s in (0, L],
        # and on the f_max grid at s = L, stays in the Bessel domain.  L is
        # drawn on a fine grid, so that its products round as most do.
        L = 0.1 + 9.9 * step / 2 ** 40
        phys = params.derive_physical(k=0.00220, rho=7.90e-4, cp=2380.0,
                                      dH=2.10e5, L=L, Tm=37.0)

        def accepted(lam):
            try:
                params.ControllerConfig(c=3.0e-4, lam=float(lam), epsilon=10.0,
                                        s_r=0.5 * L).validate(phys)
            except ConfigurationError:
                return False
            return True

        lam = BESSEL_Z_MAX ** 2 * phys.alpha / (L * L)
        while accepted(lam):
            lam = np.nextafter(lam, math.inf)
        while not accepted(lam):
            lam = np.nextafter(lam, 0.0)
        for _ in range(below):
            lam = np.nextafter(lam, 0.0)
        lam = float(lam)
        for s in {L, max(frac * L, 1e-3)}:
            observer_gain(numerics.unit_grid(n) * s, s, lam, phys.alpha)
        observer_gain(np.linspace(0.0, L, 1025), L, lam, phys.alpha)
