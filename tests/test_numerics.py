"""Special-function and kernel-level checks against independent oracles.

The Bessel oracles are ascending power series implemented here from the
defining sums, so the library routines are tested against something other
than themselves.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from stefanetc import config, numerics, params
from stefanetc.errors import ConfigurationError, NumericalFailure
from stefanetc.numerics import (BESSEL_Z_MAX, diffusion_factor,
                                ratio_J1_sqrt, simpson, solve_tridiagonal,
                                trapezoid)
from stefanetc.observer import observer_gain
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
            assert z * ratio_J1_sqrt(z * z) == pytest.approx(
                series_J1(z), rel=1e-10, abs=1e-14)

    def test_I1_domain(self):
        with pytest.raises(ValueError):
            ratio_I1_sqrt(-1.0)
        with pytest.raises(ValueError, match="Bessel argument"):
            ratio_I1_sqrt(701.0 ** 2)
        with pytest.raises(ValueError):
            ratio_J1_sqrt(-0.25)


class TestRatios:
    def test_values_at_zero(self):
        assert ratio_I1_sqrt(0.0) == pytest.approx(0.5, rel=1e-14)
        assert ratio_J1_sqrt(0.0) == pytest.approx(0.5, rel=1e-14)

    def test_continuity_across_series_cut(self):
        # The piecewise definition must agree on both sides of the cut.
        for w in (0.5e-3, 0.999e-3, 1.001e-3, 2e-3):
            z = math.sqrt(w)
            assert ratio_I1_sqrt(w) == pytest.approx(series_I1(z) / z, rel=1e-10)
            assert ratio_J1_sqrt(w) == pytest.approx(series_J1(z) / z, rel=1e-10)

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
                               (ratio_J1_sqrt(w), exact_J)):
                assert abs(got - exact) <= 1e-15 * exact

    def test_against_series_moderate(self):
        for w in (0.1, 1.0, 9.0, 100.0):
            z = math.sqrt(w)
            assert ratio_I1_sqrt(w) == pytest.approx(series_I1(z) / z, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            ratio_I1_sqrt(-1e-9)
        with pytest.raises(ValueError):
            ratio_J1_sqrt(-1e-9)

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
        # scalars and 2-D stacks, and raise no warning on the 0/0 they skip.
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


class TestTridiagonal:
    def test_against_dense_solver(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 20, 101):
            a = rng.uniform(-1.0, 1.0, n - 1)
            c = rng.uniform(-1.0, 1.0, n - 1)
            b = np.abs(rng.uniform(2.5, 4.0, n))
            rhs = rng.uniform(-1.0, 1.0, n)
            M = np.diag(b) + np.diag(a, -1) + np.diag(c, 1)
            expected = np.linalg.solve(M, rhs)
            got = solve_tridiagonal(thomas_factor(a, b, c), rhs, np.empty(n))
            assert got.tobytes() == thomas_solve(thomas_factor(a, b, c), rhs).tobytes()
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)

    def test_one_factor_many_right_hand_sides(self):
        rng = np.random.default_rng(11)
        n = 30
        a = rng.uniform(-1.0, 1.0, n - 1)
        c = rng.uniform(-1.0, 1.0, n - 1)
        b = rng.uniform(2.5, 4.0, n)
        M = np.diag(b) + np.diag(a, -1) + np.diag(c, 1)
        factor = thomas_factor(a, b, c)
        rhs = rng.uniform(-1.0, 1.0, (4, n))
        for row, expected in zip(rhs, np.linalg.solve(M, rhs.T).T):
            got = solve_tridiagonal(factor, row, np.empty(n))
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)
        # Substitution leaves the shared factor intact: a repeat is bitwise equal.
        assert np.array_equal(solve_tridiagonal(factor, rhs[0], np.empty(n)),
                              solve_tridiagonal(factor, rhs[0], np.empty(n)))
        with pytest.raises(ValueError):
            solve_tridiagonal(factor, rhs[0][:-1], np.empty(n))

    def test_rejects_non_dominant(self):
        # The diffusion matrix is dominant exactly when r > 0 and finite;
        # its factor's guard rejects every other r.
        for r in (0.0, -0.0, -1e-6, -1.0, math.nan, math.inf, -math.inf, 1e308):
            with pytest.raises(NumericalFailure, match="diffusion number"):
                diffusion_factor(21, r)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            solve_tridiagonal(diffusion_factor(4, 0.5), [1.0, 1.0], np.empty(3))


class TestDiffusionFactor:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(3, 161), st.floats(1e-6, 1e6), st.integers(0, 2**32 - 1))
    def test_matches_reference_and_dense_solve(self, n, r, seed):
        bands = diffusion_bands(n, r)
        factor = diffusion_factor(n, r)
        assert factor == thomas_factor(*bands)
        rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, n - 1)
        out = np.full(n, 7.0)
        assert solve_tridiagonal(factor, rhs, out) is out and out[-1] == 7.0
        x = out[:-1]
        assert x.tobytes() == thomas_solve(thomas_factor(*bands), rhs).tobytes()
        lower, diag, upper = (np.asarray(b) for b in bands)
        M = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(M, rhs)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


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
