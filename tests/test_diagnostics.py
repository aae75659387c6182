"""Transform and monitor checks: kernel constants against the derivation
chain, round-trip accuracy of
both transform pairs with grid-refinement order, the forcing-kernel norm
against a hand-integrated case and a reference search over s, the
Lyapunov functional at rest, the monitor transforms against their
full-matrix forms, the inverse kernel against mpmath and its weights below
the diagonal, the series path's multiplication theorem against mpmath, its
truncation constants against their bound, its row rule and its compiled
piece against numpy's, and stacked
monitor calls against one-row stacks and the fused quadratures against
separate calls."""

import math
import types
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from stefanetc import diagnostics as dg
from stefanetc import harness, numerics, params
from stefanetc.numerics import (phi_kernel, ratio_J1_sqrt, simpson,
                                trapezoid, unit_grid)
from stefanetc.observer import error_norms
from stefanetc.errors import ConfigurationError
import transform_oracles as oracles

PHYS = params.derive_physical(k=0.00220, rho=7.90e-4, cp=2380.0, dH=2.10e5,
                              L=3.0, Tm=37.0)
ALPHA, BETA = PHYS.alpha, PHYS.beta
C, LAM, EPS = 3.0e-4, 0.1, 10.0
CTRL = params.ControllerConfig(c=C, lam=LAM, epsilon=EPS, s_r=2.0)
TRIG = params.TriggerConfig(eta=1.325e-2, gamma=1e3, delta=0.5, m0=1e-4,
                            A=None, b_star=None)


def least_gathered_s():
    """The least s with sqrt(LAM/ALPHA) s >= J1_FIRST_ZERO: rows below it
    take the inverse transform's series path and rows from it on the
    gathered kernel."""
    s = dg.J1_FIRST_ZERO / math.sqrt(LAM / ALPHA)
    while math.sqrt(LAM / ALPHA) * s < dg.J1_FIRST_ZERO:
        s = float(np.nextafter(s, math.inf))
    while math.sqrt(LAM / ALPHA) * float(np.nextafter(s, 0.0)) \
            >= dg.J1_FIRST_ZERO:
        s = float(np.nextafter(s, 0.0))
    return s


S_J11 = least_gathered_s()


@pytest.fixture(scope="module")
def tc():
    return oracles.kernel_constants(ALPHA, BETA, C, EPS)


@pytest.fixture(scope="module")
def derived():
    return params.derive_trigger(PHYS, CTRL, TRIG)


def smooth_profiles(n):
    xi = np.linspace(0.0, 1.0, n)
    return [np.sin(np.pi * xi),
            xi * (1.0 - xi),
            np.exp(xi) - np.e * xi - (1.0 - xi)]


def round_trip_errors(n, s, tc):
    worst_err_pair, worst_ctrl_pair = 0.0, 0.0
    for p in smooth_profiles(n):
        rt = oracles.error_inverse(
            oracles.transform_error_direct(p, s, LAM, ALPHA), s, LAM, ALPHA)
        worst_err_pair = max(worst_err_pair, float(np.max(np.abs(rt - p))))
        X = 0.3
        w = oracles.controller_direct(p, X, s, EPS, ALPHA, BETA, C)
        back = oracles.transform_controller_inverse(w, X, s, tc, ALPHA, BETA)
        worst_ctrl_pair = max(worst_ctrl_pair, float(np.max(np.abs(back - p))))
    return worst_err_pair, worst_ctrl_pair


class TestConstants:
    def test_frozen_values(self, tc):
        assert tc.nu == pytest.approx(0.056666666666666664, rel=1e-12)
        assert tc.omega == pytest.approx(0.5031697506605478, rel=1e-12)
        assert tc.zeta == pytest.approx(-43.83423402759405, rel=1e-12)

    def test_kernel_bound_invariant(self, tc):
        assert tc.zeta ** 2 + tc.epsilon ** 2 < 4.0 * ALPHA * C / BETA ** 2

    def test_derived_zeta_matches_oracle(self, tc, derived):
        assert derived.zeta.hex() == tc.zeta.hex()

    def test_rejects_epsilon_out_of_range(self):
        # omega is real only for epsilon in (0, 2 sqrt(alpha c)/beta); the
        # one range check is ControllerConfig.validate's, which
        # derive_trigger runs first.
        limit = 2.0 * math.sqrt(ALPHA * C) / BETA
        trig = params.TriggerConfig(eta=1.325e-2, gamma=1e3, delta=0.5,
                                    m0=1e-4, A=None, b_star=None)
        for factor in (1.01, 1.0, 0.0, -0.5):
            ctrl = params.ControllerConfig(c=C, lam=LAM,
                                           epsilon=factor * limit, s_r=2.0)
            with pytest.raises(ConfigurationError, match="outside"):
                ctrl.validate(PHYS)
            with pytest.raises(ConfigurationError, match="outside"):
                params.derive_trigger(PHYS, ctrl, trig)

    def test_psi_at_origin(self, tc):
        assert oracles.psi_kernel(0.0, tc) == pytest.approx(EPS, rel=1e-14)

    def test_psi_bound_on_domain(self, tc):
        R = 2.0 * math.sqrt(ALPHA * C) / BETA
        assert oracles.psi_bound_holds(tc, PHYS.L, R)


class TestRoundTrips:
    def test_error_and_controller_pairs(self, tc):
        s = 0.1
        for n in (21, 41):
            h = 1.0 / (n - 1)
            e_err, e_ctrl = round_trip_errors(n, s, tc)
            assert e_err < 10.0 * h * h
            assert e_ctrl < 10.0 * h * h

    def test_refinement_order(self, tc):
        coarse = round_trip_errors(21, 0.1, tc)
        fine = round_trip_errors(41, 0.1, tc)
        assert coarse[0] / fine[0] >= 1.8
        assert coarse[1] / fine[1] >= 1.8

    def test_identity_at_zero_gain(self):
        # At n = 41 the inverse takes the series path, at z = 0.
        for n in (21, 41):
            p = smooth_profiles(n)[0]
            assert np.allclose(
                oracles.transform_error_direct(p, 0.5, 0.0, ALPHA), p,
                atol=1e-14)
            assert np.allclose(oracles.error_inverse(p, 0.5, 0.0, ALPHA), p,
                               atol=1e-14)


# The nodes of f_max's coarse and fine quadrature grids.
F_MAX_GRIDS = (dg.F_MAX_N_QUAD + 1, 2 * dg.F_MAX_N_QUAD + 1)


def forcing_draws(count, seed):
    """Seeded valid (L, lam, alpha, beta, c, epsilon) for the forcing kernel:
    sqrt(lam/alpha) L in [0, 30] and epsilon inside (0, 2 sqrt(alpha c)/beta)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha, beta = 10.0 ** rng.uniform(-4.0, 0.0, 2)
        c = 10.0 ** rng.uniform(-5.0, -1.0)
        L = rng.uniform(0.5, 5.0)
        lam = alpha * (rng.uniform(0.0, 30.0) / L) ** 2
        epsilon = rng.uniform(0.01, 0.99) * 2.0 * math.sqrt(alpha * c) / beta
        yield L, lam, alpha, beta, c, epsilon


class TestForcingKernel:
    def test_f_max_zero_gain_oracle(self):
        # With zero injection gain the kernel is beta*phi(x - s), whose
        # squared integral over [0, s] has the closed form
        # (beta^2) (beta/(3c)) ((eps + c s / beta)^3 - eps^3), maximal at s = L.
        got = dg.f_max(PHYS.L, 0.0, ALPHA, BETA, C, EPS)
        top = (EPS + C * PHYS.L / BETA) ** 3 - EPS ** 3
        expected = BETA * math.sqrt(BETA / (3.0 * C) * top)
        assert got == pytest.approx(expected, rel=1e-5)

    def test_value_at_interface(self):
        # f(s, s) = p(s, s) + beta phi(0) = -lam s / 2 - beta eps.
        s = 1.2
        f = dg.f_kernel(513, s, LAM, ALPHA, BETA, C, EPS)
        assert f[-1] == pytest.approx(-LAM * s / 2.0 - BETA * EPS, rel=1e-10)

    def test_matches_reference_quadrature(self):
        # f_kernel is the O(n) controller transform of p with X = -beta; the
        # reference sums by scipy's cumulative trapezoid on the same grid.
        # Both sum ((c/beta) x - eps) p and (c/beta) y p apart, and the
        # reference's sums are differences from the total, so the bound is
        # TRANSFORM_RTOL of those magnitudes over the whole interval.  Every
        # term of f has one sign, so f_max is within it too.
        for L, lam, alpha, beta, c, eps in forcing_draws(24, seed=2211):
            for n in F_MAX_GRIDS:
                x = unit_grid(n) * L
                p = np.abs(oracles.observer_gain(x, L, lam, alpha))
                whole = (beta / alpha) * (
                    np.abs(phi_kernel(x, c, beta, eps))
                    * oracles.right_integral(p, x)[0]
                    + (c / beta) * oracles.right_integral(x * p, x)[0])
                bound = TRANSFORM_RTOL * (
                    p + whole + beta * np.abs(phi_kernel(x - L, c, beta, eps)))
                ref = oracles.forcing_kernel(x, L, lam, alpha, beta, c, eps)
                got = dg.f_kernel(n, L, lam, alpha, beta, c, eps)
                assert (np.abs(got - ref) <= bound).all(), (n, L, lam)
            # f_max is the fine grid's, the last one above.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = dg.f_max(L, lam, alpha, beta, c, eps)
            assert got == pytest.approx(math.sqrt(simpson(ref * ref, L)),
                                        rel=TRANSFORM_RTOL)

    def test_reference_search_peaks_at_domain_end(self):
        # Search s on its own grid, at f_max's fine quadrature resolution.
        nq = 2 * dg.F_MAX_N_QUAD
        for L, lam, alpha, beta, c, eps in forcing_draws(24, seed=2210):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = dg.f_max(L, lam, alpha, beta, c, eps)
            ref = []
            for s in np.linspace(L / 32, L, 32):
                f = dg.f_kernel(nq + 1, s, lam, alpha, beta, c, eps)
                ref.append(math.sqrt(simpson(f * f, s)))
            assert np.all(np.diff(ref) > 0.0)
            assert max(ref) <= got
            assert ref[-1] == pytest.approx(got, rel=1e-12)

    def test_unconverged_quadrature_warns(self):
        with pytest.warns(RuntimeWarning, match="3816.11 vs 3816.12"):
            got = dg.f_max(L=1.6478106158273977, lam=0.02804519175986396,
                           alpha=0.00034471245580917773,
                           beta=0.24532112507341663, c=0.011352682075954029,
                           epsilon=0.007265554555876408)
        assert got == pytest.approx(3816.116823718474, rel=1e-12)


class TestLyapunov:
    def test_rest_state_values(self, derived):
        m0 = 1e-4
        *_, (V1,), (V,), (W,) = dg.lyapunov_values(
            np.zeros((1, 21)), np.zeros((1, 21)), np.zeros((1, 21)),
            np.array([2.0]), np.array([m0]), 2.0, EPS, PHYS, C, derived)
        assert V1 == 0.0
        assert V == m0
        assert W == pytest.approx(m0 * math.exp(-derived.xi * 2.0), rel=1e-12)

    @pytest.mark.skipif(numerics._kernel is numerics.REFERENCE,
                        reason=numerics.THOMAS_KERNEL)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 400), st.integers(1, 8).flatmap(
        lambda k: arrays(np.float64, k, elements=st.floats(0.0, PHYS.L))),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_compiled_rows_match_reference(self, derived, n, s, wide, seed):
        # The compiled monitor rows against numpy's, byte for byte, on
        # stacks of values in [-50, 50] or of both signs from 1e-300 to
        # 1e300, whose squares and sums overflow, with signed zeros and
        # subnormals among them.
        rng = np.random.default_rng(seed)
        shape = (3, s.size, n)
        stacks = rng.choice((-1.0, 1.0), shape) \
            * 10.0 ** rng.uniform(-300.0, 300.0, shape) if wide \
            else rng.uniform(-50.0, 50.0, shape)
        stacks.reshape(-1)[rng.integers(0, stacks.size, 4)] = (
            0.0, -0.0, 5e-324, -2.5e-310)
        m = 10.0 ** rng.uniform(-8.0, 2.0, s.size)
        args = (*stacks, s, m, 2.0, EPS, ALPHA, BETA, C, derived.A, derived.B,
                derived.xi)
        with np.errstate(over="ignore", invalid="ignore"):
            assert numerics._kernel.lyapunov_rows(*args).tobytes() \
                == numerics.REFERENCE.lyapunov_rows(*args).tobytes()

    def test_weights_positive(self, derived):
        assert derived.B > 0.0 and derived.xi > 0.0
        # xi = max(c L/beta, ...): the interface term decides at EPS = 10.
        assert derived.xi == C * PHYS.L / BETA
        assert derived.B > 4.0 * PHYS.L ** 2 * derived.f_max ** 2 / ALPHA ** 2


@st.composite
def monitor_stacks(draw):
    """(K, n) stacks of three profiles with length-K s and m.  A drawn number
    of the rows have s below S_J11 and the others not, in a drawn
    order, so from n = 41 on a stack holds rows of either path or both; at
    n = 81 a stack of 7 gathered rows spans two kernel chunks (4 and 3
    rows)."""
    n = draw(st.sampled_from([3, 4, 21, 41, 81, 161]))
    k = draw(st.sampled_from([1, 2, 7]))
    profiles = [draw(arrays(np.float64, (k, n), elements=st.floats(-50.0, 50.0)))
                for _ in range(3)]
    below = draw(st.sampled_from(range(k + 1)))
    s = np.concatenate([
        draw(arrays(np.float64, below,
                    elements=st.floats(0.01, S_J11, exclude_max=True))),
        draw(arrays(np.float64, k - below,
                    elements=st.floats(S_J11, PHYS.L)))])
    s = s[draw(st.permutations(range(k)))]
    m = draw(arrays(np.float64, k, elements=st.floats(1e-8, 1e2)))
    return (*profiles, s, m)


def full_matrix_error_inverse(e, s):
    """The inverse error transform of one profile by the full n x n kernel
    cut by np.triu and one matrix-vector product, and the bound on a
    transform's distance from it: TRANSFORM_RTOL of the magnitudes summed."""
    n = e.size
    y = unit_grid(n) * s
    diff = np.maximum(y[None, :] ** 2 - y[:, None] ** 2, 0.0)
    M = np.triu((LAM / ALPHA) * y[None, :]
                * ratio_J1_sqrt(LAM * diff / ALPHA)) \
        * oracles.volterra_weights(n, s)
    bound = TRANSFORM_RTOL * (np.abs(e) + np.max(np.abs(M), axis=1)
                              * np.sum(np.abs(e)))
    return e - M @ e, bound


def same_bits(stacked, rows):
    return np.asarray(stacked, dtype=float).tobytes() \
        == np.asarray(rows, dtype=float).tobytes()


class TestStacks:
    # The monitors run on (K, n) stacks of buffered steps; each row must
    # carry the bits of its own one-row stack, whatever K.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(monitor_stacks())
    def test_stacked_monitors_match_row_calls(self, derived, stack):
        U, E, W, s, m = stack
        rows = [slice(r, r + 1) for r in range(len(s))]
        assert same_bits(trapezoid(U, s),
                         [trapezoid(U[r], s[r]) for r in range(len(s))])
        assert same_bits(error_norms(E, s),
                         [error_norms(E[r], s[r]) for r in rows])
        assert same_bits(
            dg.transform_error_inverse(E, s, LAM, ALPHA),
            [dg.transform_error_inverse(E[r], s[r], LAM, ALPHA) for r in rows])
        X = s - 2.0
        assert same_bits(
            dg.transform_controller_direct(U, X, s, EPS, ALPHA, BETA, C),
            [dg.transform_controller_direct(U[r], X[r], s[r], EPS, ALPHA,
                                            BETA, C) for r in rows])
        stacked = dg.lyapunov_values(E, U, W, s, m, 2.0, EPS, PHYS, C,
                                     derived)
        singles = [dg.lyapunov_values(E[r], U[r], W[r], s[r], m[r], 2.0, EPS,
                                      PHYS, C, derived) for r in rows]
        for column, values in zip(stacked, zip(*singles)):
            assert same_bits(column, np.concatenate(values))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(monitor_stacks())
    def test_kernels_match_full_matrix(self, stack):
        # A one-row stack against the full n x n kernel cut by np.triu and
        # one matrix-vector product, to TRANSFORM_RTOL of the magnitudes
        # summed (see TestKernelOracles): the transforms keep the trapezoid
        # rule of the full-matrix form and change only the evaluation order.
        U, E, _, s, _ = stack
        for u, e, si in zip(U, E, s):
            n = u.size
            y = unit_grid(n) * si
            weights = oracles.volterra_weights(n, si)
            reference, bound = full_matrix_error_inverse(e, si)
            got = oracles.error_inverse(e, si, LAM, ALPHA)
            assert (np.abs(got - reference) <= bound).all()
            X = si - 2.0
            phi = np.triu(phi_kernel(y[:, None] - y[None, :], C, BETA, EPS))
            full = u - (BETA / ALPHA) * ((phi * weights) @ u) \
                - phi_kernel(y - si, C, BETA, EPS) * X
            # The O(n) form sums ((c/beta) x - eps) u and (c/beta) y u apart.
            split = np.abs(phi_kernel(y, C, BETA, EPS))[:, None] \
                + (C / BETA) * y[None, :]
            bound = TRANSFORM_RTOL * (
                np.abs(u) + (BETA / ALPHA) * ((split * weights) @ np.abs(u))
                + np.abs(phi_kernel(y - si, C, BETA, EPS) * X))
            got = oracles.controller_direct(u, X, si, EPS, ALPHA, BETA, C)
            assert (np.abs(got - full) <= bound).all()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(monitor_stacks())
    def test_fused_quadratures_match_separate_calls(self, derived, stack):
        # The monitor pass's `lyapunov_rows` piece sums the trapezoids of
        # its five integrands, whose w_tilde^2 integral V1 shares, with
        # np.gradient's expressions written out; it must give the bits of
        # the separate calls and of np.gradient.
        U, E, W, s, m = stack
        X = s - 2.0
        w_hat = dg.transform_controller_direct(U, X, s, EPS, ALPHA, BETA, C)
        slope = np.gradient(W, 1.0 / (W.shape[1] - 1), axis=-1) / s[:, None]
        V1 = 0.5 * trapezoid(w_hat * w_hat, s) \
            + EPS * ALPHA / (2.0 * BETA) * X * X \
            + 0.5 * trapezoid(W * W, s) \
            + 0.5 * derived.B * trapezoid(slope * slope, s)
        *_, got_V1, got_V, _ = dg.lyapunov_values(E, U, W, s, m, 2.0, EPS,
                                                  PHYS, C, derived)
        assert same_bits(got_V1, V1) and same_bits(got_V, derived.A * V1 + m)

        # The logged-only columns, from the buffered rows, have the bits of
        # the Python floats the feedback row once held.
        d = s - 2.0
        cfg = types.SimpleNamespace(phys=PHYS, ctrl=CTRL, trig=TRIG)
        columns = harness._monitor_columns(U, E, W, {"s": s, "m": m, "d": d},
                                           cfg, derived)
        for name, row_values in (
                ("T0_boundary", [PHYS.Tm + u[0] for u in U]),
                ("d_squared", [x * x for x in d.tolist()]),
                ("gamma_m", [TRIG.gamma * x for x in m.tolist()])):
            assert same_bits(columns[name], row_values), name
        w_tilde = dg.transform_error_inverse(E, s, LAM, ALPHA)
        for name, values in (("norm_T_Tm", U), ("norm_w_tilde", w_tilde)):
            assert same_bits(columns[name], np.sqrt(
                np.maximum(trapezoid(values * values, s), 0.0))), name
        assert same_bits(columns["energy"],
                         trapezoid(U, s) / ALPHA + s / BETA)


# Relative tolerance of the monitor transforms and the inverse kernel
# against their references, fixed before the comparisons were run (the
# series path's sentence below was added with that path).  The
# kernel's argument mu_s (j^2 - i^2) is within a few ulps of the exact one
# and |w d/dw R(w)| = |J2(sqrt w)|/2 <= 1/4 for R(w) = J1(sqrt w)/sqrt w, so
# the argument costs about 1 eps of R; j1, sqrt and the divide a few eps
# more, say 8 eps (lam/alpha) y_j per entry of Q.  Entries below the series
# cut w = 1e-3 have R near 1/2 and are within 1e-15 of themselves
# (test_numerics::TestRatios).  A row i >= 1 holds its
# diagonal (lam/alpha) y_i/2, so the others are within 16 eps (n - 1)/i
# (5.7e-13 at n = 161) of the row's largest magnitude; row 0 holds
# (lam/alpha) y_1 |R(mu_s)|, and |R(mu_s)| >= 0.045 on the grids drawn
# below (within 8e-13).  The O(n) controller transform adds n-term
# cumulative sums, within n eps of the magnitudes summed.  The inverse
# transform's series path sums positive terms (SERIES_TOL below) over
# n-term cumulative sums, within about (n + SERIES_ORDERS) eps of the
# magnitudes summed.
TRANSFORM_RTOL = 1e-12

# Tolerance of the series path's orders R_m(a) and of its sum against
# mpmath, relative to their values at a = 0: R_m(0) = 1/(2^{m+1} (m+1)!),
# and the diagonal's 1/2 for the sum.  The worst of 320 seeded draws was
# 3.4 eps for an order and 1.5 eps for the sum; the bound is 16 eps.
SERIES_TOL = 16 * np.finfo(float).eps


def exact_kernel_row(n, s, lam, alpha, i):
    """Q(x_i, y_j) = (lam/alpha) y_j J1(sqrt(w))/sqrt(w) for j = i..n-1 in
    30-digit arithmetic, at the exact grid points x_i = i s/(n-1),
    y_j = j s/(n-1) of the float inputs, so w = lam (y_j^2 - x_i^2)/alpha
    carries no cancellation."""
    with mpmath.workdps(30):
        g, h = mpmath.mpf(lam) / mpmath.mpf(alpha), mpmath.mpf(s) / (n - 1)
        out = []
        for j in range(i, n):
            w = g * h * h * (j * j - i * i)
            ratio = mpmath.mpf(0.5) if w == 0 else \
                mpmath.besselj(1, mpmath.sqrt(w)) / mpmath.sqrt(w)
            out.append(float(g * j * h * ratio))
    return np.array(out)


class TestKernelOracles:
    @pytest.mark.parametrize("n, s, lam", [
        (21, 0.05, LAM), (21, 3.0, LAM), (21, 3.0, 1.0), (41, 1.0, LAM),
        (41, 2.0, 1.0), (161, 3.0, LAM), (161, 3.0, 1.0)])
    def test_inverse_kernel_matches_mpmath(self, n, s, lam):
        # j1 is accurate in absolute, not relative, terms near its zeros, so
        # each entry is bounded relative to its row's largest magnitude.
        got = dg._error_kernel(n, np.array([s]), lam, ALPHA)[0] \
            * (unit_grid(n) * s)
        for i in range(n):
            exact = exact_kernel_row(n, s, lam, ALPHA, i)
            err = np.abs(got[i, i:] - exact)
            assert (err <= TRANSFORM_RTOL * np.max(np.abs(exact))).all(), i

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 4, 21, 41, 161]),
           arrays(np.float64, st.integers(1, 3),
                  elements=st.floats(0.01, PHYS.L)))
    def test_distinct_square_gather_matches_full_grid(self, n, s):
        # The Bessel ratio is evaluated once per distinct max(j^2 - i^2, 0)
        # and gathered onto the grid; it must be the bits of the ratio at
        # mu_s max(j^2 - i^2, 0) evaluated entry by entry on the full n x n
        # grid, below the diagonal too.
        k = np.arange(n)
        squares = np.maximum(k[None, :] ** 2 - k[:, None] ** 2, 0)
        mu = (LAM / ALPHA) * (s / (n - 1)) ** 2
        full = (LAM / ALPHA) * ratio_J1_sqrt(mu[:, None, None] * squares)
        assert same_bits(dg._error_kernel(n, s, LAM, ALPHA), full)

    @pytest.mark.parametrize("n", [3, 4, 21, 161])
    def test_weights_vanish_below_the_diagonal(self, n):
        # The kernel below the diagonal is the diagonal's (lam/alpha)/2 > 0,
        # so a weight of +0.0 there gives the +0.0 of a zeroed matrix; the
        # upper triangle holds the trapezoid weights of the full-matrix form.
        s = np.array([0.05, 1.0, PHYS.L])
        weights = dg._volterra_weights(n, s)
        below = np.tril(np.ones((n, n), dtype=bool), -1)
        assert (weights[:, below] == 0.0).all()
        assert not np.signbit(weights[:, below]).any()
        for row, si in zip(weights, s):
            expected = oracles.volterra_weights(n, si) * (unit_grid(n) * si)
            assert np.allclose(row, expected, rtol=1e-15, atol=0.0)


def exact_order(m, a):
    """R_m(a) = J_{m+1}(sqrt a)/sqrt(a)^{m+1} in 40-digit arithmetic."""
    with mpmath.workdps(40):
        if a == 0.0:
            return mpmath.mpf(1) / (2 ** (m + 1) * mpmath.factorial(m + 1))
        z = mpmath.sqrt(mpmath.mpf(a))
        return mpmath.besselj(m + 1, z) / z ** (m + 1)


class TestSeriesPath:
    def test_first_zero(self):
        assert dg.J1_FIRST_ZERO == special.jn_zeros(1, 1)[0]

    def test_truncation_constants_meet_their_bound(self):
        # In exact arithmetic at z = J1_FIRST_ZERO, the float just above
        # j_{1,1}.  The sum's terms are at most (z^2/4)^m/(2 m! (m+1)!) and
        # fall geometrically from m = SERIES_ORDERS on: what is left out is
        # below 2^-58 of the diagonal's 1/2, and one order fewer is not.  The
        # top orders' power series alternates with falling terms: the first
        # term left out is below 2^-58 of the first, and one term fewer is
        # not.  Their coefficients are the exactly rounded rationals.
        q = Fraction(dg.J1_FIRST_ZERO) ** 2 / 4
        orders, terms = numerics.SERIES_ORDERS, numerics.TOP_ORDER_TERMS
        bound = Fraction(1, 2 ** 58)

        def term(m):
            return q ** m / (2 * math.factorial(m) * math.factorial(m + 1))

        tail = term(orders) / (1 - q / ((orders + 1) * (orders + 2)))
        assert tail / Fraction(1, 2) < bound <= term(orders - 1) / Fraction(1, 2)

        def left_out(m, k):
            return q ** k * math.factorial(m + 1) \
                / (math.factorial(k) * math.factorial(m + k + 1))

        for column, m in enumerate((orders - 1, orders)):
            assert q / (m + 2) < 1
            assert left_out(m, terms) < bound
            for k in range(terms):
                exact = Fraction((-1) ** k, 2 ** (m + 1) * 4 ** k
                                 * math.factorial(k) * math.factorial(m + k + 1))
                assert numerics._TOP_ORDER_COEFFICIENTS[k, column] \
                    == float(exact)
        assert left_out(orders - 1, terms - 1) >= bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, dg.J1_FIRST_ZERO, exclude_max=True),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(float(np.nextafter(dg.J1_FIRST_ZERO, 0.0)), 1.0, 1.0)
    @example(float(np.nextafter(dg.J1_FIRST_ZERO, 0.0)), 1.0, 0.0)
    def test_multiplication_theorem_matches_mpmath(self, z, a_frac, b_frac):
        # a >= b with a <= z^2 < j_{1,1}^2: each order against its 40-digit
        # value, and sum_m (b/2)^m/m! R_m(a), by Horner as the series path
        # sums it, against J1(sqrt(a - b))/sqrt(a - b).
        a = a_frac * z * z
        b = b_frac * a
        total = 0.0
        for m, r in zip(range(numerics.SERIES_ORDERS - 1, -1, -1),
                        numerics._bessel_orders(np.array(a))):
            scale = 1.0 / (2 ** (m + 1) * math.factorial(m + 1))
            assert abs(float(r) - exact_order(m, a)) <= SERIES_TOL * scale, m
            total = float(r) + (b / 2) / (m + 1) * total
        with mpmath.workdps(40):
            w = mpmath.mpf(a) - mpmath.mpf(b)
            exact = mpmath.mpf(0.5) if w == 0 else \
                mpmath.besselj(1, mpmath.sqrt(w)) / mpmath.sqrt(w)
            assert abs(total - exact) <= SERIES_TOL * 0.5

    @pytest.mark.parametrize("n", [3, 4, 21, 41, 81, 161])
    @pytest.mark.parametrize("fraction", [1e-3, 0.3, 0.9, 1.0 - 1e-12])
    def test_series_rows_match_full_matrix(self, n, fraction):
        # Rows below the first zero, up to its edge, where the truncation is
        # largest, against the full-matrix form at TRANSFORM_RTOL.
        s = fraction * S_J11
        assert math.sqrt(LAM / ALPHA) * s < dg.J1_FIRST_ZERO
        e = np.random.default_rng(n).uniform(-50.0, 50.0, n)
        reference, bound = full_matrix_error_inverse(e, s)
        got = oracles.error_inverse(e, s, LAM, ALPHA)
        assert (np.abs(got - reference) <= bound).all()

    @pytest.mark.parametrize("n", [3, 21, 41, 161])
    def test_row_rule(self, n, monkeypatch):
        # At every n, exactly the rows with sqrt(lam/alpha) s below
        # J1_FIRST_ZERO take the series path, here from a stack that
        # straddles it by an ulp; each row keeps the bits of its own
        # one-row stack.
        s = np.array([PHYS.L, np.nextafter(S_J11, 1.0), 0.05, S_J11,
                      np.nextafter(S_J11, 0.0), 1.0])
        below = math.sqrt(LAM / ALPHA) * s < dg.J1_FIRST_ZERO
        assert below.tolist() == [False, False, True, False, True, False]
        taken = {}
        for owner, name in ((numerics._kernel, "series_integral"),
                            (dg, "_gathered_integral")):
            def record(u, s_rows, *args, path=getattr(owner, name),
                       name=name):
                taken.setdefault(name, []).extend(s_rows.tolist())
                return path(u, s_rows, *args)
            monkeypatch.setattr(owner, name, record)
        E = np.random.default_rng(n).uniform(-50.0, 50.0, (s.size, n))
        stacked = dg.transform_error_inverse(E, s, LAM, ALPHA)
        expected = {"series_integral": s[below].tolist(),
                    "_gathered_integral": s[~below].tolist()}
        assert taken == {k: v for k, v in expected.items() if v}
        rows = [dg.transform_error_inverse(E[r:r + 1], s[r:r + 1], LAM, ALPHA)
                for r in range(s.size)]
        assert same_bits(stacked, np.concatenate(rows))

    @pytest.mark.skipif(numerics._kernel is numerics.REFERENCE,
                        reason=numerics.THOMAS_KERNEL)
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 400), st.integers(1, 8).flatmap(
        lambda k: arrays(np.float64, k,
                         elements=st.floats(0.0, S_J11, exclude_max=True))),
           st.integers(0, 2 ** 32 - 1))
    def test_compiled_series_matches_reference(self, n, s, seed):
        # The compiled series piece against numpy's, byte for byte, on
        # stacks of values of both signs from 1e-300 to 1e300 with signed
        # zeros and subnormals among them.
        rng = np.random.default_rng(seed)
        shape = (s.size, n)
        u = rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-300.0, 300.0,
                                                                 shape)
        u.reshape(-1)[rng.integers(0, u.size, 4)] = (0.0, -0.0, 5e-324,
                                                     -2.5e-310)
        assert numerics._kernel.series_integral(u, s, LAM, ALPHA).tobytes() \
            == numerics.REFERENCE.series_integral(u, s, LAM, ALPHA).tobytes()
