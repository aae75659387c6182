"""Observer checks: the injection gain against its closed form and, bitwise,
against its general form; the lean step (influence solve, end-value
slopes) bitwise against the general step; open-loop equivalence at zero
gain, exact tracking from a perfect initialization, error decay from a
mismatched one, and the target error system's decay rate at every step."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy import special

from stefanetc import config, harness, numerics, observer, params, plant
from stefanetc.errors import ConfigurationError, ValidityBreach
import observer_reference as reference
from conftest import thomas_paths

PHYS = params.derive_physical(k=0.00220, rho=7.90e-4, cp=2380.0, dH=2.10e5,
                              L=3.0, Tm=37.0)
LAM = 0.1


def largest_valid_lam(phys):
    """The largest lambda `ControllerConfig.validate` accepts on phys.L."""
    def accepted(lam):
        try:
            params.ControllerConfig(c=3.0e-4, lam=lam, epsilon=10.0,
                                    s_r=0.5 * phys.L).validate(phys)
        except ConfigurationError:
            return False
        return True

    lam = numerics.BESSEL_Z_MAX ** 2 * phys.alpha / (phys.L * phys.L)
    while not accepted(lam):
        lam = float(np.nextafter(lam, 0.0))
    while accepted(float(np.nextafter(lam, math.inf))):
        lam = float(np.nextafter(lam, math.inf))
    return lam


LAM_MAX = largest_valid_lam(PHYS)

# Grid sizes, interface positions from 1e-4 to L (log-uniform, so tiny s,
# where several or all entries fall below the series cut, is drawn often),
# and lambda as a fraction of the validated bound.
grid_sizes = st.integers(3, 161)
positions = st.floats(math.log(1e-4), math.log(PHYS.L)).map(
    lambda v: min(math.exp(v), PHYS.L))
gain_fractions = st.one_of(st.floats(1e-9, 1.0), st.just(1.0))


def bits(values):
    return np.float64(values).tobytes()


def linear_plant(amp, s0=0.1, n=21):
    """(u, s, sdot) of the immobilized linear profile."""
    x = np.linspace(0.0, s0, 101)
    u = plant.immobilize(PHYS.Tm + amp * (1.0 - x / s0), s0, PHYS, n)
    return u, s0, plant.interface_velocity(u, s0, PHYS.beta)


def run_pair(pstate, u_hat, q, steps, dt=0.5, lam=LAM):
    """`steps` paired plant and observer steps from the plant's
    (u, s, sdot) and the observer's u_hat; returns the two after them."""
    u, s, sdot = pstate
    for _ in range(steps):
        factor = plant.implicit_factor(s, dt, PHYS.alpha, u.size)
        u_new, s_new, sdot_new = plant.step_plant(u, s, sdot, PHYS, q, dt,
                                                  factor)
        u_hat, _, _ = observer.step_observer(
            u_hat, s, sdot, PHYS, lam, q, dt,
            measured_slope=-sdot_new / PHYS.beta, factor=factor)
        u, s, sdot = u_new, s_new, sdot_new
    return (u, s, sdot), u_hat


class TestGain:
    def test_value_at_interface(self):
        # Removable singularity: p(s, s) = -lam s / 2.
        [p] = numerics.observer_gain(np.array([0.7]), 0.7, LAM, PHYS.alpha)
        assert p == pytest.approx(-LAM * 0.7 / 2.0, rel=1e-12)

    def test_closed_form_interior(self):
        s, x = 1.5, 0.4
        z = math.sqrt(LAM * (s * s - x * x) / PHYS.alpha)
        expected = -LAM * s * special.i1(z) / z
        [p] = numerics.observer_gain(np.array([x]), s, LAM, PHYS.alpha)
        assert p == pytest.approx(expected, rel=1e-12)

    def test_zero_gain(self):
        [p] = numerics.observer_gain(np.array([0.2]), 0.5, 0.0, PHYS.alpha)
        assert p == 0.0

    def test_nonpositive_everywhere(self):
        x = np.linspace(0.0, 2.0, 50)
        assert np.all(numerics.observer_gain(x, 2.0, LAM, PHYS.alpha) < 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_sizes, positions, gain_fractions)
    def test_matches_general_form(self, n, s, frac):
        # On the step's grid xi s, and entry by entry as one-node grids, the
        # gain has the bits of the general two-branch form.
        lam = frac * LAM_MAX
        x = numerics.unit_grid(n) * s
        got = numerics.observer_gain(x, s, lam, PHYS.alpha)
        assert bits(got) == bits(reference.observer_gain(x, s, lam, PHYS.alpha))
        for xi, entry in zip(x.tolist(), got.tolist()):
            [scalar] = numerics.observer_gain(np.array([xi]), s, lam,
                                              PHYS.alpha)
            assert isinstance(scalar, float)
            assert bits(scalar) == bits(entry) \
                == bits(reference.observer_gain(xi, s, lam, PHYS.alpha))

    def test_domain_check_reads_the_first_entry(self):
        # The largest argument is at x = 0: one ulp of lambda past the
        # validated bound puts it above BESSEL_Z_MAX on the grid and on the
        # one node x = 0, however the grid ends.
        lam = float(np.nextafter(LAM_MAX, math.inf))
        for x in (numerics.unit_grid(21) * PHYS.L,
                  numerics.unit_grid(1025) * PHYS.L, np.zeros(1)):
            numerics.observer_gain(x, PHYS.L, LAM_MAX, PHYS.alpha)
            with pytest.raises(ValueError, match="Bessel argument"):
                numerics.observer_gain(x, PHYS.L, lam, PHYS.alpha)
            with pytest.raises(ValueError, match="Bessel argument"):
                reference.observer_gain(x, PHYS.L, lam, PHYS.alpha)

    @pytest.mark.parametrize("n, s, tail", [
        (21, 1e-4, 21),      # every entry below the cut
        (161, 1e-4, 161),
        (21, 5e-3, 6),       # a tail of several entries and a head
        (161, 5e-3, 44),
        (21, 2.0, 1),        # the node x = s alone
    ])
    def test_tail_below_the_cut(self, n, s, tail):
        x = numerics.unit_grid(n) * s
        w = LAM * (s * s - x * x) / PHYS.alpha
        assert np.count_nonzero(w < numerics._RATIO_SERIES_CUT) == tail
        assert bits(numerics.observer_gain(x, s, LAM, PHYS.alpha)) \
            == bits(reference.observer_gain(x, s, LAM, PHYS.alpha))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(gain_fractions, st.sampled_from([513, 1025]))
    def test_matches_general_form_on_f_max_grid(self, frac, points):
        # f_max's quadrature grids xi L at s = L.
        lam = frac * LAM_MAX
        x = numerics.unit_grid(points) * PHYS.L
        assert bits(numerics.observer_gain(x, PHYS.L, lam, PHYS.alpha)) \
            == bits(reference.observer_gain(x, PHYS.L, lam, PHYS.alpha))


class TestBoundarySlope:
    def test_matches_plant_interface_functional(self):
        # Shared stencil with the plant: sdot = -beta * slope.
        u = np.linspace(1.0, 0.0, 21) ** 2
        s = 0.3
        slope = numerics.boundary_slope(u, s)
        assert plant.interface_velocity(u, s, PHYS.beta) == pytest.approx(
            -PHYS.beta * slope, rel=1e-14)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(grid_sizes, positions, st.integers(0, 2 ** 32 - 1))
    def test_end_values_match_array_form(self, n, s, seed):
        # The slopes read end values as floats; they have the bits of the
        # array difference.
        u, u_hat = np.random.default_rng(seed).uniform(-10.0, 10.0, (2, n))
        h = 1.0 / (n - 1)
        err = u - u_hat
        assert bits(observer.error_slope(u, u_hat, s)) \
            == bits((err[..., -1] - err[..., -2]) / (h * s))
        assert bits(numerics.boundary_slope(u, s)) \
            == bits((u[..., -1] - u[..., -2]) / (h * s))


class TestStep:
    def test_zero_gain_is_open_loop_copy(self):
        u, s, sdot = linear_plant(1.0)
        factor = plant.implicit_factor(s, 0.5, PHYS.alpha, u.size)
        stepped, _, _ = observer.step_observer(
            u.copy(), s, sdot, PHYS, 0.0, 1e-3, 0.5,
            measured_slope=-sdot / PHYS.beta, factor=factor)
        direct = plant.advance_profile(u, s, sdot, 1e-3, 0.5, PHYS.k, factor)
        assert np.allclose(stepped, direct, atol=1e-14)

    def test_perfect_initialization_stays_exact(self):
        # Homogeneous discrete error dynamics: starting from the true state,
        # the observer tracks the plant to roundoff over many steps.
        pstate = linear_plant(1.0)
        (u, _, _), u_hat = run_pair(pstate, pstate[0].copy(), 1e-3, 400)
        assert np.max(np.abs(u - u_hat)) < 1e-10

    def test_error_decays_from_mismatch(self):
        u, s, sdot = linear_plant(1.0)
        u_hat = linear_plant(10.0)[0]
        norm0 = observer.error_norms(u - u_hat, s)
        (u, s, _), u_hat = run_pair((u, s, sdot), u_hat, 1e-3, 400)
        norm = observer.error_norms(u - u_hat, s)
        assert norm < 1e-6 * norm0

    def test_interface_value_pinned(self):
        u, s, sdot = linear_plant(1.0)
        factor = plant.implicit_factor(s, 0.5, PHYS.alpha, u.size)
        stepped, _, _ = observer.step_observer(
            linear_plant(10.0)[0], s, sdot, PHYS, LAM, 1e-3, 0.5,
            measured_slope=-sdot / PHYS.beta, factor=factor)
        assert stepped[-1] == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_sizes, positions, gain_fractions, st.floats(1e-3, 10.0))
    def test_influence_profile_matches_advance_profile(self, n, s, frac, dt):
        # The influence solve of the observer_rhs piece, on both sets.
        lam = frac * LAM_MAX
        p = numerics.observer_gain(numerics.unit_grid(n) * s, s, lam,
                                   PHYS.alpha)
        factor = plant.implicit_factor(s, dt, PHYS.alpha, n)
        expected = reference.influence_profile(p, s, dt, PHYS.k, factor)
        for kernel in thomas_paths():
            rhs = kernel.observer_rhs(np.zeros(n), s, 0.0, 0.0, dt, PHYS.k,
                                      -factor[0], lam, PHYS.alpha, 1.0)[1]
            assert bits(plant.solve_tridiagonal(factor, rhs)) \
                == bits(expected), kernel

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_sizes, positions, gain_fractions, st.floats(1e-3, 10.0),
           st.floats(-1e-2, 1e-2), st.floats(-1.0, 1.0),
           st.floats(-100.0, 100.0), st.integers(0, 2 ** 32 - 1))
    def test_step_matches_general_step(self, n, s, frac, dt, sdot, q, slope,
                                       seed):
        # The whole observer step has the bits of the general form: the
        # general gain, the influence profile through advance_profile and
        # the slopes taken on arrays; the square's trapezoid and the
        # unit-interval trapezoid are those of the new profile.
        lam = frac * LAM_MAX
        u_hat = np.random.default_rng(seed).uniform(-10.0, 10.0, n)
        u_hat[-1] = 0.0
        factor = plant.implicit_factor(s, dt, PHYS.alpha, n)
        got, got_sq, got_sum = observer.step_observer(
            u_hat, s, sdot, PHYS, lam, q, dt, measured_slope=slope,
            factor=factor)
        expected = reference.step_observer(u_hat, s, sdot, PHYS, lam, q, dt,
                                           slope, factor)
        assert bits(got) == bits(expected)
        with np.errstate(over="ignore"):   # huge gains square to inf
            assert bits(got_sq) == bits(numerics.trapezoid(
                expected * expected, s))
            assert bits(got_sum) == bits(numerics.trapezoid(expected, 1.0))

    def test_one_factorization_per_step(self, monkeypatch, default_cfg):
        # The plant step and both observer solves share one tridiagonal
        # matrix, so a step of the closed loop factors it once.
        calls = []
        factor = numerics._kernel.factor

        def counting_factor(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setattr(numerics._kernel, "factor", counting_factor)
        loop = harness.ClosedLoop(
            default_cfg, params.derive_trigger(default_cfg.phys,
                                               default_cfg.ctrl,
                                               default_cfg.trig))
        loop.start()
        for _ in range(5):
            loop.supervise()
            loop.step()
        assert len(calls) == 5


# The per-step decay of the transformed error is asserted while
# ||w_tilde|| is above this fraction of ||w_tilde(0)||; below it the error
# nears its roundoff floor.
W_TILDE_FLOOR = 1e-10


class TestTargetSystem:
    """The observer is designed so that the transformed error obeys
    w_t = alpha w_xx - lam w with w(s) = 0, so ||w_tilde|| (the
    `norm_w_tilde` column) decays at least at rate lam, whatever the input.
    """

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.floats(0.01, 0.3), st.sampled_from([(21, 0.5), (41, 0.25)]),
           st.floats(0.5, 2.0), st.floats(5.0, 20.0))
    def test_error_decays_at_design_rate_every_step(self, default_cfg, lam,
                                                    grid, T0_amplitude,
                                                    That_amplitude):
        n, dt = grid
        cfg = default_cfg
        for name, value in (("controller.lambda", lam), ("scheme.n", n),
                            ("scheme.dt", dt), ("scheme.horizon", 300.0),
                            ("scenario.kind", "continuous"),
                            ("scenario.unsafe", "true"),
                            ("initial.T0_amplitude", T0_amplitude),
                            ("initial.That_amplitude", That_amplitude)):
            cfg = config.override(cfg, name, value)
        result = harness.run_scenario(cfg)
        assert result.breach is None
        w = result.series["norm_w_tilde"]
        above = w[:-1] > W_TILDE_FLOOR * w[0]
        assert above.any()
        ratios = w[1:][above] / w[:-1][above]
        assert ratios.max() <= math.exp(-lam * dt), ratios.max()


def dense_operators(n, s, sdot, dt, phys, lam):
    """(A, p, w) of one step, assembled densely from the discretization, not
    through the package's Thomas or Sherman-Morrison code: the implicit
    diffusion matrix with the flux ghost node on the n - 1 unknowns, the
    injection gain on them, and the feedback slope functional, w.v =
    (0 - v_{n-2}) / (h s) with u(1) = 0 pinned."""
    h = 1.0 / (n - 1)
    r = phys.alpha * dt / (s * h) ** 2
    A = np.zeros((n - 1, n - 1))
    for i in range(n - 1):
        A[i, i] = 1.0 + 2.0 * r
        if i > 0:
            A[i, i - 1] = -r
        if i < n - 2:
            A[i, i + 1] = -2.0 * r if i == 0 else -r
    x = np.linspace(0.0, 1.0, n) * s
    z = np.sqrt(lam * (s * s - x * x) / phys.alpha)
    ratio = np.full(n, 0.5)
    ratio[z > 0.0] = special.i1(z[z > 0.0]) / z[z > 0.0]
    w = np.zeros(n - 1)
    w[-1] = -1.0 / (h * s)
    return A, (-lam * s * ratio)[:-1], w


def error_map(n, s, sdot, dt, phys, lam):
    """The observer error's one-step map M = (A + dt p w^T)^-1 (I + dt Adv),
    Adv the explicit upwind advection at sdot on the unknowns: the flux
    terms and the measured slope, which the plant reads through w too,
    cancel in e = u - u_hat."""
    h = 1.0 / (n - 1)
    A, p, w = dense_operators(n, s, sdot, dt, phys, lam)
    explicit = np.eye(n - 1)
    for i in range(1, n - 1):
        c = dt * (i * h) * (sdot / s) / h
        if sdot >= 0.0:      # forward difference; the pinned u(1) drops out
            explicit[i, i] -= c
            if i < n - 2:
                explicit[i, i + 1] += c
        else:
            explicit[i, i] += c
            explicit[i, i - 1] -= c
    return np.linalg.solve(A + dt * np.outer(p, w), explicit)


def dense_oracle_step(u, u_hat, s, sdot, q, dt, phys, lam):
    """One plant and one observer step by dense assembly and np.linalg.solve.

    Written from the discretization (implicit diffusion with the flux ghost
    node, explicit upwind advection, pinned u(1) = 0, the injection's slope
    at the new level), not through the package's Thomas or Sherman-Morrison
    code.
    """
    n = u.size
    h = 1.0 / (n - 1)
    xi = np.linspace(0.0, 1.0, n)
    r = phys.alpha * dt / (s * h) ** 2
    A, p, w = dense_operators(n, s, sdot, dt, phys, lam)

    def explicit_part(v):
        rhs = v[:-1].copy()
        for i in range(1, n - 1):
            diff = v[i + 1] - v[i] if sdot >= 0.0 else v[i] - v[i - 1]
            rhs[i] += dt * xi[i] * (sdot / s) * diff / h
        rhs[0] += 2.0 * r * h * s * q / phys.k
        return rhs

    u_new = np.append(np.linalg.solve(A, explicit_part(u)), 0.0)
    slope_new = (u_new[-1] - u_new[-2]) / (h * s)    # T_x(s) = -sdot_new/beta
    M = A + dt * np.outer(p, w)
    rhs = explicit_part(u_hat) + dt * p * slope_new
    u_hat_new = np.append(np.linalg.solve(M, rhs), 0.0)
    return u_new, u_hat_new


# The tolerance of the one-step error map, relative to max|e|: 1.7e-12
# was measured along whole runs while ||w_tilde|| > 1e-3 ||w_tilde(0)||.
ERROR_MAP_RTOL = 1e-11


class TestErrorMap:
    # The gain is drawn by its largest Bessel argument z0 = s sqrt(lam /
    # alpha), up to 10.  The step forms u* and z, each about dt max|p|
    # times the slope in size, and cancels them in its update, so rounding
    # of that size stays in the error, and max|p| grows as e^z0: with these
    # profiles the departure from M e read about 5e-13 of max|e| at
    # z0 = 10, 1e-8 at z0 = 20 and 3e-4 at z0 = 29.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(3, 41), st.floats(0.05, 2.0),
           st.one_of(st.floats(-1e-2, 1e-2), st.sampled_from([0.0, -0.0])),
           st.floats(1e-2, 2.0), st.floats(0.0, 10.0), st.floats(-0.1, 0.1),
           st.integers(0, 2 ** 32 - 1))
    def test_loop_error_step_is_the_map(self, n, s, sdot, dt, z0, q, seed):
        # The loop's plant and observer steps map e = u - u_hat to M e: the
        # discrete error dynamics are linear and homogeneous, so a
        # converged observer stays converged.
        lam = PHYS.alpha * z0 * z0 / (s * s)
        rng = np.random.default_rng(seed)
        u, u_hat = (np.append(rng.uniform(-10.0, 10.0, n - 1), 0.0)
                    for _ in range(2))
        factor = plant.implicit_factor(s, dt, PHYS.alpha, n)
        try:
            u_new, _, sdot_new = plant.step_plant(u, s, sdot, PHYS, q, dt,
                                                  factor)
        except ValidityBreach:
            reject()
        u_hat_new, _, _ = observer.step_observer(
            u_hat, s, sdot, PHYS, lam, q, dt,
            measured_slope=-sdot_new / PHYS.beta, factor=factor)
        e = (u - u_hat)[:-1]
        expected = error_map(n, s, sdot, dt, PHYS, lam) @ e
        assert np.max(np.abs((u_new - u_hat_new)[:-1] - expected)) \
            <= ERROR_MAP_RTOL * np.max(np.abs(e))


class TestDenseStepOracle:
    def test_steps_match_dense_solves(self, default_cfg):
        derived = params.derive_trigger(default_cfg.phys, default_cfg.ctrl,
                                        default_cfg.trig)
        loop = harness.ClosedLoop(default_cfg, derived)
        loop.start()
        phys, dt = default_cfg.phys, default_cfg.scheme.dt
        worst = 0.0
        for _ in range(300):
            loop.supervise()
            u_new, u_hat_new = dense_oracle_step(
                loop.u, loop.u_hat, loop.s, loop.sdot, loop.q_j, dt, phys,
                default_cfg.ctrl.lam)
            loop.step()
            for got, expected in ((loop.u, u_new), (loop.u_hat, u_hat_new)):
                err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
                worst = max(worst, err)
        assert worst <= 1e-12, worst
class TestErrorNorms:
    def test_values_on_known_fields(self):
        err = np.ones(21)
        err[-1] = 0.0
        norm = observer.error_norms(err, 2.0)
        slope = numerics.boundary_slope(err, 2.0)
        # err^2 = 1 except 0 at the last node: the s-scaled trapezoid sum is
        # s h (0.5 + 19 + 0) = s (1 - h/2).
        h = 0.05
        assert norm == pytest.approx(math.sqrt(2.0 * (1.0 - 0.5 * h)), rel=1e-12)
        assert slope == pytest.approx((0.0 - 1.0) / (h * 2.0), rel=1e-12)
