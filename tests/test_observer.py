"""Observer checks: the injection gain against its closed form and, bitwise,
against its general form; the lean step (influence solve, end-value
slopes) bitwise against the general step; open-loop equivalence at zero
gain, exact tracking from a perfect initialization, and error decay from a
mismatched one."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from stefanetc import harness, numerics, observer, params, plant
from stefanetc.errors import ConfigurationError
import observer_reference as reference

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
    x = np.linspace(0.0, s0, 101)
    return plant.immobilize(PHYS.Tm + amp * (1.0 - x / s0), s0, PHYS, n)


def run_pair(pstate, ostate, q, steps, dt=0.5, lam=LAM):
    for _ in range(steps):
        s, sdot = plant.measure(pstate)
        factor = plant.implicit_factor(s, dt, PHYS.alpha, pstate.u.size)
        pnew = plant.step_plant(pstate, PHYS, q, dt, factor)
        ostate = observer.step_observer(
            ostate, (s, sdot), PHYS, lam, q, dt,
            measured_slope=-pnew.sdot / PHYS.beta, factor=factor)
        pstate = pnew
    return pstate, ostate


class TestGain:
    def test_value_at_interface(self):
        # Removable singularity: p(s, s) = -lam s / 2.
        assert observer.observer_gain(0.7, 0.7, LAM, PHYS.alpha) == pytest.approx(
            -LAM * 0.7 / 2.0, rel=1e-12)

    def test_closed_form_interior(self):
        s, x = 1.5, 0.4
        z = math.sqrt(LAM * (s * s - x * x) / PHYS.alpha)
        expected = -LAM * s * special.i1(z) / z
        assert observer.observer_gain(x, s, LAM, PHYS.alpha) == pytest.approx(
            expected, rel=1e-12)

    def test_zero_gain(self):
        assert observer.observer_gain(0.2, 0.5, 0.0, PHYS.alpha) == 0.0

    def test_nonpositive_everywhere(self):
        x = np.linspace(0.0, 2.0, 50)
        assert np.all(observer.observer_gain(x, 2.0, LAM, PHYS.alpha) < 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_sizes, positions, gain_fractions)
    def test_matches_general_form(self, n, s, frac):
        # On the step's grid xi s, and entry by entry as scalars, the gain
        # has the bits of the general two-branch form.
        lam = frac * LAM_MAX
        x = numerics.unit_grid(n) * s
        got = observer.observer_gain(x, s, lam, PHYS.alpha)
        assert bits(got) == bits(reference.observer_gain(x, s, lam, PHYS.alpha))
        for xi, entry in zip(x.tolist(), got.tolist()):
            scalar = observer.observer_gain(xi, s, lam, PHYS.alpha)
            assert isinstance(scalar, float)
            assert bits(scalar) == bits(entry) \
                == bits(reference.observer_gain(xi, s, lam, PHYS.alpha))

    def test_domain_check_reads_the_first_entry(self):
        # The largest argument is at x = 0: one ulp of lambda past the
        # validated bound puts it above BESSEL_Z_MAX on the grid and as a
        # scalar, however the grid ends.
        lam = float(np.nextafter(LAM_MAX, math.inf))
        for x in (numerics.unit_grid(21) * PHYS.L,
                  numerics.unit_grid(1025) * PHYS.L, 0.0):
            observer.observer_gain(x, PHYS.L, LAM_MAX, PHYS.alpha)
            with pytest.raises(ValueError, match="Bessel argument"):
                observer.observer_gain(x, PHYS.L, lam, PHYS.alpha)
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
        assert bits(observer.observer_gain(x, s, LAM, PHYS.alpha)) \
            == bits(reference.observer_gain(x, s, LAM, PHYS.alpha))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(gain_fractions, st.sampled_from([513, 1025]))
    def test_matches_general_form_on_f_max_grid(self, frac, points):
        # f_max's quadrature grids xi L at s = L.
        lam = frac * LAM_MAX
        x = numerics.unit_grid(points) * PHYS.L
        assert bits(observer.observer_gain(x, PHYS.L, lam, PHYS.alpha)) \
            == bits(reference.observer_gain(x, PHYS.L, lam, PHYS.alpha))


class TestBoundarySlope:
    def test_matches_plant_interface_functional(self):
        # Shared stencil with the plant: sdot = -beta * slope.
        u = np.linspace(1.0, 0.0, 21) ** 2
        s = 0.3
        slope = observer.boundary_slope(u, s)
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
        assert bits(observer.boundary_slope(u, s)) \
            == bits((u[..., -1] - u[..., -2]) / (h * s))


class TestStep:
    def test_zero_gain_is_open_loop_copy(self):
        pstate = linear_plant(1.0)
        ostate = observer.ObserverState(u_hat=pstate.u.copy())
        s, sdot = plant.measure(pstate)
        factor = plant.implicit_factor(s, 0.5, PHYS.alpha, pstate.u.size)
        stepped = observer.step_observer(ostate, (s, sdot), PHYS, 0.0, 1e-3, 0.5,
                                         measured_slope=-sdot / PHYS.beta,
                                         factor=factor)
        direct = plant.advance_profile(pstate.u, s, sdot, 1e-3, 0.5,
                                       PHYS.alpha, PHYS.k, factor)
        assert np.allclose(stepped.u_hat, direct, atol=1e-14)

    def test_perfect_initialization_stays_exact(self):
        # Homogeneous discrete error dynamics: starting from the true state,
        # the observer tracks the plant to roundoff over many steps.
        pstate = linear_plant(1.0)
        ostate = observer.ObserverState(u_hat=pstate.u.copy())
        pstate, ostate = run_pair(pstate, ostate, 1e-3, 400)
        assert np.max(np.abs(pstate.u - ostate.u_hat)) < 1e-10

    def test_error_decays_from_mismatch(self):
        pstate = linear_plant(1.0)
        ostate = observer.ObserverState(u_hat=linear_plant(10.0).u)
        norm0 = observer.error_norms(pstate.u - ostate.u_hat, pstate.s)
        pstate, ostate = run_pair(pstate, ostate, 1e-3, 400)
        norm = observer.error_norms(pstate.u - ostate.u_hat, pstate.s)
        assert norm < 1e-6 * norm0

    def test_interface_value_pinned(self):
        pstate = linear_plant(1.0)
        ostate = observer.ObserverState(u_hat=linear_plant(10.0).u)
        s, sdot = plant.measure(pstate)
        factor = plant.implicit_factor(s, 0.5, PHYS.alpha, pstate.u.size)
        stepped = observer.step_observer(ostate, (s, sdot), PHYS, LAM, 1e-3, 0.5,
                                         measured_slope=-sdot / PHYS.beta,
                                         factor=factor)
        assert stepped.u_hat[-1] == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_sizes, positions, gain_fractions, st.floats(1e-3, 10.0))
    def test_influence_profile_matches_advance_profile(self, n, s, frac, dt):
        lam = frac * LAM_MAX
        p = observer.observer_gain(numerics.unit_grid(n) * s, s, lam,
                                   PHYS.alpha)
        factor = plant.implicit_factor(s, dt, PHYS.alpha, n)
        assert bits(observer.influence_profile(p, dt, factor)) \
            == bits(reference.influence_profile(p, s, dt, PHYS.alpha, PHYS.k,
                                                factor))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid_sizes, positions, gain_fractions, st.floats(1e-3, 10.0),
           st.floats(-1e-2, 1e-2), st.floats(-1.0, 1.0),
           st.floats(-100.0, 100.0), st.integers(0, 2 ** 32 - 1))
    def test_step_matches_general_step(self, n, s, frac, dt, sdot, q, slope,
                                       seed):
        # The whole observer step has the bits of the general form: the
        # general gain, the influence profile through advance_profile and
        # the slopes taken on arrays.
        lam = frac * LAM_MAX
        u_hat = np.random.default_rng(seed).uniform(-10.0, 10.0, n)
        u_hat[-1] = 0.0
        factor = plant.implicit_factor(s, dt, PHYS.alpha, n)
        got = observer.step_observer(observer.ObserverState(u_hat=u_hat),
                                     (s, sdot), PHYS, lam, q, dt,
                                     measured_slope=slope, factor=factor)
        assert bits(got.u_hat) == bits(reference.step_observer(
            u_hat, s, sdot, PHYS, lam, q, dt, slope, factor))

    def test_one_factorization_per_step(self, monkeypatch, default_cfg):
        # The plant step and both observer solves share one tridiagonal
        # matrix, so a step of the closed loop factors it once.
        calls = []

        def counting_factor(*args):
            calls.append(1)
            return numerics.diffusion_factor(*args)

        monkeypatch.setattr(plant, "diffusion_factor", counting_factor)
        loop = harness.ClosedLoop(
            default_cfg, params.derive_trigger(default_cfg.phys,
                                               default_cfg.ctrl,
                                               default_cfg.trig))
        loop.start()
        for _ in range(5):
            loop.supervise()
            loop.step()
        assert len(calls) == 5


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
    A = np.zeros((n - 1, n - 1))
    for i in range(n - 1):
        A[i, i] = 1.0 + 2.0 * r
        if i > 0:
            A[i, i - 1] = -r
        if i < n - 2:
            A[i, i + 1] = -2.0 * r if i == 0 else -r

    def explicit_part(v):
        rhs = v[:-1].copy()
        for i in range(1, n - 1):
            diff = v[i + 1] - v[i] if sdot >= 0.0 else v[i] - v[i - 1]
            rhs[i] += dt * xi[i] * (sdot / s) * diff / h
        rhs[0] += 2.0 * r * h * s * q / phys.k
        return rhs

    u_new = np.append(np.linalg.solve(A, explicit_part(u)), 0.0)
    slope_new = (u_new[-1] - u_new[-2]) / (h * s)    # T_x(s) = -sdot_new/beta

    x = xi * s
    z = np.sqrt(lam * (s * s - x * x) / phys.alpha)
    ratio = np.full(n, 0.5)
    ratio[z > 0.0] = special.i1(z[z > 0.0]) / z[z > 0.0]
    p = -lam * s * ratio
    w = np.zeros(n - 1)
    w[-1] = -1.0 / (h * s)            # w.v = (0 - v_{n-2}) / (h s)
    M = A + dt * np.outer(p[:-1], w)
    rhs = explicit_part(u_hat) + dt * p[:-1] * slope_new
    u_hat_new = np.append(np.linalg.solve(M, rhs), 0.0)
    return u_new, u_hat_new


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
            st, u_hat = loop.plant, loop.observer.u_hat
            u_new, u_hat_new = dense_oracle_step(
                st.u, u_hat, st.s, st.sdot, loop.q_j, dt, phys,
                default_cfg.ctrl.lam)
            loop.step()
            for got, expected in ((loop.plant.u, u_new),
                                  (loop.observer.u_hat, u_hat_new)):
                err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
                worst = max(worst, err)
        assert worst <= 1e-12, worst
class TestErrorNorms:
    def test_values_on_known_fields(self):
        err = np.ones(21)
        err[-1] = 0.0
        norm = observer.error_norms(err, 2.0)
        slope = observer.boundary_slope(err, 2.0)
        # err^2 = 1 except 0 at the last node: the s-scaled trapezoid sum is
        # s h (0.5 + 19 + 0) = s (1 - h/2).
        h = 0.05
        assert norm == pytest.approx(math.sqrt(2.0 * (1.0 - 0.5 * h)), rel=1e-12)
        assert slope == pytest.approx((0.0 - 1.0) / (h * 2.0), rel=1e-12)
