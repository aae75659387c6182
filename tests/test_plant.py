"""Plant-side checks: immobilization, interface velocity, equilibria,
positivity of the semi-implicit step, and breach/failure handling."""

import math

import numpy as np
import pytest

from stefanetc import params, plant
from stefanetc.errors import NumericalFailure, ValidityBreach

PHYS = params.derive_physical(k=0.00220, rho=7.90e-4, cp=2380.0, dH=2.10e5,
                              L=3.0, Tm=37.0)


def step(state, q, dt):
    """`plant.step_plant` of a (u, s, sdot) state with the step's own
    factorization."""
    u, s, sdot = state
    factor = plant.implicit_factor(s, dt, PHYS.alpha, u.size)
    return plant.step_plant(u, s, sdot, PHYS, q, dt, factor)


def linear_profile(amp=1.0, s0=0.1, n=21):
    x = np.linspace(0.0, s0, 101)
    T0 = PHYS.Tm + amp * (1.0 - x / s0)
    return plant.immobilize(T0, s0, PHYS, n)


def linear_state(amp=1.0, s0=0.1, n=21):
    """(u, s, sdot) of the immobilized linear profile."""
    u = linear_profile(amp, s0, n)
    return u, s0, plant.interface_velocity(u, s0, PHYS.beta)


class TestImmobilize:
    def test_linear_profile_resamples_exactly(self):
        u, s, _ = linear_state(amp=2.0)
        xi = np.linspace(0.0, 1.0, u.size)
        assert np.allclose(u, 2.0 * (1.0 - xi), atol=1e-12)
        assert s == 0.1
        assert u[-1] == 0.0

    def test_initial_velocity_from_slope(self):
        # Linear profile u = amp (1 - x/s0): physical interface slope is
        # -amp/s0, so sdot = beta amp / s0.
        u = linear_profile(amp=1.0, s0=0.1)
        assert plant.interface_velocity(u, 0.1, PHYS.beta) == pytest.approx(
            PHYS.beta * 1.0 / 0.1, rel=1e-9)


class TestInterfaceVelocity:
    def test_first_order_difference(self):
        u = np.linspace(1.0, 0.0, 21)
        h = 0.05
        expected = -(PHYS.beta / 0.1) * (u[-1] - u[-2]) / h
        assert plant.interface_velocity(u, 0.1, PHYS.beta) == pytest.approx(
            expected, rel=1e-14)
        assert expected > 0.0

    def test_zero_for_flat_profile(self):
        assert plant.interface_velocity(np.zeros(11), 0.5, PHYS.beta) == 0.0


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        u, s, sdot = step((np.zeros(21), 1.0, 0.0), 0.0, 0.5)
        assert np.allclose(u, 0.0, atol=1e-15)
        assert s == 1.0
        assert sdot == 0.0

    def test_positive_flux_heats_boundary_and_grows(self):
        st = (np.zeros(21), 0.5, 0.0)
        for _ in range(200):
            st = step(st, 1e-3, 0.5)
        u, s, sdot = st
        assert u[0] > 0.0
        assert np.min(u) >= -1e-14
        assert s > 0.5
        assert sdot > 0.0

    def test_profile_monotone_from_boundary(self):
        # The steady response to a constant positive heat is decreasing in x.
        st = (np.zeros(21), 0.5, 0.0)
        for _ in range(2000):
            st = step(st, 1e-3, 0.5)
        assert np.all(np.diff(st[0]) <= 1e-12)

    def test_rejects_non_finite_input(self):
        st = linear_state()
        with pytest.raises(NumericalFailure):
            step(st, float("nan"), 0.5)

    def test_breach_when_interface_leaves_domain(self):
        st = linear_state(amp=1.0, s0=2.99)
        with pytest.raises(ValidityBreach):
            step(st, 1e-3, 1e7)


class TestTravellingWave:
    # Exact solution: u = (alpha/beta)(exp((v/alpha)(s - x)) - 1), s = s0 + v t,
    # under the flux q = (k v/beta) exp(v s/alpha).
    S0, V, HORIZON = 0.1, 1.2e-4, 1000.0

    def exact_u(self, x, s):
        return (PHYS.alpha / PHYS.beta) * np.expm1((self.V / PHYS.alpha) * (s - x))

    def errors(self, n, dt):
        x = np.linspace(0.0, self.S0, n)
        u = plant.immobilize(PHYS.Tm + self.exact_u(x, self.S0), self.S0,
                             PHYS, n)
        st = (u, self.S0, plant.interface_velocity(u, self.S0, PHYS.beta))
        steps = round(self.HORIZON / dt)
        for j in range(steps):
            s_exact = self.S0 + self.V * j * dt
            q = (PHYS.k * self.V / PHYS.beta) * math.exp(self.V * s_exact / PHYS.alpha)
            st = step(st, q, dt)
        s_exact = self.S0 + self.V * self.HORIZON
        u_exact = self.exact_u(np.linspace(0.0, 1.0, n) * s_exact, s_exact)
        u, s, _ = st
        return abs(s - s_exact), np.max(np.abs(u - u_exact))

    def test_first_order_convergence(self):
        errs = np.array([self.errors(n, dt)
                         for n, dt in ((21, 1.0), (41, 0.5), (81, 0.25))])
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(orders >= 0.9), (errs, orders)
