"""Trigger checks: the deviation identity with the feedback law, exact
integration of the dynamic variable, event-boundary semantics, and dwell
statistics."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stefanetc import control, params, trigger
from stefanetc.errors import InvariantViolation

PHYS = params.derive_physical(k=0.00220, rho=7.90e-4, cp=2380.0, dH=2.10e5,
                              L=3.0, Tm=37.0)
C = 3.0e-4


class TestDeviation:
    def test_identity_with_feedback_law_randomized(self):
        # d(t) equals (q_cont(t) - q_j)/k when the snapshot froze the state
        # that produced q_j.
        rng = np.random.default_rng(11)
        for _ in range(50):
            u_snap = rng.uniform(0.0, 5.0, 21)
            u_now = rng.uniform(0.0, 5.0, 21)
            s_snap, s_now = rng.uniform(0.1, 2.9, 2)
            s_r = 2.0
            I_snap = control.integral_u_hat(u_snap, s_snap)
            I_now = control.integral_u_hat(u_now, s_now)
            snap = trigger.Snapshot(integral_u_hat=I_snap, X=s_snap - s_r)
            d = trigger.deviation(I_now, s_now - s_r, snap, C,
                                  PHYS.alpha, PHYS.beta)
            q_j = control.continuous_q(I_snap, s_snap - s_r, PHYS, C)
            q_cont = control.continuous_q(I_now, s_now - s_r, PHYS, C)
            assert d == pytest.approx((q_cont - q_j) / PHYS.k, rel=1e-12, abs=1e-15)

    def test_zero_at_snapshot(self):
        snap = trigger.Snapshot(integral_u_hat=1.2, X=-0.5)
        assert trigger.deviation(1.2, -0.5, snap, C, PHYS.alpha, PHYS.beta) == 0.0


class TestStepM:
    def test_matches_exact_linear_solution(self):
        # Frozen sources make mdot = -eta m + S exactly solvable.
        eta, sigma, mu1, mu2, mu3 = 1.325e-2, 5.158e-6, 1.42e-10, 3.685e-7, 2.2e14
        m, d, dt = 1e-4, 1e-6, 0.5
        nrm, xsq, esq = 0.3, 2.5, 1e-18
        S = -sigma * d * d + mu1 * nrm + mu2 * xsq + mu3 * esq
        exact = (m - S / eta) * math.exp(-eta * dt) + S / eta
        got = trigger.step_m(m, d, nrm, xsq, esq, eta, sigma, mu1, mu2, mu3, dt)
        assert got == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(eta_dt=st.floats(1e-9, 50.0), dt=st.floats(1e-3, 1e3),
           m=st.floats(1e-6, 1e6), S=st.floats(-1e6, 1e6))
    def test_exact_for_frozen_sources(self, eta_dt, dt, m, S):
        # Reference (m - S/eta) e^{-eta dt} + S/eta in 40-digit decimal, so
        # its own cancellation does not count against step_m.  S enters as
        # -sigma d^2 (S < 0) or mu1 ||u_hat||^2 (S >= 0), both exact in floats.
        eta = eta_dt / dt
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            decay = (-Decimal(eta) * Decimal(dt)).exp()
            rest = Decimal(S) / Decimal(eta)
            exact = (Decimal(m) - rest) * decay + rest
            scale = Decimal(m) * decay + abs(rest) * (1 - decay)
        # Whenever the result is positive and at most two digits cancel.
        assume(exact > scale / 100)
        sigma, nrm = (-S, 0.0) if S < 0.0 else (0.0, S)
        got = trigger.step_m(m, 1.0, nrm, 0.0, 0.0, eta, sigma, 1.0, 0.0, 0.0, dt)
        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_pure_decay(self):
        m = 1.0
        for _ in range(100):
            m = trigger.step_m(m, 0.0, 0.0, 0.0, 0.0, 0.05, 1.0, 0.0, 0.0, 0.0, 0.5)
        assert m == pytest.approx(math.exp(-0.05 * 50.0), rel=1e-12)

    def test_nonpositive_m_raises(self):
        with pytest.raises(InvariantViolation):
            trigger.step_m(1e-12, 1.0, 0.0, 0.0, 0.0, 1e-2, 1.0, 0.0, 0.0, 0.0, 0.5)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            trigger.step_m(1.0, 0.0, 0.0, 0.0, 0.0, 1e-2, 1.0, 0.0, 0.0, 0.0, 0.0)


class TestCheckEvent:
    def test_threshold_is_strict(self):
        # d^2 == gamma m exactly: no event.
        assert trigger.check_event(10.0, 0.0, 2.0, 4.0 / 1e3, C, 1e3, 0.5) is None
        assert trigger.check_event(10.0, 0.0, 2.0000001, 4.0 / 1e3, C, 1e3,
                                    0.5) == "threshold"

    def test_max_dwell_fires_before_overshoot(self):
        # 1/c = 3333.33...: waiting one more 0.5 s step past t = 3333.0 would
        # exceed it, so the event fires at 3333.0 and not at 3332.5.
        assert trigger.check_event(3332.5, 0.0, 0.0, 1.0, C, 1e3, 0.5) is None
        assert trigger.check_event(3333.0, 0.0, 0.0, 1.0, C, 1e3, 0.5) == "max_dwell"

    def test_threshold_wins_on_collision(self):
        assert trigger.check_event(3333.0, 0.0, 10.0, 1e-6, C, 1e3, 0.5) \
            == "threshold"

    def test_exact_max_dwell_grid(self):
        # With dt dividing 1/c exactly, firing lands exactly at 1/c.
        c = 1.0 / 3000.0
        assert trigger.check_event(2999.5, 0.0, 0.0, 1.0, c, 1e3, 0.5) is None
        assert trigger.check_event(3000.0, 0.0, 0.0, 1.0, c, 1e3, 0.5) == "max_dwell"


class TestDwellStats:
    def test_empty(self):
        lo, mean, hi = trigger.dwell_stats([])
        assert math.isnan(lo) and math.isnan(mean) and math.isnan(hi)

    def test_ignores_initial_event(self):
        events = [
            trigger.EventRecord(0.0, "initial", 1.0, 0.0, 0.0, 0.1),
            trigger.EventRecord(2.0, "threshold", 1.0, 2.0, 0.5, 0.4),
            trigger.EventRecord(8.0, "max_dwell", 1.0, 6.0, 0.1, 0.4),
        ]
        lo, mean, hi = trigger.dwell_stats(events)
        assert (lo, mean, hi) == (2.0, 4.0, 6.0)
