"""Feedback-law checks: the closed form of the continuous law and positivity
enforcement of the held input."""

import numpy as np
import pytest

from stefanetc import control, harness, params
from stefanetc.errors import ValidityBreach

PHYS = params.derive_physical(k=0.00220, rho=7.90e-4, cp=2380.0, dH=2.10e5,
                              L=3.0, Tm=37.0)
C = 3.0e-4


class TestContinuousLaw:
    def test_closed_form_on_constant_profile(self):
        u_hat = np.full(21, 2.0)
        s, s_r = 0.5, 2.0
        expected = -C * (PHYS.k / PHYS.alpha * 2.0 * s
                         + PHYS.k / PHYS.beta * (s - s_r))
        integral = control.integral_u_hat(u_hat, s)
        assert control.continuous_q(integral, s - s_r, PHYS, C) \
            == pytest.approx(expected, rel=1e-12)

    def test_positive_below_setpoint(self):
        integral = control.integral_u_hat(np.zeros(21), 0.1)
        q = control.continuous_q(integral, 0.1 - 2.0, PHYS, C)
        assert q == pytest.approx(C * PHYS.k / PHYS.beta * 1.9, rel=1e-12)
        assert q > 0.0

    def test_integral_scaling(self):
        u_hat = np.linspace(1.0, 0.0, 21)
        assert control.integral_u_hat(u_hat, 2.0) == pytest.approx(1.0, rel=1e-12)


class TestZohUpdate:
    def test_returns_positive_input(self):
        integral = control.integral_u_hat(np.zeros(21), 0.1)
        q = control.zoh_update(integral, 0.1 - 2.0, PHYS, C)
        assert q > 0.0

    def test_breach_past_setpoint(self, default_cfg):
        with pytest.raises(ValidityBreach) as exc:
            control.zoh_update(control.integral_u_hat(np.zeros(21), 2.5),
                               2.5 - 2.0, PHYS, C)
        assert exc.value.condition == "q_positive"
        assert exc.value.value < 0.0
        # The breach's time is the loop's clock, which its record reads.
        assert "t=" not in str(exc.value)
        loop = harness.ClosedLoop(default_cfg, params.derive_trigger(
            default_cfg.phys, default_cfg.ctrl, default_cfg.trig))
        loop.t = 12.0
        assert loop.breach_record(exc.value).t == 12.0
