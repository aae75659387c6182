"""Derivation-chain checks: frozen oracle values for the paraffin case,
closed forms against quadrature, randomized admissibility properties, and
the initial-data validity report."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stefanetc import cli, config, harness, params
from stefanetc.errors import ConfigurationError
from stefanetc.numerics import observer_gain

# Frozen oracle values for the shipped paraffin configuration (cm-s-degC-J).
PARAFFIN = dict(k=0.00220, rho=7.90e-4, cp=2380.0, dH=2.10e5, L=3.0, Tm=37.0)
ALPHA = 1.170088288479949e-3
BETA = 1.3261000602772756e-5

ORACLE = {
    "Upsilon": 554213730645.7614,
    "theta0": 3.6e-07,
    "theta1": 7.099520212561979e-08,
    "theta2": 1.842436041322313e-04,
    "theta3": 1.1057502932506528e+17,
    "mu1": 1.4199040425123959e-10,
    "mu2": 3.684872082644626e-07,
    "mu3": 2.2115005865013056e+14,
    "A_min": 3.4985033513682033e-04,
    "sigma": 5.157882826291171e-06,
    "tau": 0.6815804566345285,
    "max_dwell": 3333.3333333333335,
    "R": 89.35598457075847,
    "zeta": -43.83423402759405,
    "eps_bound": 0.21337522170849402,
    "f_max": 711979435.1812379,
    "B": 1.3330107816568992e+25,
    "xi": 67.86818181818181,
}


@pytest.fixture(scope="module")
def paraffin():
    phys = params.derive_physical(**PARAFFIN)
    ctrl = params.ControllerConfig(c=3.0e-4, lam=0.1, epsilon=10.0, s_r=2.0)
    trig = params.TriggerConfig(eta=1.325e-2, gamma=1.0e3, delta=0.5, m0=1e-4,
                                A=None, b_star=None)
    return phys, ctrl, trig


@pytest.fixture(scope="module")
def derived(paraffin):
    phys, ctrl, trig = paraffin
    return params.derive_trigger(phys, ctrl, trig)


class TestPhysical:
    def test_diffusivities(self):
        phys = params.derive_physical(**PARAFFIN)
        assert phys.alpha == pytest.approx(ALPHA, rel=1e-12)
        assert phys.beta == pytest.approx(BETA, rel=1e-12)

    def test_rejects_nonpositive(self):
        bad = dict(PARAFFIN)
        bad["rho"] = 0.0
        with pytest.raises(ConfigurationError):
            params.derive_physical(**bad)

    def test_rejects_non_finite_melting_temperature(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="Tm=.* finite"):
                params.derive_physical(**dict(PARAFFIN, Tm=value))

    # Tm is an offset in degC that enters only as T - Tm, and the linear
    # initial profiles are Tm + amplitude (1 - x/s0), so shifting Tm moves
    # u = T - Tm by no more than the rounding of that sum.  Stated before
    # the runs: s(t) agrees with the shipped Tm = 37 to 1e-12 relative.
    TM_SHIFT_RTOL = 1e-12

    @pytest.mark.parametrize("Tm", [0.0, -20.0])
    def test_melting_temperature_is_an_offset(self, default_cfg, Tm):
        cfg = config.override(default_cfg, "scenario.kind", "continuous")
        cfg = config.override(cfg, "scheme.horizon", 100.0)
        shifted = config.parse_config_text(config.serialize_config(
            config.override(cfg, "physical.Tm", Tm)))
        assert shifted.phys.Tm == Tm
        assert params.derive_trigger(shifted.phys, shifted.ctrl,
                                     shifted.trig) \
            == params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)
        base = harness.run_scenario(cfg)
        run = harness.run_scenario(shifted)
        assert base.breach is None and run.breach is None
        assert run.series["t"].size == base.series["t"].size == 201
        np.testing.assert_allclose(run.series["s"], base.series["s"],
                                   rtol=self.TM_SHIFT_RTOL, atol=0.0)


class TestDerivationChain:
    def test_frozen_values(self, derived):
        for name, value in ORACLE.items():
            rel = {"f_max": 1e-12, "Upsilon": 1e-12, "B": 1e-12}.get(name, 1e-10)
            assert getattr(derived, name) == pytest.approx(value, rel=rel), name

    def test_shipped_config_derives_without_warnings(self):
        cfg = config.default_config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)

    def test_mu_theta_round_trip(self, derived, paraffin):
        _, _, trig = paraffin
        scale = trig.gamma * (1.0 - trig.delta)
        assert derived.mu1 * scale == pytest.approx(derived.theta1, rel=1e-12)
        assert derived.mu2 * scale == pytest.approx(derived.theta2, rel=1e-12)
        assert derived.mu3 * scale == pytest.approx(derived.theta3, rel=1e-12)

    def test_auto_A_just_above_floor(self, derived):
        assert derived.A == pytest.approx(1.05 * derived.A_min, rel=1e-12)
        assert derived.sigma == pytest.approx(
            4.0 * derived.A * ALPHA * PARAFFIN["L"], rel=1e-12)

    def test_auto_b_star_doubles_floor(self, derived):
        floor = derived.mu3 / (derived.A * ALPHA)
        assert derived.b_star == pytest.approx(2.0 * floor, rel=1e-12)

    def test_configured_A_below_floor_rejected(self, paraffin, derived):
        # The one check on A: it must exceed A_min >= 0, so sigma > 0.
        phys, ctrl, trig = paraffin
        for A in (0.5 * derived.A_min, 0.0, -1.0, math.nan):
            bad = dataclasses.replace(trig, A=A)
            with pytest.raises(ConfigurationError, match="does not exceed"):
                params.derive_trigger(phys, ctrl, bad)

    def test_configured_b_star_below_floor_rejected(self, paraffin, derived):
        phys, ctrl, trig = paraffin
        floor = derived.mu3 / (derived.A * ALPHA)
        bad = params.TriggerConfig(eta=trig.eta, gamma=trig.gamma,
                                   delta=trig.delta, m0=trig.m0,
                                   A=None, b_star=0.5 * floor)
        with pytest.raises(ConfigurationError):
            params.derive_trigger(phys, ctrl, bad)

    def test_upsilon_identity_at_zero_gain(self):
        assert params.compute_upsilon(ALPHA, 0.0, 3.0) == 1.0

    def test_upsilon_against_gain_quadrature(self):
        # Upsilon bounds |1 - (1/alpha) int_0^s p(y, s) dy| over (0, L] and is
        # attained at s = L; the integral of observer_gain is taken by
        # adaptive quadrature, independent of the closed form.
        rng = np.random.default_rng(5)
        for _ in range(6):
            alpha = 10.0 ** rng.uniform(-4.0, 0.0)
            L = rng.uniform(0.5, 5.0)
            z_L = rng.uniform(0.1, 30.0)        # sqrt(lam/alpha) L
            lam = alpha * (z_L / L) ** 2
            upsilon = params.compute_upsilon(alpha, lam, L)
            for s in (0.25 * L, 0.5 * L, 0.75 * L, L):
                integral, _ = quad(
                    lambda y: observer_gain(np.array([y]), s, lam, alpha)[0],
                    0.0, s, epsabs=0.0, epsrel=1e-13, limit=200)
                value = abs(1.0 - integral / alpha)
                assert value <= upsilon * (1.0 + 1e-10), (alpha, lam, L, s)
            assert value == pytest.approx(upsilon, rel=1e-10), (alpha, lam, L)

    def test_thetas_closed_form(self):
        t0, t1, t2, t3 = params.compute_thetas(2.0, 3.0, 0.5, 0.25, 1.5)
        assert t0 == pytest.approx(16.0)
        assert t1 == pytest.approx(4.0 * 16.0 * 3.0 / 0.25)
        assert t2 == pytest.approx(4.0 * 16.0 / 0.0625)
        assert t3 == pytest.approx(16.0 * 2.25)

    def test_si_unit_cross_check(self):
        # Same derivation chain in SI (meter) units reproduces the published
        # constants within 5%: mu1 = 1.42e-4, mu2 = 36.85, and
        # sigma = 6.19e-5 at the Lyapunov-scale floor A_min.
        phys = params.derive_physical(k=0.220, rho=790.0, cp=2380.0,
                                      dH=2.10e5, L=0.03, Tm=37.0)
        ctrl = params.ControllerConfig(c=3.0e-4, lam=0.1, epsilon=10.0, s_r=0.02)
        trig = params.TriggerConfig(eta=1.325e-2, gamma=1.0e3, delta=0.5,
                                    m0=1e-4, A=None, b_star=None)
        d = params.derive_trigger(phys, ctrl, trig)
        assert d.mu1 == pytest.approx(1.42e-4, rel=0.05)
        assert d.mu2 == pytest.approx(36.85, rel=0.05)
        sigma_floor = params.compute_sigma(d.A_min, phys.alpha, phys.L)
        assert sigma_floor == pytest.approx(6.19e-5, rel=0.05)


def log_uniform(lo, hi):
    """Floats 10^u for u drawn uniformly from [lo, hi]."""
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


class TestDerivationProperties:
    # Valid inputs on the shipped physics: c > 0, lambda with
    # sqrt(lambda L^2/alpha) = z up to 400 (past 354 B overflows), epsilon
    # inside (0, 2 sqrt(alpha c)/beta), gamma, eta > 0 and delta inside
    # (0, 1/(1+c)).  Each draw either is a configuration error or gives
    # finite constants with the properties the paper's results rest on.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(c=log_uniform(-8.0, 0.0), z=st.floats(0.01, 400.0),
           eps_frac=st.floats(0.001, 0.99), gamma=log_uniform(0.0, 5.0),
           eta=log_uniform(-4.0, 0.0), delta_frac=st.floats(0.001, 0.999))
    def test_valid_inputs_derive_or_are_configuration_errors(
            self, c, z, eps_frac, gamma, eta, delta_frac):
        phys = params.derive_physical(**PARAFFIN)
        alpha, beta, L = phys.alpha, phys.beta, phys.L
        eps = eps_frac * 2.0 * math.sqrt(alpha * c) / beta
        ctrl = params.ControllerConfig(c=c, lam=alpha * (z / L) ** 2,
                                       epsilon=eps, s_r=2.0)
        trig = params.TriggerConfig(eta=eta, gamma=gamma,
                                    delta=delta_frac / (1.0 + c), m0=1e-4,
                                    A=None, b_star=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "f_max quadrature not converged",
                                    RuntimeWarning)
            try:
                d = params.derive_trigger(phys, ctrl, trig)
            except ConfigurationError as exc:
                assert "not finite in double precision" in str(exc)
                event("configuration error")
                return
        event("derived")
        for f in dataclasses.fields(d):
            value = getattr(d, f.name)
            assert np.isfinite(value).all(), f.name
        assert d.A > d.A_min >= 0.0
        assert 0.0 < d.tau < 1.0 / c
        # zeta = -(2 alpha c - eps^2 beta^2)/(2 alpha beta omega) with
        # omega^2 = (4 alpha c - eps^2 beta^2)/(4 alpha^2), so
        # zeta^2 = (2 alpha c - eps^2 beta^2)^2/(beta^2 (4 alpha c - eps^2
        # beta^2)), and adding eps^2 cancels the alpha c eps^2 beta^2 and
        # eps^4 beta^4 terms of the numerator.
        e2b2 = (eps * beta) ** 2
        closed = 4.0 * (alpha * c) ** 2 / (beta * beta * (4.0 * alpha * c - e2b2))
        assert d.zeta ** 2 + eps ** 2 == pytest.approx(closed, rel=1e-12)


def gain_argument_config(z):
    """The shipped config with lambda set so that the observer gain's
    largest Bessel argument sqrt(lambda L^2/alpha) is z, run unsafe (the
    initial data fail the lambda bound at such gains)."""
    cfg = config.default_config()
    lam = z * z * cfg.phys.alpha / (cfg.phys.L * cfg.phys.L)
    cfg = config.override(cfg, "controller.lambda", repr(lam))
    return config.override(cfg, "scenario.unsafe", "true")


# What the derivation chain gives at sqrt(lambda L^2/alpha) = 353, the last
# integer argument below the overflow of B (kept as derived before the
# finiteness check was added, B and xi as the monitors computed them).
AT_353 = {
    "Upsilon": 1.0113980598204157e+153,
    "theta3": 3.682533727470604e+299,
    "mu3": 7.365067454941208e+296,
    "f_max": 2.268162037974561e+150,
    "b_star": 3.427018892666301e+303,
    "B": 1.3527713376636046e+308,
    "xi": 67.86818181818181,
    "tau": 0.6815804566345381,
}


class TestDoublePrecisionLimit:
    # B = 4 L^2 f_max^2/alpha^2 + ... overflows from z = sqrt(lambda
    # L^2/alpha) = 354 on; f_max squares a kernel that grows like I1(z)/z,
    # and theta3 squares Upsilon = cosh(z): past about z = 356 they overflow
    # too, on configs that ControllerConfig.validate accepts (z <= 700).
    # Every non-finite derived constant is a configuration error that names
    # it, with no warning on the way.

    def assert_configuration_error(self, z, names, tmp_path, capsys):
        cfg = gain_argument_config(z)
        path = tmp_path / "gain.cfg"
        path.write_text(config.serialize_config(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=f": {names}$"):
                params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)
            code = cli.main(["run", "--config", str(path),
                             "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and names in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("z, names", [
        (360, "f_max=inf, b_star=inf"),
        (400, "theta3=inf, mu3=inf, f_max=inf, b_star=inf"),
        (699, "theta3=inf, mu3=inf, f_max=inf, b_star=inf"),
    ])
    def test_non_finite_constants_are_configuration_errors(
            self, z, names, tmp_path, capsys):
        self.assert_configuration_error(z, f"{names}, B=inf", tmp_path, capsys)

    @pytest.mark.parametrize("z", [354, 355])
    def test_lyapunov_weight_overflow_is_configuration_error(
            self, z, tmp_path, capsys):
        # Before B was derived here, such a run wrote inf into V1, V and W.
        self.assert_configuration_error(z, "B=inf", tmp_path, capsys)

    def test_last_finite_argument_derives_as_before(self):
        cfg = gain_argument_config(353)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derived = params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)
        for name, value in AT_353.items():
            assert getattr(derived, name) == pytest.approx(value, rel=1e-12), name


def h_of_epsilon(eps: float, alpha: float, beta: float, c: float, L: float) -> float:
    """The quadratic whose positive root is params.epsilon_star."""
    R = 2.0 * math.sqrt(alpha * c) / beta
    return (alpha * c / (4.0 * beta)
            - (4.0 * beta * beta * R * R * L / alpha + 7.0 * alpha / (16.0 * L)) * eps
            - (4.0 * beta + beta ** 3 * R * R * L * L / (2.0 * alpha * alpha)) * eps * eps)


class TestEpsilon:
    def test_star_is_root(self, derived):
        eps_star = derived.eps_bound_components[2]
        assert eps_star == pytest.approx(0.4525709584348692, rel=1e-10)
        h = h_of_epsilon(eps_star, ALPHA, BETA, 3.0e-4, 3.0)
        assert abs(h) < 1e-12 * h_of_epsilon(0.0, ALPHA, BETA, 3.0e-4, 3.0)

    def test_bound_is_min_of_components(self, derived):
        assert derived.eps_bound == min(derived.eps_bound_components)

    def test_h_positive_at_zero(self):
        assert h_of_epsilon(0.0, ALPHA, BETA, 3.0e-4, 3.0) > 0.0


class TestDwellTime:
    def test_closed_form_special_cases(self):
        assert params.dwell_time_closed_form(0.0, 0.0, 4.0) == pytest.approx(0.25)
        # a1 = 0: log form.
        assert params.dwell_time_closed_form(0.0, 2.0, 3.0) == pytest.approx(
            math.log(5.0 / 3.0) / 2.0, rel=1e-14)
        # Repeated-root case: a2^2 = 4 a1 a3.
        got = params.dwell_time_closed_form(1.0, 4.0, 4.0)
        expected, _ = quad(lambda x: 1.0 / (x * x + 4.0 * x + 4.0), 0.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_closed_form_matches_quadrature_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a1 = 10.0 ** rng.uniform(-4, 3)
            a2 = 10.0 ** rng.uniform(-4, 3)
            a3 = 10.0 ** rng.uniform(-4, 3)
            got = params.dwell_time_closed_form(a1, a2, a3)
            expected, err = quad(
                lambda x: 1.0 / (a1 * x * x + a2 * x + a3), 0.0, 1.0,
                epsabs=1e-14, epsrel=1e-13)
            assert got == pytest.approx(expected, rel=1e-9), (a1, a2, a3)

    def test_tau_below_max_dwell_randomized(self):
        # Minimal dwell below 1/c whenever delta < 1/(1+c): 200 random draws.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            c = 10.0 ** rng.uniform(-5, -2)
            gamma = 10.0 ** rng.uniform(0, 4)
            sigma = 10.0 ** rng.uniform(-8, -3)
            eta = 10.0 ** rng.uniform(-3, -1)
            delta = rng.uniform(1e-4, 1.0 / (1.0 + c) * 0.999)
            theta0 = 4.0 * c * c
            *_, tau = params.min_dwell_time(theta0, gamma, sigma, eta, delta, c)
            assert 0.0 < tau < 1.0 / c

    def test_rejects_delta_out_of_window(self, paraffin):
        # One check, for the window (0, 1/(1+c)) that tau < 1/c needs, with
        # one message on either side of it.
        phys, ctrl, trig = paraffin
        for delta in (0.0, -0.1, 1.0 / (1.0 + ctrl.c), 0.9999, 1.5):
            bad = dataclasses.replace(trig, delta=delta)
            with pytest.raises(ConfigurationError,
                               match=r"must lie in \(0, 1/\(1\+c\)="):
                params.derive_trigger(phys, ctrl, bad)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ConfigurationError):
            params.dwell_time_closed_form(1.0, 1.0, 0.0)


class TestValidation:
    def build_init(self, amp=1.0, amp_hat=10.0, s0=0.1):
        # Linear profiles with auto cone bounds, built by the config path.
        cfg = config.default_config()
        for key, value in (("T0_amplitude", amp), ("That_amplitude", amp_hat),
                           ("s0", s0)):
            cfg = config.override(cfg, f"initial.{key}", value)
        return cfg.init

    def ctrl(self, lam=0.1, s_r=2.0):
        return params.ControllerConfig(c=3.0e-4, lam=lam, epsilon=10.0, s_r=s_r)

    def test_paraffin_case_passes(self):
        phys = params.derive_physical(**PARAFFIN)
        rep = params.validate_initial_data(self.build_init(), self.ctrl(), phys)
        assert rep.overall_pass, rep.as_lines()

    def test_lambda_bound_fails_for_large_gain(self):
        phys = params.derive_physical(**PARAFFIN)
        rep = params.validate_initial_data(self.build_init(), self.ctrl(lam=5.0), phys)
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"lambda_bound"}

    def test_cone_fails_below_melting(self):
        phys = params.derive_physical(**PARAFFIN)
        init = self.build_init(amp=-1.0)
        rep = params.validate_initial_data(init, self.ctrl(), phys)
        assert not rep.overall_pass
        assert any(c.name == "lipschitz_cone" and not c.passed for c in rep.checks)

    def test_setpoint_window(self):
        phys = params.derive_physical(**PARAFFIN)
        rep = params.validate_initial_data(self.build_init(),
                                           self.ctrl(s_r=0.1001), phys)
        assert any(c.name == "setpoint_window" and not c.passed for c in rep.checks)

    def test_report_lines_mention_overall(self):
        phys = params.derive_physical(**PARAFFIN)
        rep = params.validate_initial_data(self.build_init(), self.ctrl(), phys)
        assert rep.as_lines()[-1] == "overall: PASS"
