"""Configuration schema checks: strictness on unknown names, typed parsing,
defaults, auto bounds, and serialize/parse round trips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stefanetc import config
from stefanetc.errors import ConfigurationError
from conftest import variant_text


class TestDefaults:
    def test_default_parses(self, default_cfg):
        assert default_cfg.scenario.kind == "event_triggered"
        assert default_cfg.scheme.n == 21
        assert default_cfg.scheme.dt == 0.5
        assert default_cfg.ctrl.s_r == 2.0
        assert default_cfg.init.s0 == 0.1
        assert default_cfg.phys.alpha == pytest.approx(1.170088288479949e-3)

    def test_kind_switch(self):
        cfg = config.default_config("continuous")
        assert cfg.scenario.kind == "continuous"

    def test_auto_bounds_from_linear_profiles(self, default_cfg):
        assert default_cfg.init.H == pytest.approx(1.0 / 0.1, rel=1e-9)
        assert default_cfg.init.H_hat_l == pytest.approx(10.0 / 0.1, rel=1e-9)
        assert default_cfg.init.H_hat_u == pytest.approx(10.0 / 0.1, rel=1e-9)


class TestStrictness:
    def test_unknown_section(self, default_text):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            config.parse_config_text(default_text + "\n[plotting]\nstyle = x\n")

    def test_unknown_key(self, default_text):
        bad = variant_text(default_text, [("eta = 1.325e-2", "etaa = 1.325e-2")])
        with pytest.raises(ConfigurationError, match="unknown key"):
            config.parse_config_text(bad)

    def test_missing_required_section(self, default_text):
        bad = variant_text(default_text, [("[trigger]", "[scheme]")])
        with pytest.raises(ConfigurationError):
            config.parse_config_text(bad)

    def test_bad_number(self, default_text):
        bad = variant_text(default_text, [("dt = 0.5", "dt = fast")])
        with pytest.raises(ConfigurationError, match="not a number"):
            config.parse_config_text(bad)

    def test_bad_horizon(self, default_text):
        bad = variant_text(default_text, [("horizon = auto", "horizon = soon")])
        with pytest.raises(ConfigurationError, match="scheme.horizon"):
            config.parse_config_text(bad)

    def test_bad_boolean(self, default_text):
        bad = variant_text(default_text, [("unsafe = false", "unsafe = maybe")])
        with pytest.raises(ConfigurationError, match="not a boolean"):
            config.parse_config_text(bad)

    def test_bad_kind(self, default_text):
        bad = variant_text(default_text,
                           [("kind = event_triggered", "kind = adaptive")])
        with pytest.raises(ConfigurationError, match="scenario.kind"):
            config.parse_config_text(bad)

    @pytest.mark.parametrize("key, value, match", [
        ("scheme.horizon", "nan", "scheme.horizon='nan' is not finite"),
        ("scheme.horizon", "inf", "scheme.horizon='inf' is not finite"),
        ("scheme.horizon", "-5", "scheme.horizon must be positive"),
        ("scheme.max_horizon", "0", "scheme.max_horizon must be positive"),
        ("scheme.n", "nan", "scheme.n='nan' is not finite"),
        ("scheme.n", "inf", "scheme.n='inf' is not finite"),
        ("scheme.n", "21.7", "scheme.n=21.7 is not an integer"),
        ("scheme.n", "2", "scheme.n must be at least 3"),
        ("scheme.dt", "nan", "scheme.dt='nan' is not finite"),
        ("scheme.dt", "inf", "scheme.dt='inf' is not finite"),
        ("scheme.dt", "0", "scheme.dt must be positive"),
        ("scheme.dt", "-0.5", "scheme.dt must be positive"),
        ("scenario.period", "nan", "scenario.period='nan' is not finite"),
        ("scenario.period", "-1", "scenario.period must be positive"),
        ("controller.c", "inf", "controller.c='inf' is not finite"),
        ("trigger.gamma", "nan", "trigger.gamma='nan' is not finite"),
    ])
    def test_rejects_unusable_value(self, default_cfg, key, value, match):
        with pytest.raises(ConfigurationError, match=match):
            config.override(default_cfg, key, value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            config.parse_config(tmp_path / "nope.cfg")

    def test_file_not_utf8(self, default_text, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(default_text.encode() + b"# \xff\n")
        with pytest.raises(ConfigurationError, match="not valid UTF-8"):
            config.parse_config(path)


class TestSectionDefaults:
    def test_left_out_sections_take_the_dataclass_defaults(self, default_text):
        # [scheme] and [scenario] are optional; every key left out takes the
        # default its dataclass declares (horizon: auto).
        head = default_text.split("[scheme]")[0]
        cfg = config.parse_config_text(head)
        assert cfg.scheme == config.SchemeConfig()
        assert cfg.scenario == config.ScenarioSection()


class TestProfiles:
    def test_samples_kind(self, default_text):
        text = variant_text(default_text, [
            ("T0_kind = linear", "T0_kind = samples"),
            ("T0_amplitude = 1.0", "T0_samples = 38.0 37.5 37.0"),
        ])
        cfg = config.parse_config_text(text)
        assert cfg.init.T0[0] == pytest.approx(38.0)
        assert cfg.init.T0[-1] == pytest.approx(37.0)

    def test_samples_need_three_values(self, default_text):
        text = variant_text(default_text, [
            ("T0_kind = linear", "T0_kind = samples"),
            ("T0_amplitude = 1.0", "T0_samples = 38.0 37.0"),
        ])
        with pytest.raises(ConfigurationError, match="3 values"):
            config.parse_config_text(text)


    @pytest.mark.parametrize("samples, match", [
        ("1 2 x", "initial.T0_samples='x' is not a number"),
        ("40 39 nan 37", "initial.T0_samples='nan' is not finite"),
    ])
    def test_samples_must_be_finite_numbers(self, default_text, samples,
                                            match):
        text = variant_text(default_text, [
            ("T0_kind = linear", "T0_kind = samples"),
            ("T0_amplitude = 1.0", f"T0_samples = {samples}"),
        ])
        with pytest.raises(ConfigurationError, match=match):
            config.parse_config_text(text)


class TestRoundTrip:
    def test_serialize_parse_is_semantic_identity(self, default_cfg):
        text = config.serialize_config(default_cfg)
        again = config.parse_config_text(text)
        assert again.raw == default_cfg.raw
        assert again.scheme == default_cfg.scheme
        assert again.ctrl == default_cfg.ctrl
        assert again.trig == default_cfg.trig
        assert np.array_equal(again.init.T0, default_cfg.init.T0)


def finite(lo, hi):
    return st.floats(lo, hi).map(repr)


# A valid value for each key of the shipped config that takes one.
VALUES = {
    "physical.k": finite(1e-6, 1e3), "physical.rho": finite(1e-6, 1e3),
    "physical.cp": finite(1e-3, 1e6), "physical.latent_heat": finite(1.0, 1e7),
    "physical.L": finite(2.5, 1e3), "physical.Tm": finite(1e-3, 1e3),
    "controller.c": finite(1e-8, 1.0), "controller.lambda": finite(1e-6, 1.0),
    "controller.epsilon": finite(1e-6, 1e3),
    "controller.setpoint": finite(1e-3, 3.0),
    "initial.s0": finite(1e-2, 2.9),
    "initial.T0_amplitude": finite(-1e2, 1e2),
    "initial.That_amplitude": finite(-1e2, 1e2),
    "initial.H": st.one_of(st.just("auto"), finite(1e-3, 1e3)),
    "trigger.eta": finite(1e-6, 1.0), "trigger.gamma": finite(1.0, 1e6),
    "trigger.delta": finite(1e-3, 0.999), "trigger.m0": finite(1e-9, 1.0),
    "trigger.A": st.one_of(st.just("auto"), finite(1e-6, 1e6)),
    "scheme.n": st.integers(3, 400).map(str),
    "scheme.dt": finite(1e-3, 10.0),
    "scheme.horizon": st.one_of(st.just("auto"), finite(1.0, 1e5)),
    "scenario.kind": st.sampled_from(config.SCENARIO_KINDS),
    "scenario.period": finite(1.0, 1e4),
    "scenario.output_dir": st.from_regex(r"[A-Za-z0-9_./-]{1,20}",
                                         fullmatch=True),
    "scenario.unsafe": st.sampled_from(["true", "false", "yes", "off", "1"]),
}


def same_config(a, b):
    assert a.raw == b.raw
    for part in ("phys", "ctrl", "trig", "scheme", "scenario"):
        assert getattr(a, part) == getattr(b, part), part
    for f in dataclasses.fields(a.init):
        assert np.array_equal(getattr(a.init, f.name),
                              getattr(b.init, f.name)), f.name


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), VALUES[key])))
    def test_override_serialize_parse(self, default_cfg, item):
        key, value = item
        cfg = config.override(default_cfg, key, value)
        same_config(config.parse_config_text(config.serialize_config(cfg)),
                    cfg)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(config._SCHEMA)),
           st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True))
    def test_unknown_key_always_rejected(self, default_cfg, section, key):
        if key in config._SCHEMA[section]:
            key += "_x"
        with pytest.raises(ConfigurationError, match="unknown key"):
            config.override(default_cfg, f"{section}.{key}", "1")


class TestOverride:
    def test_matches_parsing_the_rewritten_text(self, default_cfg, default_text):
        got = config.override(default_cfg, "trigger.gamma", "500")
        want = config.parse_config_text(
            variant_text(default_text, [("gamma = 1.0e3", "gamma = 500")]))
        assert got.raw == want.raw
        assert got.trig == want.trig and got.trig.gamma == 500.0
        assert got.scheme == want.scheme and got.scenario == want.scenario
        assert default_cfg.trig.gamma == 1.0e3

    def test_unknown_key_raises(self, default_cfg):
        with pytest.raises(ConfigurationError, match="unknown key"):
            config.override(default_cfg, "trigger.zeta", "1")
        with pytest.raises(ConfigurationError, match="section.key"):
            config.override(default_cfg, "gamma", "1")
