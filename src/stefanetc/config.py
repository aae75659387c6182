"""Scenario configuration: a sectioned key=value text file.

The schema is strict: unknown sections or keys are configuration errors,
because silent typos in twenty-odd Greek-letter parameters are the dominant
reproduction failure.  The shipped defaults are the complete paraffin
experiment, so `run` with the default config reproduces it end to end.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .params import (ControllerConfig, InitialData, PhysicalParams,
                     TriggerConfig, derive_physical)

_SCHEMA = {
    "physical": {"k", "rho", "cp", "latent_heat", "L", "Tm"},
    "controller": {"c", "lambda", "epsilon", "setpoint"},
    "initial": {"s0", "T0_kind", "T0_amplitude", "T0_samples",
                "That_kind", "That_amplitude", "That_samples",
                "H", "H_hat_lower", "H_hat_upper"},
    "trigger": {"eta", "gamma", "delta", "m0", "A", "b_star"},
    "scheme": {"n", "dt", "horizon", "max_horizon"},
    "scenario": {"kind", "period", "output_dir", "unsafe", "allow_coarse_dt"},
}

SCENARIO_KINDS = ("event_triggered", "continuous", "sampled_data")


@dataclass
class SchemeConfig:
    n: int = 21                     # nodes on the unit grid (h = 0.05)
    dt: float = 0.5                 # time step [s]
    horizon: float | None = None    # None means auto: 1.2x the convergence time
    max_horizon: float = 2.0e5      # hard cap for auto horizons [s]


@dataclass
class ScenarioSection:
    kind: str = "event_triggered"
    period: float = 3000.0          # sampled-data period [s]
    output_dir: str = "out"
    unsafe: bool = False
    allow_coarse_dt: bool = False


@dataclass
class ScenarioConfig:
    phys: PhysicalParams
    ctrl: ControllerConfig
    init: InitialData
    trig: TriggerConfig
    scheme: SchemeConfig
    scenario: ScenarioSection
    raw: dict = field(default_factory=dict)   # section -> {key: string value}


def _parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    return cp


def _number(raw: str, name: str) -> float:
    # No key gives nan or inf a meaning; "auto" is how a value is left unset.
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name}={raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"{name}={raw!r} is not finite")
    return value


def _float(sec: dict, section: str, key: str, default=None) -> float:
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigurationError(f"missing required key {section}.{key}")
        return default
    return _number(raw, f"{section}.{key}")


def _float_or_auto(sec: dict, section: str, key: str) -> float | None:
    raw = sec.get(key, "auto")
    if str(raw).strip().lower() == "auto":
        return None
    return _float(sec, section, key)


def _bool(sec: dict, section: str, key: str, default: bool) -> bool:
    raw = sec.get(key)
    if raw is None:
        return default
    val = str(raw).strip().lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ConfigurationError(f"{section}.{key}={raw!r} is not a boolean")


def _profile(sec: dict, which: str, x: np.ndarray, s0: float, Tm: float) -> np.ndarray:
    kind = sec.get(f"{which}_kind", "linear").strip().lower()
    if kind == "linear":
        amp = _float(sec, "initial", f"{which}_amplitude")
        return Tm + amp * (1.0 - x / s0)
    if kind == "samples":
        name = f"initial.{which}_samples"
        raw = sec.get(f"{which}_samples")
        if raw is None:
            raise ConfigurationError(f"{name} required for kind=samples")
        vals = np.array([_number(v, name) for v in raw.replace(",", " ").split()])
        if vals.size < 3:
            raise ConfigurationError(f"{name} needs >= 3 values")
        return np.interp(x, np.linspace(0.0, s0, vals.size), vals)
    raise ConfigurationError(f"initial.{which}_kind={kind!r} not in (linear, samples)")


def _auto_bound(profile: np.ndarray, x: np.ndarray, s0: float, Tm: float,
                upper: bool) -> float:
    # Tightest cone slope H with profile - Tm <= or >= H (s0 - x).
    gap = s0 - x
    mask = gap > 1e-12 * s0
    ratios = (profile[mask] - Tm) / gap[mask]
    return float(np.max(ratios) if upper else np.min(ratios))


def _read(text: str) -> dict[str, dict[str, str]]:
    cp = _parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    return {section: dict(cp.items(section)) for section in cp.sections()}


def _build(raw: dict[str, dict[str, str]]) -> ScenarioConfig:
    """Check raw section -> {key: string value} against the schema and type it."""
    for section, keys in raw.items():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        unknown = set(keys) - _SCHEMA[section]
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    for required in ("physical", "controller", "initial", "trigger"):
        if required not in raw:
            raise ConfigurationError(f"missing required section [{required}]")

    p = raw["physical"]
    phys = derive_physical(
        k=_float(p, "physical", "k"), rho=_float(p, "physical", "rho"),
        cp=_float(p, "physical", "cp"), dH=_float(p, "physical", "latent_heat"),
        L=_float(p, "physical", "L"), Tm=_float(p, "physical", "Tm"))

    csec = raw["controller"]
    ctrl = ControllerConfig(
        c=_float(csec, "controller", "c"), lam=_float(csec, "controller", "lambda"),
        epsilon=_float(csec, "controller", "epsilon"),
        s_r=_float(csec, "controller", "setpoint"))

    isec = raw["initial"]
    s0 = _float(isec, "initial", "s0")
    if not s0 > 0.0:
        raise ConfigurationError("initial.s0 must be positive")
    x = np.linspace(0.0, s0, 101)
    T0 = _profile(isec, "T0", x, s0, phys.Tm)
    That = _profile(isec, "That", x, s0, phys.Tm)
    H = _float_or_auto(isec, "initial", "H")
    Hl = _float_or_auto(isec, "initial", "H_hat_lower")
    Hu = _float_or_auto(isec, "initial", "H_hat_upper")
    init = InitialData(
        s0=s0, x=x, T0=T0, T0_hat=That,
        H=H if H is not None else _auto_bound(T0, x, s0, phys.Tm, upper=True),
        H_hat_l=Hl if Hl is not None else _auto_bound(That, x, s0, phys.Tm, upper=False),
        H_hat_u=Hu if Hu is not None else _auto_bound(That, x, s0, phys.Tm, upper=True))

    tsec = raw["trigger"]
    trig = TriggerConfig(
        eta=_float(tsec, "trigger", "eta"), gamma=_float(tsec, "trigger", "gamma"),
        delta=_float(tsec, "trigger", "delta"), m0=_float(tsec, "trigger", "m0"),
        A=_float_or_auto(tsec, "trigger", "A"),
        b_star=_float_or_auto(tsec, "trigger", "b_star"))

    # A key left out takes its dataclass default.
    ssec = raw.get("scheme", {})
    n = _float(ssec, "scheme", "n", float(SchemeConfig.n))
    if not n.is_integer():
        raise ConfigurationError(f"scheme.n={n:g} is not an integer")
    scheme = SchemeConfig(
        n=int(n),
        dt=_float(ssec, "scheme", "dt", SchemeConfig.dt),
        horizon=_float_or_auto(ssec, "scheme", "horizon"),
        max_horizon=_float(ssec, "scheme", "max_horizon", SchemeConfig.max_horizon))
    if scheme.n < 3:
        raise ConfigurationError("scheme.n must be at least 3")
    for key, value in (("dt", scheme.dt), ("horizon", scheme.horizon),
                       ("max_horizon", scheme.max_horizon)):
        if value is not None and value <= 0.0:
            raise ConfigurationError(f"scheme.{key} must be positive")

    scsec = raw.get("scenario", {})
    kind = scsec.get("kind", ScenarioSection.kind).strip().lower()
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(
            f"scenario.kind={kind!r} not in {SCENARIO_KINDS}")
    scenario = ScenarioSection(
        kind=kind,
        period=_float(scsec, "scenario", "period", ScenarioSection.period),
        output_dir=scsec.get("output_dir", ScenarioSection.output_dir),
        unsafe=_bool(scsec, "scenario", "unsafe", ScenarioSection.unsafe),
        allow_coarse_dt=_bool(scsec, "scenario", "allow_coarse_dt",
                              ScenarioSection.allow_coarse_dt))
    if scenario.period <= 0.0:
        raise ConfigurationError("scenario.period must be positive")

    return ScenarioConfig(phys=phys, ctrl=ctrl, init=init, trig=trig,
                          scheme=scheme, scenario=scenario, raw=raw)


def parse_config_text(text: str) -> ScenarioConfig:
    return _build(_read(text))


def override(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    """A copy of cfg with the key `name` ("section.key") set to `value`."""
    section, dot, key = name.partition(".")
    if not dot:
        raise ConfigurationError(f"{name!r} is not of the form section.key")
    raw = {sec: dict(keys) for sec, keys in cfg.raw.items()}
    raw.setdefault(section, {})[key] = str(value)
    return _build(raw)


def parse_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid UTF-8: {exc}") from exc
    return parse_config_text(text)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Write the raw key=value content back out (semantic round trip)."""
    cp = _parser()
    for section in _SCHEMA:
        if section in cfg.raw:
            cp[section] = dict(cfg.raw[section])
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def default_config_text() -> str:
    """The shipped paraffin experiment."""
    return resources.files("stefanetc.configs").joinpath(
        "paraffin_event_triggered.cfg").read_text()


def default_config(kind: str = "event_triggered") -> ScenarioConfig:
    """The shipped paraffin experiment, run as scenario `kind`."""
    return override(parse_config_text(default_config_text()), "scenario.kind", kind)
