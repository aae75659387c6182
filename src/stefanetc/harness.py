"""Scenario orchestration: closed-loop runs, comparisons, file outputs.

A run is deterministic: per step it measures the plant, supervises the
trigger (or the periodic schedule) and updates the held input on events,
logs the step, and advances plant, observer and dynamic variable.  The
monitors (norms, energy, transformed error, Lyapunov values) never feed back
into the loop: the log buffers each step's profiles, and one stacked monitor
pass computes them for K steps at a time, K = max(1, MONITOR_STACK_ENTRIES
// n^2), when the buffer is full, at the end of the run and at a breach.
Every row is bitwise the value a pass per step would give.  Validity
breaches end the run with a structured record instead of an exception
escaping.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import control, diagnostics, observer, params, plant, trigger
from .config import ScenarioConfig, serialize_config
from .errors import ConfigurationError, NumericalFailure, ValidityBreach

SERIES_COLUMNS = [
    "t", "s", "sdot", "T0_boundary", "norm_T_Tm", "norm_T_That",
    "norm_w_tilde", "energy", "q", "d", "d_squared", "gamma_m", "m",
    "err_slope", "integral_u_hat", "V1", "V", "W",
]

EVENT_COLUMNS = ["time", "reason", "q_j", "dwell", "d_squared", "gamma_m"]

CONVERGENCE_TOL = 0.02   # |s - s_r| threshold defining the auto horizon [cm]


@dataclass
class BreachRecord:
    condition: str
    message: str
    t: float | None


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    derived: params.TriggerDerived
    series: dict[str, np.ndarray]
    events: list[trigger.EventRecord]
    summary: dict
    breach: BreachRecord | None = None


# Bound on the entries of one monitor pass's (K, n, n) kernel stack: K steps
# are buffered per pass, K = max(1, MONITOR_STACK_ENTRIES // n^2).
MONITOR_STACK_ENTRIES = 32768


def _monitor_columns(U, E, U_hat, s, m, phys, lam, s_r, tc, c, lyap):
    """The monitor columns of K buffered steps, from (K, n) stacks of u,
    u - u_hat and u_hat and length-K s and m, in one stacked pass."""
    err_norm, _ = observer.error_norms(E, s)
    w_tilde = diagnostics.transform_error_inverse(E, s, lam, phys.alpha)
    V1, V, W = diagnostics.lyapunov_values(w_tilde, U_hat, s, m, s_r, tc,
                                           phys, c, lyap)
    return {"norm_T_Tm": _l2_norm(U, s), "norm_T_That": err_norm,
            "norm_w_tilde": _l2_norm(w_tilde, s),
            "energy": control.trapezoid(U, s) / phys.alpha + s / phys.beta,
            "V1": V1, "V": V, "W": W}


@dataclass
class _Recorder:
    """Series rows of one run.

    `log` takes a step's feedback columns and buffers its profiles (u,
    u - u_hat, u_hat) with s and m.  When `stack` steps are buffered, and
    before `arrays`, one stacked call of `monitors` fills the monitor
    columns and the running min of u.  Nothing here feeds back into the loop.
    """
    monitors: Callable
    stack: int
    min_u: float = math.nan
    rows: dict[str, list] = field(default_factory=lambda: {c: [] for c in SERIES_COLUMNS})
    buffer: list = field(default_factory=list)

    def log(self, u, err, u_hat, **feedback):
        for col, value in feedback.items():
            self.rows[col].append(value)
        self.buffer.append((u, err, u_hat, feedback["s"], feedback["m"]))
        if len(self.buffer) == self.stack:
            self.flush()

    def flush(self):
        if not self.buffer:
            return
        U, E, U_hat, s, m = (np.array(col) for col in zip(*self.buffer))
        self.buffer.clear()
        for col, values in self.monitors(U, E, U_hat, s, m).items():
            self.rows[col].extend(values.tolist())
        self.min_u = min(self.min_u, float(np.min(U)))

    def arrays(self) -> dict[str, np.ndarray]:
        self.flush()
        return {c: np.asarray(v, dtype=float) for c, v in self.rows.items()}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    phys, ctrl, trig = cfg.phys, cfg.ctrl, cfg.trig
    scheme, scenario = cfg.scheme, cfg.scenario
    dt, n = scheme.dt, scheme.n
    c, lam, s_r = ctrl.c, ctrl.lam, ctrl.s_r

    validation = params.validate_initial_data(cfg.init, ctrl, phys)
    if not validation.overall_pass and not scenario.unsafe:
        failed = [ch.name for ch in validation.checks if not ch.passed]
        raise ConfigurationError(
            "initial data fails validity conditions "
            f"({', '.join(failed)}); set scenario.unsafe=true to run anyway")

    derived = params.derive_trigger(phys, ctrl, trig)
    if scenario.kind == "event_triggered" and dt >= derived.tau / 5.0 \
            and not scenario.allow_coarse_dt:
        raise ConfigurationError(
            f"dt={dt:g} s is too coarse for honest trigger supervision: "
            f"the minimal dwell is tau={derived.tau:g} s and dt < tau/5 is "
            "required (set scenario.allow_coarse_dt=true to override)")

    tc = diagnostics.transform_constants(phys.alpha, phys.beta, c, ctrl.epsilon)
    lyap = diagnostics.lyapunov_config(derived.A, derived.b_star, derived.f_max,
                                       phys.L, phys.alpha, phys.beta, c,
                                       ctrl.epsilon)

    rec = _Recorder(
        monitors=functools.partial(_monitor_columns, phys=phys, lam=lam,
                                   s_r=s_r, tc=tc, c=c, lyap=lyap),
        stack=max(1, MONITOR_STACK_ENTRIES // (n * n)))
    # The baselines share one periodic schedule; continuous has period dt.
    periodic = scenario.kind != "event_triggered"
    period = dt if scenario.kind == "continuous" else scenario.period
    next_sample = period   # the initial event takes the sample at t = 0

    horizon_end = scheme.horizon if scheme.horizon is not None else scheme.max_horizon
    auto_horizon = scheme.horizon is None
    t_converged = None
    breach: BreachRecord | None = None
    t = 0.0
    events: list[trigger.EventRecord] = []
    try:
        pstate = plant.immobilize(cfg.init.T0, cfg.init.s0, phys, n)
        ostate = observer.ObserverState(
            u_hat=plant.immobilize(cfg.init.T0_hat, cfg.init.s0, phys, n).u)
        rec.min_u = float(np.min(pstate.u))
        # The snapshot starts at the t = 0 values, so d = 0 at the initial event.
        ts = trigger.TriggerState(
            m=trig.m0, q_j=math.nan, t_j=0.0, events=events,
            snapshot=trigger.Snapshot(
                integral_u_hat=control.integral_u_hat(ostate.u_hat, pstate.s),
                X=pstate.s - s_r))
        while True:
            # Feedback at t: measure, deviation, event decision, held input.
            s, sdot = plant.measure(pstate)
            X = s - s_r
            integral = control.integral_u_hat(ostate.u_hat, s)
            d = trigger.deviation(integral, X, ts.snapshot, c, phys.alpha, phys.beta)

            reason = None
            if not ts.events:
                reason = "initial"
            elif t > ts.t_j:
                if not periodic:
                    reason = trigger.check_event(t, ts.t_j, d, ts.m, c,
                                                 trig.gamma, dt)
                elif t >= next_sample - 1e-9 * max(t, 1.0):
                    reason = "scheduled"
                    next_sample += period
            if reason is not None:
                event = trigger.EventRecord(
                    time=t, reason=reason, q_j=math.nan, dwell=t - ts.t_j,
                    d_squared=d * d, gamma_m=trig.gamma * ts.m)
                ts.events.append(event)
                try:
                    ts.q_j = event.q_j = control.zoh_update(
                        ostate.u_hat, s, s_r, phys, c, t)
                except ValidityBreach as exc:
                    event.q_j = exc.value
                    raise
                ts.snapshot = trigger.Snapshot(integral_u_hat=integral, X=X)
                ts.t_j = t
                d = 0.0

            # Log the step; its monitors are computed later, in a stack.
            # The error's interface slope also feeds the m step.
            err = pstate.u - ostate.u_hat
            err_slope = observer.boundary_slope(err, s)
            rec.log(pstate.u, err, ostate.u_hat, t=t, s=s, sdot=sdot,
                    T0_boundary=phys.Tm + pstate.u[0], q=ts.q_j, d=d,
                    d_squared=d * d, gamma_m=trig.gamma * ts.m, m=ts.m,
                    err_slope=err_slope, integral_u_hat=integral)

            if auto_horizon and t_converged is None and abs(X) < CONVERGENCE_TOL:
                t_converged = t
                horizon_end = min(1.2 * t, scheme.max_horizon)
            if t >= horizon_end - 1e-9 * max(horizon_end, 1.0):
                break

            # Advance plant, observer and m to t + dt under the held input.
            pstate_new = plant.step_plant(pstate, phys, ts.q_j, dt)
            ostate = observer.step_observer(
                ostate, (s, sdot), phys, lam, ts.q_j, dt,
                measured_slope=-pstate_new.sdot / phys.beta)
            if not periodic:
                u_hat_sq = max(control.trapezoid(ostate.u_hat * ostate.u_hat, s), 0.0)
                ts.m = trigger.step_m(ts.m, d, u_hat_sq, X * X,
                                      err_slope * err_slope, trig.eta,
                                      derived.sigma, derived.mu1, derived.mu2,
                                      derived.mu3, dt)
            pstate = pstate_new
            t = round((t + dt) / dt) * dt
            pstate.t = t
            ostate.t = t
    except (ValidityBreach, NumericalFailure) as exc:
        condition = getattr(exc, "condition", "numerical")
        breach = BreachRecord(condition=condition, message=str(exc),
                              t=getattr(exc, "t", t))

    series = rec.arrays()
    summary = _summarize(cfg, derived, series, events, t_converged,
                         horizon_end, breach, rec.min_u)
    return ScenarioResult(config=cfg, derived=derived, series=series,
                          events=events, summary=summary, breach=breach)


def _l2_norm(values: np.ndarray, s):
    return np.sqrt(np.maximum(control.trapezoid(values * values, s), 0.0))


def _summarize(cfg, derived, series, events, t_converged, horizon_end,
               breach, min_u) -> dict:
    dwell_min, dwell_mean, dwell_max = trigger.dwell_stats(events)
    updates = len(events)
    s = series["s"]
    final_gap = abs(s[-1] - cfg.ctrl.s_r) if s.size else float("nan")
    return {
        "scenario": cfg.scenario.kind,
        "steps": int(series["t"].size),
        "control_updates": updates,
        "events_threshold": sum(1 for e in events if e.reason == "threshold"),
        "events_max_dwell": sum(1 for e in events if e.reason == "max_dwell"),
        "dwell_min": dwell_min,
        "dwell_mean": dwell_mean,
        "dwell_max": dwell_max,
        "tau": derived.tau,
        "max_dwell_allowed": derived.max_dwell,
        "t_converged": t_converged if t_converged is not None else float("nan"),
        "horizon": horizon_end,
        "final_interface_gap": float(final_gap),
        "min_temp_margin": float(min_u),
        "min_interface_velocity": float(series["sdot"].min()) if s.size else float("nan"),
        "min_held_input": float(min(e.q_j for e in events)) if events else float("nan"),
        "breach": None if breach is None else
            {"condition": breach.condition, "message": breach.message, "t": breach.t},
    }


def compare_scenarios(configs: list[ScenarioConfig]) -> list[dict]:
    """Run several configs sharing physical/initial data; aligned summary rows."""
    if not configs:
        return []
    ref = configs[0]
    for other in configs[1:]:
        if other.raw.get("physical") != ref.raw.get("physical") \
                or other.raw.get("initial") != ref.raw.get("initial"):
            raise ConfigurationError(
                "compare requires identical [physical] and [initial] sections")
    return [dict(run_scenario(cfg).summary) for cfg in configs]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def emit_outputs(result: ScenarioResult, directory: str | Path) -> list[Path]:
    """Write series.csv, events.csv, derivation_report.txt, summary.json.

    Outputs are byte-stable for identical configs (fixed column order, repr
    floats, no timestamps).
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        written = []

        series_path = directory / "series.csv"
        cols = SERIES_COLUMNS
        lines = [",".join(cols)]
        npts = result.series["t"].size
        for i in range(npts):
            lines.append(",".join(_fmt(float(result.series[c][i])) for c in cols))
        series_path.write_text("\r\n".join(lines) + "\r\n")
        written.append(series_path)

        events_path = directory / "events.csv"
        lines = [",".join(EVENT_COLUMNS)]
        for e in result.events:
            lines.append(",".join([
                _fmt(e.time), e.reason, _fmt(e.q_j), _fmt(e.dwell),
                _fmt(e.d_squared), _fmt(e.gamma_m)]))
        events_path.write_text("\r\n".join(lines) + "\r\n")
        written.append(events_path)

        report_path = directory / "derivation_report.txt"
        report_path.write_text(derivation_report(result.config, result.derived))
        written.append(report_path)

        summary_path = directory / "summary.json"
        summary_path.write_text(_to_json(result.summary) + "\n")
        written.append(summary_path)

        config_path = directory / "config.cfg"
        config_path.write_text(serialize_config(result.config))
        written.append(config_path)
        return written
    except OSError as exc:
        raise OSError(f"failed writing outputs under {directory}: {exc}") from exc


def _to_json(obj) -> str:
    import json

    def sanitize(o):
        if isinstance(o, dict):
            return {k: sanitize(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [sanitize(v) for v in o]
        if isinstance(o, float) and not math.isfinite(o):
            return str(o)
        return o

    return json.dumps(sanitize(obj), indent=2, sort_keys=True)


def derivation_report(cfg: ScenarioConfig, derived: params.TriggerDerived) -> str:
    """Human-readable listing of every derived constant with its formula."""
    phys, ctrl, trig = cfg.phys, cfg.ctrl, cfg.trig
    d = derived
    lines = [
        "derivation report (units: cm - s - degC - J)",
        "",
        "[physical]",
        f"alpha = k/(rho*cp)                 = {phys.alpha!r}",
        f"beta  = k/(rho*latent_heat)        = {phys.beta!r}",
        "",
        "[trigger chain]",
        f"Upsilon = cosh(sqrt(lambda/alpha) L) = {d.Upsilon!r}",
        f"theta0 = 4 c^2                     = {d.theta0!r}",
        f"theta1 = 4 c^4 L / alpha^2         = {d.theta1!r}",
        f"theta2 = 4 c^4 / beta^2            = {d.theta2!r}",
        f"theta3 = 4 c^2 Upsilon^2           = {d.theta3!r}",
        f"mu1 = theta1/(gamma (1-delta))     = {d.mu1!r}",
        f"mu2 = theta2/(gamma (1-delta))     = {d.mu2!r}",
        f"mu3 = theta3/(gamma (1-delta))     = {d.mu3!r}",
        f"A_min (max of two brackets)        = {d.A_min!r}",
        f"A (configured or 1.05*A_min)       = {d.A!r}",
        f"sigma = 4 A alpha L                = {d.sigma!r}",
        f"a1 = gamma delta sigma             = {d.a1!r}",
        f"a2 = 1+theta0+2 gamma(1-delta)sigma+eta = {d.a2!r}",
        f"a3 = (1+theta0+gamma(1-delta)sigma+eta)(1-delta)/delta = {d.a3!r}",
        f"tau = int_0^1 ds/(a1 s^2+a2 s+a3)  = {d.tau!r}",
        f"max dwell = 1/c                    = {d.max_dwell!r}",
        "",
        "[epsilon admissibility]",
        f"R = 2 sqrt(alpha c)/beta           = {d.R!r}",
        f"bound 1: sqrt(alpha c)/beta        = {d.eps_bound_components[0]!r}",
        f"bound 2: alpha/(8 beta L (8+beta^2 R^2 L^2/alpha^2)) = {d.eps_bound_components[1]!r}",
        f"bound 3: eps_star (root of h)      = {d.eps_bound_components[2]!r}",
        f"tightest bound                     = {d.eps_bound!r}",
        f"configured epsilon                 = {ctrl.epsilon!r}",
    ]
    if ctrl.epsilon >= d.eps_bound:
        lines.append(
            "NOTE: configured epsilon exceeds the tightest sufficient "
            "bound; the run proceeds (the bound is sufficient, not necessary) "
            "but the exponential-convergence certificate does not apply as-is.")
    lines += [
        "",
        "[lyapunov weights]",
        f"f_max = sqrt(int_0^L f(x,L)^2 dx)  = {d.f_max!r}",
        f"b_star (> mu3/(A alpha))           = {d.b_star!r}",
        "",
        "[dynamic trigger configuration]",
        f"eta = {trig.eta!r}, gamma = {trig.gamma!r}, delta = {trig.delta!r}, "
        f"m0 = {trig.m0!r}",
    ]
    return "\n".join(lines) + "\n"
