"""Scenario orchestration: the closed-loop stepper and file outputs.

A run is build, loop, summarize.  `ClosedLoop` holds the feedback state and
the per-run constants; per step it supervises the current instant (the
dynamic trigger or one periodic schedule decides whether the held input is
recomputed), then advances plant, observer and m by dt.  The run is
deterministic.

The feedback row holds only what the loop itself computes.  The other
columns (T0_boundary, d^2, gamma m, norms, energy, transformed error,
Lyapunov values) never feed back into the loop: the recorder buffers each
step's row and profiles, and one stacked monitor pass computes them for K
steps at a time, K = max(1, MONITOR_ROW_ENTRIES // n), when the buffer is
full, at the end of the run and at a breach.  Inside the pass the
controller transform is O(n) per row.  The inverse error transform chooses
a path per row: a row whose sqrt(lam/alpha) s is below the first zero of J1
takes the O(n) series path, and every other row the O(n^2) gathered kernel,
on chunks of at most diagnostics.MONITOR_STACK_ENTRIES // n^2 of those
rows, so the number of buffered rows and the size of the kernel stack are
set apart.  After the inverse transform, one call of the `lyapunov_rows`
piece (`diagnostics.lyapunov_values`) gives each row's norms, energy
integral and Lyapunov values.  Every row is bitwise the value a pass per
step would give.

The integral of u_hat that the feedback law and the trigger read comes
out of the observer update: its `observer_update` piece returns the
unit-interval trapezoid sum of the new profile, and `supervise` scales it
by s, which has the bits of `trapezoid(u_hat, s)`, since the trapezoid
multiplies by the length last.  Only `start` integrates u_hat itself.

Validity breaches end the run with a structured record, which carries the
loop's state at the breach, instead of an exception escaping.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import control, diagnostics, numerics, observer, params, plant, trigger
from .config import ScenarioConfig, serialize_config
from .errors import ConfigurationError, NumericalFailure, ValidityBreach

SERIES_COLUMNS = [
    "t", "s", "sdot", "T0_boundary", "norm_T_Tm", "norm_T_That",
    "norm_w_tilde", "energy", "q", "d", "d_squared", "gamma_m", "m",
    "err_slope", "integral_u_hat", "V1", "V", "W",
]

# The columns of the row `ClosedLoop.supervise` returns, in its order; the
# monitor pass fills the others.
FEEDBACK_COLUMNS = [
    "t", "s", "sdot", "q", "d", "m", "err_slope", "integral_u_hat",
]

EVENT_COLUMNS = ["time", "reason", "q_j", "dwell", "d_squared", "gamma_m"]

CONVERGENCE_TOL = 0.02   # |s - s_r| threshold defining the auto horizon [cm]


@dataclass
class BreachRecord:
    """Why and when a run halted, and the loop's state at that point.

    t is the loop's clock at the breach: an event's instant, the end of the
    step for a breach in an advance, 0 at immobilization.  The state is the
    one the loop held: at an event, the state at t (q_j is still the input
    held before it; the breaching value is in the event record); in an
    advance, the start of the step.  Values the run never reached are nan.
    """
    condition: str
    message: str
    t: float
    s: float
    sdot: float
    q_j: float
    m: float
    t_j: float
    min_u: float


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    derived: params.TriggerDerived
    series: dict[str, np.ndarray]
    events: list[trigger.EventRecord]
    summary: dict
    breach: BreachRecord | None = None


class ClosedLoop:
    """The feedback state of one run and the constants it is stepped with.

    The state is the plant's u, s and sdot, the observer's u_hat with its
    unit-interval trapezoid sum, m, the held input q_j, the last event time
    t_j, the event snapshot and the run's one clock t.
    `start` immobilizes the initial data.  Then, per step, `supervise`
    takes the decision at the current instant and returns its row of
    FEEDBACK_COLUMNS, and `step` advances to the next instant, with one
    factorization shared by the plant solve and both observer solves.
    Supervision is the dynamic trigger (`period` None) or one periodic
    schedule: every dt for `continuous`, every `scenario.period` for
    `sampled_data`.
    """

    def __init__(self, cfg: ScenarioConfig, derived: params.TriggerDerived):
        phys, ctrl, trig = cfg.phys, cfg.ctrl, cfg.trig
        self.init, self.phys = cfg.init, phys
        self.n, self.dt = cfg.scheme.n, cfg.scheme.dt
        self.alpha, self.beta = phys.alpha, phys.beta
        self.c, self.lam, self.s_r = ctrl.c, ctrl.lam, ctrl.s_r
        self.gamma, self.eta = trig.gamma, trig.eta
        self.weights = (derived.sigma, derived.mu1, derived.mu2, derived.mu3)
        kind = cfg.scenario.kind
        self.period = None if kind == "event_triggered" else \
            self.dt if kind == "continuous" else cfg.scenario.period
        self.next_sample = self.period   # the initial event takes t = 0

        self.t = 0.0
        self.u = self.u_hat = None
        self.s = self.sdot = self.u_hat_sum = math.nan
        self.m, self.q_j, self.t_j = trig.m0, math.nan, 0.0
        self.snapshot: trigger.Snapshot | None = None
        self.events: list[trigger.EventRecord] = []
        # d, X and e at the last supervised instant, held over a step; `step`
        # adds ||u_hat||^2 of the new observer profile over the old s.
        self._sources = None

    def start(self) -> None:
        """Map the initial plant and observer profiles onto the grid."""
        init, phys, n, s = self.init, self.phys, self.n, self.init.s0
        self.u = plant.immobilize(init.T0, s, phys, n)
        self.u_hat = plant.immobilize(init.T0_hat, s, phys, n)
        self.s, self.sdot = s, plant.interface_velocity(self.u, s, self.beta)
        self.u_hat_sum = control.integral_u_hat(self.u_hat, 1.0)
        # The snapshot starts at the t = 0 values, so d = 0 at the initial event.
        self.snapshot = trigger.Snapshot(integral_u_hat=s * self.u_hat_sum,
                                         X=s - self.s_r)

    def supervise(self) -> tuple:
        """Measure, decide on an event and update the held input at t."""
        t, u, u_hat, s, sdot = self.t, self.u, self.u_hat, self.s, self.sdot
        X = s - self.s_r
        integral = s * self.u_hat_sum
        d = trigger.deviation(integral, X, self.snapshot, self.c, self.alpha,
                              self.beta)

        reason = None
        if not self.events:
            reason = "initial"
        elif t > self.t_j:
            if self.period is None:
                reason = trigger.check_event(t, self.t_j, d, self.m, self.c,
                                             self.gamma, self.dt)
            elif t >= self.next_sample - 1e-9 * max(t, 1.0):
                reason = "scheduled"
                self.next_sample += self.period
        if reason is not None:
            event = trigger.EventRecord(
                time=t, reason=reason, q_j=math.nan, dwell=t - self.t_j,
                d_squared=d * d, gamma_m=self.gamma * self.m)
            self.events.append(event)
            try:
                self.q_j = event.q_j = control.zoh_update(
                    integral, X, self.phys, self.c)
            except ValidityBreach as exc:
                event.q_j = exc.value
                raise
            self.snapshot = trigger.Snapshot(integral_u_hat=integral, X=X)
            self.t_j = t
            d = 0.0

        # The error's interface slope is logged and feeds the m step.
        err_slope = observer.error_slope(u, u_hat, s)
        self._sources = (d, X, err_slope)
        return (t, s, sdot, self.q_j, d, self.m, err_slope, integral)

    def step(self) -> None:
        """Advance plant, observer and m to t + dt under the held input.
        The clock moves first, and the new state is kept once the whole
        step has succeeded: a breach is stamped t + dt with the state at t."""
        dt, q_j, phys, s, sdot = self.dt, self.q_j, self.phys, self.s, self.sdot
        self.t = round((self.t + dt) / dt) * dt
        factor = plant.implicit_factor(s, dt, self.alpha, self.n)
        u, s_new, sdot_new = plant.step_plant(self.u, s, sdot, phys, q_j, dt,
                                              factor)
        u_hat, u_hat_sq, u_hat_sum = observer.step_observer(
            self.u_hat, s, sdot, phys, self.lam, q_j, dt, -sdot_new / self.beta,
            factor)
        if self.period is None:
            d, X, err_slope = self._sources
            self.m = trigger.step_m(self.m, d, max(u_hat_sq, 0.0), X * X,
                                    err_slope * err_slope, self.eta,
                                    *self.weights, dt)
        self.u, self.u_hat, self.u_hat_sum = u, u_hat, u_hat_sum
        self.s, self.sdot = s_new, sdot_new

    def breach_record(self, exc: ValidityBreach | NumericalFailure) -> BreachRecord:
        return BreachRecord(
            condition=exc.condition, message=str(exc),
            t=self.t, s=float(self.s), sdot=float(self.sdot),
            q_j=float(self.q_j), m=float(self.m), t_j=float(self.t_j),
            min_u=math.nan if self.u is None else float(np.min(self.u)))


# Bound on the profile entries K * n of one monitor pass: K steps are
# buffered per pass, K = max(1, MONITOR_ROW_ENTRIES // n).  The series path
# pays a fixed count of numpy calls per pass, so it wants K large, but past
# about 100 rows at n = 161 its (n, K) arrays leave the cache: in a sweep
# from 2048 to 32768 the pass at n = 161 took 0.56 of its 2048 time from
# 8192 to 16384 and 0.65 at 32768, and 8192 is the least size on that
# plateau.  The gathered kernel splits the pass into chunks of its own
# (diagnostics.MONITOR_STACK_ENTRIES), so K does not size its stack.
MONITOR_ROW_ENTRIES = 8192


def _monitor_columns(U, E, U_hat, feedback, cfg, derived):
    """The monitor columns of K buffered steps from (K, n) stacks of u,
    u - u_hat and u_hat and the rows' `feedback` columns, in one pass."""
    phys, ctrl = cfg.phys, cfg.ctrl
    s, m, d = feedback["s"], feedback["m"], feedback["d"]
    err_norm = observer.error_norms(E, s)
    w_tilde = diagnostics.transform_error_inverse(E, s, ctrl.lam, phys.alpha)
    u_sq, w_tilde_sq, u_int, V1, V, W = diagnostics.lyapunov_values(
        U, U_hat, w_tilde, s, m, ctrl.s_r, ctrl.epsilon, phys, ctrl.c,
        derived)
    return {"T0_boundary": phys.Tm + U[:, 0], "d_squared": d * d,
            "gamma_m": cfg.trig.gamma * m,
            "norm_T_Tm": np.sqrt(np.maximum(u_sq, 0.0)),
            "norm_T_That": err_norm,
            "norm_w_tilde": np.sqrt(np.maximum(w_tilde_sq, 0.0)),
            "energy": u_int / phys.alpha + s / phys.beta,
            "V1": V1, "V": V, "W": W}


@dataclass
class _Recorder:
    """Series rows of one run.

    `log` takes a step's row of FEEDBACK_COLUMNS and buffers it with its
    profiles u and u_hat.  When `stack` steps are buffered, and before
    `arrays`, one stacked call of `monitors` fills the monitor columns and
    the running min of u, and the rows become one block of the series.
    Nothing here feeds back into the loop.
    """
    monitors: Callable
    stack: int
    min_u: float = math.nan
    rows: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    blocks: list = field(default_factory=list)

    def log(self, row: tuple, u, u_hat):
        self.rows.append(row)
        self.profiles.append((u, u_hat))
        if len(self.rows) == self.stack:
            self.flush()

    def flush(self):
        if not self.rows:
            return
        columns = dict(zip(FEEDBACK_COLUMNS, np.array(list(zip(*self.rows)))))
        U, U_hat = (np.array(col) for col in zip(*self.profiles))
        self.rows.clear()
        self.profiles.clear()
        columns.update(self.monitors(U, U - U_hat, U_hat, columns))
        self.blocks.append(np.array([columns[c] for c in SERIES_COLUMNS]))
        self.min_u = min(self.min_u, float(np.min(U)))

    def arrays(self) -> dict[str, np.ndarray]:
        self.flush()
        if not self.blocks:
            return {c: np.array([]) for c in SERIES_COLUMNS}
        return dict(zip(SERIES_COLUMNS, np.concatenate(self.blocks, axis=1)))


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    scheme, scenario = cfg.scheme, cfg.scenario
    dt, n = scheme.dt, scheme.n

    validation = params.validate_initial_data(cfg.init, cfg.ctrl, cfg.phys)
    if not validation.overall_pass and not scenario.unsafe:
        failed = [ch.name for ch in validation.checks if not ch.passed]
        raise ConfigurationError(
            "initial data fails validity conditions "
            f"({', '.join(failed)}); set scenario.unsafe=true to run anyway")

    derived = params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)
    if scenario.kind == "event_triggered" and dt >= derived.tau / 5.0 \
            and not scenario.allow_coarse_dt:
        raise ConfigurationError(
            f"dt={dt:g} s is too coarse for honest trigger supervision: "
            f"the minimal dwell is tau={derived.tau:g} s and dt < tau/5 is "
            "required (set scenario.allow_coarse_dt=true to override)")

    loop = ClosedLoop(cfg, derived)
    rec = _Recorder(
        monitors=functools.partial(_monitor_columns, cfg=cfg,
                                   derived=derived),
        stack=max(1, MONITOR_ROW_ENTRIES // n))

    horizon_end = scheme.horizon if scheme.horizon is not None else scheme.max_horizon
    auto_horizon = scheme.horizon is None
    t_converged = None
    breach: BreachRecord | None = None
    try:
        loop.start()
        rec.min_u = float(np.min(loop.u))
        while True:
            rec.log(loop.supervise(), loop.u, loop.u_hat)
            t = loop.t
            if auto_horizon and t_converged is None \
                    and abs(loop.s - loop.s_r) < CONVERGENCE_TOL:
                t_converged = t
                horizon_end = min(1.2 * t, scheme.max_horizon)
            if t >= horizon_end - 1e-9 * max(horizon_end, 1.0):
                break
            loop.step()
    except (ValidityBreach, NumericalFailure) as exc:
        breach = loop.breach_record(exc)

    series = rec.arrays()
    summary = _summarize(cfg, derived, series, loop.events, t_converged,
                         horizon_end, breach, rec.min_u)
    return ScenarioResult(config=cfg, derived=derived, series=series,
                          events=loop.events, summary=summary, breach=breach)


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
        "breach": None if breach is None else dataclasses.asdict(breach),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# Rows of series.csv formatted per write: bounds the text held at once.
_SERIES_ROWS_PER_WRITE = 1024


def emit_outputs(result: ScenarioResult, directory: str | Path) -> list[Path]:
    """Write series.csv, events.csv, derivation_report.txt, summary.json and
    config.cfg.

    Outputs are byte-stable for identical configs (fixed column order, repr
    floats, no timestamps).  series.csv is streamed in slices of
    _SERIES_ROWS_PER_WRITE rows, so no copy of its whole text is held, each
    by one call of the `format_rows` piece into one buffer reused across
    the slices.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        written = []

        series_path = directory / "series.csv"
        columns = [np.asarray(result.series[c], dtype=float)
                   for c in SERIES_COLUMNS]
        format_rows, buf = numerics._kernel.format_rows, bytearray()
        with series_path.open("wb") as out:
            out.write((",".join(SERIES_COLUMNS) + "\r\n").encode("ascii"))
            for start in range(0, len(columns[0]), _SERIES_ROWS_PER_WRITE):
                stop = start + _SERIES_ROWS_PER_WRITE
                rows = np.column_stack([col[start:stop] for col in columns])
                out.write(format_rows(rows, buf))
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
        f"zeta = -(2 alpha c - eps^2 beta^2)/(2 alpha beta omega) = {d.zeta!r}",
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
        f"B = 4 L^2 f_max^2/alpha^2 + eps beta/(2c) + b_star = {d.B!r}",
        f"xi = max(c L/beta, beta (eps^2 + c/beta)/(alpha eps)) = {d.xi!r}",
        "",
        "[dynamic trigger configuration]",
        f"eta = {trig.eta!r}, gamma = {trig.gamma!r}, delta = {trig.delta!r}, "
        f"m0 = {trig.m0!r}",
    ]
    return "\n".join(lines) + "\n"
