"""Harness and CLI checks on short runs: determinism of emitted files, the
time-step guard, validity gating, breach records, output formats, and exit
codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from stefanetc import (cli, config, diagnostics, harness, numerics, params,
                       plant, trigger)
from stefanetc.errors import (ConfigurationError, InvariantViolation,
                              NumericalFailure)
from stefanetc.numerics import simpson
from conftest import thomas_paths, variant_text
import emit_reference
import transform_oracles as oracles


# A hot plant seen by a cold observer: the event at t = 3176.5 s computes
# q_j < 0 and the run halts there.
LATER_EVENT_BREACH = (("initial.s0", 0.5), ("initial.T0_amplitude", 60),
                      ("initial.That_amplitude", 0), ("scenario.unsafe", "true"),
                      ("scheme.horizon", 6000.0))

# A weakly damped m with a large Lyapunov weight: m goes nonpositive in the
# advance from the row at t = 2556.0 s.
M_POSITIVE_BREACH = (("trigger.delta", 0.99), ("trigger.eta", 0.01),
                     ("trigger.A", 1e6), ("scheme.horizon", 3000.0))


def overridden(cfg, overrides):
    for name, value in overrides:
        cfg = config.override(cfg, name, value)
    return cfg


def fail_step_from_5s(monkeypatch, call):
    """Make solve `call` of the step from t = 5.0 s return nan: a step makes
    three solves, the plant's, then the observer's base and influence
    solves."""
    solve, calls = plant.solve_tridiagonal, []

    def failing_solve(*args):
        calls.append(1)
        out = solve(*args)
        if len(calls) == 3 * 10 + call:
            out[:] = math.nan
        return out

    monkeypatch.setattr(plant, "solve_tridiagonal", failing_solve)


@pytest.fixture(scope="module")
def short_text():
    text = config.default_config_text()
    return variant_text(text, [("horizon = auto", "horizon = 300.0")])


@pytest.fixture(scope="module")
def short_result(short_text):
    return harness.run_scenario(config.parse_config_text(short_text))


class TestRunScenario:
    def test_series_shapes_consistent(self, short_result):
        series = short_result.series
        n = series["t"].size
        assert n == short_result.summary["steps"]
        for col in harness.SERIES_COLUMNS:
            assert series[col].size == n

    def test_determinism(self, short_text):
        a = harness.run_scenario(config.parse_config_text(short_text))
        b = harness.run_scenario(config.parse_config_text(short_text))
        for col in harness.SERIES_COLUMNS:
            assert np.array_equal(a.series[col], b.series[col]), col

    @pytest.mark.parametrize("overrides", [
        [("scheme.horizon", 600.0)],
        [("initial.s0", 0.5), ("initial.T0_amplitude", 60),
         ("initial.That_amplitude", 0), ("scenario.unsafe", "true"),
         ("scheme.horizon", 6000.0)],
        [("scheme.n", 81), ("scheme.dt", 0.125), ("scheme.horizon", 30.0)],
        [("scheme.n", 161), ("scheme.dt", 0.0625), ("scheme.horizon", 12.5)],
        [("scheme.n", 81), ("scheme.dt", 0.125), ("scheme.horizon", 30.0),
         ("controller.lambda", 2.0), ("scenario.unsafe", "true")],
    ], ids=["shipped_600s", "later_event_breach", "n81_30s", "n161_12s",
            "n81_30s_gathered"])
    def test_series_independent_of_monitor_stack(self, default_cfg, overrides,
                                                 tmp_path, monkeypatch):
        # The monitors of K buffered steps are computed in one stacked pass,
        # whose inverse error transform evaluates its gathered kernel on
        # chunks of those rows.  One row per pass with a kernel chunk of 1
        # must emit the same bytes.  No run fills its last stack, so the
        # flush at the end of the run (or at the breach) is covered.  With s
        # near 0.1 throughout, every row of the shipped run (n = 21) and of
        # the n = 81 and 161 runs takes the series path.  From s0 = 0.5, and
        # at lambda = 2, sqrt(lam/alpha) s stays above the first zero of J1,
        # so every row takes the gathered kernel: at n = 21, 390 rows per
        # pass in chunks of 74, at n = 81, 101 rows per pass in chunks of 4,
        # the last chunk of a pass partial.  The chunk count covers the
        # gathered rows only and the series rows are counted apart.
        cfg = default_cfg
        for name, value in overrides:
            cfg = config.override(cfg, name, value)
        n = cfg.scheme.n
        stack = harness.MONITOR_ROW_ENTRIES // n
        chunk = max(1, diagnostics.MONITOR_STACK_ENTRIES // n ** 2)

        def sizes_of_run():
            # Rows per monitor pass, per gathered kernel chunk and per call
            # of the series path.
            passes, chunks, series = [], [], []
            monitor_columns = harness._monitor_columns
            volterra_weights = diagnostics._volterra_weights
            series_integral = numerics._kernel.series_integral

            def count_pass(U, *args, **kwargs):
                passes.append(len(U))
                return monitor_columns(U, *args, **kwargs)

            def count_chunk(n, s):
                chunks.append(len(s))
                return volterra_weights(n, s)

            def count_series(u_tilde, *args):
                series.append(len(u_tilde))
                return series_integral(u_tilde, *args)

            with monkeypatch.context() as patch:
                patch.setattr(harness, "_monitor_columns", count_pass)
                patch.setattr(diagnostics, "_volterra_weights", count_chunk)
                patch.setattr(numerics._kernel, "series_integral",
                              count_series)
                result = harness.run_scenario(cfg)
            return result, set(passes), set(chunks), set(series)

        stacked, passes, chunks, series = sizes_of_run()
        assert stack > 1 and stacked.series["t"].size % stack != 0
        assert max(passes) == stack
        z = math.sqrt(cfg.ctrl.lam / cfg.phys.alpha) * stacked.series["s"]
        series_path = bool((z < diagnostics.J1_FIRST_ZERO).all())
        if series_path:
            assert not chunks and max(series) == stack
        else:
            assert (z >= diagnostics.J1_FIRST_ZERO).all()
            assert max(chunks) == chunk and not series
        monkeypatch.setattr(harness, "MONITOR_ROW_ENTRIES", 1)
        monkeypatch.setattr(diagnostics, "MONITOR_STACK_ENTRIES", 1)
        single, passes, chunks, series = sizes_of_run()
        assert passes == {1}
        assert (chunks, series) == ((set(), {1}) if series_path
                                    else ({1}, set()))
        assert (stacked.breach is None) == (single.breach is None)
        harness.emit_outputs(stacked, tmp_path / "stacked")
        harness.emit_outputs(single, tmp_path / "single")
        for name in ("series.csv", "events.csv", "summary.json"):
            assert (tmp_path / "stacked" / name).read_bytes() \
                == (tmp_path / "single" / name).read_bytes(), name

    def test_dt_guard_reports_tau(self, default_text):
        bad = variant_text(default_text,
                           [("allow_coarse_dt = true", "allow_coarse_dt = false")])
        with pytest.raises(ConfigurationError, match="tau=0.68"):
            harness.run_scenario(config.parse_config_text(bad))

    def test_validity_gate(self, default_text):
        # Observer bound below the plant bound fails the sandwich ordering.
        bad = variant_text(default_text,
                           [("That_amplitude = 10.0", "That_amplitude = 0.5")])
        with pytest.raises(ConfigurationError, match="unsafe"):
            harness.run_scenario(config.parse_config_text(bad))

    def test_breach_produces_record_not_exception(self, default_text):
        # An interface started essentially at the setpoint drives the held
        # input negative at the first update: structured breach, exit intact.
        text = variant_text(default_text, [
            ("s0 = 0.1", "s0 = 2.1"),
            ("setpoint = 2.0", "setpoint = 2.05"),
            ("unsafe = false", "unsafe = true"),
            ("horizon = auto", "horizon = 100.0"),
        ])
        result = harness.run_scenario(config.parse_config_text(text))
        assert result.breach is not None
        assert result.breach.condition == "q_positive"
        assert result.summary["breach"]["condition"] == "q_positive"
        # The initial event is recorded with the offending held input.
        [event] = result.events
        assert event.reason == "initial" and event.q_j < 0.0
        assert result.summary["min_held_input"] == event.q_j

    def test_breach_at_later_event_records_held_input(self, default_cfg):
        # A hot plant seen by a cold observer: the event at t = 3176.5 s
        # computes q_j < 0 and the run halts there.
        cfg = default_cfg
        for name, value in (("initial.s0", 0.5), ("initial.T0_amplitude", 60),
                            ("initial.That_amplitude", 0),
                            ("scenario.unsafe", "true"),
                            ("scheme.horizon", 6000.0)):
            cfg = config.override(cfg, name, value)
        result = harness.run_scenario(cfg)
        assert result.breach.condition == "q_positive"
        last = result.events[-1]
        assert last.time == result.breach.t == 3176.5
        assert last.q_j == pytest.approx(-0.00552, rel=1e-2)
        assert result.summary["min_held_input"] == last.q_j

    def test_breach_record_carries_state(self, default_cfg):
        # The later-event breach: the record holds the loop's state at
        # t = 3176.5 s, one step past the last logged row.
        cfg = default_cfg
        for name, value in LATER_EVENT_BREACH:
            cfg = config.override(cfg, name, value)
        result = harness.run_scenario(cfg)
        breach, series = result.breach, result.series
        initial, last = result.events
        assert breach.t == last.time == series["t"][-1] + cfg.scheme.dt
        # s advanced from the last row by the new interface velocity.
        assert breach.sdot > 0.0
        assert breach.s == series["s"][-1] + cfg.scheme.dt * breach.sdot
        # The input held until the breach, set at the initial event.
        assert breach.q_j == initial.q_j == series["q"][-1] > 0.0
        assert breach.t_j == initial.time == 0.0
        assert last.gamma_m == cfg.trig.gamma * breach.m and breach.m > 0.0
        assert breach.min_u == 0.0 == result.summary["min_temp_margin"]
        written = result.summary["breach"]
        for key in ("s", "sdot", "q_j", "m", "t_j", "min_u"):
            assert written[key] == getattr(breach, key), key
        assert written["condition"] == "q_positive" and written["t"] == 3176.5

    def test_initial_breach_produces_record(self, default_cfg):
        # An interface outside (0, L) breaches at immobilization: a record
        # at t = 0 with no steps, not an exception.
        cfg = config.override(default_cfg, "initial.s0", 3.5)
        result = harness.run_scenario(config.override(cfg, "scenario.unsafe", "true"))
        assert result.breach.condition == "mv2"
        assert result.breach.t == 0.0
        assert result.summary["breach"]["t"] == 0.0
        assert result.events == [] and result.summary["steps"] == 0
        assert np.isnan(result.summary["min_temp_margin"])

    def test_advance_breach_stamped_at_end_of_step(self, default_cfg,
                                                   tmp_path):
        # The loop's clock stamps the breach one step past the last row;
        # the state is the one the step started from, and summary.json
        # carries the same time.
        cfg = overridden(default_cfg, M_POSITIVE_BREACH)
        result = harness.run_scenario(cfg)
        breach, series = result.breach, result.series
        assert breach.condition == "m_positive"
        assert breach.t == result.summary["breach"]["t"] \
            == series["t"][-1] + cfg.scheme.dt == 2556.5
        for key in ("s", "sdot", "m"):
            assert getattr(breach, key) == series[key][-1], key
        harness.emit_outputs(result, tmp_path)
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written["breach"]["t"] == 2556.5

    @pytest.mark.parametrize("call, part", [(1, "plant"), (2, "observer")])
    def test_numerical_failure_stamped_at_end_of_step(self, default_cfg,
                                                      monkeypatch, call, part):
        # A nan from the plant's or the observer's base solve in the step
        # from t = 5.0 s breaches that step, stamped at its end, t = 5.5 s.
        fail_step_from_5s(monkeypatch, call)
        cfg = config.override(default_cfg, "scheme.horizon", 100.0)
        result = harness.run_scenario(cfg)
        breach, series = result.breach, result.series
        assert breach.condition == "numerical"
        assert f"{part} profile became non-finite" in breach.message
        assert "t=" not in breach.message
        assert breach.t == result.summary["breach"]["t"] \
            == series["t"][-1] + cfg.scheme.dt == 5.5
        for key in ("s", "sdot", "m"):
            assert getattr(breach, key) == series[key][-1], key

    def test_carried_integral_is_the_logged_profiles(self, default_cfg,
                                                     monkeypatch):
        # The integral of u_hat that each row logs, and the feedback law and
        # the trigger read, is carried out of the observer update that made
        # the row's profile: on each set it is the trapezoid of the row's
        # own u_hat over the row's own s, bit for bit.
        cfg = config.override(default_cfg, "scheme.horizon", 300.0)
        s_at, integral_at = (harness.FEEDBACK_COLUMNS.index(name)
                             for name in ("s", "integral_u_hat"))
        log = harness._Recorder.log
        for kernel in thomas_paths():
            rows = []

            def record(recorder, row, u, u_hat):
                rows.append((row, u_hat))
                return log(recorder, row, u, u_hat)

            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_kernel", kernel)
                patch.setattr(harness._Recorder, "log", record)
                result = harness.run_scenario(cfg)
            logged = np.array([row[integral_at] for row, _ in rows])
            expected = np.array([numerics.trapezoid(u_hat, row[s_at])
                                 for row, u_hat in rows])
            assert logged.size == result.series["t"].size == 601
            assert logged.tobytes() == expected.tobytes()
            assert result.series["integral_u_hat"].tobytes() \
                == logged.tobytes()

    def test_logged_profiles_keep_their_bytes(self, default_cfg,
                                              monkeypatch):
        # The u and u_hat each step hands to the recorder are the loop's to
        # keep: on each set, every later step leaves their bytes as they
        # were when logged, though the compiled step reuses its other
        # outputs.
        log = harness._Recorder.log
        for kernel in thomas_paths():
            logged = []

            def record(recorder, row, u, u_hat):
                logged.append(((u, u_hat), (u.tobytes(), u_hat.tobytes())))
                return log(recorder, row, u, u_hat)

            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_kernel", kernel)
                patch.setattr(harness._Recorder, "log", record)
                loop = harness.ClosedLoop(default_cfg, params.derive_trigger(
                    default_cfg.phys, default_cfg.ctrl, default_cfg.trig))
                recorder = harness._Recorder(monitors=None, stack=10)
                loop.start()
                for _ in range(5):
                    recorder.log(loop.supervise(), loop.u, loop.u_hat)
                    loop.step()
            assert len(logged) == 5 and len({id(u) for (u, _), _ in logged}) \
                == len({id(u_hat) for (_, u_hat), _ in logged}) == 5
            for profiles, saved in logged:
                assert tuple(a.tobytes() for a in profiles) == saved, kernel

    def test_summary_recomputable_from_series(self, short_result):
        s = short_result.series["s"]
        assert short_result.summary["final_interface_gap"] == pytest.approx(
            abs(s[-1] - 2.0), rel=1e-12)
        lo, mean, hi = trigger.dwell_stats(short_result.events)
        assert short_result.summary["dwell_mean"] == pytest.approx(mean) \
            or (np.isnan(mean) and np.isnan(short_result.summary["dwell_mean"]))


class TestRefinement:
    # The closed loop is first order in (h, dt) refined together; the bound
    # on the observed order is set before the run.
    ORDER_BOUNDS = (0.9, 1.1)

    def test_interface_position_converges_at_first_order(self, default_cfg):
        # continuous on the shipped physics over 200 s at (n, dt) =
        # (21, 0.5), (41, 0.25), (81, 0.125): max |s_h - s_h/2| at the
        # coarser level's times halves from one pair to the next.
        runs = []
        for n, dt in ((21, 0.5), (41, 0.25), (81, 0.125)):
            cfg = overridden(default_cfg, (
                ("scheme.n", n), ("scheme.dt", dt), ("scheme.horizon", 200.0),
                ("scenario.kind", "continuous")))
            result = harness.run_scenario(cfg)
            assert result.breach is None
            runs.append(result.series)
        diffs = []
        for coarse, fine in zip(runs, runs[1:]):
            assert np.array_equal(coarse["t"], fine["t"][::2])
            diffs.append(np.max(np.abs(coarse["s"] - fine["s"][::2])))
        order = math.log2(diffs[0] / diffs[1])
        assert self.ORDER_BOUNDS[0] <= order <= self.ORDER_BOUNDS[1], \
            (diffs, order)


class TestLyapunovWeights:
    # B (and f_max, through B) weight only the Lyapunov monitors V1, V and
    # W, which never feed back into the loop.  The shipped run to 4200 s
    # holds the initial event and four threshold events.
    LYAPUNOV = ("V1", "V", "W")
    # V1 is a sum of positive terms, one of them B-weighted, and V and W
    # scale it: each moves by at most the relative move of B, about twice
    # that of f_max.  f_max from the reference quadrature is within a few
    # ulps of f_kernel's (TestForcingKernel), so 1e-14 leaves a margin.
    REFERENCE_RTOL = 1e-14

    @staticmethod
    def run_with(cfg, replace):
        derive = params.derive_trigger
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(params, "derive_trigger",
                       lambda *args: replace(derive(*args)))
            return harness.run_scenario(cfg)

    @pytest.fixture(scope="class")
    def runs(self, default_cfg):
        cfg = config.override(default_cfg, "scheme.horizon", 4200.0)
        L, alpha = cfg.phys.L, cfg.phys.alpha

        def doubled(d):
            return dataclasses.replace(d, B=2.0 * d.B, f_max=2.0 * d.f_max)

        def reference(d):
            # f_max by scipy's cumulative trapezoid on linspace(0, L, .),
            # and B from it by derive_trigger's expression.
            x = np.linspace(0.0, L, 2 * diagnostics.F_MAX_N_QUAD + 1)
            f = oracles.forcing_kernel(x, L, cfg.ctrl.lam, alpha,
                                       cfg.phys.beta, cfg.ctrl.c,
                                       cfg.ctrl.epsilon)
            fmax = math.sqrt(simpson(f * f, L))
            B = 4.0 * L * L * fmax * fmax / (alpha * alpha) \
                + cfg.ctrl.epsilon * cfg.phys.beta / (2.0 * cfg.ctrl.c) \
                + d.b_star
            return dataclasses.replace(d, B=B, f_max=fmax)

        return (harness.run_scenario(cfg), self.run_with(cfg, doubled),
                self.run_with(cfg, reference))

    def test_weights_do_not_feed_back(self, runs):
        base, doubled, _ = runs
        assert [e.reason for e in base.events].count("threshold") == 4
        assert base.events == doubled.events
        for column in harness.SERIES_COLUMNS:
            same = base.series[column].tobytes() \
                == doubled.series[column].tobytes()
            assert same == (column not in self.LYAPUNOV), column

    def test_reference_forcing_quadrature_moves_only_lyapunov(self, runs):
        base, _, reference = runs
        assert base.events == reference.events
        for column in harness.SERIES_COLUMNS:
            got, ref = base.series[column], reference.series[column]
            if column in self.LYAPUNOV:
                assert np.allclose(got, ref, rtol=self.REFERENCE_RTOL,
                                   atol=0.0), column
            else:
                assert got.tobytes() == ref.tobytes(), column


class TestEmitOutputs:
    def test_files_written_and_stable(self, short_result, tmp_path):
        # Twice on each path, and the same bytes every time.
        emitted = []
        for i, kernel in enumerate(2 * thomas_paths()):
            with mock.patch.object(numerics, "_kernel", kernel):
                written = harness.emit_outputs(short_result, tmp_path / str(i))
            emitted.append({p.name: p.read_bytes() for p in written})
        assert sorted(emitted[0]) == ["config.cfg", "derivation_report.txt",
                                      "events.csv", "series.csv",
                                      "summary.json"]
        assert emitted[1:] == emitted[:-1]

    def test_series_csv_format(self, short_result, tmp_path):
        harness.emit_outputs(short_result, tmp_path)
        raw = (tmp_path / "series.csv").read_bytes()
        assert b"\r\n" in raw
        header = raw.split(b"\r\n", 1)[0].decode()
        assert header == ",".join(harness.SERIES_COLUMNS)

    def test_empty_result_headers_only(self, short_result, tmp_path):
        empty = harness.ScenarioResult(
            config=short_result.config, derived=short_result.derived,
            series={c: np.array([]) for c in harness.SERIES_COLUMNS},
            events=[], summary=dict(short_result.summary))
        harness.emit_outputs(empty, tmp_path / "empty")
        lines = (tmp_path / "empty" / "series.csv").read_bytes().split(b"\r\n")
        assert lines[0].decode() == ",".join(harness.SERIES_COLUMNS)
        assert lines[1] == b""

    @staticmethod
    def special_series(npts):
        # Wide magnitudes with nan, +-inf, signed zeros, subnormals, powers
        # of two and their neighbours, and the extreme finite floats
        # scattered through every column.
        rng = np.random.default_rng(7)
        powers = np.ldexp(1.0, np.array([-1074, -1022, -1, 52, 53, 1023]))
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                    -2.2250738585072014e-308, 1.7976931348623157e308,
                    5e-323, -1.5e-323, 2.5e-310, *powers,
                    *np.nextafter(powers, 0.0), *np.nextafter(powers, math.inf)]
        series = {}
        for column in harness.SERIES_COLUMNS:
            values = rng.standard_normal(npts) \
                * 10.0 ** rng.uniform(-300, 300, npts)
            values[rng.integers(0, npts, npts // 8)] = \
                rng.choice(specials, npts // 8)
            series[column] = values
        return series

    @pytest.mark.parametrize("rows_per_write", [1, 7, None])
    @pytest.mark.parametrize("case", ["shipped_300s", "non_finite", "empty"])
    def test_series_matches_join_reference(self, short_result, case,
                                           rows_per_write, tmp_path,
                                           monkeypatch):
        # The shipped config is the seed-0 et_paraffin input.  The
        # non-finite series spans more than two writes at the default slice
        # length; the empty one is the header alone.
        npts = 2 * harness._SERIES_ROWS_PER_WRITE + 3
        if rows_per_write is not None:
            monkeypatch.setattr(harness, "_SERIES_ROWS_PER_WRITE",
                                rows_per_write)
        series = {"shipped_300s": short_result.series,
                  "non_finite": self.special_series(npts),
                  "empty": {c: np.array([]) for c in harness.SERIES_COLUMNS},
                  }[case]
        result = dataclasses.replace(short_result, series=series)
        emit_reference.write_series_csv(series, tmp_path / "reference.csv")
        reference = (tmp_path / "reference.csv").read_bytes()
        for kernel in thomas_paths():
            with mock.patch.object(numerics, "_kernel", kernel):
                harness.emit_outputs(result, tmp_path / "out")
            got = (tmp_path / "out" / "series.csv").read_bytes()
            assert got == reference, kernel
        assert got.count(b"\r\n") == 1 + series["t"].size
        if case == "non_finite":
            assert b",nan," in got and b",-inf," in got and b",-0.0," in got
            assert b",5e-324," in got and b",5e-323," in got

    def test_events_csv_fields_are_numbers(self, short_result, tmp_path):
        # A continuous run makes an event every step, so every column of a
        # non-initial event is filled from the loop's numpy scalars.
        cfg = config.override(short_result.config, "scenario.kind", "continuous")
        result = harness.run_scenario(config.override(cfg, "scheme.horizon", 3.0))
        harness.emit_outputs(result, tmp_path)
        rows = (tmp_path / "events.csv").read_text().splitlines()
        assert rows[0] == ",".join(harness.EVENT_COLUMNS)
        assert len(rows) == 1 + len(result.events) > 2
        reason = harness.EVENT_COLUMNS.index("reason")
        for row in rows[1:]:
            fields = row.split(",")
            assert len(fields) == len(harness.EVENT_COLUMNS)
            for i, field in enumerate(fields):
                if i != reason:
                    float(field)

    def test_config_round_trip_through_emit(self, short_result, tmp_path):
        harness.emit_outputs(short_result, tmp_path)
        again = config.parse_config(tmp_path / "config.cfg")
        assert again.raw == short_result.config.raw


class TestDerivationReport:
    def test_lists_constants_and_epsilon_note(self, short_result):
        text = harness.derivation_report(short_result.config,
                                         short_result.derived)
        assert "tau" in text and "Upsilon" in text and "mu3" in text
        assert f"= {short_result.derived.zeta!r}" in text
        # The shipped epsilon exceeds the tightest sufficient bound; the
        # report says so instead of failing.
        assert "NOTE: configured epsilon exceeds" in text


class TestCli:
    def test_run_short_horizon(self, short_text, tmp_path):
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(short_text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--output", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_configuration_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[physical]\nk = -1\n")
        assert cli.main(["validate", "--config", str(bad)]) == 1

    def test_unallocatable_grid_is_one_line_exit_1(self, default_text,
                                                   tmp_path, capsys):
        # 1e15 nodes need petabytes, so the first grid allocation fails at
        # once; the command ends with exit 1 and one stderr line.
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(variant_text(default_text,
                                         [("n = 21", "n = 1e15")]))
        assert cli.main(["run", "--config", str(cfg_path),
                         "--output", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert line.startswith("error: Unable to allocate")
        assert out == ""

    def test_non_finite_n_is_configuration_error(self, default_text,
                                                 tmp_path):
        # Out of process, so an escaping exception shows as a traceback.
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(variant_text(default_text, [("n = 21", "n = nan")]))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "stefanetc.cli", "run", "--config",
             str(cfg_path), "--output", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "scheme.n='nan' is not finite" in proc.stderr

    def test_non_utf8_config_is_configuration_error(self, default_text,
                                                    tmp_path):
        # Out of process, so an escaping UnicodeDecodeError shows as a
        # traceback.
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(default_text.encode() + b"# \xff\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "stefanetc.cli", "derive", "--config",
             str(cfg_path)], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("configuration error:")
        assert "Traceback" not in proc.stderr
        assert str(cfg_path) in proc.stderr

    def test_max_dwell_event_with_negative_input_halts(self, default_text,
                                                       tmp_path):
        # A weakly damped m (eta = 0.005) passes validation and
        # derive_trigger, then grows to about 2e11, so no threshold event
        # fires, and the first max-dwell event, at t = 3333.0 s, below
        # 1/c = 3333.3 s, computes q_j < 0: the 1/c max dwell alone does not
        # keep the held input positive.  Out of process, so an escaping
        # exception shows as a traceback.
        cfg_path = tmp_path / "eta.cfg"
        cfg_path.write_text(variant_text(default_text, [
            ("eta = 1.325e-2", "eta = 0.005")]))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "stefanetc.cli", "run", "--config",
             str(cfg_path), "--output", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("run halted: ") \
            and ": q_positive at t=3333.0: " in line

    def test_breach_exit_code(self, default_text, tmp_path):
        text = variant_text(default_text, [
            ("s0 = 0.1", "s0 = 2.1"),
            ("setpoint = 2.0", "setpoint = 2.05"),
            ("unsafe = false", "unsafe = true"),
            ("horizon = auto", "horizon = 100.0"),
        ])
        cfg_path = tmp_path / "breach.cfg"
        cfg_path.write_text(text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--output", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("overrides, condition, t, message", [
        ((("initial.s0", 3.5), ("scenario.unsafe", "true")), "mv2", 0.0,
         "s0=3.5 outside (0, L=3)"),
        (M_POSITIVE_BREACH, "m_positive", 2556.5,
         "dynamic trigger variable m=-1.55327e+06 <= 0 (mu/sigma "
         "misconfiguration or too-coarse dt)"),
        ((("scheme.horizon", 100.0),), "numerical", 5.5,
         "plant profile became non-finite"),
    ], ids=["mv2", "m_positive", "numerical"])
    def test_run_breach_line_reads_record_time(self, default_cfg, tmp_path,
                                               capsys, monkeypatch, overrides,
                                               condition, t, message):
        # `run` prints its breach as `compare` and `sweep` do, at the
        # record's t; no message, printed or written, holds a time, and the
        # condition is named once, by the line and the record's own field.
        if condition == "numerical":
            fail_step_from_5s(monkeypatch, 1)
        cfg_path = tmp_path / "breach.cfg"
        cfg_path.write_text(config.serialize_config(
            overridden(default_cfg, overrides)))
        assert cli.main(["run", "--config", str(cfg_path),
                         "--output", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        written = json.loads((tmp_path / "out" / "summary.json").read_text())
        breach = written["breach"]
        assert breach["condition"] == condition and breach["t"] == t
        assert "t=" not in breach["message"]
        assert breach["message"] == message
        assert line == (f"run halted: event_triggered: {condition} at t={t}: "
                        f"{message}")

    @pytest.mark.parametrize("exc, line", [
        (InvariantViolation("tau_below_max_dwell", "tau=9 >= 1/c=8"),
         "tau_below_max_dwell: tau=9 >= 1/c=8"),
        (NumericalFailure("diffusion number r=0.0 outside (0, inf)"),
         "numerical: diffusion number r=0.0 outside (0, inf)"),
    ], ids=["invariant", "numerical"])
    def test_escaped_breach_names_its_condition_once(self, monkeypatch,
                                                     capsys, exc, line):
        # A breach raised outside the loop, such as derive_trigger's, ends
        # the command with exit 2 and one line that names its condition.
        def breach(cfg):
            raise exc

        monkeypatch.setattr(harness, "run_scenario", breach)
        assert cli.main(["run"]) == 2
        assert capsys.readouterr().err == f"validity breach: {line}\n"

    def test_compare_builds_every_member_before_running(self, capsys,
                                                        monkeypatch):
        # An invalid kind after a valid one is a configuration error before
        # any run; with no options compare runs event_triggered and
        # sampled_data, and --baseline is gone.
        runs = []
        monkeypatch.setattr(harness, "run_scenario", runs.append)
        assert cli.main(["compare", "--kinds", "event_triggered,bogus"]) == 1
        assert runs == [] and capsys.readouterr().out == ""
        parser = cli.build_parser()
        assert parser.parse_args(["compare"]).kinds \
            == "event_triggered,sampled_data"
        with pytest.raises(SystemExit):
            parser.parse_args(["compare", "--baseline", "continuous"])

    @pytest.mark.parametrize("verb", [
        ["sweep", "--param", "initial.T0_amplitude", "--values", "60"],
        ["compare", "--kinds", "event_triggered"],
    ], ids=["sweep", "compare"])
    def test_member_breach_exit_code(self, default_cfg, tmp_path, capsys,
                                     verb):
        # A member run halting with q_positive at t = 3155 s makes the
        # verb exit 2 and say so on stderr; its stdout row stays.
        cfg = default_cfg
        for name, value in (("initial.s0", 0.5), ("scenario.unsafe", "true"),
                            ("scheme.horizon", 4000.0)):
            cfg = config.override(cfg, name, value)
        if verb[0] == "compare":
            cfg = config.override(cfg, "initial.T0_amplitude", 60)
        cfg_path = tmp_path / "hot.cfg"
        cfg_path.write_text(config.serialize_config(cfg))
        assert cli.main([verb[0], "--config", str(cfg_path), *verb[1:]]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2
        [line] = err.splitlines()
        assert "q_positive" in line and "t=3155.0" in line
        label = "initial.T0_amplitude=60" if verb[0] == "sweep" \
            else "event_triggered"
        assert label in line

    def test_initial_breach_writes_outputs(self, default_text, tmp_path):
        text = variant_text(default_text, [("s0 = 0.1", "s0 = 3.5"),
                                           ("unsafe = false", "unsafe = true")])
        cfg_path = tmp_path / "outside.cfg"
        cfg_path.write_text(text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--output", str(tmp_path / "out")])
        assert code == 2
        for name in ("series.csv", "events.csv", "summary.json"):
            assert (tmp_path / "out" / name).is_file()

    def test_commands_import_no_heavy_scipy_subpackages(self, short_text,
                                                        tmp_path):
        # In a fresh process, so the modules are the commands' own: the one
        # scipy subpackage the package needs is scipy.special.  The Thomas
        # kernel loads through `_cffi_backend` alone; cffi and setuptools
        # run only in the child that builds it.
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(variant_text(
            short_text, [("horizon = 300.0", "horizon = 20.0")]))
        script = (
            "import sys\n"
            "from stefanetc import cli\n"
            "assert cli.main(['derive']) == 0\n"
            f"assert cli.main(['run', '--config', {str(cfg_path)!r}, "
            f"'--output', {str(tmp_path / 'out')!r}]) == 0\n"
            "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.sparse', "
            "'scipy.linalg', 'setuptools', 'cffi')\n"
            "print('loaded:', sorted(m for m in heavy if m in sys.modules))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded: []"
        assert (tmp_path / "out" / "series.csv").is_file()

    def test_derive_prints_report(self, capsys):
        assert cli.main(["derive"]) == 0
        out = capsys.readouterr().out
        assert "derivation report" in out
        assert "tau" in out

    def test_validate_default_passes(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert out.count("overall:") == 1

    def test_derive_rejects_bessel_overflow(self, default_text, tmp_path,
                                            capsys):
        cfg_path = tmp_path / "lambda.cfg"
        cfg_path.write_text(
            variant_text(default_text, [("lambda = 0.1", "lambda = 100")]))
        assert cli.main(["derive", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "lambda=100" in err \
            and "L=3" in err

    def test_unwritable_output_exit_code(self, short_text, tmp_path, capsys):
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(short_text)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code = cli.main(["run", "--config", str(cfg_path),
                         "--output", str(blocker / "out")])
        assert code == 1
        assert "failed writing outputs" in capsys.readouterr().err

    def test_sweep_unknown_key(self):
        assert cli.main(["sweep", "--param", "trigger.zeta",
                         "--values", "1"]) == 1

    def test_output_root_env(self, short_text, tmp_path, monkeypatch):
        monkeypatch.setenv("STEFANETC_OUTPUT_ROOT", str(tmp_path))
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(short_text)
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "series.csv").is_file()
