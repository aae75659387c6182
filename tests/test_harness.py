"""Harness and CLI checks on short runs: determinism of emitted files, the
time-step guard, validity gating, breach records, output formats, and exit
codes."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stefanetc import cli, config, diagnostics, harness, params, trigger
from stefanetc.errors import ConfigurationError
from stefanetc.numerics import simpson
from conftest import variant_text
import transform_oracles as oracles


# A hot plant seen by a cold observer: the event at t = 3176.5 s computes
# q_j < 0 and the run halts there.
LATER_EVENT_BREACH = (("initial.s0", 0.5), ("initial.T0_amplitude", 60),
                      ("initial.That_amplitude", 0), ("scenario.unsafe", "true"),
                      ("scheme.horizon", 6000.0))


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
    ], ids=["shipped_600s", "later_event_breach", "n81_30s", "n161_12s"])
    def test_series_independent_of_monitor_stack(self, default_cfg, overrides,
                                                 tmp_path, monkeypatch):
        # The monitors of K buffered steps are computed in one stacked pass,
        # whose transforms evaluate their kernels on chunks of those rows.
        # One row per pass with a kernel chunk of 1 must emit the same bytes.
        # No run fills its last stack, so the flush at the end of the run (or
        # at the breach) is covered; at n = 81 every pass ends on a partial
        # kernel chunk (25 rows in chunks of 4).
        cfg = default_cfg
        for name, value in overrides:
            cfg = config.override(cfg, name, value)
        n = cfg.scheme.n
        stack = harness.MONITOR_ROW_ENTRIES // n
        chunk = max(1, diagnostics.MONITOR_STACK_ENTRIES // n ** 2)

        def sizes_of_run():
            # Rows per monitor pass and per kernel chunk.
            passes, chunks = [], []
            monitor_columns = harness._monitor_columns
            volterra_weights = diagnostics._volterra_weights

            def count_pass(U, *args, **kwargs):
                passes.append(len(U))
                return monitor_columns(U, *args, **kwargs)

            def count_chunk(n, s):
                chunks.append(len(s))
                return volterra_weights(n, s)

            with monkeypatch.context() as patch:
                patch.setattr(harness, "_monitor_columns", count_pass)
                patch.setattr(diagnostics, "_volterra_weights", count_chunk)
                result = harness.run_scenario(cfg)
            return result, set(passes), set(chunks)

        stacked, passes, chunks = sizes_of_run()
        assert stack > 1 and stacked.series["t"].size % stack != 0
        assert max(passes) == stack and max(chunks) == chunk
        monkeypatch.setattr(harness, "MONITOR_ROW_ENTRIES", 1)
        monkeypatch.setattr(diagnostics, "MONITOR_STACK_ENTRIES", 1)
        single, passes, chunks = sizes_of_run()
        assert passes == chunks == {1}
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

    def test_summary_recomputable_from_series(self, short_result):
        s = short_result.series["s"]
        assert short_result.summary["final_interface_gap"] == pytest.approx(
            abs(s[-1] - 2.0), rel=1e-12)
        lo, mean, hi = trigger.dwell_stats(short_result.events)
        assert short_result.summary["dwell_mean"] == pytest.approx(mean) \
            or (np.isnan(mean) and np.isnan(short_result.summary["dwell_mean"]))


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


class TestCompare:
    def test_requires_shared_physics(self, default_text):
        a = config.parse_config_text(default_text)
        b = config.parse_config_text(
            variant_text(default_text, [("L = 3.0", "L = 2.5")]))
        with pytest.raises(ConfigurationError, match="identical"):
            harness.compare_scenarios([a, b])

    def test_empty_list(self):
        assert harness.compare_scenarios([]) == []


class TestEmitOutputs:
    def test_files_written_and_stable(self, short_result, tmp_path):
        first = harness.emit_outputs(short_result, tmp_path / "a")
        second = harness.emit_outputs(short_result, tmp_path / "b")
        names = sorted(p.name for p in first)
        assert names == ["config.cfg", "derivation_report.txt", "events.csv",
                         "series.csv", "summary.json"]
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

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
