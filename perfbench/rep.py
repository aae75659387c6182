"""One repetition of a workload, run in a fresh process by ``run.py``.

Usage: python -m perfbench.rep JOB.json OUT.json

The job holds the generated config text (and the sweep values), the work
directory, the stored fingerprints to check against (or null) and whether to
trace.  The repetition times the set-up of the base config, then the
workload's timed section (which emits every result), times the set-up again,
checks the results, and writes its measurements to OUT.json.  Set-up is
sampled on both sides of the timed section so that its median spans the
repetition's whole window rather than the first second of it.  It drives the package through ``parse_config_text``,
``validate_initial_data``, ``derive_trigger``, ``run_scenario``,
``emit_outputs`` and ``cli.main`` only; the tracer wraps more layers, but
tolerates their absence.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from perfbench import gate
from perfbench.tracer import Tracer

SETUP_REPEATS = 5   # set-up samples on each side of the timed section


def _setup_seconds(config, params, text: str) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cfg = config.parse_config_text(text)
        params.validate_initial_data(cfg.init, cfg.ctrl, cfg.phys)
        params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)
        samples.append(time.perf_counter() - t0)
    return samples


def _emit(harness, result, directory: Path) -> float:
    t0 = time.perf_counter()
    harness.emit_outputs(result, directory)
    return time.perf_counter() - t0


def run_job(job: dict) -> dict:
    """Run one repetition in this process and return its measurements."""
    from stefanetc import cli, config, harness, params

    work = Path(job["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    text, values = job["config_text"], job["sweep_values"]
    out = {"setup_s": _setup_seconds(config, params, text), "problems": []}

    runs = []   # (run_scenario seconds, result), in call order
    run_scenario = harness.run_scenario

    def timed_run(cfg):
        t0 = time.perf_counter()
        result = run_scenario(cfg)
        runs.append((time.perf_counter() - t0, result))
        return result

    emitted, emit_s = [], []
    if values is not None:
        config_path = work / "workload.cfg"
        config_path.write_text(text)
    tracer = Tracer() if job["trace"] else contextlib.nullcontext()
    harness.run_scenario = timed_run
    try:
        with tracer:
            if values is None:
                t0 = time.perf_counter()
                result = harness.run_scenario(config.parse_config_text(text))
                emit_s.append(_emit(harness, result, work / "emit-0"))
                out["wall_s"] = time.perf_counter() - t0
                emitted.append(work / "emit-0")
                out["window_s"] = out["wall_s"]
            else:
                stdout = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(["sweep", "--config", str(config_path),
                                     "--param", "trigger.gamma", "--values", *values])
                out["wall_s"] = time.perf_counter() - t0
                if code != 0:
                    out["problems"].append(f"stefanetc sweep exited with {code}")
                rows = len(stdout.getvalue().splitlines()) - 1
                if rows != len(values):
                    out["problems"].append(
                        f"sweep printed {rows} rows for {len(values)} values")
                for i, (_, result) in enumerate(runs):
                    emit_s.append(_emit(harness, result, work / f"emit-{i}"))
                    emitted.append(work / f"emit-{i}")
                out["window_s"] = out["wall_s"] + sum(emit_s)
    finally:
        harness.run_scenario = run_scenario
    out["setup_s"] += _setup_seconds(config, params, text)

    expected_runs = 1 if values is None else len(values)
    if len(runs) != expected_runs:
        out["problems"].append(
            f"harness.run_scenario ran {len(runs)} times, expected {expected_runs}")
    fingerprints = job["fingerprints"]
    if fingerprints is not None and len(fingerprints) != len(runs):
        out["problems"].append(
            f"{len(fingerprints)} stored fingerprints for {len(runs)} runs")
    out["run_problems"] = []
    for i, (_, result) in enumerate(runs):
        problems = gate.invariants(result)
        if i < len(emitted):
            problems += gate.check_emitted(emitted[i], result)
        if fingerprints is not None and i < len(fingerprints):
            problems += gate.compare(fingerprints[i], gate.fingerprint(result))
        out["run_problems"].append(problems)

    out.update(
        runs_attempted=expected_runs,
        run_s=[seconds for seconds, _ in runs],
        # Solver steps: the series also holds the sample at t = 0.
        steps=[int(result.series["t"].size) - 1 for _, result in runs],
        events=[len(result.events) for _, result in runs],
        emit_s=emit_s,
        fingerprints=[gate.fingerprint(result) for _, result in runs],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if job["trace"]:
        out["layers"] = tracer.layer_totals()
        out["missing_bindings"] = tracer.missing
    return out


def main(argv: list[str]) -> int:
    job_path, out_path = argv
    job = json.loads(Path(job_path).read_text())
    import stefanetc

    source = Path(stefanetc.__file__).resolve()
    if not source.is_relative_to(Path(job["src_dir"]).resolve()):
        print(f"stefanetc imported from {source}, not from {job['src_dir']}",
              file=sys.stderr)
        return 2
    try:
        out = run_job(job)
    except Exception:   # reported as a failed repetition by run.py
        traceback.print_exc()
        return 1
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
