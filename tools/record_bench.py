"""Record the performance of a source checkout in BENCH_<short-commit>.json.

    python3 tools/record_bench.py

Run from a git checkout of stefanetc.  The record holds:

- the three benchmark workloads at seed 0, each through
  ``python3 perfbench/run.py --workload W --seed 0 --seconds S`` with the
  run length S that BENCHMARK.json sets (the end-to-end metrics), and once
  more with ``--trace 1`` (the per-layer metrics);
- the refinement ladder: the shipped config at n = 21/41/81/161 with dt
  halved each time (0.5 s down to 0.0625 s) and a 500 s horizon, run in one
  process with BLAS pinned to one thread, after a warm-up run, three rounds
  over the ladder; each entry gives the three µs/step values, their median,
  a sha256 of the series and event records, so that two records can be
  checked for bitwise equal results, a sha256 per series column and one
  of the events, which show which of them moved, and a sha256 over the
  float hex of every ``TriggerDerived`` field, which shows a change of the
  derivation chain apart from the columns.

The file is written at the repository root.  It is named after the short
hash of HEAD; when ``src/`` differs from HEAD, the name also carries the
first 8 hex digits of the source digest (the sha256 over ``src/`` that
perfbench records), since the measured sources are not yet a commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("et_paraffin", "fine_grid_continuous", "gamma_sweep")
LADDER = ((21, 0.5), (41, 0.25), (81, 0.125), (161, 0.0625))
LADDER_HORIZON_S = 500.0
LADDER_ROUNDS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def perfbench(workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line and the environment it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} --trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return {"result": json.loads(lines[-1]), "environment": env}


def _digests(result) -> dict:
    """sha256 over the series columns and the event records of one run, one
    per column and of the events alone, and one of the derived constants."""
    from stefanetc import harness

    parts = {column: result.series[column].tobytes()
             for column in harness.SERIES_COLUMNS}
    parts["events"] = repr([(e.time, e.reason, e.q_j, e.dwell, e.d_squared,
                             e.gamma_m) for e in result.events]).encode()
    digest = hashlib.sha256()
    for part in parts.values():
        digest.update(part)
    derived = hashlib.sha256()
    for f in dataclasses.fields(result.derived):
        value = getattr(result.derived, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            derived.update(f"{f.name}={float(v).hex()}\n".encode())
    return {"results_sha256": digest.hexdigest(),
            "column_sha256": {name: hashlib.sha256(part).hexdigest()
                              for name, part in parts.items()},
            "derived_sha256": derived.hexdigest()}


def ladder() -> list[dict]:
    """µs/step of the shipped config along the refinement ladder."""
    from stefanetc import config, harness

    def run(n: int, dt: float, horizon: float):
        cfg = config.default_config()
        for key, value in (("scheme.n", n), ("scheme.dt", dt),
                           ("scheme.horizon", horizon)):
            cfg = config.override(cfg, key, value)
        t0 = time.perf_counter()
        result = harness.run_scenario(cfg)
        elapsed = time.perf_counter() - t0
        return result, 1e6 * elapsed / (result.series["t"].size - 1)

    run(21, 0.5, 50.0)   # warm-up: imports, caches, first-call costs
    entries = [{"n": n, "dt": dt, "horizon_s": LADDER_HORIZON_S,
                "us_per_step": []} for n, dt in LADDER]
    for _ in range(LADDER_ROUNDS):
        for entry in entries:
            result, us = run(entry["n"], entry["dt"], LADDER_HORIZON_S)
            entry["us_per_step"].append(round(us, 1))
            entry.update(steps=int(result.series["t"].size - 1),
                         events=len(result.events),
                         breach=result.breach is not None,
                         **_digests(result))
    for entry in entries:
        entry["median_us_per_step"] = statistics.median(entry["us_per_step"])
    return entries


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    # Before numpy loads, as perfbench pins its repetitions.
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    commit = git("rev-parse", "HEAD")
    short = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src"))

    record = {"commit": commit, "src_differs_from_commit": dirty,
              "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        timed = perfbench(workload, seconds, trace=0)
        traced = perfbench(workload, seconds, trace=1)
        record["workloads"][workload] = {
            "end_to_end": timed["result"], "per_layer": traced["result"]}
    source = timed["environment"]["source_sha256"]
    record["source_sha256"] = source
    record["ladder"] = ladder()
    record["environment"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "processor": platform.processor(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": 1}

    name = f"BENCH_{short}-{source[:8]}.json" if dirty else f"BENCH_{short}.json"
    path = ROOT / name
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
