"""Record the performance of a source checkout in BENCH_<short-commit>.json.

    python3 tools/record_bench.py

Run from a git checkout of stefanetc.  The record holds:

- the three benchmark workloads at seed 0, each through
  ``python3 perfbench/run.py --workload W --seed 0 --seconds S`` with the
  run length S that BENCHMARK.json sets (the end-to-end metrics), and once
  more with ``--trace 1`` (the per-layer metrics);
- memory by phase and the emitted files: for each workload's seed-0
  config (for ``gamma_sweep`` its base config, gamma = 1e3, which is none
  of the sweep's eight members but runs as long as one), a fresh process
  records its peak resident set (``ru_maxrss``, MB) after the imports,
  after ``derive_trigger``, after ``run_scenario`` and after
  ``emit_outputs``, the seconds ``emit_outputs`` took and a sha256 of each
  file it wrote, so that two records can be checked for byte-equal
  outputs;
- the conditioning of the benchmark's fingerprints: in a fresh process,
  each workload's seed-0 config (for ``gamma_sweep`` its first member) runs
  once as it is and NOISE_RUNS more times with every result of
  ``plant.solve_tridiagonal`` perturbed by a seeded relative noise of
  +-2^-53 per entry (one ulp of most entries); the record says whether
  the step count and the event times and reasons held, and gives the
  largest relative deviation from the unperturbed run of each event's q_j,
  the final s and the final m, the quantities perfbench's gate holds to
  its REL_TOL;
- the monitor pass's two pieces: the µs per row of ``series_integral``
  and ``lyapunov_rows`` on each set (the compiled one where this process
  loaded it, and ``numerics.REFERENCE``) at n = 21 and 161, on seeded
  stacks of the pass's own MONITOR_ROW_ENTRIES // n rows with the shipped
  config's constants, in this process, best of PIECE_ROUNDS timings of
  PIECE_CALLS calls;
- the refinement ladder: the shipped config at n = 21/41/81/161 with dt
  halved each time (0.5 s down to 0.0625 s) and a 500 s horizon, run in one
  process with BLAS pinned to one thread, after a warm-up run, three rounds
  over the ladder; each entry gives the three µs/step values, their median,
  a sha256 of the series and event records, so that two records can be
  checked for bitwise equal results, a sha256 per series column and one
  of the events, which show which of them moved, and a sha256 over the
  float hex of every ``TriggerDerived`` field, which shows a change of the
  derivation chain apart from the columns.

The environment names the Thomas path the package takes in this process
and so in the runs above, which share its cache (``numerics.THOMAS_KERNEL``:
"compiled", or "python: " and the reason), and the cffi version.

The file is written at the repository root.  It is named after the short
hash of HEAD; when ``src/`` differs from HEAD, the name also carries the
first 8 hex digits of the source digest (the sha256 over ``src/`` that
perfbench records), since the measured sources are not yet a commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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
NOISE_RUNS = 4
PIECE_SIZES = (21, 161)
PIECE_ROUNDS = 7
PIECE_CALLS = 20
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


# Run in a fresh process on a config text read from stdin; prints the peak
# RSS in MB after each phase, the seconds emit_outputs took and a sha256 of
# each file it wrote, as JSON.
_PHASE_RSS = """
import hashlib, json, resource, sys, tempfile, time
def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
from stefanetc import config, harness, params
marks = {"imports": peak_mb()}
cfg = config.parse_config_text(sys.stdin.read())
params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)
marks["derive_trigger"] = peak_mb()
result = harness.run_scenario(cfg)
marks["run_scenario"] = peak_mb()
with tempfile.TemporaryDirectory() as out:
    t0 = time.perf_counter()
    written = harness.emit_outputs(result, out)
    emit_s = time.perf_counter() - t0
    marks["emit_outputs"] = peak_mb()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in written}
print(json.dumps({"peak_rss_mb_by_phase": marks, "emit_outputs_s": emit_s,
                  "emitted_sha256": digests}))
"""


def phase_rss(workload: str) -> dict:
    """Peak RSS (MB) of a fresh process after each phase of one seed-0 run,
    the seconds its emit_outputs took and a sha256 of each emitted file."""
    from perfbench import workloads

    proc = subprocess.run(
        [sys.executable, "-c", _PHASE_RSS], cwd=ROOT, capture_output=True,
        text=True, input=workloads.make_job(workload, 0)["config_text"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    if proc.returncode != 0:
        raise RuntimeError(f"phase RSS of {workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


# Run in a fresh process on a job from stdin (its config text and sweep
# values); prints the gate's fingerprint of the unperturbed run and of
# NOISE_RUNS runs under seeded noise on every tridiagonal solve.
_SOLVE_NOISE = """
import json, sys
import numpy as np
from perfbench import gate
from stefanetc import config, harness, plant
job = json.loads(sys.stdin.read())
cfg = config.parse_config_text(job["config_text"])
if job["sweep_values"]:
    cfg = config.override(cfg, "trigger.gamma", job["sweep_values"][0])
solve = plant.solve_tridiagonal

def fingerprint(seed):
    if seed is None:
        plant.solve_tridiagonal = solve
    else:
        rng = np.random.default_rng(seed)

        def noisy(factor, rhs):
            x = solve(factor, rhs)
            return x + x * rng.choice((-2.0 ** -53, 2.0 ** -53), x.size)

        plant.solve_tridiagonal = noisy
    return gate.fingerprint(harness.run_scenario(cfg))

print(json.dumps([fingerprint(None)]
                 + [fingerprint(seed) for seed in range(int(sys.argv[1]))]))
"""


def solve_noise(workload: str) -> dict:
    """How far seeded +-2^-53 relative noise on every tridiagonal solve moves
    the fingerprinted quantities of one workload's seed-0 run."""
    from perfbench import gate, workloads

    proc = subprocess.run(
        [sys.executable, "-c", _SOLVE_NOISE, str(NOISE_RUNS)], cwd=ROOT,
        capture_output=True, text=True,
        input=json.dumps(workloads.make_job(workload, 0)),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"),
                                                         str(ROOT)))))
    if proc.returncode != 0:
        raise RuntimeError(f"solve noise of {workload} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    base, *noisy = json.loads(proc.stdout)

    def deviation(expected, actual):
        return abs(actual - expected) / abs(expected)

    return {
        "runs": NOISE_RUNS, "relative_noise": 2.0 ** -53,
        "gate_rel_tol": gate.REL_TOL,
        "events_held": all(
            run["steps"] == base["steps"]
            and [e[:2] for e in run["events"]] == [e[:2] for e in base["events"]]
            for run in noisy),
        "q_j_max_rel_deviation": max(
            deviation(e[2], f[2]) for run in noisy
            for e, f in zip(base["events"], run["events"])),
        **{f"{key}_max_rel_deviation": max(deviation(base[key], run[key])
                                           for run in noisy)
           for key in ("final_s", "final_m")}}


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


def cffi_version() -> str | None:
    """The version of cffi's backend, which the Thomas kernel loads, or None
    where it is not installed."""
    try:
        import _cffi_backend
    except ImportError:
        return None
    return _cffi_backend.__version__


def piece_rows() -> dict:
    """µs per row of the monitor pass's `series_integral` and
    `lyapunov_rows` pieces, per set and grid size."""
    import numpy as np

    from stefanetc import config, harness, numerics, params

    cfg = config.default_config()
    phys, ctrl = cfg.phys, cfg.ctrl
    derived = params.derive_trigger(phys, ctrl, cfg.trig)
    sets = {"python": numerics.REFERENCE}
    if numerics._kernel is not numerics.REFERENCE:
        sets["compiled"] = numerics._kernel
    # Every row below the series path's edge sqrt(lam/alpha) s = j_{1,1}.
    edge = numerics.J1_FIRST_ZERO / math.sqrt(ctrl.lam / phys.alpha)
    record = {}
    for n in PIECE_SIZES:
        k = harness.MONITOR_ROW_ENTRIES // n
        rng = np.random.default_rng(n)
        U, U_hat, w_tilde = rng.uniform(-10.0, 10.0, (3, k, n))
        s = rng.uniform(0.05, 0.95, k) * min(edge, phys.L)
        m = rng.uniform(1e-6, 1e-3, k)
        calls = {
            "series_integral": (U - U_hat, s, ctrl.lam, phys.alpha),
            "lyapunov_rows": (U, U_hat, w_tilde, s, m, ctrl.s_r,
                              ctrl.epsilon, phys.alpha, phys.beta, ctrl.c,
                              derived.A, derived.B, derived.xi)}
        for piece, args in calls.items():
            entry = record.setdefault(piece, {}).setdefault(
                str(n), {"rows": k})
            for name, kernel in sets.items():
                call = getattr(kernel, piece)
                best = math.inf
                for _ in range(PIECE_ROUNDS):
                    t0 = time.perf_counter()
                    for _ in range(PIECE_CALLS):
                        call(*args)
                    best = min(best, time.perf_counter() - t0)
                entry[f"{name}_us_per_row"] = round(
                    1e6 * best / (PIECE_CALLS * k), 3)
    return record


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
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy
    import scipy

    from stefanetc import numerics

    commit = git("rev-parse", "HEAD")
    short = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src"))

    record = {"commit": commit, "src_differs_from_commit": dirty,
              "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        timed = perfbench(workload, seconds, trace=0)
        traced = perfbench(workload, seconds, trace=1)
        record["workloads"][workload] = {
            "end_to_end": timed["result"], "per_layer": traced["result"],
            **phase_rss(workload)}
    # After every child that reads its peak RSS: a child's ru_maxrss starts
    # at this process's peak, which parsing the noise runs' events raises.
    for workload in WORKLOADS:
        record["workloads"][workload]["solve_noise"] = solve_noise(workload)
    source = timed["environment"]["source_sha256"]
    record["source_sha256"] = source
    record["pieces"] = piece_rows()
    record["ladder"] = ladder()
    record["environment"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cffi": cffi_version(),
        "thomas_kernel": numerics.THOMAS_KERNEL,
        "machine": platform.machine(),
        "processor": platform.processor(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": 1}

    name = f"BENCH_{short}-{source[:8]}.json" if dirty else f"BENCH_{short}.json"
    path = ROOT / name
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
