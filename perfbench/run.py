"""stefanetc benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Every workload is a closed loop with one client: it
starts one repetition at a time, each in a fresh Python process with
BLAS pinned to one thread, and starts the next when the previous one ends,
while a repetition as long as the last one would still end within
``--seconds`` (at least one repetition).

``--trace 0`` prints the end-to-end metrics (medians over the repetitions).
``--trace 1`` runs one untraced and one traced repetition and prints the
per-layer metrics, with the tracing overhead as traced minus untraced wall
time.  The last line of standard output is the result as JSON; the full
record, with the environment and every repetition, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
FINGERPRINTS = ROOT / "perfbench" / "fingerprints.json"
BLAS_THREADS = "1"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REP_TIMEOUT_S = 170.0   # whole run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STEFANETC_OUTPUT_ROOT", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def run_child(job: dict, work: Path, deadline: float) -> dict:
    """Run one repetition in a fresh process and return its record."""
    work.mkdir(parents=True)
    job = dict(job, work_dir=str(work / "files"), src_dir=str(SRC))
    job_path, out_path = work / "job.json", work / "out.json"
    job_path.write_text(json.dumps(job))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.rep", str(job_path), str(out_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0))
        error = None if proc.returncode == 0 else \
            f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = "repetition timed out"
    process_s = time.perf_counter() - t0
    rec = json.loads(out_path.read_text()) if error is None else {"error": error}
    shutil.rmtree(work)
    rec["process_s"] = process_s
    return rec


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict]) -> dict:
    med = statistics.median
    return {
        "wall_s": _m(med(r["wall_s"] for r in reps), "s"),
        "setup_s": _m(med(s for r in reps for s in r["setup_s"]), "s"),
        "us_per_step": _m(med(1e6 * sum(r["run_s"]) / sum(r["steps"])
                              for r in reps), "us"),
        "peak_rss_mb": _m(med(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    from perfbench.tracer import LAYERS

    steps, runs = sum(traced["steps"]), len(traced["steps"])
    events = sum(traced["events"])
    window = traced["window_s"]
    metrics = {}
    for name, _, per_step in LAYERS:
        entry = traced["layers"][name]
        calls = entry["calls"]
        if per_step:
            metrics[f"{name}.calls_per_step"] = _m(calls / steps, "count")
        else:
            metrics[f"{name}.calls_per_run"] = _m(calls / runs, "count")
        metrics[f"{name}.self_us_per_step"] = _m(1e6 * entry["self_s"] / steps, "us")
        metrics[f"{name}.self_us_per_call"] = _m(
            1e6 * entry["self_s"] / calls if calls else 0.0, "us")
        metrics[f"{name}.total_s"] = _m(entry["total_s"], "s")
        metrics[f"{name}.self_share"] = _m(100.0 * entry["self_s"] / window, "%")
    zoh = traced["layers"]["control.zoh_update"]["calls"]
    emit = traced["layers"]["harness.emit_outputs"]["total_s"]
    overhead = window - untraced["window_s"]
    metrics.update({
        "run.steps_per_run": _m(steps / runs, "count"),
        "trigger.events_per_run": _m(events / runs, "count"),
        # Non-initial events per supervised step.
        "trigger.fire_ratio": _m((events - runs) / steps, "ratio"),
        "control.zoh_update.calls_per_run": _m(zoh / runs, "count"),
        # series.csv has a row per step plus the one at t = 0.
        "harness.emit_outputs.us_per_row": _m(1e6 * emit / (steps + runs), "us"),
        "trace.traced_wall_s": _m(window, "s"),
        "trace.untraced_wall_s": _m(untraced["window_s"], "s"),
        "trace.overhead_s": _m(overhead, "s"),
        "trace.overhead_share": _m(100.0 * overhead / untraced["window_s"], "%"),
    })
    return metrics


def _failed_runs(rep: dict, runs_per_rep: int) -> int:
    if "error" in rep or rep["problems"]:
        return runs_per_rep
    return sum(1 for problems in rep["run_problems"] if problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stefanetc" / "__init__.py").is_file():
        print(f"no stefanetc package under {SRC}", file=sys.stderr)
        return 2
    # Before numpy loads, for this process and the repetitions it starts.
    os.environ.update(dict.fromkeys(_BLAS_VARS, BLAS_THREADS))
    # On SIGTERM, unwind so that subprocess.run kills and reaps the repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    fingerprints = None
    if args.seed == 0:
        fingerprints = json.loads(FINGERPRINTS.read_text())[args.workload]
    job = dict(workloads.make_job(args.workload, args.seed),
               fingerprints=fingerprints)

    start = time.perf_counter()
    deadline = start + REP_TIMEOUT_S
    work = OUT / f"work-{os.getpid()}"
    reps = []
    try:
        for trace in ([False, True] if args.trace else [False]):
            reps.append(run_child(dict(job, trace=trace), work / f"rep-{len(reps)}",
                                  deadline))
        # Another repetition while one as long as the last still fits in --seconds.
        while not args.trace and time.perf_counter() - start \
                + reps[-1]["process_s"] <= args.seconds \
                and time.perf_counter() + reps[-1]["process_s"] < deadline:
            reps.append(run_child(dict(job, trace=False), work / f"rep-{len(reps)}",
                                  deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in reps:
        if "error" in r:
            print(f"repetition failed: {r['error']}", file=sys.stderr)
    good = [r for r in reps if "error" not in r]
    if not good or (args.trace and len(good) < 2):
        return 1
    runs_per_rep = len(job["sweep_values"] or [None])
    attempted = runs_per_rep * len(reps)
    failed = sum(_failed_runs(r, runs_per_rep) for r in reps)
    metrics = per_layer(*good) if args.trace else end_to_end(good)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "environment": environment(args),
        "repetitions": [{k: v for k, v in r.items() if k != "fingerprints"}
                        for r in reps],
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for r in good:
        for problem in r["problems"] + [p for ps in r["run_problems"] for p in ps]:
            print(f"check failed: {problem}")
    if args.trace:
        for binding, reason in good[1]["missing_bindings"].items():
            print(f"binding missing: {binding} ({reason})")
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetition(s), "
          f"process wall {[round(r['process_s'], 3) for r in reps]} s, "
          f"failed_frac {failed / attempted:.3g}")
    print("environment " + json.dumps(record["environment"]))
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
