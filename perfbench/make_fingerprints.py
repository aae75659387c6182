"""Write ``perfbench/fingerprints.json``: the seed-0 fingerprint of every run
of every workload, the reference the correctness gate compares against.

    PYTHONPATH=src python3 -m perfbench.make_fingerprints

Run it only on a commit whose outputs are known good; a later change that
legitimately moves an event needs a new benchmark definition, not a refresh.
"""

from __future__ import annotations

import json
import shutil

from perfbench import rep, run, workloads


def main() -> None:
    fingerprints = {}
    work = run.OUT / "fingerprint-work"
    try:
        for name in workloads.WORKLOADS:
            job = dict(workloads.make_job(name, 0), trace=False, fingerprints=None,
                       work_dir=str(work / name))
            out = rep.run_job(job)
            problems = out["problems"] + [p for ps in out["run_problems"] for p in ps]
            if problems:
                raise SystemExit(f"{name}: {problems}")
            fingerprints[name] = out["fingerprints"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.FINGERPRINTS.write_text(json.dumps(fingerprints) + "\n")


if __name__ == "__main__":
    main()
