"""Correctness gate for scenario results.

Two checks, both reading only a result's public fields (``series``,
``events``, ``breach``, ``config``):

* Against a stored fingerprint (seed 0): step count, event times and event
  reasons must match exactly; each event's ``q_j`` and the final ``s`` and
  ``m`` must match within ``REL_TOL``.  The tolerance admits last-bit changes
  (1e-12 relative) from reordered arithmetic; a moved event fails the exact
  time match whatever the tolerance.
* The paper's invariants (every seed): no breach, ``m > 0``, ``q_j > 0``,
  and every dwell at most ``1/c + dt``.

``check_emitted`` compares the row counts of an emitted ``series.csv`` and
``events.csv`` with the result they came from.
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-9


def fingerprint(result) -> dict:
    series = result.series
    return {
        "steps": int(series["t"].size),
        "events": [[e.time, e.reason, e.q_j] for e in result.events],
        "final_s": float(series["s"][-1]),
        "final_m": float(series["m"][-1]),
    }


def _close(expected: float, actual: float) -> bool:
    return abs(actual - expected) <= REL_TOL * abs(expected)


def compare(expected: dict, actual: dict) -> list[str]:
    """Differences between a stored fingerprint and a fresh one."""
    problems = []
    if actual["steps"] != expected["steps"]:
        problems.append(f"steps {actual['steps']} != {expected['steps']}")
    exp_ev, act_ev = expected["events"], actual["events"]
    if len(act_ev) != len(exp_ev):
        problems.append(f"event count {len(act_ev)} != {len(exp_ev)}")
    for j, (exp, act) in enumerate(zip(exp_ev, act_ev)):
        if act[0] != exp[0] or act[1] != exp[1]:
            problems.append(f"event {j} at t={act[0]!r} ({act[1]}), "
                            f"expected t={exp[0]!r} ({exp[1]})")
            break
        if not _close(exp[2], act[2]):
            problems.append(f"event {j} q_j={act[2]!r}, expected {exp[2]!r}")
            break
    for key in ("final_s", "final_m"):
        if not _close(expected[key], actual[key]):
            problems.append(f"{key}={actual[key]!r}, expected {expected[key]!r}")
    return problems


def invariants(result) -> list[str]:
    """The paper's guarantees that every valid configuration must keep."""
    cfg = result.config
    problems = []
    if result.breach is not None:
        problems.append(f"breach {result.breach.condition}: {result.breach.message}")
    m_min = float(result.series["m"].min())
    if not m_min > 0.0:
        problems.append(f"m reached {m_min!r}")
    bad_q = [e.q_j for e in result.events if not 0.0 < e.q_j < math.inf]
    if bad_q:
        problems.append(f"held input q_j={bad_q[0]!r}")
    dwell_cap = 1.0 / cfg.ctrl.c + cfg.scheme.dt
    dwell_max = max(e.dwell for e in result.events)
    if dwell_max > dwell_cap * (1.0 + 1e-12):
        problems.append(f"dwell {dwell_max!r} exceeds 1/c + dt = {dwell_cap!r}")
    return problems


def _rows(path: Path) -> int:
    # One CRLF-terminated header line, then one line per row.
    return path.read_bytes().count(b"\r\n") - 1


def check_emitted(directory: Path, result) -> list[str]:
    problems = []
    steps = int(result.series["t"].size)
    for name, expected in (("series.csv", steps), ("events.csv", len(result.events))):
        path = Path(directory) / name
        if not path.is_file():
            problems.append(f"{name} not written")
            continue
        rows = _rows(path)
        if rows != expected:
            problems.append(f"{name} has {rows} rows, result has {expected}")
    return problems
