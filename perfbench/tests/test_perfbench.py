"""Self-test of the benchmark: smoke runs of every workload on a short
horizon, and checks that the correctness gate and the tracer are not vacuous.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import gate, rep, run, workloads
from perfbench.tracer import LAYERS, Tracer

SHORT_HORIZON = {"et_paraffin": 10.0, "fine_grid_continuous": 1.0,
                 "gamma_sweep": 5.0}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def short_job(workload, seed, horizon):
    job = workloads.make_job(workload, seed)
    job["config_text"] = workloads.set_keys(
        job["config_text"], {("scheme", "horizon"): repr(horizon)})
    return job


def stored(workload):
    return json.loads(run.FINGERPRINTS.read_text())[workload]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload, trace, tmp_path):
    job = dict(short_job(workload, 1, SHORT_HORIZON[workload]),
               trace=trace, fingerprints=None, work_dir=str(tmp_path))
    out = rep.run_job(job)
    assert out["problems"] == []
    assert all(problems == [] for problems in out["run_problems"])
    runs = len(job["sweep_values"] or [None])
    assert len(out["steps"]) == out["runs_attempted"] == runs
    assert out["wall_s"] > 0.0 and len(out["setup_s"]) == 2 * rep.SETUP_REPEATS
    if trace:
        assert out["missing_bindings"] == {}
        layers = out["layers"]
        assert set(layers) == {name for name, _, _ in LAYERS}
        steps = sum(out["steps"])
        assert layers["numerics.solve_tridiagonal"]["calls"] == 3 * steps
        assert layers["params.derive_trigger"]["calls"] == runs
        metrics, declared = run.per_layer(out, out), BENCHMARK["per_layer"]
    else:
        assert len(out["emit_s"]) == runs
        metrics, declared = run.end_to_end([out]), BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} \
        == {name: m["unit"] for name, m in metrics.items()}


def test_seeded_inputs_repeat_and_vary():
    for workload in workloads.WORKLOADS:
        assert workloads.make_job(workload, 5) == workloads.make_job(workload, 5)
        assert workloads.make_job(workload, 5) != workloads.make_job(workload, 6)
    from stefanetc import config
    assert workloads.make_job("et_paraffin", 0)["config_text"] \
        == workloads.set_keys(config.default_config_text(), {})


def test_gate_rejects_event_shifted_by_one_step():
    expected = stored("et_paraffin")[0]
    shifted = copy.deepcopy(expected)
    shifted["events"][5][0] += 0.5   # dt of the shipped config
    assert gate.compare(expected, expected) == []
    assert any("event 5" in p for p in gate.compare(expected, shifted))


def test_gate_rejects_q_beyond_tolerance_and_admits_last_bits():
    expected = stored("et_paraffin")[0]
    for scale, rejected in ((10 * gate.REL_TOL, True), (1e-12, False)):
        actual = copy.deepcopy(expected)
        actual["events"][7][2] *= 1.0 + scale
        actual["final_s"] *= 1.0 + scale / 10
        assert bool(gate.compare(expected, actual)) is rejected, scale


def test_invariants_reject_nonpositive_input_and_long_dwell():
    from stefanetc import config, harness
    text = short_job("fine_grid_continuous", 0, 0.5)["config_text"]
    result = harness.run_scenario(config.parse_config_text(text))
    assert gate.invariants(result) == []
    result.events[3].q_j = 0.0
    result.events[4].dwell = 1.0 / result.config.ctrl.c + 1.0
    problems = gate.invariants(result)
    assert any("q_j" in p for p in problems) and any("dwell" in p for p in problems)


def test_tracer_reports_missing_binding_and_restores():
    from stefanetc import plant
    original = plant.step_plant
    layers = [("plant.step_plant", ["plant.step_plant"], True),
              ("plant.renamed", ["plant.no_such_function"], True)]
    with Tracer(layers) as tracer:
        assert plant.step_plant is not original
    assert plant.step_plant is original
    assert list(tracer.missing) == ["plant.no_such_function"]
    assert tracer.layer_totals()["plant.renamed"]["calls"] == 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "et_paraffin",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
