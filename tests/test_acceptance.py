"""Acceptance suite: ten end-to-end criteria on the shipped paraffin
experiment and its refinements, and a pin of the seed-0 runs of all three
benchmark workloads against their stored fingerprints.  Each criterion is one test that prints a
single pass/fail line; the expensive closed-loop runs are shared session
fixtures."""

import json

import numpy as np
import pytest
from scipy.integrate import quad

from perfbench import gate, run, workloads
from stefanetc import config, harness, params
from conftest import variant_text
import transform_oracles as oracles

H = 0.05            # grid spacing of the shipped configuration
S_R = 2.0           # setpoint [cm]
L = 3.0             # domain length [cm]
C = 3.0e-4          # control gain [1/s]
LAM = 0.1           # observer gain parameter [1/s]
DT = 0.5            # time step [s]


def report(num, label, passed):
    print(f"criterion {num:2d} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}) failed"


@pytest.fixture(scope="session")
def et_result():
    """The full event-triggered reference run."""
    result = harness.run_scenario(config.default_config())
    assert result.breach is None, result.breach
    return result


@pytest.fixture(scope="session")
def comparison(et_result):
    """Three-scenario comparison on shared physics and initial data; the
    event-triggered row is the reference run's summary."""
    kinds = ["continuous", "sampled_data"]
    rows = [harness.run_scenario(
        config.override(et_result.config, "scenario.kind", k)).summary
        for k in kinds]
    return {"event_triggered": et_result.summary, **dict(zip(kinds, rows))}


def test_criterion_01_interface_convergence(et_result):
    s = et_result.series["s"]
    monotone = float(np.min(np.diff(s))) >= -1e-12
    no_overshoot = float(np.max(s)) <= S_R + H * H * L
    converged = abs(s[-1] - S_R) < 0.02
    report(1, "interface convergence", monotone and no_overshoot and converged)


def test_criterion_02_temperature_validity(et_result):
    boundary = float(np.min(et_result.series["T0_boundary"])) - 37.0
    grid_wide = et_result.summary["min_temp_margin"]
    report(2, "temperature above melting",
           boundary >= -10.0 * H * H and grid_wide >= -10.0 * H * H)


def test_criterion_03_observer_convergence(et_result):
    err = et_result.series["norm_T_That"]
    final_small = err[-1] < 0.01 * err[0]
    t = et_result.series["t"]
    wt = et_result.series["norm_w_tilde"]
    # Fit the decay rate on the segment above the roundoff floor.
    mask = (t > 0) & (wt > 1e-9 * wt[0])
    slope = np.polyfit(t[mask], np.log(wt[mask]), 1)[0]
    report(3, "observer convergence", final_small and -slope >= 0.8 * LAM)


def test_criterion_04_trigger_soundness(et_result):
    ser = et_result.series
    m_positive = bool(np.all(ser["m"] > 0.0))
    # d^2 <= gamma m everywhere except possibly the single crossing step of
    # each event; event steps log d = 0 after the update, so check the raw
    # series and allow one violation per recorded event.
    violations = int(np.sum(ser["d_squared"] > ser["gamma_m"]))
    events = [e for e in et_result.events if e.reason != "initial"]
    threshold_ok = violations <= len(et_result.events)
    q_positive = all(e.q_j > 0.0 for e in et_result.events)
    tau = et_result.derived.tau
    dwell_ok = all(tau <= e.dwell <= 1.0 / C + DT for e in events)
    nontrivial = len(events) >= 2

    # Published constants reproduced by the same chain in SI units.
    phys = params.derive_physical(k=0.220, rho=790.0, cp=2380.0, dH=2.10e5,
                                  L=0.03, Tm=37.0)
    ctrl = params.ControllerConfig(c=3.0e-4, lam=0.1, epsilon=10.0, s_r=0.02)
    trig = params.TriggerConfig(eta=1.325e-2, gamma=1.0e3, delta=0.5, m0=1e-4,
                                A=None, b_star=None)
    d = params.derive_trigger(phys, ctrl, trig)
    sigma_floor = params.compute_sigma(d.A_min, phys.alpha, phys.L)
    published = (abs(d.mu1 / 1.42e-4 - 1.0) < 0.05
                 and abs(d.mu2 / 36.85 - 1.0) < 0.05
                 and abs(sigma_floor / 6.19e-5 - 1.0) < 0.05)
    report(4, "trigger soundness", m_positive and threshold_ok and q_positive
           and dwell_ok and nontrivial and published)


def test_criterion_05_dwell_time_theory():
    rng = np.random.default_rng(2024)
    all_below = True
    for _ in range(200):
        c = 10.0 ** rng.uniform(-5, -2)
        gamma = 10.0 ** rng.uniform(0, 4)
        sigma = 10.0 ** rng.uniform(-8, -3)
        eta = 10.0 ** rng.uniform(-3, -1)
        delta = rng.uniform(1e-4, 0.999 / (1.0 + c))
        a1, a2, a3, tau = params.min_dwell_time(4.0 * c * c, gamma, sigma,
                                                eta, delta, c)
        all_below &= 0.0 < tau < 1.0 / c
        expected, _ = quad(lambda x: 1.0 / (a1 * x * x + a2 * x + a3),
                           0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
        all_below &= abs(tau - expected) <= 1e-9 * abs(expected)
    report(5, "dwell-time theory", all_below)


def test_criterion_06_conservation_oracle(default_text):
    def residual(text, n, dt):
        cfg = config.parse_config_text(variant_text(text, [
            ("n = 21", f"n = {n}"), ("dt = 0.5", f"dt = {dt}"),
            ("horizon = auto", "horizon = 2000.0"),
            ("kind = event_triggered", "kind = continuous")]))
        res = harness.run_scenario(cfg)
        assert res.breach is None
        s = res.series
        heat = float(np.sum(s["q"][:-1])) * dt
        return abs(s["energy"][-1] - s["energy"][0] - heat / cfg.phys.k)

    texts = {
        "paraffin": default_text,
        "low observer bound": variant_text(
            default_text, [("That_amplitude = 10.0", "That_amplitude = 5.0")]),
        "cooler start": variant_text(
            default_text, [("T0_amplitude = 1.0", "T0_amplitude = 0.5")]),
    }
    ok = True
    for name, text in texts.items():
        ratio = residual(text, 21, 0.5) / residual(text, 41, 0.25)
        ok &= ratio >= 1.8
    report(6, "conservation refinement", ok)


def test_criterion_07_transform_correctness(default_cfg):
    phys, ctrl = default_cfg.phys, default_cfg.ctrl
    tc = oracles.kernel_constants(phys.alpha, phys.beta, ctrl.c, ctrl.epsilon)
    s = 0.1

    def worst(n):
        xi = np.linspace(0.0, 1.0, n)
        profiles = [np.sin(np.pi * xi), xi * (1.0 - xi),
                    np.exp(xi) - np.e * xi - (1.0 - xi)]
        e1 = e2 = 0.0
        for p in profiles:
            rt = oracles.error_inverse(
                oracles.transform_error_direct(p, s, ctrl.lam, phys.alpha),
                s, ctrl.lam, phys.alpha)
            e1 = max(e1, float(np.max(np.abs(rt - p))))
            w = oracles.controller_direct(p, 0.3, s, ctrl.epsilon, phys.alpha,
                                          phys.beta, ctrl.c)
            back = oracles.transform_controller_inverse(w, 0.3, s, tc,
                                                        phys.alpha, phys.beta)
            e2 = max(e2, float(np.max(np.abs(back - p))))
        return e1, e2

    coarse, fine = worst(21), worst(41)
    within = all(e < 10.0 * h * h
                 for e, h in zip(coarse + fine, (H, H, H / 2, H / 2)))
    shrinks = coarse[0] / fine[0] >= 1.8 and coarse[1] / fine[1] >= 1.8
    kernel = tc.zeta ** 2 + ctrl.epsilon ** 2 \
        < 4.0 * phys.alpha * ctrl.c / phys.beta ** 2
    psi = oracles.psi_bound_holds(tc, phys.L,
                                  2.0 * np.sqrt(phys.alpha * ctrl.c) / phys.beta)
    report(7, "transform correctness", within and shrinks and kernel and psi)


def test_criterion_08_deviation_identity(et_result):
    ser = et_result.series
    phys = et_result.config.phys
    q_cont = -C * (phys.k / phys.alpha * ser["integral_u_hat"]
                   + phys.k / phys.beta * (ser["s"] - S_R))
    alt = (q_cont - ser["q"]) / phys.k
    scale = float(np.max(np.abs(q_cont) + np.abs(ser["q"]))) / phys.k
    agrees = bool(np.all(np.abs(ser["d"] - alt) <= 1e-10 * scale))
    report(8, "deviation identity", agrees)


def test_criterion_09_comparison_harness(comparison):
    et = comparison["event_triggered"]
    cont = comparison["continuous"]
    completes = all(row["breach"] is None for row in comparison.values())
    sparse = et["control_updates"] < 0.05 * cont["control_updates"]
    converged = et["final_interface_gap"] < 0.02
    report(9, "scenario comparison", completes and sparse and converged)


def test_criterion_10_lyapunov_monitor(et_result):
    ser = et_result.series
    slope = np.polyfit(ser["t"], np.log(ser["W"]), 1)[0]
    report(10, "lyapunov decay", slope < 0.0)


def test_reference_run_matches_benchmark_fingerprint(et_result):
    # The benchmark's stored seed-0 fingerprints of all three workloads:
    # the reference run, the n = 161 continuous run and the 8 gamma-sweep
    # members, each built from the workload's own inputs.  The step count
    # and every event time and reason exactly, the held inputs and the
    # final s and m to 1e-9 relative.
    stored = json.loads(run.FINGERPRINTS.read_text())
    results = {"et_paraffin": [et_result]}
    for workload in ("fine_grid_continuous", "gamma_sweep"):
        job = workloads.make_job(workload, 0)
        cfg = config.parse_config_text(job["config_text"])
        members = [cfg] if job["sweep_values"] is None else [
            config.override(cfg, "trigger.gamma", value)
            for value in job["sweep_values"]]
        results[workload] = [harness.run_scenario(m) for m in members]
    assert results.keys() == stored.keys()
    for workload, runs in results.items():
        assert len(runs) == len(stored[workload]), workload
        for i, (expected, result) in enumerate(zip(stored[workload], runs)):
            assert result.breach is None, (workload, i, result.breach)
            assert gate.compare(expected, gate.fingerprint(result)) == [], \
                (workload, i)
