"""Workload inputs, generated from a seed as config text.

Seed 0 is the shipped paraffin configuration as is (with the scheme and
scenario keys each workload fixes).  Other seeds draw ``T0_amplitude`` in
[0.5, 2] and ``That_amplitude`` in [5, 20] for the run workloads, or the
swept gamma values for ``gamma_sweep``.  Every drawn config must pass
``params.validate_initial_data``; a draw that fails is redrawn from the same
stream, so a seed always gives the same inputs.

The amplitudes move the auto horizon of ``et_paraffin`` (20k to 27k steps),
so other seeds fix its horizon at the one seed 0 reaches: every seed then
does the same number of steps and its timings compare with the others'.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("et_paraffin", "fine_grid_continuous", "gamma_sweep")

# Keys each workload sets on top of the shipped config.
_OVERRIDES = {
    "et_paraffin": {},
    "fine_grid_continuous": {
        ("scheme", "n"): "161",
        ("scheme", "dt"): "0.0625",
        ("scheme", "horizon"): "250.0",
        ("scenario", "kind"): "continuous",
    },
    "gamma_sweep": {("scheme", "horizon"): "200.0"},
}

ET_SEED0_HORIZON = 12192.0   # auto horizon of the shipped config: 24,384 steps
SWEEP_MEMBERS = 8
SWEEP_RANGE = (500.0, 5000.0)
_MAX_DRAWS = 100


def set_keys(text: str, overrides: dict[tuple[str, str], str]) -> str:
    """Rewrite ``key = value`` lines of a sectioned config text.

    Raises KeyError when a key is not in the text, so a renamed key in the
    shipped config fails loudly instead of leaving the workload unchanged.
    """
    pending = dict(overrides)
    out, section = [], None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]")
        elif "=" in stripped and not stripped.startswith("#"):
            key = stripped.split("=", 1)[0].strip()
            if (section, key) in pending:
                line = f"{key} = {pending.pop((section, key))}"
        out.append(line)
    if pending:
        raise KeyError(f"config text has no key(s) {sorted(pending)}")
    return "\n".join(out) + "\n"


def _valid(text: str) -> bool:
    from stefanetc import config, params

    cfg = config.parse_config_text(text)
    return params.validate_initial_data(cfg.init, cfg.ctrl, cfg.phys).overall_pass


def make_job(workload: str, seed: int) -> dict:
    """Inputs of one workload: its config text and, for the sweep, the values."""
    from stefanetc import config

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    base = set_keys(config.default_config_text(), _OVERRIDES[workload])
    rng = random.Random(seed)
    job = {"workload": workload, "seed": seed, "config_text": base,
           "sweep_values": None}

    if workload == "gamma_sweep":
        lo, hi = (math.log(v) for v in SWEEP_RANGE)
        if seed == 0:
            exps = [lo + (hi - lo) * i / (SWEEP_MEMBERS - 1)
                    for i in range(SWEEP_MEMBERS)]
        else:
            exps = [rng.uniform(lo, hi) for _ in range(SWEEP_MEMBERS)]
        job["sweep_values"] = [f"{math.exp(e):.6g}" for e in exps]
    elif seed != 0:
        if workload == "et_paraffin":
            base = set_keys(base, {("scheme", "horizon"): repr(ET_SEED0_HORIZON)})
        for _ in range(_MAX_DRAWS):
            text = set_keys(base, {
                ("initial", "T0_amplitude"): f"{rng.uniform(0.5, 2.0):.6g}",
                ("initial", "That_amplitude"): f"{rng.uniform(5.0, 20.0):.6g}",
            })
            if _valid(text):
                job["config_text"] = text
                break
        else:
            raise RuntimeError(f"seed {seed}: no valid draw in {_MAX_DRAWS} tries")

    if not _valid(job["config_text"]):
        raise RuntimeError(f"{workload} seed {seed}: config fails validate_initial_data")
    return job
