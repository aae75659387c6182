"""Command-line front end.

Verbs:
    derive    print the derivation report for a config
    validate  check the initial-data / parameter validity conditions
    run       run one scenario and write series/events/report/summary files
    compare   sweep scenario.kind over a list of kinds
    sweep     re-run a scenario over a list of values for one config key

Exit codes: 0 success, 1 configuration, file or memory error, 2 validity
breach during a run.  Every verb that runs reports a breach on one stderr
line, with the time of its breach record.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import harness, params
from .config import (SCENARIO_KINDS, default_config_text, override,
                     parse_config, parse_config_text)
from .errors import ConfigurationError, NumericalFailure, ValidityBreach


def _load(args) -> "ScenarioConfig":
    if args.config is None:
        return parse_config_text(default_config_text())
    return parse_config(args.config)


def _output_dir(cfg, output: str | None) -> Path:
    root = os.environ.get("STEFANETC_OUTPUT_ROOT", "")
    directory = Path(output) if output else Path(cfg.scenario.output_dir)
    if root and not directory.is_absolute():
        directory = Path(root) / directory
    return directory


def cmd_derive(args) -> int:
    cfg = _load(args)
    derived = params.derive_trigger(cfg.phys, cfg.ctrl, cfg.trig)
    sys.stdout.write(harness.derivation_report(cfg, derived))
    return 0


def cmd_validate(args) -> int:
    cfg = _load(args)
    report = params.validate_initial_data(cfg.init, cfg.ctrl, cfg.phys)
    for line in report.as_lines():
        print(line)
    return 0 if report.overall_pass else 1


def _print_summary(summary: dict) -> None:
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")


def cmd_run(args) -> int:
    cfg = _load(args)
    if args.kind is not None:
        cfg = override(cfg, "scenario.kind", args.kind)
    result = harness.run_scenario(cfg)
    directory = _output_dir(cfg, args.output)
    written = harness.emit_outputs(result, directory)
    for path in written:
        print(f"wrote {path}")
    _print_summary(result.summary)
    return _report_breaches([(cfg.scenario.kind, result.summary)])


def cmd_compare(args) -> int:
    return _run_members(_load(args), "scenario.kind", args.kinds.split(","), [
        "scenario", "control_updates", "events_threshold", "events_max_dwell",
        "dwell_min", "dwell_mean", "dwell_max", "t_converged",
        "final_interface_gap"])


def cmd_sweep(args) -> int:
    return _run_members(_load(args), args.param, args.values, [
        args.param, "control_updates", "dwell_min", "dwell_mean",
        "t_converged", "final_interface_gap"])


def _run_members(cfg, param: str, values, keys) -> int:
    """Run cfg with `param` set to each of `values`, every member config
    built before the first run; print a header of `keys` and one
    tab-separated row per member, then report the breaches."""
    members = [override(cfg, param, value) for value in values]
    print("\t".join(keys))
    summaries = []
    for value, member in zip(values, members):
        row = dict(harness.run_scenario(member).summary)
        row[param] = value
        print("\t".join(str(row.get(k, "")) for k in keys))
        summaries.append((f"{param}={value}", row))
    return _report_breaches(summaries)


def _report_breaches(members) -> int:
    """One stderr line per (label, summary) run that halted, at its breach
    record's t; exit 2 if any did."""
    code = 0
    for label, summary in members:
        breach = summary["breach"]
        if breach is not None:
            print(f"run halted: {label}: {breach['condition']} at "
                  f"t={breach['t']}: {breach['message']}", file=sys.stderr)
            code = 2
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefanetc",
        description="Event-triggered boundary control of the Stefan problem")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="path to a .cfg file (default: built-in paraffin case)")

    p = sub.add_parser("derive", help="print the derived-constant report")
    add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("validate", help="check validity conditions")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a scenario and write output files")
    add_common(p)
    p.add_argument("--kind", choices=SCENARIO_KINDS, default=None,
                   help="override scenario.kind")
    p.add_argument("--output", default=None, help="output directory override")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="compare scenario kinds on one config")
    add_common(p)
    p.add_argument("--kinds", default="event_triggered,sampled_data",
                   help="comma-separated scenario kinds")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="re-run over values of one config key")
    add_common(p)
    p.add_argument("--param", required=True, help="section.key to vary")
    p.add_argument("--values", nargs="+", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ValidityBreach, NumericalFailure) as exc:
        print(f"validity breach: {exc.condition}: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
