"""Command-line front end: argv in, calls out.

Subcommands:

* ``run``      execute a sweep and write all report files
* ``report``   recompute summaries/rollup/pareto from an existing trials file
  (``trials.csv``, or ``trials.jsonl`` from a ``--format jsonl`` run)
* ``validate`` check a configuration and echo its normalized form

Configuration precedence is flags over config file over built-in
defaults; the defaults reproduce the full experimental protocol
(5 degradation levels x 4 patient loads x 3 policies x 250 trials).
All state flows through flags and files so runs are reproducible; the
emitted files are byte-identical for identical inputs. `runfiles` writes
those files and reads them back.
"""

from __future__ import annotations

import argparse
import logging
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .experiment import (MAX_INTERVALS_PER_MISSION, MAX_SWEEP_MISSIONS, MAX_SWEEP_SLOTS,
                         SweepConfig, aggregate, run_sweep)
from .runfiles import (TABLE_FORMATS, ConfigError, _json_text, _read_json, _write_summaries,
                       config_from_dict, config_to_dict, emit_reports, load_trials)
from .schema import json_key

log = logging.getLogger("medmission")


def parse_config(args: argparse.Namespace) -> SweepConfig:
    """Resolve the effective config: flags > config file > defaults."""
    data: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        data = _read_json(config_path, "config file")
        if not isinstance(data, dict):
            raise ConfigError("config file: top level must be an object")

    # A config flag's dest is the key it sets; "section.name" sets one field of a section.
    keys = {json_key(f) for f in fields(SweepConfig)}
    for dest, value in vars(args).items():
        section, _, name = dest.rpartition(".")
        if value is None or (section or name) not in keys:
            continue
        if isinstance(value, str):   # comma-separated list flag
            value = [tok.strip() for tok in value.split(",") if tok.strip()]
        target = data.setdefault(section, {}) if section else data
        if isinstance(target, dict):   # else config_from_dict names the section
            target[name] = value
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Subcommands.

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    parser.add_argument("--trials", dest="trials_per_condition", type=int,
                        help="trials per condition")
    parser.add_argument("--deltas", dest="degradation_levels",
                        help="comma-separated degradation levels")
    parser.add_argument("--loads", dest="patient_loads", help="comma-separated patient loads")
    parser.add_argument("--policies", help="comma-separated policy names")
    parser.add_argument("--tau-c", dest="tau_c", type=float,
                        help="acceptable service window, minutes")
    parser.add_argument("--alpha", type=float, help="workload weight on switching")
    parser.add_argument("--beta", type=float, help="workload weight on interventions")
    parser.add_argument("--error-rate", dest="operator_error_rate", type=float,
                        help="teleoperator mis-pick probability")
    parser.add_argument("--w-severity", dest="triage_weights.w_severity", type=float)
    parser.add_argument("--w-urgency", dest="triage_weights.w_urgency", type=float)
    parser.add_argument("--w-access", dest="triage_weights.w_access", type=float)
    parser.add_argument("--urgency-timescale", dest="triage_weights.urgency_timescale",
                        type=float)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"workers: must be at least 1, got {args.workers!r}")
    config = parse_config(args)
    missions, intervals, slots = config.run_size()
    # The bytes rest on these versions too (`tests/test_dependencies.py`). They go
    # to the log only, so the five files stay a function of the config alone.
    log.info("running %d missions (%d cells x %d trials; cap %d), %.3g expected "
             "intervals per mission (cap %d), %.0f patient slots (cap %d); Python %s, "
             "NumPy %s, SciPy %s", missions, len(config.conditions()) * len(config.policies),
             config.trials_per_condition, MAX_SWEEP_MISSIONS, intervals,
             MAX_INTERVALS_PER_MISSION, slots, MAX_SWEEP_SLOTS, platform.python_version(),
             np.__version__, scipy.__version__)
    started = time.perf_counter()
    result = run_sweep(config, workers=args.workers)
    elapsed = time.perf_counter() - started
    paths = emit_reports(result, args.format, args.out)
    log.info("completed %d missions in %.1fs; wrote %s",
             len(result.trials), elapsed, ", ".join(str(p) for p in paths))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    indir = Path(args.indir)
    manifest = _read_json(indir / "manifest.json", "manifest.json")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError("manifest.json: config: must be an object")
    config = config_from_dict(manifest["config"])
    rows = manifest.get("trial_rows")
    if not isinstance(rows, int) or isinstance(rows, bool):
        raise ConfigError(f"trial_rows: must be an int, got {rows!r}")
    tables = [path for path in (indir / "trials.csv", indir / "trials.jsonl") if path.exists()]
    if len(tables) > 1:   # from two runs, and manifest.json is of one of them
        raise ConfigError(f"trials.csv and trials.jsonl: both are in {indir}; keep only "
                          "the trials table of the run that wrote manifest.json")
    trials_path = tables[0] if tables else indir / "trials.csv"
    trials = load_trials(trials_path, config)
    if rows != len(trials):
        raise ConfigError(f"trial_rows: manifest says {rows!r}, "
                          f"{trials_path.name} holds {len(trials)} rows")
    for policy in config.policies:
        if not (trials.policy == policy.index).any():   # its rollup would be over no trial
            raise ConfigError(f"{trials_path.name}: policy: {policy.value} has no row")
    _write_summaries(aggregate(config, trials), args.format, Path(args.out))
    log.info("recomputed summaries for %d trials from %s", len(trials), trials_path)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = parse_config(args)
    sys.stdout.write(_json_text(config_to_dict(config), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medmission",
        description="Monte Carlo evaluation of medical-response mission policies")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep and write report files")
    _add_config_flags(run_p)
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--format", choices=TABLE_FORMATS, default="csv")
    run_p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes, at least 1; at most one "
                            "per trial block and per CPU is started")
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser("report",
                              help="recompute summaries from an existing run")
    report_p.add_argument("--in", dest="indir", required=True,
                          help="directory holding manifest.json and trials.csv "
                               "(or trials.jsonl)")
    report_p.add_argument("--out", required=True, help="output directory")
    report_p.add_argument("--format", choices=TABLE_FORMATS, default="csv")
    report_p.set_defaults(func=_cmd_report)

    validate_p = sub.add_parser("validate", help="check a configuration")
    _add_config_flags(validate_p)
    validate_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
