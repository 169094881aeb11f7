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
those files and reads them back. The subcommands print their lines to
stderr, whatever logging the host has set up; stdout holds only
`validate`'s echo.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, runfiles
from .experiment import (MAX_INTERVALS_PER_MISSION, MAX_SWEEP_MISSIONS, MAX_SWEEP_SLOTS,
                         SweepConfig, run_sweep)
from .runfiles import (TABLE_FORMATS, ConfigError, _json_text, _read_json, _write_summaries,
                       config_from_dict, config_to_dict, emit_reports, load_run)
from .schema import json_key

# Kept for scripts that import the trials reader from here, as `bench/run.py` does.
load_trials = runfiles.load_trials


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


def _size_line(config: SweepConfig) -> str:
    """The size of a run of `config` (`SweepConfig.run_size`), each figure
    beside its cap, and the stack its bytes rest on."""
    missions, intervals, slots = config.run_size()
    # The bytes rest on these versions too (`tests/test_dependencies.py`). They go
    # to stderr only, so the five files stay a function of the config alone.
    return ("%d missions (%d cells x %d trials; cap %d), %.3g expected intervals per "
            "mission (cap %d), %.0f patient slots (cap %d); Python %s, NumPy %s, SciPy %s"
            % (missions, len(config.conditions()) * len(config.policies),
               config.trials_per_condition, MAX_SWEEP_MISSIONS, intervals,
               MAX_INTERVALS_PER_MISSION, slots, MAX_SWEEP_SLOTS, platform.python_version(),
               np.__version__, scipy.__version__))


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"workers: must be at least 1, got {args.workers!r}")
    config = parse_config(args)
    print(f"running {_size_line(config)}", file=sys.stderr)
    started = time.perf_counter()
    result = run_sweep(config, workers=args.workers)
    elapsed = time.perf_counter() - started
    paths = emit_reports(result, args.format, args.out)
    print(f"completed {len(result.trials)} missions in {elapsed:.1f}s; wrote "
          + ", ".join(str(p) for p in paths), file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = load_run(args.indir)
    _write_summaries(result, args.format, Path(args.out))
    print(f"recomputed summaries for {len(result.trials)} trials from {args.indir}",
          file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = parse_config(args)
    print(f"would run {_size_line(config)}", file=sys.stderr)
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
