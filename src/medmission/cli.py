"""Command-line front end: configuration, sweep runs, and report files.

Subcommands:

* ``run``      execute a sweep and write all report files
* ``report``   recompute summaries/rollup/pareto from an existing trials file
  (``trials.csv``, or ``trials.jsonl`` from a ``--format jsonl`` run)
* ``validate`` check a configuration and echo its normalized form

Configuration precedence is flags over config file over built-in
defaults; the defaults reproduce the full experimental protocol
(5 degradation levels x 4 patient loads x 3 policies x 250 trials).
All state flows through flags and files so runs are reproducible; the
emitted files are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import sys
import time
from dataclasses import fields, is_dataclass
from itertools import chain, repeat
from pathlib import Path

from . import __version__
import numpy as np

from .experiment import (
    ParetoPoint,
    SweepConfig,
    SweepResult,
    TrialTable,
    aggregate,
    run_sweep,
)
from .metrics import MetricColumns
from .policy import PolicyId
from .scenario import Condition
from .schema import json_key

log = logging.getLogger("medmission")

TABLE_FORMATS = ("csv", "jsonl")

TRIALS_COLUMNS = [
    "policy", "delta", "load", "condition", "trial", "aborted", "duration",
    "served", "rho", "lambda_sw", "lambda_int", "workload",
    "high_sev_ids", "high_sev_delays", "high_sev_censored",
]

ROLLUP_COLUMNS = [
    "policy", "t_int_mean", "rho", "r_fail", "w_mean", "mission_time",
    "delay_median", "delay_p90", "delay_p95", "n_trials",
]

PARETO_COLUMNS = ["scope", "policy", "delta", "load", "x", "y", "size", "on_front"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# Config serialization: one JSON key per SweepConfig field, one object per
# parameter section.

def _json_value(value):
    if is_dataclass(value):
        return {json_key(f): _json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, PolicyId):
        return value.value
    return value


def config_to_dict(config: SweepConfig) -> dict:
    return _json_value(config)


def _from_json(cls, data, key: str):
    """An instance of config dataclass `cls` from its JSON object under `key`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{key}: must be an object, got {type(data).__name__}")
    prefix = f"{key}." if key else ""
    known = dict(data)
    kwargs = {}
    for f in fields(cls):
        if json_key(f) not in known:
            continue
        value = known.pop(json_key(f))
        if is_dataclass(f.default):
            value = _from_json(type(f.default), value, prefix + json_key(f))
        elif isinstance(f.default, tuple):
            # A top-level list may come from a comma-separated flag and takes its
            # items' type; a section's pair (scenario.base_position) stays as written.
            kind = type(f.default[0]) if cls is SweepConfig else None
            value = _list_value(value, prefix + json_key(f), kind)
        kwargs[f.name] = value
    if known:
        raise ConfigError(f"{prefix}{sorted(known)[0]}: unknown key")
    return cls(**kwargs)


def _list_value(values, key: str, kind: type | None) -> tuple:
    """The items of a list-valued key, each converted to the item type `kind`.

    A bare string is rejected: iterating it would split it into characters.
    A bool item is rejected rather than read as 1. A string item (a flag
    token) is parsed; a number is converted only if that keeps its value, so
    2.5 reaches the int bound unconverted. With no `kind` the items are kept.
    """
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key}: must be a list, got {type(values).__name__}")
    if kind is None:
        return tuple(values)
    out = []
    for i, value in enumerate(values):
        try:
            if isinstance(value, bool):
                raise ValueError
            item = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key}: {value!r} at {key}[{i}] is not a valid "
                              f"{kind.__name__}") from None
        out.append(item if isinstance(value, str) or item == value else value)
    return tuple(out)


def config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from its JSON form, naming any bad key."""
    try:
        config = _from_json(SweepConfig, data, "")
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def parse_config(args: argparse.Namespace) -> SweepConfig:
    """Resolve the effective config: flags > config file > defaults."""
    data: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:   # also past the digit or depth limit
                raise ConfigError(f"config file: invalid JSON ({exc})") from exc
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
# Value formatting: floats go through repr so re-reading is exact.

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _json_safe(value):
    """NaN becomes null so the JSON stays strictly parseable."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _text_column(values: np.ndarray) -> list[str]:
    """`_fmt` of each value of a NumPy column, chosen once by its dtype."""
    if values.dtype == bool:
        return np.where(values, "1", "0").tolist()
    return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))


def _write_table(path: Path, columns: list[str], chunks, fmt: str) -> None:
    """Write a table given as chunks of rows, each chunk a list of columns:
    for CSV columns of text, written a chunk at a time as `,`-joined lines
    (no field holds a `,`, `"` or line break, so none needs quoting); for
    JSON lines columns of values."""
    with open(path, "w", newline="" if fmt == "csv" else None, encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(",".join(columns) + "\n")
            for chunk in chunks:
                fh.write("".join([",".join(row) + "\n" for row in zip(*chunk)]))
        else:
            for chunk in chunks:
                for row in zip(*chunk):
                    record = {c: _json_safe(v) for c, v in zip(columns, row)}
                    fh.write(json.dumps(record, sort_keys=False) + "\n")


def _value_chunk(rows: list[list], fmt: str) -> list[list]:
    """`rows` of values as one chunk for `_write_table`: for CSV each value
    is rendered by `_fmt`, an enum name, a number or empty."""
    if fmt == "csv":
        rows = [list(map(_fmt, row)) for row in rows]
    return [list(column) for column in zip(*rows)]


def _trial_chunks(trials: TrialTable, conditions: tuple[Condition, ...], fmt: str):
    """The trials table, one (condition, policy) cell at a time, as the
    columns of TRIALS_COLUMNS, of text for CSV and of values for JSON lines;
    `conditions` are the run's, by id."""
    value, column = (_fmt, _text_column) if fmt == "csv" else (lambda v: v, np.ndarray.tolist)
    names = {policy.index: policy.value for policy in PolicyId}
    metrics = trials.metrics
    ends = np.cumsum(metrics.high_count).tolist()
    for start, stop in trials.cells():
        rows = slice(start, stop)
        first = ends[start] - int(metrics.high_count[start])
        flat = slice(first, ends[stop - 1])
        bounds = [0, *(end - first for end in ends[rows])]
        spans = list(zip(bounds, bounds[1:]))

        def joined(values: np.ndarray) -> list[str]:
            texts = _text_column(values[flat])
            return [";".join(texts[a:b]) for a, b in spans]

        n, condition = stop - start, conditions[int(trials.condition[start])]
        yield [
            [names[int(trials.policy[start])]] * n,
            [value(condition.delta)] * n, [value(condition.patient_load)] * n,
            *(column(values[rows]) for values in (
                trials.condition, trials.trial, metrics.aborted, metrics.duration,
                metrics.served, metrics.rho, metrics.lambda_sw, metrics.lambda_int,
                metrics.workload)),
            joined(metrics.high_ids), joined(metrics.high_delays),
            joined(metrics.high_censored),
        ]


def _rollup_rows(result: SweepResult) -> list[list]:
    return [[r.policy.value, r.t_int_mean, r.rho, r.r_fail, r.w_mean,
             r.mission_time, r.delay_median, r.delay_p90, r.delay_p95,
             r.n_trials] for r in result.rollups]


def _pareto_rows(result: SweepResult) -> list[list]:
    def rows_for(points: tuple[ParetoPoint, ...], front: tuple[ParetoPoint, ...],
                 scope: str) -> list[list]:
        on_front = {id(p) for p in front}
        return [[scope, p.policy.value, p.delta, p.load, p.x, p.y, p.size,
                 id(p) in on_front] for p in points]

    return (rows_for(result.pareto_condition, result.front_condition, "condition")
            + rows_for(result.pareto_pooled, result.front_pooled, "pooled"))


def _stats_dict(stats) -> dict:
    return {"mean": stats.mean, "std": stats.std,
            "ci_lo": stats.ci_lo, "ci_hi": stats.ci_hi}


def _summary_payload(result: SweepResult) -> dict:
    cells = []
    for s in result.summaries:
        cells.append({
            "policy": s.policy.value,
            "delta": s.delta,
            "load": s.load,
            "n_trials": s.n_trials,
            "delay": {**_stats_dict(s.delay), "median": s.delay_median,
                      "p90": s.delay_p90, "p95": s.delay_p95,
                      "box": list(s.delay_box)},
            "rho": _stats_dict(s.rho),
            "r_fail": _stats_dict(s.r_fail),
            "workload": {**_stats_dict(s.workload), "box": list(s.workload_box)},
            "mean_duration": s.mean_duration,
        })
    return {"cells": cells}


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(payload), fh, indent=2)
        fh.write("\n")


def _write_summaries(result: SweepResult, fmt: str, out: Path) -> list[Path]:
    """Write summary.json and the rollup and pareto tables into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.json"
    rollup_path = out / f"rollup.{fmt}"
    pareto_path = out / f"pareto.{fmt}"
    _write_json(summary_path, _summary_payload(result))
    _write_table(rollup_path, ROLLUP_COLUMNS, [_value_chunk(_rollup_rows(result), fmt)], fmt)
    _write_table(pareto_path, PARETO_COLUMNS, [_value_chunk(_pareto_rows(result), fmt)], fmt)
    return [summary_path, rollup_path, pareto_path]


def emit_reports(result: SweepResult, fmt: str, outdir: str | Path) -> list[Path]:
    """Write trials, summary, rollup, pareto, and manifest files."""
    if fmt not in TABLE_FORMATS:
        raise ConfigError(f"format: unknown format {fmt!r}")
    out = Path(outdir)
    summaries = _write_summaries(result, fmt, out)
    trials_path = out / f"trials.{fmt}"
    _write_table(trials_path, TRIALS_COLUMNS,
                 _trial_chunks(result.trials, result.config.conditions(), fmt), fmt)
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, {
        "config": config_to_dict(result.config),
        "master_seed": result.config.master_seed,
        "version": __version__,
        "total_missions": result.config.total_missions,
        "trial_rows": len(result.trials),
    })
    return [trials_path, *summaries, manifest_path]


# ---------------------------------------------------------------------------
# Reading a previous run back for the `report` subcommand.

def load_trials(trials_path: str | Path, config: SweepConfig) -> TrialTable:
    """Read a trials table back, as CSV or (for a `.jsonl` path) JSON lines.

    The rows may come in any order and hold any subset of the trials; the
    table returned is in `(condition, policy.index, trial)` order. A table
    missing a column raises ConfigError naming the file and the column. A
    row that does not parse or is no new trial of `config` raises
    ConfigError naming the file, the first such row in file order and,
    from the first check that row fails, the column.
    """
    path = Path(trials_path)
    header = TRIALS_COLUMNS
    rows: list = []
    flat = None   # every row's fields in turn, each row as wide as the header
    fault = None   # what is wrong with the row after `rows`, which cannot be read
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            if path.suffix == ".jsonl":
                rows.extend(map(_jsonl_row, fh))
            else:
                try:
                    text = fh.read()
                except UnicodeDecodeError:   # csv.reader reads the rows before it
                    fh.seek(0)
                    text = None
                plain = None if text is None else _plain_fields(text)
                if plain is None:
                    reader = csv.reader(fh if text is None else io.StringIO(text, newline=""))
                    header = next(reader, [])
                    rows.extend(filter(None, reader))   # blank lines hold no row
                else:
                    header, flat = plain
                del text, plain
        except KeyError as exc:   # a JSON-lines record without that column
            fault = f" has no {exc.args[0]} column"
        except (ValueError, RecursionError, csv.Error) as exc:
            fault = f": {exc}"
    missing = [c for c in TRIALS_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{path.name}: missing columns {', '.join(missing)}")
    width = len(header)
    if flat is None:   # a short row's missing values read as empty
        flat = list(chain.from_iterable(
            row[:width] + [""] * (width - len(row)) for row in rows))
    index = {name: i for i, name in enumerate(header)}   # the last of a repeated name
    columns = {c: flat[index[c]::width] for c in TRIALS_COLUMNS}
    del flat
    table = _trial_table(path.name, columns, config)
    if fault is not None:
        raise ConfigError(f"{path.name}: row {len(rows) + 1}{fault}")
    return table


def _plain_fields(text: str) -> tuple[list[str], list[str]] | None:
    """The header and the fields of every row in turn of CSV `text`, split
    on `\\n` and `,` where that is what csv.reader would read: the text
    holds no `"`, CR or NUL, no line is longer than the field size limit,
    and every line but a blank one is as wide as the first; else None."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")   # not splitlines, which also splits on \x0b, \x1c, ...
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")   # a blank one misses every column, as csv.reader's []
    body = list(filter(None, lines[1:]))   # blank lines hold no row
    del lines
    if set(map(str.count, body, repeat(","))) - {len(header) - 1}:
        return None
    return header, ",".join(body).split(",") if body else []


def _jsonl_row(line: str) -> list[str]:
    """One JSON-lines record's TRIALS_COLUMNS, each value rendered as the
    CSV writer would; KeyError names a column the record lacks."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    return [_fmt(record[c]) for c in TRIALS_COLUMNS]


def _trial_table(name: str, columns: dict[str, list[str]],
                 config: SweepConfig) -> TrialTable:
    """The trials `columns` hold, in canonical order.

    The checks run on whole columns, each marking the rows it rejects, in
    the order one row is checked. If any row fails, ConfigError names file
    `name`, the first row in file order that fails a check, and the message
    of the first check that row fails. A value that does not parse fails
    its own check and reads as 0 in the later ones, none of which can then
    be the first check its row fails.
    """
    faults: list[tuple] = []   # each failing check's first row, message and index

    def check(bad: np.ndarray, message, counts=None) -> None:
        """Record the first True of `bad`, a mask over the rows or, given each
        row's entry `counts`, over the entries of the rows' lists in turn."""
        if bad.any():
            i = int(bad.argmax())
            row = i if counts is None else int(np.searchsorted(np.cumsum(counts), i, "right"))
            faults.append((row, message, i))

    def parsed(column: str, kind: type, texts=None, counts=None) -> np.ndarray:
        texts = columns[column] if texts is None else texts
        values, bad = _parse(texts, kind)
        check(bad, lambda i: f"{column}: {texts[i]!r} is not a valid {kind.__name__}",
              counts)
        return values

    def flags(column: str, texts=None, counts=None) -> np.ndarray:
        texts = columns[column] if texts is None else texts
        if not set(texts) <= {"0", "1"}:
            bad = np.array([text not in ("0", "1") for text in texts])
            check(bad, lambda i: f"{column}: must be 0 or 1, got {texts[i]!r}", counts)
        return np.array(list(map("1".__eq__, texts)), dtype=bool)

    def whole(column: str, i: int) -> int:   # as written, even past int64
        return int(columns[column][i])

    ids_n, ids = _split_lists(columns["high_sev_ids"])
    delays_n, delays = _split_lists(columns["high_sev_delays"])
    flags_n, censored = _split_lists(columns["high_sev_censored"])
    high_ids = parsed("high_sev_ids", int, ids, ids_n)
    high_delays = parsed("high_sev_delays", float, delays, delays_n)
    high_censored = flags("high_sev_censored", censored, flags_n)
    check((ids_n != delays_n) | (ids_n != flags_n),
          lambda i: f"high_sev_ids, high_sev_delays and high_sev_censored hold "
                    f"{ids_n[i]}, {delays_n[i]} and {flags_n[i]} entries")
    load, served = parsed("load", int), parsed("served", int)
    aborted = flags("aborted")
    floats = {c: parsed(c, float) for c in ("lambda_sw", "lambda_int", "workload", "duration")}
    policy_index = {policy.value: policy.index for policy in PolicyId}
    policy = np.array([policy_index.get(v, -1) for v in columns["policy"]], dtype=np.int64)
    check(policy < 0, lambda i: f"policy: {columns['policy'][i]!r} is not a policy")
    delta, condition, trial = (parsed("delta", float), parsed("condition", int),
                               parsed("trial", int))
    check(~np.isin(policy, [p.index for p in config.policies]),
          lambda i: f"policy: {columns['policy'][i]!r} is not a policy of the run")
    conditions = config.conditions()
    check((condition < 0) | (condition >= len(conditions)),
          lambda i: f"condition: {whole('condition', i)} is not a condition id "
                    f"of the run, 0 to {len(conditions) - 1}")
    row_condition = np.clip(condition, 0, len(conditions) - 1)
    check(delta != np.array([c.delta for c in conditions])[row_condition],
          lambda i: f"delta: {float(delta[i])!r} is not condition {condition[i]}'s "
                    f"delta {conditions[condition[i]].delta!r}")
    check(load != np.array([c.patient_load for c in conditions])[row_condition],
          lambda i: f"load: {whole('load', i)} is not condition {condition[i]}'s "
                    f"load {conditions[condition[i]].patient_load}")
    check((trial < 0) | (trial >= config.trials_per_condition),
          lambda i: f"trial: {whole('trial', i)} is outside "
                    f"[0, {config.trials_per_condition})")
    order = np.lexsort((trial, policy, condition))   # stable, so copies stay in file order
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:]] = ((np.diff(condition[order]) == 0) & (np.diff(policy[order]) == 0)
                           & (np.diff(trial[order]) == 0))
    check(repeated, lambda i: f"trial: {trial[i]} of condition {condition[i]} "
                              f"under {columns['policy'][i]} appears twice")
    check((served < 0) | (served > load),
          lambda i: f"served: {whole('served', i)} is outside [0, {load[i]}]")
    rho = parsed("rho", float)
    with np.errstate(invalid="ignore", divide="ignore"):
        check(rho.view(np.int64) != (served / load).view(np.int64),
              lambda i: f"rho: {float(rho[i])!r} is not served / load = "
                        f"{int(served[i]) / int(load[i])!r}")
    row_load = np.repeat(load, ids_n)
    check((high_ids < 0) | (high_ids >= row_load),
          lambda i: f"high_sev_ids: {int(ids[i])} is outside [0, {row_load[i]})", ids_n)
    if faults:
        # The first check of the first row; only there are the values it reads parsed.
        row, message, i = min(faults, key=lambda fault: fault[0])
        raise ConfigError(f"{name}: row {row + 1}: {message(i)}")
    return TrialTable(
        policy=policy, condition=condition, trial=trial,
        metrics=MetricColumns(
            aborted=aborted, duration=floats["duration"], served=served, rho=rho,
            lambda_sw=floats["lambda_sw"], lambda_int=floats["lambda_int"],
            workload=floats["workload"], high_count=ids_n, high_ids=high_ids,
            high_delays=high_delays, high_censored=high_censored)).take(order)


def _parse(texts, kind: type) -> tuple[np.ndarray, np.ndarray]:
    """`texts` parsed with `kind`, int or float, and a mask of those that do
    not parse, which read as 0. An int past int64 is clipped to its range,
    which every check on an int column rejects."""
    dtype = np.int64 if kind is int else float
    try:
        return np.array(list(map(kind, texts)), dtype=dtype), np.zeros(len(texts), dtype=bool)
    except (ValueError, OverflowError):
        values, bad = np.zeros(len(texts), dtype=dtype), np.zeros(len(texts), dtype=bool)
    for i, text in enumerate(texts):
        try:
            value = kind(text)
        except ValueError:
            bad[i] = True
        else:
            values[i] = min(max(value, _INT64.min), _INT64.max) if kind is int else value
    return values, bad


_INT64 = np.iinfo(np.int64)


def _split_lists(texts) -> tuple[np.ndarray, list[str]]:
    """Each row's `;`-separated entries, empty ones dropped: their counts,
    and the entries of every row in turn."""
    joined = ";".join(filter(None, texts))
    flat = joined.split(";") if joined else []
    if "" in flat:   # an empty entry: split row by row to drop it
        parts = [[x for x in text.split(";") if x] for text in texts]
        return (np.fromiter(map(len, parts), np.int64, len(parts)),
                list(chain.from_iterable(parts)))
    counts = np.fromiter(map(str.count, texts, repeat(";")), np.int64, len(texts)) + 1
    counts[np.fromiter(map(len, texts), np.int64, len(texts)) == 0] = 0
    return counts, flat


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
    config = parse_config(args)
    log.info("running %d missions (%d cells x %d trials)", config.total_missions,
             len(config.conditions()) * len(config.policies),
             config.trials_per_condition)
    started = time.perf_counter()
    result = run_sweep(config, workers=args.workers)
    elapsed = time.perf_counter() - started
    paths = emit_reports(result, args.format, args.out)
    log.info("completed %d missions in %.1fs; wrote %s",
             len(result.trials), elapsed, ", ".join(str(p) for p in paths))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    indir = Path(args.indir)
    with open(indir / "manifest.json", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"manifest.json: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError("manifest.json: config: must be an object")
    config = config_from_dict(manifest["config"])
    trials_path = indir / "trials.csv"
    if not trials_path.exists() and (indir / "trials.jsonl").exists():
        trials_path = indir / "trials.jsonl"
    trials = load_trials(trials_path, config)
    if manifest.get("trial_rows") != len(trials):
        raise ConfigError(f"trial_rows: manifest says {manifest.get('trial_rows')!r}, "
                          f"{trials_path.name} holds {len(trials)} rows")
    for policy in config.policies:
        if not (trials.policy == policy.index).any():   # its rollup would be over no trial
            raise ConfigError(f"{trials_path.name}: policy: {policy.value} has no row")
    _write_summaries(aggregate(config, trials), args.format, Path(args.out))
    log.info("recomputed summaries for %d trials from %s", len(trials), trials_path)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = parse_config(args)
    json.dump(config_to_dict(config), sys.stdout, indent=2)
    sys.stdout.write("\n")
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
                       help="parallel worker processes")
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
