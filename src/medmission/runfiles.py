"""A run's files: the config JSON, the report writer and the run reader.

Everything between a `SweepConfig` or `SweepResult` and the bytes of a run
directory is here: a config's JSON form (`config_to_dict`,
`config_from_dict`), the five report files `emit_reports` writes, and
`load_run`, its inverse, which reads `manifest.json` and the trials table
back (`load_trials` holds each row to the run). `cli` turns argv into calls
to these.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, fields, is_dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (
    MAX_PATIENT_LOAD,
    ParetoPoint,
    PolicyRollup,
    SweepConfig,
    SweepResult,
    TrialTable,
    aggregate,
)
from .metrics import (METRIC_COLUMNS, TABLE_COLUMNS, MetricColumns, join_columns, table_columns,
                      written_rules)
from .policy import PolicyId
from .scenario import Condition
from .schema import json_key

TABLE_FORMATS = ("csv", "jsonl")

TRIALS_COLUMNS = ["policy", "delta", "load", "condition", "trial",
                  *(column.header for column in METRIC_COLUMNS if column.header)]
ROLLUP_COLUMNS = [f.name for f in fields(PolicyRollup)]
PARETO_COLUMNS = ["scope", *(f.name for f in fields(ParetoPoint)), "on_front"]
_POLICY_NAMES = [policy.value for policy in PolicyId]   # by `PolicyId.index`
_JSON_FLAGS = {c.header for c in TABLE_COLUMNS if c.parse is bool and not c.flat}


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
        elif isinstance(f.default, float) and value in ("inf", "-inf"):
            value = float(value)   # an infinity as `_json_text` writes it
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


def _read_json(path, name: str):
    """The JSON value of file `path`, read leniently (a bare `Infinity` token
    too); invalid JSON raises ConfigError naming `name`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:   # also past the digit or depth limit
            raise ConfigError(f"{name}: invalid JSON ({exc})") from None


def config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from its JSON form, naming any bad key."""
    try:
        config = _from_json(SweepConfig, data, "")
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


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
    """NaN becomes null and an infinity the string "inf" or "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _json_text(value, indent: int | None = None) -> str:
    """`value` as strict JSON (`_json_safe`) and a newline: every JSON text the package writes."""
    return json.dumps(_json_safe(value), indent=indent, allow_nan=False) + "\n"


# The texts of 0 to MAX_PATIENT_LOAD, which bound every int16 column.
_SMALL_INTS = np.array([str(i) for i in range(MAX_PATIENT_LOAD + 1)], dtype=object)


def _text_column(values: np.ndarray) -> list[str]:
    """`_fmt` of each value of a NumPy column, chosen once by its dtype; an
    int column within 0 to MAX_PATIENT_LOAD is looked up in `_SMALL_INTS`."""
    if values.dtype == bool:
        return np.where(values, "1", "0").tolist()
    kind = values.dtype.kind
    if kind == "i" and ((values >= 0) & (values <= MAX_PATIENT_LOAD)).all():
        return _SMALL_INTS[values].tolist()
    return list(map(repr if kind == "f" else _fmt if kind == "O" else str, values.tolist()))


def chunk_text(columns: list[str], chunk, fmt: str) -> str:
    """The text of one `chunk` of a table of `columns`, in format `fmt`, as
    the writer writes it. A chunk is the values its rows share, which lead
    each row, and the rest of its columns: NumPy columns of values and lists
    of text. CSV renders a NumPy column with `_text_column` and each shared
    value with `_fmt` once per chunk, as `,`-joined lines (no field holds a
    `,`, `"` or line break, so none needs quoting); JSON lines renders the
    values, one record per line."""
    shared, rest = chunk
    csv_text = fmt == "csv"
    column, value = (_text_column, _fmt) if csv_text else (np.ndarray.tolist, lambda v: v)
    n = len(rest[0])
    rows = zip(*([value(v)] * n for v in shared),
               *(column(c) if isinstance(c, np.ndarray) else c for c in rest))
    if csv_text:
        return "".join([",".join(row) + "\n" for row in rows])
    return "".join([_json_text(dict(zip(columns, row))) for row in rows])


def _write_table(path: Path, columns: list[str], chunks, fmt: str) -> None:
    """Write a table given as chunks of rows: the CSV header, then the
    `chunk_text` of each chunk in turn."""
    with open(path, "w", newline="" if fmt == "csv" else None, encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(",".join(columns) + "\n")
        for chunk in chunks:
            fh.write(chunk_text(columns, chunk, fmt))


def _trial_chunks(trials: TrialTable, conditions: tuple[Condition, ...]):
    """The trials table, one trial block of a (condition, policy) cell at a
    time (`TrialTable.blocks`), as chunks of TRIALS_COLUMNS; `conditions`
    are the run's, by id."""
    for start, block in trials.blocks():
        counts = block.high_count.tolist()

        def joined(values: np.ndarray) -> list[str]:
            texts = iter(_text_column(values))
            return [";".join(islice(texts, count)) for count in counts]

        n, condition = len(counts), conditions[int(trials.condition[start])]
        policy = _POLICY_NAMES[int(trials.policy[start])]
        yield (policy, condition.delta, condition.patient_load, condition.condition_id), [
            trials.trial[start:start + n],
            *(joined(values) if column.flat else values
              for column, values in zip(METRIC_COLUMNS, block) if column.header)]


def _record_chunk(cls, records: tuple, *shared):
    """`records`, instances of dataclass `cls`, as a chunk for `_write_table`:
    the `shared` values, then one column per field of `cls`, in field order."""
    return shared, [np.array([_json_value(getattr(r, f.name)) for r in records], dtype=object)
                    for f in fields(cls)]


def _pareto_chunk(points: tuple[ParetoPoint, ...], front: tuple[ParetoPoint, ...],
                  scope: str):
    """Pareto `points` of one `scope` as a chunk; a point is on the front if
    it is one of the points of `front`."""
    on_front = {id(p) for p in front}
    shared, columns = _record_chunk(ParetoPoint, points, scope)
    return shared, [*columns, np.array([id(p) in on_front for p in points], dtype=bool)]


def _summary_payload(result: SweepResult) -> dict:
    cells = []
    for s in result.summaries:
        cells.append({
            "policy": s.policy.value,
            "delta": s.delta,
            "load": s.load,
            "n_trials": s.n_trials,
            "delay": {**asdict(s.delay), "median": s.delay_median,
                      "p90": s.delay_p90, "p95": s.delay_p95,
                      "box": list(s.delay_box)},
            "rho": asdict(s.rho),
            "r_fail": asdict(s.r_fail),
            "workload": {**asdict(s.workload), "box": list(s.workload_box)},
            "mean_duration": s.mean_duration,
        })
    return {"cells": cells}


def _write_summaries(result: SweepResult, fmt: str, out: Path) -> list[Path]:
    """Write summary.json and the rollup and pareto tables into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.json"
    rollup_path = out / f"rollup.{fmt}"
    pareto_path = out / f"pareto.{fmt}"
    summary_path.write_text(_json_text(_summary_payload(result), indent=2), encoding="utf-8")
    _write_table(rollup_path, ROLLUP_COLUMNS, [_record_chunk(PolicyRollup, result.rollups)], fmt)
    _write_table(pareto_path, PARETO_COLUMNS, [
        _pareto_chunk(result.pareto_condition, result.front_condition, "condition"),
        _pareto_chunk(result.pareto_pooled, result.front_pooled, "pooled")], fmt)
    return [summary_path, rollup_path, pareto_path]


def emit_reports(result: SweepResult, fmt: str, outdir: str | Path) -> list[Path]:
    """Write trials, summary, rollup, pareto, and manifest files."""
    if fmt not in TABLE_FORMATS:
        raise ConfigError(f"format: unknown format {fmt!r}")
    out = Path(outdir)
    summaries = _write_summaries(result, fmt, out)
    trials_path = out / f"trials.{fmt}"
    _write_table(trials_path, TRIALS_COLUMNS,
                 _trial_chunks(result.trials, result.config.conditions()), fmt)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(_json_text({
        "config": config_to_dict(result.config),
        "master_seed": result.config.master_seed,
        "version": __version__,
        "total_missions": result.config.total_missions,
        "trial_rows": len(result.trials),
    }, indent=2), encoding="utf-8")
    return [trials_path, *summaries, manifest_path]


# ---------------------------------------------------------------------------
# Reading a previous run back.

def load_run(indir: str | Path) -> SweepResult:
    """The run in directory `indir`, as `emit_reports` wrote it: its
    config from `manifest.json`, its trials table read by `load_trials`,
    and what `aggregate` builds from them.

    The manifest must be an object holding a `config` object and an int
    `trial_rows`. The directory must hold at most one trials table, in
    either format, since the manifest is of one run; the table must hold
    `trial_rows` rows and a row of each of the config's policies. A
    directory that breaks one of these rules raises ConfigError naming the
    file and the key; a missing or unreadable file raises OSError.
    """
    indir = Path(indir)
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
    return aggregate(config, trials)


# Text of a trials table read at a time, in characters (bytes, in the ASCII
# the writer writes): each block's fields are parsed into typed columns and
# let go before the next block is read. A block ends at the row that brings
# its text to this size, so a block's fields never outgrow it by more than
# one row, whatever the patient load; 1 gives one row per block.
_BLOCK_BYTES = 128 * 1024


def load_trials(trials_path: str | Path, config: SweepConfig) -> TrialTable:
    """Read a trials table back, as CSV or (for a `.jsonl` path) JSON lines.

    The rows may come in any order and hold any subset of the trials; the
    table returned is in `(condition, policy.index, trial)` order. A table
    missing a column raises ConfigError naming the file and the column. A
    row that does not parse or is no new trial of `config` raises
    ConfigError naming the file, the first such row in file order and,
    from the first check that row fails, the column. An invalid `config`
    raises ValueError naming its key, as in `run_sweep`: its caps bound
    every value the table's narrow dtypes hold.

    The rows are read in blocks (`_table_blocks`), and each block is
    checked and parsed into typed columns (`_block_table`) before the next
    is read, so only one block's fields are held as text. A block with a
    bad row ends the reading: no later row can be the one named.
    """
    config.validate()
    path = Path(trials_path)
    conditions = config.conditions()
    seen = np.zeros(len(conditions) * len(_POLICY_NAMES) * config.trials_per_condition, bool)
    # The blocks' columns, after an empty block's, which give their dtypes.
    pieces = [_block_table(dict.fromkeys(TRIALS_COLUMNS, []), config, conditions, seen)]
    with open(path, newline="", encoding="utf-8") as fh:
        blocks = _table_blocks(fh, path.suffix == ".jsonl")
        try:
            header = next(blocks)
            missing = [c for c in TRIALS_COLUMNS if c not in header]
            if missing:
                raise ConfigError(f"{path.name}: missing columns {', '.join(missing)}")
            width = len(header)
            index = {name: i for i, name in enumerate(header)}   # the last of a repeated name
            for block in blocks:
                pieces.append(_block_table({c: block[index[c]::width] for c in TRIALS_COLUMNS},
                                           config, conditions, seen))
                del block
        except _BadRow as bad:   # at its index in the rows after those of `pieces`
            row = sum(len(piece[0]) for piece in pieces) + bad.args[0]
            raise ConfigError(f"{path.name}: row {row + 1}{bad.args[1]}") from None
    policy, condition, trial, *metrics = join_columns(pieces)
    table = TrialTable(policy, condition, trial, MetricColumns(*metrics))
    order = np.lexsort((trial, policy, condition))
    # A table already in order, as `emit_reports` writes it, is not copied.
    return table if (np.diff(order) == 1).all() else table.take(order)


class _BadRow(Exception):
    """A bad row: its index in its block, and what follows its number in the message."""


def _table_blocks(fh, jsonl: bool):
    """The header of open trials file `fh`, then each block of its rows as
    one list of fields, each row as wide as the header: the one row source
    of CSV and JSON lines. A row that cannot be read raises `_BadRow` at
    index 0, after the blocks of the rows before it."""
    try:
        yield from _jsonl_blocks(fh) if jsonl else _csv_blocks(fh)
    except KeyError as exc:   # a JSON-lines record without that column
        raise _BadRow(0, f" has no {exc.args[0]} column") from None
    except (ValueError, RecursionError, csv.Error) as exc:
        if isinstance(exc, csv.Error) and "field limit" in str(exc):   # csv.reader's words
            exc = (f"a field is over {csv.field_size_limit()} characters, longer than "
                   "any a run writes")
        raise _BadRow(0, f": {exc}") from None


def _blocks(items, size=len):
    """The items of iterator `items` in lists, each ending at the item that
    brings the `size` of its items to _BLOCK_BYTES. An error in `items` is
    raised after a list of the items before it."""
    block, held = [], 0
    try:
        for item in items:
            block.append(item)
            held += size(item)
            if held >= _BLOCK_BYTES:
                yield block
                block, held = [], 0
    except (KeyError, ValueError, RecursionError, csv.Error):   # a row that cannot be read
        if block:
            yield block
        raise
    if block:
        yield block


def _row_size(fields: list[str]) -> int:
    """The characters of a row of `fields`: each field's and a separator's after it."""
    return len(fields) + sum(map(len, fields))


def _csv_blocks(fh):
    """The header row of CSV file `fh`, then blocks of its other rows, blank
    ones dropped, each as its fields with every row as wide as the header:
    what csv.reader reads. A block's lines are split on `,` while they are
    plain (`_plain_fields`); the first block that is not hands its lines
    and the rest of the file to one csv.reader, so a quoted line break may
    span two blocks."""
    head = list(islice(fh, 1))   # the header line, as wide as its own fields
    header = _plain_fields(head, head[0].count(",") + 1 if head else 0)
    lines = _blocks(fh)
    if header is not None:
        yield header
        for head in lines:   # `head` is then the lines csv.reader starts at
            fields = _plain_fields(head, len(header))
            if fields is None:
                break
            del head
            yield fields
            del fields
        else:
            return
    rows = csv.reader(chain(head, chain.from_iterable(lines)))
    del head
    if header is None:
        header = next(rows, [])
        yield header
    for block in _blocks(filter(None, rows), _row_size):   # blank lines hold no row
        yield _row_fields(block, len(header))
        del block


def _plain_fields(lines: list[str], width: int) -> list[str] | None:
    """The fields of the rows of CSV `lines` in turn, blank lines dropped and
    each row cut or padded to `width`, split on `\\n` and `,` where that is
    what csv.reader would read: the lines hold no `"`, CR or NUL and none
    is longer than the field size limit; else None."""
    text = "".join(lines)
    if ('"' in text or "\r" in text or "\0" in text
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        return None
    body = list(filter(None, text.split("\n")))   # not splitlines, which also splits on \x0b, ...
    del text
    if set(map(str.count, body, repeat(","))) == {width - 1}:
        return ",".join(body).split(",")
    return _row_fields([line.split(",") for line in body], width)   # a short or long row


def _row_fields(rows, width: int) -> list[str]:
    """The fields of `rows` in turn, each row cut or padded with empty fields
    to `width`."""
    return list(chain.from_iterable(row[:width] + [""] * (width - len(row)) for row in rows))


def _jsonl_blocks(fh):
    """TRIALS_COLUMNS, then blocks of the JSON-lines records of `fh`, each as
    its records' fields (`_jsonl_row`) in turn."""
    yield TRIALS_COLUMNS
    for block in _blocks(map(_jsonl_row, fh), _row_size):
        yield list(chain.from_iterable(block))
        del block


def _jsonl_row(line: str) -> list[str]:
    """One JSON-lines record's TRIALS_COLUMNS, each value rendered as the
    CSV writer would; KeyError names a column the record lacks."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    # The writer's null is a NaN (`_json_safe`), and its bools are the per-mission
    # flags; a bool elsewhere keeps its JSON text, which its column's parse names.
    return [json.dumps(v) if isinstance(v, bool) and c not in _JSON_FLAGS
            else _fmt(math.nan if v is None else v)
            for c, v in zip(TRIALS_COLUMNS, map(record.__getitem__, TRIALS_COLUMNS))]


def _block_table(columns: dict[str, list[str]], config: SweepConfig,
                 conditions: tuple[Condition, ...], seen: np.ndarray) -> tuple[np.ndarray, ...]:
    """The trials of a block of rows, whose `columns` hold its texts, in
    file order, as the columns of `metrics.TABLE_COLUMNS`, each in its
    dtype. Ints are parsed and checked as int64 and cast only after every
    check, so a value out of its dtype's range is named, never wrapped.
    `conditions` are `config.conditions()`, built once for the table, and
    `seen` flags each (condition, policy, trial) slot that a row of an
    earlier block holds; the block's rows are flagged in it.

    The checks here read the text and the run's identity: each value parses,
    the lists agree in length, the row is a trial of the run that no other
    row holds, and `duration` and `served` are in range. Then each of
    `metrics.written_rules` holds the row to what a run writes. Every check
    marks the rows it rejects on whole columns, in the order one row is
    checked, and the first row any rejects raises `_BadRow` with the message
    of its first check. A value that does not parse reads as 0 after its
    own check, and a message is built only for a row no earlier check rejects.
    """
    first, fault = len(columns["trial"]), ""   # the first row rejected so far, and why

    def check(bad: np.ndarray, message, counts=None) -> None:
        """Reject the first True of `bad`, a mask over the rows or, given each
        row's entry `counts`, over the entries of the rows' lists in turn."""
        nonlocal first, fault
        if bad.any():
            i = int(bad.argmax())
            row = i if counts is None else int(np.searchsorted(np.cumsum(counts), i, "right"))
            if row < first:
                first, fault = row, message(i)

    def parsed(column: str, kind, texts=None, counts=None) -> np.ndarray:
        texts = columns[column] if texts is None else texts
        values, bad = _parse(texts, kind)
        what = ("must be 0 or 1, got {!r}" if kind is bool else "{!r} is not a "
                + (column if isinstance(kind, tuple) else f"valid {kind.__name__}"))
        check(bad, lambda i: f"{column}: " + what.format(texts[i]), counts)
        return values

    def whole(column: str, i: int) -> int:   # as written, even past int64
        return int(columns[column][i])

    table = dict.fromkeys(c.name for c in TABLE_COLUMNS)   # in table order
    counts = {}   # each list column's entries per row
    for c in TABLE_COLUMNS:
        if c.flat:
            counts[c.header], entries = _split_lists(columns[c.header])
            table[c.name] = parsed(c.header, c.parse, entries, counts[c.header])
        elif c.header:
            table[c.name] = parsed(c.header, c.parse)
    ids_n, delays_n, flags_n = counts.values()
    table["high_count"] = ids_n
    policy, condition, trial, duration, served = map(
        table.get, ("policy", "condition", "trial", "duration", "served"))
    load, delta = parsed("load", int), parsed("delta", float)
    check((ids_n != delays_n) | (ids_n != flags_n),
          lambda i: f"high_sev_ids, high_sev_delays and high_sev_censored hold "
                    f"{ids_n[i]}, {delays_n[i]} and {flags_n[i]} entries")
    of_run = np.zeros(len(_POLICY_NAMES), dtype=bool)
    of_run[[p.index for p in config.policies]] = True
    check(~of_run[policy],
          lambda i: f"policy: {columns['policy'][i]!r} is not a policy of the run")
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
    slots = ((row_condition * len(_POLICY_NAMES) + policy) * config.trials_per_condition
             + np.clip(trial, 0, config.trials_per_condition - 1))
    again = np.ones(len(slots), bool)
    again[np.unique(slots, return_index=True)[1]] = False   # each slot's first row of the block
    check(again | seen[slots],
          lambda i: f"trial: {trial[i]} of condition {condition[i]} "
                    f"under {_POLICY_NAMES[int(policy[i])]} appears twice")
    seen[slots] = True
    horizon = config.platform.horizon   # a run ends by it: min(finish, horizon)
    check(~((duration >= 0.0) & (duration <= horizon)),
          lambda i: f"duration: {float(duration[i])!r} is outside [0, {horizon!r}]")
    check((served < 0) | (served > load),
          lambda i: f"served: {whole('served', i)} is outside [0, {load[i]}]")
    for rule in written_rules(table, delays_n, load, horizon, config.alpha, config.beta):
        check(*rule)
    if fault:
        raise _BadRow(first, f": {fault}")
    return tuple(table_columns(**table).values())


def _parse(texts, kind) -> tuple[np.ndarray, np.ndarray]:
    """`texts` read as `kind`, a `Column.parse` (int, float, bool for a 0/1
    flag, or names, read as their indices), and a mask of those that do not
    parse, which read as 0. An int past int64 is clipped to its range, which
    every check on an int column rejects."""
    n = len(texts)
    if kind is bool:
        bad = set(texts) - {"0", "1"}
        return (np.fromiter(map("1".__eq__, texts), bool, n),
                np.fromiter(map(bad.__contains__, texts), bool, n) if bad else np.zeros(n, bool))
    if isinstance(kind, tuple):
        index = {name: i for i, name in enumerate(kind)}
        values = np.fromiter(map(index.get, texts, repeat(-1)), np.int64, n)
        return np.maximum(values, 0), values < 0
    dtype = np.int64 if kind is int else float
    try:
        return np.fromiter(map(kind, texts), dtype, n), np.zeros(n, bool)
    except (ValueError, OverflowError):
        values, bad = np.zeros(n, dtype=dtype), np.zeros(n, bool)
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
