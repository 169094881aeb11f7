"""Command-line interface: config precedence, emission, and round trips."""

import contextlib
import csv
import functools
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from datetime import timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medmission import (
    LocalizationParams,
    PlatformParams,
    PolicyId,
    ScenarioParams,
    SweepConfig,
    TriageWeights,
    run_sweep,
)
from medmission import cli
from medmission.cli import config_from_dict, config_to_dict, main
from medmission.experiment import aggregate
from medmission.metrics import MetricColumns
from medmission.schema import Bound

FAST_FLAGS = ["--deltas", "0,1", "--loads", "3,5", "--trials", "2", "--seed", "7"]


def read(path):
    return Path(path).read_bytes()


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# Configuration.

def test_defaults_reproduce_the_full_protocol():
    config = config_from_dict({})
    assert config.total_missions == 15_000
    assert len(config.degradation_levels) == 5
    assert len(config.patient_loads) == 4
    assert len(config.policies) == 3
    assert config.trials_per_condition == 250


def test_config_round_trips_through_its_dict_form():
    config = SweepConfig(master_seed=99, trials_per_condition=3,
                         degradation_levels=(0.0, 0.3), patient_loads=(4,))
    assert config_from_dict(config_to_dict(config)) == config


def test_flags_override_file_values(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"trials_per_condition": 250, "master_seed": 1}))
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(cfg), "--trials", "1",
                   "--deltas", "0,1", "--loads", "3,5", "--out", str(out))
    assert code == 0
    rows = (out / "trials.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 1 * 2 * 2 * 3   # flag trials=1 wins over file 250
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 1     # file value survives where unflagged


def test_out_of_range_delta_names_the_key(tmp_path, capsys):
    code = run_cli("run", "--deltas", "0,1.5", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "degradation_levels" in capsys.readouterr().err


def test_unknown_policy_names_the_key(capsys):
    code = run_cli("validate", "--policies", "pi9_magic")
    assert code == 2
    assert "policies[0]" in capsys.readouterr().err


def test_zero_trials_rejected(capsys):
    code = run_cli("validate", "--trials", "0")
    assert code == 2
    assert "trials_per_condition" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"patient_load": [5]}))
    code = run_cli("validate", "--config", str(cfg))
    assert code == 2
    assert "patient_load" in capsys.readouterr().err


@pytest.mark.parametrize("data, key", [
    ({"tau_c": float("nan")}, "tau_c"),
    ({"alpha": float("nan")}, "alpha"),
    ({"master_seed": -1}, "master_seed"),
    ({"policies": "pi1_teleop"}, "policies"),
    ({"degradation_levels": "0,1"}, "degradation_levels"),
    ({"patient_loads": ["many"]}, "patient_loads"),
    ({"trials_per_condition": 2.5}, "trials_per_condition"),
    ({"localization": {"sigma_gps": 0}}, "localization.sigma_gps"),
    ({"localization": {"sigma_gps": -3.0}}, "localization.sigma_gps"),
    ({"localization": {"sigma_auto": float("nan")}}, "localization.sigma_auto"),
    ({"platform": {"cruise_speed": "fast"}}, "platform.cruise_speed"),
    ({"tau_c": "long"}, "tau_c"),
    ({"platform": 5}, "platform"),
    ({"scenario": {"base_position": 5}}, "scenario.base_position"),
    ({"scenario": {"base_position": [1, 2, 3]}}, "scenario.base_position"),
    ({"platform": {"horizon": 0}}, "platform.horizon"),
    ({"platform": {"horizon": "x"}}, "platform.horizon"),
    ({"scenario": {"area_extent": -5}}, "scenario.area_extent"),
    ({"scenario": {"accessibility_low": 0}}, "scenario.accessibility_low"),
    ({"scenario": {"accessibility_low": 0.9, "accessibility_high": 0.5}},
     "scenario.accessibility_low"),
    ({"scenario": {"accessibility_high": 1.5}}, "scenario.accessibility_high"),
    ({"patient_loads": [2.5]}, "patient_loads"),
    ({"patient_loads": [True]}, "patient_loads"),
    ({"degradation_levels": [True]}, "degradation_levels"),
    ({"scenario": {"severity_alpha": 0}}, "scenario.severity_alpha"),
    ({"localization": {"outage_mean_duration": -1}}, "localization.outage_mean_duration"),
    ({"localization": {"kappa_gps": -1}}, "localization.kappa_gps"),
    ({"scenario": {"criticality_max": -1e308}}, "scenario.criticality_max"),
    ({"scenario": {"high_severity_threshold": "x"}}, "scenario.high_severity_threshold"),
    ({"localization": {"outage_rate_coeff": 1e6}}, "localization.outage_rate_coeff"),
    ({"localization": {"integrity_rate": 1e9}}, "localization.integrity_rate"),
    ({"platform": {"service_time": -3}}, "platform.service_time"),
    ({"platform": {"uncertainty_penalty": -5}}, "platform.uncertainty_penalty"),
    ({"platform": {"abort_grace": float("nan")}}, "platform.abort_grace"),
    ({"triage_weights": {"w_access": float("nan")}}, "triage_weights.w_access"),
    ({"triage_weights": {"w_access": -1}}, "triage_weights.w_access"),
    ({"platform": {"horizon": 1e300}}, "platform.horizon"),
    ({"localization": {"integrity_rate": 10**400}}, "localization.integrity_rate"),
    ({"triage_weights": {"w_access": 10**400}}, "triage_weights.w_access"),
    ({"scenario": {"base_position": [0, 10**400]}}, "scenario.base_position"),
    ({"localization": {"sigma_gps": 1e200}}, "localization.sigma_gps"),
    ({"patient_loads": [20000]}, "patient_loads"),
    ({"trials_per_condition": 2**32, "patient_loads": [1000], "degradation_levels": [0.0],
      "policies": ["pi2_auto"]}, "trials_per_condition"),
    ({"alpha": math.inf}, "alpha"),
    ({"beta": math.inf}, "beta"),
    # "inf" and "-inf" are a float key's infinities; no other string is a number.
    ({"alpha": "-inf"}, "alpha"),
    ({"master_seed": "inf"}, "master_seed"),
    ({"tau_c": "Infinity"}, "tau_c"),
    ({"platform": {"service_time": "nan"}}, "platform.service_time"),
    ({"platform": {"horizon": "inf"}}, "platform.horizon"),
    ({"scenario": {"base_position": ["inf", 0]}}, "scenario.base_position"),
])
def test_config_holes_exit_2_and_name_the_key(tmp_path, capsys, data, key):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))   # NaN is written as the JSON token NaN
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        code = run_cli(*command, "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key}:" in err
        assert "policies[0]" not in err
    assert not (tmp_path / "out").exists()


# One key of a two-missions-per-policy config set to an arbitrary JSON value.
_SHAPE = {"trials_per_condition": 2, "patient_loads": [2], "degradation_levels": [1.0]}
_KEYS = ["tau_c", "alpha", "beta", "operator_error_rate", "master_seed", "policies"] + [
    f"{section}.{name}" for section, value in config_to_dict(SweepConfig()).items()
    if isinstance(value, dict) for name in value]
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2**64, -2**64, 10**30, 10**400, 0, 1, -1]),
    st.floats(),   # NaN, the infinities and subnormals included
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
    st.text(max_size=4))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2))


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _assert_means_finite_where_samples_are(result):
    """Each mean of a summary or rollup of `result` is finite where every
    sample behind it is (its spread and interval may still pass the float
    range)."""
    conditions = result.config.conditions()
    cells, pooled = {}, {}
    for start, cell in result.trials.cells():
        condition = conditions[int(result.trials.condition[start])]
        policy = int(result.trials.policy[start])
        cells[policy, condition.delta, condition.patient_load] = cell
        pooled.setdefault(policy, []).append(cell)
    checks = [((s.delay.mean, s.rho.mean, s.r_fail.mean, s.workload.mean, s.mean_duration),
               cells[s.policy.index, s.delta, s.load]) for s in result.summaries]
    checks += [((r.t_int_mean, r.rho, r.r_fail, r.w_mean, r.mission_time),
                MetricColumns._make(map(np.concatenate, zip(*pooled[r.policy.index]))))
               for r in result.rollups]
    for means, cell in checks:
        samples = (cell.high_delays, cell.rho, cell.aborted, cell.workload, cell.duration)
        for mean, values in zip(means, samples):
            if len(values) and np.isfinite(values).all():
                assert math.isfinite(mean), (mean, values)


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(key=st.sampled_from(_KEYS), value=_JSON_VALUES)
@example(key="tau_c", value="inf")
@example(key="platform.service_time", value="inf")
@example(key="alpha", value="-inf")
@example(key="master_seed", value="inf")
@example(key="tau_c", value="Infinity")
@example(key="platform.horizon", value="nan")
def test_one_arbitrary_key_validates_and_runs_or_exits_2_naming_it(key, value):
    section, _, name = key.rpartition(".")
    data = {**_SHAPE, **({section: {name: value}} if section else {key: value})}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg, out, redo = Path(tmp) / "sweep.json", Path(tmp) / "out", Path(tmp) / "redo"
        cfg.write_text(json.dumps(data))
        err, echo, again = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(echo):
            code = run_cli("validate", "--config", str(cfg))
        assert code in (0, 2)
        if code == 2:
            assert f"{key}:" in err.getvalue()
            return
        with contextlib.redirect_stderr(err):
            assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0, err.getvalue()
            assert run_cli("report", "--in", str(out), "--out", str(redo)) == 0, err.getvalue()
            # The echo is strict JSON and a config file that echoes itself.
            json.loads(echo.getvalue(), parse_constant=_refuse_constant)
            cfg.write_text(echo.getvalue())
            with contextlib.redirect_stdout(again):
                assert run_cli("validate", "--config", str(cfg)) == 0, err.getvalue()
        assert again.getvalue() == echo.getvalue()
        for name in ("summary.json", "rollup.csv", "pareto.csv"):
            assert read(redo / name) == read(out / name), name
        config = config_from_dict(json.loads(echo.getvalue()))
        _assert_means_finite_where_samples_are(
            aggregate(config, cli.load_trials(out / "trials.csv", config)))


def test_every_config_field_declares_a_bound():
    for cls in (SweepConfig, PlatformParams, LocalizationParams, ScenarioParams,
                TriageWeights):
        for f in fields(cls):
            items = f.default if isinstance(f.default, tuple) else (f.default,)
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
                assert isinstance(f.metadata.get("bound"), Bound), f"{cls.__name__}.{f.name}"


def test_bool_policy_item_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"policies": [True]}))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert run_cli(*command, "--config", str(cfg)) == 2
        assert "policies[0]" in capsys.readouterr().err


def test_section_pair_items_are_echoed_as_written(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"scenario": {"base_position": [100, 200.5]}}))
    assert run_cli("validate", "--config", str(cfg)) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["scenario"]["base_position"] == [100, 200.5]
    assert isinstance(echoed["scenario"]["base_position"][0], int)


def test_list_items_are_checked_not_converted(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"patient_loads": [5, 2.5]}))
    assert run_cli("validate", "--config", str(cfg)) == 2
    assert "patient_loads[1]" in capsys.readouterr().err

    assert run_cli("validate", "--loads", "5") == 0
    expected = capsys.readouterr().out
    for loads in ([5], [5.0], ["5"]):
        cfg.write_text(json.dumps({"patient_loads": loads}))
        assert run_cli("validate", "--config", str(cfg)) == 0
        assert capsys.readouterr().out == expected


def test_trials_per_condition_must_fit_one_uint32_word(capsys):
    # 2**32 trials fit the word and meet the cap on a cell's patient slots instead.
    assert run_cli("validate", "--trials", str(2**32), "--loads", "1") == 2
    assert "patient slots per cell" in capsys.readouterr().err
    assert run_cli("validate", "--trials", str(2**32 + 1)) == 2
    assert "trials_per_condition: must be in [1, 4294967296]" in capsys.readouterr().err


def test_negative_seed_flag_fails_before_the_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", *FAST_FLAGS, "--seed", "-3", "--out", str(out))
    assert code == 2
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_the_manifests_config_object_is_a_config_file(tmp_path, capsys):
    flags = ["--tau-c", "inf", "--trials", "2", "--deltas", "0", "--loads", "5"]
    run = tmp_path / "run"
    assert run_cli("run", *flags, "--out", str(run)) == 0
    manifest = json.loads((run / "manifest.json").read_text(), parse_constant=_refuse_constant)
    assert manifest["config"]["tau_c"] == "inf"
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(manifest["config"]))
    capsys.readouterr()
    assert run_cli("validate", "--config", str(cfg)) == 0
    echoed = capsys.readouterr().out
    assert run_cli("validate", *flags) == 0
    assert capsys.readouterr().out == echoed
    # `report` reads the manifest back, and so it reads one an older writer
    # left, with the bare token Infinity.
    manifests = [(run / "manifest.json").read_text()]
    manifests.append(manifests[0].replace('"tau_c": "inf"', '"tau_c": Infinity'))
    assert manifests[1] != manifests[0]
    for text in manifests:
        (run / "manifest.json").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("report", "--in", str(run), "--out", str(tmp_path / "redo")) == 0
        for name in ("summary.json", "rollup.csv", "pareto.csv"):
            assert read(tmp_path / "redo" / name) == read(run / name), name


def test_validate_echo_parses_back(capsys):
    code = run_cli("validate", *FAST_FLAGS)
    assert code == 0
    echoed = json.loads(capsys.readouterr().out)
    config = config_from_dict(echoed)
    assert config.master_seed == 7
    assert config.degradation_levels == (0.0, 1.0)
    assert config_to_dict(config) == echoed


# ---------------------------------------------------------------------------
# Run emission.

def test_run_emits_all_files_and_consistent_counts(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out)) == 0
    for name in ("trials.csv", "summary.json", "rollup.csv", "pareto.csv",
                 "manifest.json"):
        assert (out / name).exists()
    trials = (out / "trials.csv").read_text().strip().splitlines()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trial_rows"] == len(trials) - 1 == 24
    assert manifest["total_missions"] == 24
    rollup = (out / "rollup.csv").read_text().strip().splitlines()
    assert len(rollup) - 1 == 3
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["cells"]) == 2 * 2 * 3


def test_rerunning_the_same_config_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out1)) == 0
    assert run_cli("run", *FAST_FLAGS, "--out", str(out2)) == 0
    for name in ("trials.csv", "summary.json", "rollup.csv", "pareto.csv",
                 "manifest.json"):
        assert read(out1 / name) == read(out2 / name)


def test_workers_do_not_change_the_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out1)) == 0
    assert run_cli("run", *FAST_FLAGS, "--out", str(out2), "--workers", "2") == 0
    for name in ("trials.csv", "summary.json", "rollup.csv", "pareto.csv"):
        assert read(out1 / name) == read(out2 / name)


def test_jsonl_format(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", *FAST_FLAGS, "--format", "jsonl", "--out", str(out)) == 0
    lines = (out / "trials.jsonl").read_text().strip().splitlines()
    assert len(lines) == 24
    row = json.loads(lines[0])
    assert row["policy"] == "pi1_teleop"
    assert (out / "rollup.jsonl").exists()


def test_report_reproduces_the_run_summaries(tmp_path):
    out = tmp_path / "run"
    redo = tmp_path / "redo"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out)) == 0
    assert run_cli("report", "--in", str(out), "--out", str(redo)) == 0
    for name in ("summary.json", "rollup.csv", "pareto.csv"):
        assert read(out / name) == read(redo / name)


# One condition of load 3 with no integrity episode, so a horizon near the
# float range is under the cap on intervals per mission.
_ONE_CELL = {"patient_loads": (3,), "degradation_levels": (0.0,),
             "localization": LocalizationParams(integrity_rate=0.0)}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("extreme", [
    {},
    {"triage_weights": TriageWeights(urgency_timescale=5e-324)},
    {"platform": PlatformParams(service_time=1e308)},
    {"scenario_params": ScenarioParams(criticality_max=1.7e308, criticality_floor=1.7e308)},
    # Missions end at once: the rates are inf, and an alpha of 0 makes a
    # workload of 0 * inf, NaN.
    {"alpha": 0.0, "platform": PlatformParams(horizon=5e-324)},
    # Missions run to a horizon near the float range: every duration is
    # finite, and their mean must not overflow to inf.
    {**_ONE_CELL, "platform": PlatformParams(horizon=1.7e308, service_time=1.7e308)},
    {**_ONE_CELL, "platform": PlatformParams(horizon=1.7e308, cruise_speed=5e-324)},
    {**_ONE_CELL, "platform": PlatformParams(horizon=1.7e308, teleop_speed_factor=5e-324)},
    {**_ONE_CELL, "platform": PlatformParams(horizon=1.7e308, uncertainty_penalty=1.7e308)},
    {**_ONE_CELL, "platform": PlatformParams(horizon=1.7e308, reference_distance=5e-324)},
    # An infinite config value, which the manifest writes "inf" and `report` reads back.
    {**_ONE_CELL, "platform": PlatformParams(horizon=1.7e308, service_time=math.inf)},
])
def test_small_run_and_report_raise_no_warning(tmp_path, extreme, fmt):
    # A NaN from `inf * 0` or an empty quantile warns before it reaches a
    # report, and so does a kernel's overflow to the inf its scalar path
    # computes silently; as an error it fails here instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(SweepConfig(master_seed=7, trials_per_condition=3, **extreme),
                           workers=1)
        cli.emit_reports(result, fmt, tmp_path / "run")
        assert run_cli("report", "--in", str(tmp_path / "run"),
                       "--out", str(tmp_path / "redo"), "--format", fmt) == 0
    for name in ("summary.json", f"rollup.{fmt}", f"pareto.{fmt}"):
        assert read(tmp_path / "redo" / name) == read(tmp_path / "run" / name), name
    texts = [(tmp_path / "run" / name).read_text() for name in ("summary.json", "manifest.json")]
    if fmt == "jsonl":
        texts += [line for name in ("trials", "rollup", "pareto")
                  for line in (tmp_path / "run" / f"{name}.jsonl").read_text().splitlines()]
    for text in texts:   # strict JSON: no NaN, Infinity or -Infinity token
        json.loads(text, parse_constant=_refuse_constant)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_trials_file_reads_back_as_the_sweeps_table_to_the_bit(tmp_path, fmt):
    # Policies out of index order, so the sweep must key its cells itself.
    config = SweepConfig(trials_per_condition=3,
                         policies=(PolicyId.PI3_GEODT, PolicyId.PI1_TELEOP))
    result = run_sweep(config)
    cli.emit_reports(result, fmt, tmp_path)
    made, read = result.trials, cli.load_trials(tmp_path / f"trials.{fmt}", config)

    def bits(column):
        return column.view(np.int64) if column.dtype == float else column

    for name in ("policy", "condition", "trial"):
        assert np.array_equal(getattr(read, name), getattr(made, name)), name
    for name, got, want in zip(MetricColumns._fields, read.metrics, made.metrics):
        assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want)), name


def test_report_reads_a_jsonl_run(tmp_path):
    out = tmp_path / "run"
    redo = tmp_path / "redo"
    assert run_cli("run", *FAST_FLAGS, "--format", "jsonl", "--out", str(out)) == 0
    assert not (out / "trials.csv").exists()
    assert run_cli("report", "--in", str(out), "--out", str(redo),
                   "--format", "jsonl") == 0
    for name in ("summary.json", "rollup.jsonl", "pareto.jsonl"):
        assert read(out / name) == read(redo / name)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_report_rejects_a_table_that_disagrees_with_the_manifest(tmp_path, capsys, fmt):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", fmt, "--out", str(out)) == 0
    table = out / f"trials.{fmt}"
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(lines[:-1]))   # drop the last trial row
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    err = capsys.readouterr().err
    assert "trial_rows" in err
    assert "23 rows" in err


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("kept, named", [(("pi1_teleop", "pi2_auto"), "pi3_geodt"),
                                         ((), "pi1_teleop")])
def test_report_rejects_a_policy_with_no_row(tmp_path, capsys, fmt, kept, named):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", fmt, "--out", str(out)) == 0
    table = out / f"trials.{fmt}"
    lines = table.read_text().splitlines(keepends=True)
    head = 1 if fmt == "csv" else 0
    rows = [line for line in lines[head:] if any(policy in line for policy in kept)]
    table.write_text("".join(lines[:head] + rows))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["trial_rows"] = len(rows)   # the table agrees with the manifest
    (out / "manifest.json").write_text(json.dumps(manifest))
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert f"trials.{fmt}: policy: {named} has no row" in capsys.readouterr().err
    assert not (tmp_path / "redo").exists()


def test_unwritable_output_directory_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    code = run_cli("run", *FAST_FLAGS, "--out", str(blocker / "sub"))
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


def test_report_names_a_missing_trials_column(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out)) == 0
    table = out / "trials.csv"
    lines = table.read_text().splitlines()
    table.write_text("".join(",".join(line.split(",")[:5]) + "\n" for line in lines))
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    err = capsys.readouterr().err
    assert "trials.csv" in err
    assert "high_sev_ids" in err


def test_report_names_a_truncated_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out)) == 0
    (out / "manifest.json").write_text('{"bad": ')
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


_DEEP = "[" * 100_000 + "]" * 100_000   # nested past the JSON decoder's recursion limit


def test_a_deeply_nested_config_file_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(_DEEP)
    assert run_cli("validate", "--config", str(cfg)) == 2
    assert "config file: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name, kept, named", [
    ("manifest.json", 0, "manifest.json: invalid JSON"),
    ("trials.jsonl", 1, "trials.jsonl: row 2:"),
])
def test_a_deeply_nested_run_file_exits_2_naming_it(tmp_path, capsys, name, kept, named):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", "jsonl", "--out", str(out)) == 0
    lines = (out / name).read_text().splitlines(keepends=True)
    (out / name).write_text("".join(lines[:kept]) + _DEEP + "\n")
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert named in capsys.readouterr().err


def test_report_names_a_row_that_does_not_parse(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", "jsonl", "--out", str(out)) == 0
    table = out / "trials.jsonl"
    table.write_text(table.read_text()[:-20] + "\n")   # cut the last record short
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert "trials.jsonl: row 24:" in capsys.readouterr().err


def test_report_names_a_jsonl_record_without_a_column(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", "jsonl", "--out", str(out)) == 0
    table = out / "trials.jsonl"
    table.write_text(table.read_text().replace('"rho": ', '"rho_": '))
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert "trials.jsonl: row 1 has no rho column" in capsys.readouterr().err


def _edit_trial_row(table, fmt, edit):
    """Apply `edit` to the first trial row with two or more high-severity
    patients, given as a dict of column -> value; return the row number."""
    if fmt == "csv":
        with open(table, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            columns, rows = reader.fieldnames, list(reader)
    else:
        rows = [json.loads(line) for line in table.read_text().splitlines()]
    index = next(i for i, row in enumerate(rows) if ";" in row["high_sev_ids"])
    edit(rows[index])
    if fmt == "csv":
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    else:
        table.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return index + 1


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_report_names_a_row_whose_high_severity_lists_differ_in_length(
        tmp_path, capsys, fmt):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", fmt, "--out", str(out)) == 0

    def cut_one_delay(row):
        row["high_sev_delays"] = row["high_sev_delays"].rsplit(";", 1)[0]

    row_no = _edit_trial_row(out / f"trials.{fmt}", fmt, cut_one_delay)
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"trials.{fmt}: row {row_no}: high_sev_ids, high_sev_delays" in err
    assert not (tmp_path / "redo").exists()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("column, value", [
    ("aborted", "yes"), ("aborted", "True"), ("aborted", ""), ("aborted", "2"),
    ("high_sev_censored", "yes;0"), ("high_sev_censored", "1;true"),
])
def test_report_accepts_only_0_or_1_in_flag_columns(tmp_path, capsys, fmt, column, value):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", fmt, "--out", str(out)) == 0
    row_no = _edit_trial_row(out / f"trials.{fmt}", fmt,
                             lambda row: row.update({column: value}))
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"trials.{fmt}: row {row_no}: {column}: must be 0 or 1" in err


def _over_load(row):
    row["served"] = int(row["load"]) + 1


def _negative(row):
    row["served"] = -1


def _one_ulp_off(row):
    row["rho"] = repr(math.nextafter(float(row["rho"]), math.inf))


def _id_at_load(row):
    row["high_sev_ids"] = ";".join([str(row["load"]), *row["high_sev_ids"].split(";")[1:]])


def _negative_id(row):
    row["high_sev_ids"] = ";".join(["-1", *row["high_sev_ids"].split(";")[1:]])


def _unparsable(column, text):
    """An edit that puts `text` in place of the first entry of `column`."""
    def edit(row):
        row[column] = ";".join([text, *str(row[column]).split(";")[1:]])
    return edit


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("edit, message", [
    (_over_load, "served: {served} is outside [0, {load}]"),
    (_negative, "served: -1 is outside [0, {load}]"),
    (_one_ulp_off, "rho: {rho} is not served / load = "),
    (_id_at_load, "high_sev_ids: {load} is outside [0, {load})"),
    (_negative_id, "high_sev_ids: -1 is outside [0, {load})"),
    (_unparsable("duration", "x"), "duration: 'x' is not a valid float"),
    (_unparsable("served", "1.5"), "served: '1.5' is not a valid int"),
    (_unparsable("rho", ""), "rho: '' is not a valid float"),
    (_unparsable("high_sev_delays", "x"), "high_sev_delays: 'x' is not a valid float"),
    (_unparsable("high_sev_ids", "x"), "high_sev_ids: 'x' is not a valid int"),
])
def test_report_checks_served_rho_and_ids_against_the_load(tmp_path, capsys, fmt,
                                                           edit, message):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", fmt, "--out", str(out)) == 0
    edited = {}

    def apply(row):
        edit(row)
        edited.update(row)

    row_no = _edit_trial_row(out / f"trials.{fmt}", fmt, apply)
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert (f"trials.{fmt}: row {row_no}: " + message.format(**edited)
            in capsys.readouterr().err)
    assert not (tmp_path / "redo").exists()


@functools.lru_cache(maxsize=None)
def _two_policy_run():
    """The header, rows and config of a small two-policy run's trials.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli("run", *FAST_FLAGS, "--policies", "pi1_teleop,pi2_auto",
                       "--out", tmp) == 0
        with open(Path(tmp) / "trials.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        manifest = json.loads((Path(tmp) / "manifest.json").read_text())
    return header, rows, config_from_dict(manifest["config"])


_CELL_TEXTS = ["", "0", "1", "2", "-1", "3", "5", "99", "0.0", "-0.0", "0.5", "nan", "inf",
               "1e400", " 3", "3_0", "x", "0;1", "1;;2", ";", "1;0;1", "pi1_teleop",
               "pi2_auto", "pi3_geodt", "9" * 30]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_an_edited_table_loads_or_names_its_first_bad_row(data):
    header, rows, config = _two_policy_run()
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(header) - 1))
        other = rows[data.draw(st.integers(0, len(rows) - 1))]
        how = data.draw(st.sampled_from(["text", "value", "row"]))
        if how == "text":
            rows[i][j] = data.draw(st.sampled_from(_CELL_TEXTS))
        elif how == "value":   # another row's value in the same column
            rows[i][j] = other[j]
        else:
            rows[i] = list(other)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"

        def load(n):
            """load_trials on the header and the first `n` rows."""
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows[:n]])
            return cli.load_trials(path, config)

        try:
            table = load(len(rows))
        except cli.ConfigError as exc:
            named = re.match(r"trials\.csv: row (\d+): (\w+)", str(exc))
            assert named and named[2] in cli.TRIALS_COLUMNS, str(exc)
            row_no = int(named[1])
            load(row_no - 1)   # the rows before the one named hold no fault
            with pytest.raises(cli.ConfigError) as again:
                load(row_no)
            assert str(again.value) == str(exc)
        else:
            assert len(table) == len(rows)


# ---------------------------------------------------------------------------
# The bulk CSV reader and writer.

def test_a_fresh_trials_file_is_read_without_csv_reader(tmp_path, monkeypatch):
    # A fast path that quietly fell back would pass every other test.
    assert run_cli("run", *FAST_FLAGS, "--out", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    monkeypatch.setattr(cli.csv, "reader", refuse)
    table = cli.load_trials(tmp_path / "trials.csv", config_from_dict(manifest["config"]))
    assert len(table) == manifest["trial_rows"]


def test_report_tables_are_what_csv_writer_writes(tmp_path):
    # Their fields are policy and scope names, numbers and empty texts, none
    # of which csv.writer would quote, so joining them with "," is the same.
    result = run_sweep(SweepConfig(master_seed=7, trials_per_condition=3))
    cli.emit_reports(result, "csv", tmp_path)
    for name in ("trials.csv", "rollup.csv", "pareto.csv"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        again = io.StringIO()
        csv.writer(again, lineterminator="\n").writerows(
            line.split(",") for line in text.splitlines())
        assert again.getvalue() == text, name


@functools.lru_cache(maxsize=None)
def _small_trials_text():
    """A small two-policy run's trials.csv text and config."""
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli("run", *FAST_FLAGS, "--policies", "pi1_teleop,pi2_auto",
                       "--out", tmp) == 0
        text = (Path(tmp) / "trials.csv").read_text(encoding="utf-8")
        manifest = json.loads((Path(tmp) / "manifest.json").read_text())
    return text, config_from_dict(manifest["config"])


_LIST_COLUMNS = [cli.TRIALS_COLUMNS.index(c)
                 for c in ("high_sev_ids", "high_sev_delays", "high_sev_censored")]


def _edit_lines(data, lines: list[str]) -> list[str]:
    """One drawn edit of a trials file's `lines` (line ends dropped)."""
    limit = csv.field_size_limit()
    i = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(",")
    j = data.draw(st.integers(0, len(fields) - 1))
    how = data.draw(st.sampled_from([
        "insert", "break", "quote", "blank", "short", "long", "wide", "repeat", "list", "huge"]))
    if how == "insert":   # a quote, CR, NUL or list separator
        k = data.draw(st.integers(0, len(lines[i])))
        char = data.draw(st.sampled_from(['"', "\r", "\0", ";"]))
        lines[i] = lines[i][:k] + char + lines[i][k:]
    elif how == "break":   # a character splitlines breaks at, where the row stays as wide
        char = data.draw(st.sampled_from(["\x0b", "\x1c", "\u2028"]))
        lines[i] = data.draw(st.sampled_from([char + lines[i], lines[i] + char]))
    elif how == "quote":   # a quoted field, maybe holding a comma or a line break
        inner = data.draw(st.sampled_from(["", ",", "\n", '""']))
        fields[j] = f'"{fields[j]}{inner}"'
        lines[i] = ",".join(fields)
    elif how == "blank":
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    elif how == "short":
        lines[i] = ",".join(fields[:j])
    elif how == "long":
        lines[i] += "," * data.draw(st.integers(1, 3))
    elif how == "wide":   # a long row whose line passes the limit, no field of it
        lines[i] += ("," + "7" * 1000) * (limit // 1000 + 1)
    elif how == "repeat":   # a header name again at the end; the last one counts
        name = data.draw(st.sampled_from(cli.TRIALS_COLUMNS))
        k = cli.TRIALS_COLUMNS.index(name)
        values = [(line.split(",")[k:] or [""])[0] for line in lines[1:]]   # "" if short
        values = [data.draw(st.sampled_from([value, *_CELL_TEXTS])) for value in values]
        lines[:] = [lines[0] + "," + name,
                    *(line + "," + value for line, value in zip(lines[1:], values))]
    elif how == "list":   # empty entries in a list cell
        j = data.draw(st.sampled_from(_LIST_COLUMNS))
        fields += [""] * (j + 1 - len(fields))   # a short row gets as far as the column
        fields[j] = data.draw(st.sampled_from([";" + fields[j], fields[j] + ";", ";;",
                                               fields[j].replace(";", ";;"), ";"]))
        lines[i] = ",".join(fields)
    else:   # one field past csv.field_size_limit()
        fields[j] = "9" * (limit + 1)
        lines[i] = ",".join(fields)
    return lines


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_bulk_reader_reads_what_csv_reader_reads(data):
    text, config = _small_trials_text()
    lines = text.split("\n")[:-1]
    for _ in range(data.draw(st.integers(0, 3))):
        lines = _edit_lines(data, lines)
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + end for line in lines)
    if data.draw(st.booleans()):
        text = text[:-len(end)]   # no final line end
    if data.draw(st.integers(0, 19)) == 0:
        text = ""

    def load(path) -> tuple:
        """The columns of the table read, floats as their bits, or the error."""
        try:
            table = cli.load_trials(path, config)
        except cli.ConfigError as exc:
            return ("error", str(exc))
        columns = [table.policy, table.condition, table.trial, *table.metrics]
        return tuple((c.dtype.str, c.view(np.int64).tolist() if c.dtype == float
                      else c.tolist()) for c in columns)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"
        path.write_bytes(text.encode("utf-8"))
        bulk = load(path)
        with mock.patch.object(cli, "_plain_fields", lambda text: None):
            assert load(path) == bulk


def test_a_repeated_trials_column_reads_its_last_copy(tmp_path):
    text, config = _small_trials_text()
    lines = text.split("\n")[:-1]
    path = tmp_path / "trials.csv"
    path.write_text("".join(line + ("," + ("trial" if i == 0 else "99")) + "\n"
                            for i, line in enumerate(lines)), encoding="utf-8")
    with pytest.raises(cli.ConfigError, match=r"row 1: trial: 99 is outside \[0, 2\)"):
        cli.load_trials(path, config)


_LIST_TEXTS = st.lists(st.sampled_from(["", "0", "1", "17", "x", "2.5"]), max_size=4).map(";".join)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_LIST_TEXTS, max_size=8))
def test_list_cells_split_into_their_nonempty_entries(texts):
    counts, entries = cli._split_lists(texts)
    parts = [[x for x in text.split(";") if x] for text in texts]
    assert counts.dtype == np.int64 and counts.tolist() == list(map(len, parts))
    assert entries == [x for part in parts for x in part]


def test_a_trials_file_that_is_not_utf8_names_the_row_csv_reader_stops_at(tmp_path):
    config = SweepConfig(master_seed=7, trials_per_condition=3)
    cli.emit_reports(run_sweep(config), "csv", tmp_path)
    path = tmp_path / "trials.csv"
    data = path.read_bytes()
    at = data.index(b"\n", len(data) // 2) + 1   # the first byte of a row past a read chunk
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        with pytest.raises(UnicodeDecodeError) as stop:
            for row in reader:
                rows += bool(row)
    assert rows > 0
    with pytest.raises(cli.ConfigError) as exc:
        cli.load_trials(path, config)
    assert str(exc.value) == f"trials.csv: row {rows + 1}: {stop.value}"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("column, value", [
    ("policy", "pi3_geodt"), ("policy", "pi9"), ("condition", "9"), ("condition", "-1"),
    ("delta", "0.5"), ("load", "-3"), ("trial", "2"), ("trial", "-1"),
    ("trial", "9" * 30), ("load", "9" * 30),
])
def test_report_rejects_a_row_that_is_no_trial_of_the_run(tmp_path, capsys, fmt,
                                                          column, value):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--policies", "pi1_teleop,pi2_auto",
                   "--format", fmt, "--out", str(out)) == 0
    row_no = _edit_trial_row(out / f"trials.{fmt}", fmt,
                             lambda row: row.update({column: value}))
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"trials.{fmt}: row {row_no}: {column}: " in err
    assert value in err   # as written: an int past int64 is not clipped
    assert not (tmp_path / "redo").exists()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_report_rejects_a_trial_that_appears_twice(tmp_path, capsys, fmt):
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", fmt, "--out", str(out)) == 0
    trials = []

    def swap_trial(row):
        trials.append(int(row["trial"]))
        row["trial"] = 1 - trials[0]   # the cell's other trial, of two

    row_no = _edit_trial_row(out / f"trials.{fmt}", fmt, swap_trial)
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    # Rows are in trial order within a cell, so the later copy is named.
    later = row_no + 1 if trials[0] == 0 else row_no
    assert (f"trials.{fmt}: row {later}: trial: {1 - trials[0]} of condition"
            in capsys.readouterr().err)
