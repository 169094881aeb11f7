"""Command-line interface: config precedence, emission, and round trips."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from datetime import timedelta
from itertools import islice
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
from medmission import cli, experiment
from medmission.cli import config_from_dict, config_to_dict, main
from medmission.engine import _EPS
from medmission.experiment import MAX_PATIENT_LOAD, TrialTable, aggregate
from medmission.metrics import METRIC_COLUMNS, MetricColumns, written_rules
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


# Runs each field of which is in bounds, but which would ask for terabytes or
# hours; no test runs them. One cell of 2**22 missions, each expecting 9,600
# outage and integrity intervals that do not merge; 2**19 trials in each of
# 30 cells, 15,728,640 missions; and 4,179 trials at load 1000 in each of 249
# cells, 1,040,571 missions (under their cap) but 1,040,571,000 patients.
_OVERSIZED = [
    {"trials_per_condition": 2**22, "patient_loads": [1], "degradation_levels": [1.0],
     "policies": ["pi2_auto"],
     "localization": {"outage_rate_coeff": 8.0, "integrity_rate": 8.0,
                      "outage_mean_duration": 1e-6, "integrity_mean_duration": 1e-6}},
    {"trials_per_condition": 2**19, "patient_loads": [1, 2]},
    {"trials_per_condition": 4179, "patient_loads": [1000],
     "degradation_levels": [i / 82 for i in range(83)]},
]


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
    *((data, "trials_per_condition") for data in _OVERSIZED),
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


@pytest.mark.parametrize("data", _OVERSIZED)
def test_an_oversized_run_is_refused_before_anything_is_allocated(tmp_path, capsys, data):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert run_cli(*command, "--config", str(cfg)) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert capsys.readouterr().err.count("trials_per_condition:") == 2


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
    # 2**32 trials fit the word and meet the cap on a run's missions instead.
    assert run_cli("validate", "--trials", str(2**32), "--loads", "1") == 2
    assert "missions, over the cap" in capsys.readouterr().err
    assert run_cli("validate", "--trials", str(2**32 + 1)) == 2
    assert "trials_per_condition: must be in [1, 4294967296]" in capsys.readouterr().err


# Expected intervals count in the run's slots, each like one more patient:
# 830 levels of 421 trials under 3 policies at load 1 are 1,048,290 missions,
# under their cap, but expect 9,960 intervals each, 1.04e10 slots, about five
# hours of work. 5,000 trials at load 1000 are 5,002,400 slots, which run.
@pytest.mark.parametrize("data, code", [
    ({"degradation_levels": [i / 829 for i in range(830)], "patient_loads": [1],
      "trials_per_condition": 421, "localization": {"outage_rate_coeff": 16.6}}, 2),
    ({"trials_per_condition": 5000, "patient_loads": [1000], "degradation_levels": [0.0],
      "policies": ["pi2_auto"]}, 0),
])
def test_expected_intervals_count_in_the_runs_slots(tmp_path, capsys, data, code):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    assert run_cli("validate", "--config", str(cfg)) == code
    err = capsys.readouterr().err
    assert ("trials_per_condition:" in err and "patient slots, over the cap" in err) == bool(code)


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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2_and_name_the_key(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out), "--workers", workers) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


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
    # A horizon 4e-10 below the planned end: teleop counts the intervention
    # that ends within `engine._EPS` after it, so the row's uncensored delay
    # is above its duration and the horizon, and `report` must accept it.
    {"master_seed": 3, "trials_per_condition": 1, "patient_loads": (1,),
     "degradation_levels": (0.0,), "policies": (PolicyId.PI1_TELEOP,),
     "scenario_params": ScenarioParams(high_severity_threshold=0.0),
     "platform": PlatformParams(horizon=114.80928554496799)},
])
def test_small_run_and_report_raise_no_warning(tmp_path, extreme, fmt):
    # A NaN from `inf * 0` or an empty quantile warns before it reaches a
    # report, and so does a kernel's overflow to the inf its scalar path
    # computes silently; as an error it fails here instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(SweepConfig(**{"master_seed": 7, "trials_per_condition": 3,
                                          **extreme}), workers=1)
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


# A run in which no patient is high-severity, so no delay is measured: the
# rollup's delay columns are NaN and no condition or policy has a Pareto point.
_NO_HIGH_SEVERITY = {"scenario": {"high_severity_threshold": 1.0}, "trials_per_condition": 3,
                     "patient_loads": [2, 3], "degradation_levels": [0.0, 1.0]}
_NO_HIGH_SEVERITY_DIGESTS = {
    "csv": {
        "trials.csv": "28341ee7850c282d77e5274681149d0613167b8968fc94554d0d45edbbe25bd1",
        "summary.json": "06be2b8882dde9358daf0655c96478a2801fd90eefac212c03da0d832c23c734",
        "rollup.csv": "808397e8e2b26f2168c8e58b590e3b4d590eeae1eedb6ad2cdb6b3280ab61912",
        "pareto.csv": "336f08cfcd1b8bd7c384dc3d9fcb4661d78a2e25b60a01b61abb3e89c35e27e4",
        "manifest.json": "200e214f901ba227b2199137578fa799361b9bff6692eb248b522218343566cd",
    },
    "jsonl": {
        "trials.jsonl": "3f01ac21b73f08bc11a6652934c5f4630b4990772e7abc5f89339e28d8efeba7",
        "summary.json": "06be2b8882dde9358daf0655c96478a2801fd90eefac212c03da0d832c23c734",
        "rollup.jsonl": "1a892ea9084ca787523d2b303ba6b0098ce568b7d366c57e85ae3b037f9de635",
        "pareto.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "manifest.json": "200e214f901ba227b2199137578fa799361b9bff6692eb248b522218343566cd",
    },
}


@pytest.mark.parametrize("fmt", sorted(_NO_HIGH_SEVERITY_DIGESTS))
def test_a_run_without_high_severity_patients_has_no_pareto_row(tmp_path, fmt):
    cfg, out, redo = tmp_path / "sweep.json", tmp_path / "run", tmp_path / "redo"
    cfg.write_text(json.dumps(_NO_HIGH_SEVERITY))
    assert run_cli("run", "--config", str(cfg), "--out", str(out), "--format", fmt) == 0
    assert run_cli("report", "--in", str(out), "--out", str(redo), "--format", fmt) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == _NO_HIGH_SEVERITY_DIGESTS[fmt]
    for name in ("summary.json", f"rollup.{fmt}", f"pareto.{fmt}"):
        assert read(redo / name) == read(out / name), name
    pareto = (out / f"pareto.{fmt}").read_text()
    assert pareto == ("" if fmt == "jsonl" else "scope,policy,delta,load,x,y,size,on_front\n")
    if fmt == "csv":
        rollups = list(csv.DictReader(io.StringIO((out / "rollup.csv").read_text())))
    else:
        rollups = [json.loads(line) for line in (out / "rollup.jsonl").read_text().splitlines()]
    assert len(rollups) == 3
    for rollup in rollups:
        for name in ("t_int_mean", "delay_median", "delay_p90", "delay_p95"):
            assert rollup[name] == ("nan" if fmt == "csv" else None), name


_TABLE_COLUMNS = ["policy", "condition", "trial", *MetricColumns._fields]


def _columns(table: TrialTable) -> list[np.ndarray]:
    return [table.policy, table.condition, table.trial, *table.metrics]


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

    for name, got, want in zip(_TABLE_COLUMNS, _columns(read), _columns(made)):
        assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want)), name
    # Every column in its declared dtype, from the sweep, the reader and records.
    assert list(MetricColumns.DTYPES) == _TABLE_COLUMNS
    declared = [np.dtype(MetricColumns.DTYPES[name]) for name in _TABLE_COLUMNS]
    for table in (made, read, TrialTable.from_records(result.records),
                  TrialTable.from_records(())):
        assert [column.dtype for column in _columns(table)] == declared


def test_report_reads_a_jsonl_run(tmp_path):
    out = tmp_path / "run"
    redo = tmp_path / "redo"
    assert run_cli("run", *FAST_FLAGS, "--format", "jsonl", "--out", str(out)) == 0
    assert not (out / "trials.csv").exists()
    assert run_cli("report", "--in", str(out), "--out", str(redo),
                   "--format", "jsonl") == 0
    for name in ("summary.json", "rollup.jsonl", "pareto.jsonl"):
        assert read(out / name) == read(redo / name)


def test_report_refuses_a_directory_holding_both_trials_tables(tmp_path, capsys):
    # A CSV run, then a JSON-lines run of another seed into the same
    # directory: manifest.json is the second run's, trials.csv the first's.
    out, redo = tmp_path / "run", tmp_path / "redo"
    assert run_cli("run", *FAST_FLAGS, "--seed", "1", "--out", str(out)) == 0
    assert run_cli("run", *FAST_FLAGS, "--seed", "2", "--format", "jsonl",
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("report", "--in", str(out), "--out", str(redo)) == 2
    assert f"trials.csv and trials.jsonl: both are in {out}" in capsys.readouterr().err
    assert not redo.exists()


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


@pytest.mark.parametrize("rows", [True, 1.0, "1", None])
def test_report_requires_trial_rows_to_be_an_int(tmp_path, capsys, rows):
    out = tmp_path / "run"
    assert run_cli("run", "--trials", "1", "--deltas", "0", "--loads", "5",
                   "--policies", "pi1_teleop", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trial_rows"] == 1
    manifest["trial_rows"] = rows
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo")) == 2
    assert f"config error: trial_rows: must be an int, got {rows!r}" in capsys.readouterr().err
    assert not (tmp_path / "redo").exists()


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


@pytest.mark.parametrize("edit, named", [
    ({"duration": True}, "duration: 'true' is not a valid float"),
    ({"trial": False}, "trial: 'false' is not a valid int"),
    (dict.fromkeys(["high_sev_ids", "high_sev_delays", "high_sev_censored"], True),
     "high_sev_ids: 'true' is not a valid int"),
])
def test_report_reads_a_jsonl_bool_only_in_aborted(tmp_path, capsys, edit, named):
    # Read as 1 or 0, each edit would give a run that reports: a duration of
    # 1.0, trial 0 as written, or one censored patient 1 at 1.0.
    out = tmp_path / "run"
    flags = ["--trials", "2", "--loads", "5", "--deltas", "0", "--format", "jsonl"]
    assert run_cli("run", *flags, "--out", str(out)) == 0
    table = out / "trials.jsonl"
    records = [json.loads(line) for line in table.read_text().splitlines()]
    assert records[0]["trial"] == 0 and isinstance(records[0]["aborted"], bool)
    records[0].update(edit)
    table.write_text("".join(json.dumps(record) + "\n" for record in records))
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert f"trials.jsonl: row 1: {named}" in capsys.readouterr().err


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


def _served_past_int16(row):
    row["served"] = 70_000


def _one_ulp_off(row):
    row["rho"] = repr(math.nextafter(float(row["rho"]), math.inf))


def _workload_one_ulp_off(row):
    row["workload"] = repr(math.nextafter(float(row["workload"]), math.inf))


def _id_at_load(row):
    row["high_sev_ids"] = ";".join([str(row["load"]), *row["high_sev_ids"].split(";")[1:]])


def _negative_id(row):
    row["high_sev_ids"] = ";".join(["-1", *row["high_sev_ids"].split(";")[1:]])


def _entries(n):
    """An edit that lists patient 0 `n` times in a row's high-severity lists
    (under the CSV field limit), so only their count can be wrong."""
    def edit(row):
        row.update(high_sev_ids=";".join(["0"] * n), high_sev_delays=";".join(["1"] * n),
                   high_sev_censored=";".join(["0"] * n))
    return edit


def _unparsable(column, text):
    """An edit that puts `text` in place of the first entry of `column`."""
    def edit(row):
        row[column] = ";".join([text, *str(row[column]).split(";")[1:]])
    return edit


def _ids(texts):
    """An edit that lists the patients `texts` in a row's high-severity lists."""
    def edit(row):
        n = len(texts)
        row.update(high_sev_ids=";".join(texts), high_sev_delays=";".join(["1"] * n),
                   high_sev_censored=";".join(["0"] * n))
    return edit


def _each_entry(column, text):
    """An edit that puts `text` in place of every entry of `column`."""
    def edit(row):
        row[column] = ";".join([text] * len(str(row[column]).split(";")))
    return edit


def _both(*edits):
    """An edit that applies each of `edits` in turn."""
    def edit(row):
        for each in edits:
            each(row)
    return edit


def _late_then_censored(row):
    """An edit that makes a row's first delay uncensored and past its
    duration, and its second censored but not its duration."""
    delays, flags = row["high_sev_delays"].split(";"), row["high_sev_censored"].split(";")
    delays[:2], flags[:2] = [repr(float(row["duration"]) + 1.0), "1.0"], ["0", "1"]
    row.update(high_sev_delays=";".join(delays), high_sev_censored=";".join(flags))


# Text that no number parses as, in each declared number column of the file.
_NOT_NUMBERS = [(_unparsable(column.header, "x"),
                 f"{column.header}: 'x' is not a valid {column.parse.__name__}")
                for column in METRIC_COLUMNS if column.header and column.parse is not bool]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("edit, message", [
    (_over_load, "served: {served} is outside [0, {load}]"),
    (_negative, "served: -1 is outside [0, {load}]"),
    (_served_past_int16, "served: 70000 is outside [0, {load}]"),
    (_one_ulp_off, "rho: {rho} is not served / load = "),
    (_each_entry("lambda_sw", "-1.0"), "lambda_sw: -1.0 is outside [0, inf]"),
    (_each_entry("lambda_int", "nan"), "lambda_int: nan is outside [0, inf]"),
    (_each_entry("workload", "-1.0"),
     "workload: -1.0 is not alpha * lambda_sw + beta * lambda_int = "),
    (_workload_one_ulp_off,
     "workload: {workload} is not alpha * lambda_sw + beta * lambda_int = "),
    (_id_at_load, "high_sev_ids: {load} is outside [0, {load})"),
    (_negative_id, "high_sev_ids: -1 is outside [0, {load})"),
    (_unparsable("high_sev_ids", "65537"), "high_sev_ids: 65537 is outside [0, {load})"),
    (_entries(6), "high_sev_ids: 6 entries are more than load {load}"),
    # 40,000 would wrap the table's int16 count.
    (_entries(40_000), "high_sev_ids: 40000 entries are more than load {load}"),
    (_unparsable("served", "1.5"), "served: '1.5' is not a valid int"),
    (_unparsable("rho", ""), "rho: '' is not a valid float"),
    (_ids(["0", "0"]), "high_sev_ids: 0 after 0: a row's ids must ascend, none twice"),
    (_ids(["2", "0"]), "high_sev_ids: 0 after 2: a row's ids must ascend, none twice"),
    # A run ends by its horizon, 600.0 here, and a delay is at most its row's duration.
    (_each_entry("duration", "-5.0"), "duration: -5.0 is outside [0, 600.0]"),
    (_each_entry("duration", "nan"), "duration: nan is outside [0, 600.0]"),
    (_each_entry("duration", "inf"), "duration: inf is outside [0, 600.0]"),
    (_each_entry("duration", "600.5"), "duration: 600.5 is outside [0, 600.0]"),
    (_each_entry("high_sev_delays", "nan"), "high_sev_delays: nan is outside [0, 600.0]"),
    (_unparsable("high_sev_delays", "-1.0"), "high_sev_delays: -1.0 is outside [0, 600.0]"),
    (_unparsable("high_sev_delays", "inf"), "high_sev_delays: inf is outside [0, 600.0]"),
    # An uncensored delay ends by its row's duration, up to the kernels' `_EPS`.
    (_each_entry("high_sev_delays", "124.79"), "high_sev_delays: 124.79 is uncensored, so "
     "must be at most duration + 1e-09 - 0.0 = "),
    # A row that breaks two rules is named by the one checked first.
    (_both(_one_ulp_off, _each_entry("workload", "-1.0")), "rho: {rho} is not served / load = "),
    (_late_then_censored,
     "high_sev_delays: 1.0 is censored, so must be duration - 0.0 = {duration}"),
    *_NOT_NUMBERS,
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


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_report_checks_a_censored_delay_against_its_rows_duration(tmp_path, capsys, fmt):
    # A patient never reached waits until the mission ends: every patient is
    # detected at time 0, so a censored delay is the row's duration.
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--format", fmt, "--out", str(out)) == 0
    edited = {}

    def censor_all(row):
        row["high_sev_censored"] = ";".join(["1"] * len(row["high_sev_ids"].split(";")))
        edited.update(row)

    row_no = _edit_trial_row(out / f"trials.{fmt}", fmt, censor_all)
    duration = float(edited["duration"])
    delay = next(d for d in map(float, edited["high_sev_delays"].split(";")) if d != duration)
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert (f"trials.{fmt}: row {row_no}: high_sev_delays: {delay!r} is censored, so must be "
            f"duration - 0.0 = {duration!r}") in capsys.readouterr().err
    assert not (tmp_path / "redo").exists()


@pytest.mark.parametrize("block_bytes", [cli._BLOCK_BYTES, 1, 300])
def test_censored_delays_are_checked_up_to_a_row_whose_lists_differ(tmp_path, block_bytes):
    # Past a row whose high_sev_censored list is longer, the entries of the
    # delays and the flags no longer line up; every entry before it does.
    header, rows, config = _two_policy_run()
    rows = [list(row) for row in rows]
    flags = header.index("high_sev_censored")
    k = next(i for i, row in enumerate(rows) if ";" in row[flags])
    rows[k + 1][flags] = ";".join(filter(None, [rows[k + 1][flags], "1", "1"]))
    path = tmp_path / "trials.csv"

    def load():
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        with (mock.patch.object(cli, "_BLOCK_BYTES", block_bytes),
              pytest.raises(cli.ConfigError) as exc):
            cli.load_trials(path, config)
        return str(exc.value)

    assert load().startswith(f"trials.csv: row {k + 2}: high_sev_ids, high_sev_delays and "
                             "high_sev_censored hold")
    rows[k][flags] = ";".join(["1"] * len(rows[k][flags].split(";")))
    assert re.match(rf"trials\.csv: row {k + 1}: high_sev_delays: \S+ is censored", load())


def test_the_default_runs_durations_and_delays_pass_the_readers_range_checks(
        default_sweep, tmp_path):
    result, _ = default_sweep
    table, horizon = result.trials.metrics, result.config.platform.horizon
    assert ((table.duration >= 0.0) & (table.duration <= horizon)).all()
    row_duration = np.repeat(table.duration, table.high_count)
    assert ((table.high_delays >= 0.0) & (table.high_delays <= row_duration)).all()
    loads = np.array([condition.patient_load for condition in result.config.conditions()])
    _assert_keeps_written_rules(table, loads[result.trials.condition], result.config)
    cli.emit_reports(result, "csv", tmp_path)
    read = cli.load_trials(tmp_path / "trials.csv", result.config)
    assert np.array_equal(read.metrics.duration, table.duration)


def _assert_keeps_written_rules(columns: MetricColumns, loads, config: SweepConfig):
    """No mission of `columns`, at the patient loads `loads`, breaks a rule
    of `metrics.written_rules` for a run of `config`."""
    for bad, message, _ in written_rules(columns._asdict(), columns.high_count, loads,
                                         config.platform.horizon, config.alpha, config.beta):
        assert not bad.any(), message(int(bad.argmax()))


def _bits(column: np.ndarray) -> bytes:
    """The bytes of `column`, each NaN as `math.nan`: a NaN's text holds no
    sign or payload."""
    return (np.where(np.isnan(column), math.nan, column) if column.dtype == float
            else column).tobytes()


def _round_trip(config: SweepConfig) -> None:
    """Run `config`, holding each trial block to `metrics.written_rules` as
    the sweep makes it; then write the run in each format, read its table
    back to the bit and rebuild its summary files byte for byte, with
    warnings as errors."""
    run_cell = experiment._run_cell

    def held_cell(config, condition, policy, first):
        block = run_cell(config, condition, policy, first)
        _assert_keeps_written_rules(block, np.full(len(block.served), condition.patient_load),
                                    config)
        return block

    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(experiment, "_run_cell", held_cell):
            result = run_sweep(config)
        for fmt in cli.TABLE_FORMATS:
            out, redo = Path(tmp) / fmt, Path(tmp) / f"{fmt}-redo"
            cli.emit_reports(result, fmt, out)
            back = cli.load_trials(out / f"trials.{fmt}", config)
            for name, got, want in zip(_TABLE_COLUMNS, _columns(back), _columns(result.trials)):
                assert got.dtype == want.dtype and _bits(got) == _bits(want), (fmt, name)
            assert run_cli("report", "--in", str(out), "--out", str(redo), "--format", fmt) == 0
            for name in ("summary.json", f"rollup.{fmt}", f"pareto.{fmt}"):
                assert read(redo / name) == read(out / name), (fmt, name)


# Values at the edges of each range: a float range's ends, the smallest
# subnormal, one ulp in from 1, the kernels' `_EPS`, and values between.
_UNIT = st.sampled_from([0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0]) | st.floats(0.0, 1.0)
_SPAN = st.sampled_from([0.0, 5e-324, _EPS, 1.0, 600.0, 1e300, math.inf]) | st.floats(0.0, 1e3)
_POSITIVE = st.sampled_from([5e-324, _EPS, 1.0, 1e300]) | st.floats(1e-6, 1e6)
_RATE = st.sampled_from([0.0, 1e-3, 0.05, 1.0]) | st.floats(0.0, 1.0)
_WEIGHT = st.sampled_from([0.0, 5e-324, 1.0, 1e300]) | st.floats(0.0, 1e300)
# Keys of a whole config, drawn together; a rate of at most 1 over a horizon
# of at most 600 keeps each mission under 1,200 expected intervals.
_WHOLE_KEYS = {
    "platform.horizon": st.sampled_from([1e-3, 600.0]) | st.floats(1e-3, 600.0),
    "platform.cruise_speed": _POSITIVE | st.just(math.inf),
    "platform.service_time": _SPAN,
    "platform.abort_grace": _SPAN,
    "platform.comm_timeout_teleop": _SPAN,
    "platform.comm_timeout_auto": _SPAN,
    "platform.comm_timeout_dt": _SPAN,
    "platform.uncertainty_threshold": _SPAN,
    "platform.alert_suppression": _UNIT,
    "platform.assess_fraction": _UNIT,
    "platform.alert_handling_time": _SPAN,
    "localization.outage_rate_coeff": _RATE,
    "localization.outage_mean_duration": _POSITIVE,
    "localization.integrity_rate": _RATE,
    "localization.integrity_mean_duration": _POSITIVE,
    "scenario.high_severity_threshold": _UNIT,
    "scenario.area_extent": _POSITIVE,
    "tau_c": st.sampled_from([1e-6, _EPS, 60.0, math.inf]) | st.floats(1e-6, 1e3),
    "alpha": _WEIGHT,
    "beta": _WEIGHT,
    "operator_error_rate": _UNIT,
}


@settings(max_examples=300, deadline=None)
@given(keys=st.fixed_dictionaries({}, optional=_WHOLE_KEYS),
       seed=st.integers(0, 2**64), delta=_UNIT, load=st.integers(1, 7), trials=st.integers(1, 3))
def test_a_whole_config_round_trips_and_keeps_the_written_rules(keys, seed, delta, load, trials):
    data = {"master_seed": seed, "degradation_levels": [delta], "patient_loads": [load],
            "trials_per_condition": trials}
    for key, value in keys.items():
        section, _, name = key.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = value
    _round_trip(config_from_dict(data))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), policy=st.sampled_from(list(PolicyId)), delta=_UNIT,
       load=st.integers(1, 3))
def test_a_horizon_at_a_missions_own_end_round_trips(seed, policy, delta, load):
    # One mission, rerun with the horizon a few ulp or a few `_EPS` from where
    # it ends under the default horizon: an intervention that ends within
    # `_EPS` after the horizon counts, so its delay may pass the row's duration.
    config = SweepConfig(master_seed=seed, trials_per_condition=1, patient_loads=(load,),
                         degradation_levels=(delta,), policies=(policy,),
                         scenario_params=ScenarioParams(high_severity_threshold=0.0))
    below = above = end = float(run_sweep(config).trials.metrics.duration[0])
    horizons = {end, *(end + k * _EPS for k in (-2.0, -1.1, -1.0, -0.9, -0.4, 0.4, 1.0, 2.0))}
    for _ in range(3):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        horizons |= {below, above}
    for horizon in sorted(h for h in horizons if h > 0.0):
        _round_trip(replace(config, platform=replace(config.platform, horizon=horizon)))


def test_a_csv_field_past_the_field_limit_is_longer_than_any_a_run_writes(tmp_path, capsys):
    # At the load cap a list field holds at most that many floats, each at
    # most 24 characters and a separator.
    limit = csv.field_size_limit()
    assert MAX_PATIENT_LOAD * 25 < limit
    out = tmp_path / "run"
    assert run_cli("run", *FAST_FLAGS, "--out", str(out)) == 0
    row_no = _edit_trial_row(out / "trials.csv", "csv",
                             lambda row: row.update(high_sev_delays=";".join(["1.0"] * 40_000)))
    code = run_cli("report", "--in", str(out), "--out", str(tmp_path / "redo"))
    assert code == 2
    assert (f"trials.csv: row {row_no}: a field is over {limit} characters, longer than "
            "any a run writes") in capsys.readouterr().err


def test_loading_trials_under_a_config_past_a_cap_names_the_key(tmp_path):
    # Past the mission cap a trial index could pass its check and wrap in int32.
    config = SweepConfig(trials_per_condition=2**31 + 1, degradation_levels=(0.0,),
                         patient_loads=(5,), policies=(PolicyId.PI2_AUTO,))
    (tmp_path / "trials.csv").write_text(",".join(cli.TRIALS_COLUMNS) + "\n")
    with pytest.raises(ValueError, match="trials_per_condition"):
        cli.load_trials(tmp_path / "trials.csv", config)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_load_1000_table_at_its_caps_reads_back_to_the_bit(tmp_path, fmt):
    # A served count of 1000 and a patient id of 999 are the largest values
    # the int16 columns hold at the load cap.
    config = SweepConfig(master_seed=7, degradation_levels=(1.0,), patient_loads=(1000,),
                         policies=(PolicyId.PI2_AUTO,), trials_per_condition=2)
    made = run_sweep(config).trials
    served, rho, ids = (made.metrics.served.copy(), made.metrics.rho.copy(),
                        made.metrics.high_ids.copy())
    served[0], rho[0], ids[-1] = 1000, 1.0, 999   # the last mission's last id
    made = TrialTable(made.policy, made.condition, made.trial,
                      made.metrics._replace(served=served, rho=rho, high_ids=ids))
    cli.emit_reports(aggregate(config, made), fmt, tmp_path)
    read = cli.load_trials(tmp_path / f"trials.{fmt}", config)
    assert read.metrics.served[0] == 1000 and read.metrics.high_ids[-1] == 999
    for name, got, want in zip(_TABLE_COLUMNS, _columns(read), _columns(made)):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got.view(np.int64) if got.dtype == float else got,
                              want.view(np.int64) if want.dtype == float else want), name


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


# The block size, one row (any size up to a row's text) and a few rows of a
# small run's table (59 to 148 characters each), so that a block boundary
# falls anywhere in it.
_BLOCK_SIZES = st.sampled_from([cli._BLOCK_BYTES, 1, 150, 300, 600])

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
    block_bytes = data.draw(_BLOCK_SIZES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"

        def load(n):
            """load_trials on the header and the first `n` rows."""
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows[:n]])
            with mock.patch.object(cli, "_BLOCK_BYTES", block_bytes):
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


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_writing_a_cell_holds_one_trial_block_of_text_at_a_time(tmp_path, fmt):
    # One cell of 512 and of 5,120 trials: the writer renders a trial block
    # at a time, so its transient does not grow with the cell. Rendering the
    # whole 5,120-trial cell at once held 4.7 MB as CSV.
    transients = []
    for trials in (512, 5_120):
        result = run_sweep(SweepConfig(degradation_levels=(1.0,), patient_loads=(5,),
                                       policies=(PolicyId.PI2_AUTO,),
                                       trials_per_condition=trials))
        tracemalloc.start()
        try:
            cli.emit_reports(result, fmt, tmp_path / f"{fmt}{trials}")
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        transients.append(peak - current)
    assert max(transients) < 1_000_000, transients
    assert transients[1] - transients[0] < 200_000, transients


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

    block_bytes = data.draw(_BLOCK_SIZES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(cli, "_BLOCK_BYTES", block_bytes):
            bulk = load(path)
        with mock.patch.object(cli, "_plain_fields", lambda lines, width: None):
            assert load(path) == bulk   # csv.reader reads the whole file


_LOAD_1000_FLAGS = ["--deltas", "1", "--loads", "1000", "--policies", "pi2_auto",
                    "--trials", "4", "--seed", "7"]


@pytest.mark.parametrize("fmt, flags", [("csv", FAST_FLAGS), ("jsonl", FAST_FLAGS),
                                        ("csv", _LOAD_1000_FLAGS)],
                         ids=["csv", "jsonl", "load1000"])
def test_reading_a_table_holds_one_block_of_text_at_a_time(tmp_path, fmt, flags):
    # A run's rows, copied under new trial numbers to 2 and 10 blocks. A
    # load-1000 row holds about 3.7 KB of text and 300 list entries, each
    # parsed from its own `str`, so blocks sized in rows held 41 KB per such
    # row and grew with the table.
    out = tmp_path / "run"
    assert run_cli("run", *flags, "--format", fmt, "--out", str(out)) == 0
    config = config_from_dict(json.loads((out / "manifest.json").read_text())["config"])
    lines = (out / f"trials.{fmt}").read_text(encoding="utf-8").splitlines()
    head, body = (lines[:1], lines[1:]) if fmt == "csv" else ([], lines)
    trials = config.trials_per_condition

    def renumbered(line: str, copy: int) -> str:
        if fmt == "jsonl":
            record = json.loads(line)
            record["trial"] += copy * trials
            return json.dumps(record)
        values = line.split(",")
        k = cli.TRIALS_COLUMNS.index("trial")
        values[k] = str(int(values[k]) + copy * trials)
        return ",".join(values)

    transients, text = [], sum(len(line) + 1 for line in body)
    for blocks in (2, 10):
        copies = -(-blocks * cli._BLOCK_BYTES // text)
        path = tmp_path / f"trials{blocks}.{fmt}"
        path.write_text("".join(f"{line}\n" for line in head + [
            renumbered(line, copy) for copy in range(copies) for line in body]),
            encoding="utf-8")
        tracemalloc.start()
        try:
            table = cli.load_trials(path, replace(config, trials_per_condition=copies * trials))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == copies * len(body)
        columns = (table.policy, table.condition, table.trial, *table.metrics)
        transients.append(peak - sum(column.nbytes for column in columns))
    # About 8 to 13 bytes per character of a block (tracemalloc); the table's
    # own bytes grow fivefold between the two sizes.
    assert max(transients) < 16 * cli._BLOCK_BYTES, transients
    assert transients[1] - transients[0] < 1_000_000, transients


@pytest.mark.parametrize("block_bytes", [cli._BLOCK_BYTES, 1, 300])
def test_a_repeated_trial_is_named_before_its_later_checks(tmp_path, block_bytes):
    # The duplicate check reads every row, but it still comes after the trial
    # check and before the served check of the row it names.
    header, rows, config = _two_policy_run()
    served = header.index("served")
    later = [*rows[1], ""][:len(header)]
    later[served] = "99"
    path = tmp_path / "trials.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows[:5], later])
    with (mock.patch.object(cli, "_BLOCK_BYTES", block_bytes),
          pytest.raises(cli.ConfigError) as exc):
        cli.load_trials(path, config)
    assert re.fullmatch(r"trials\.csv: row 6: trial: \d+ of condition \d+ under pi\w+ "
                        r"appears twice", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("block_bytes", [cli._BLOCK_BYTES, 1, 300])
def test_a_repeated_trial_is_named_before_a_later_row_that_cannot_be_read(tmp_path,
                                                                          block_bytes):
    # The duplicate check runs on each block as it is read, so the reading
    # ends at the repeated row, before it reaches the byte that is not UTF-8.
    config = SweepConfig(master_seed=7, trials_per_condition=3)
    cli.emit_reports(run_sweep(config), "csv", tmp_path)
    path = tmp_path / "trials.csv"
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[1]   # row 2 repeats row 1's trial
    data = b"\n".join(lines)
    at = data.index(b"\n", len(data) // 2) + 1   # the first byte of a row past a read chunk
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with open(path, newline="", encoding="utf-8") as fh:
        assert len(list(islice(fh, 3))) == 3   # the byte is past the repeated row's chunk
    with (mock.patch.object(cli, "_BLOCK_BYTES", block_bytes),
          pytest.raises(cli.ConfigError) as exc):
        cli.load_trials(path, config)
    assert str(exc.value) == ("trials.csv: row 2: trial: 0 of condition 0 under pi1_teleop "
                              "appears twice")


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
    for block_bytes in (cli._BLOCK_BYTES, 1, 150, 300, 600):   # the byte anywhere in a block
        with (mock.patch.object(cli, "_BLOCK_BYTES", block_bytes),
              pytest.raises(cli.ConfigError) as exc):
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
