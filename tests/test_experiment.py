"""Sweep orchestration and the statistics kernels."""

import concurrent.futures
import dataclasses
import functools
import math
import os
import pickle
import random
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import medmission.engine as engine
import medmission.experiment as experiment
import medmission.scenario as scenario_module
from medmission import (
    PlatformParams,
    PolicyId,
    ScenarioParams,
    StreamPurpose,
    SweepConfig,
    boxplot_stats,
    confidence_interval,
    derive_stream,
    generate_scenario,
    pareto_front,
    quantiles,
    run_mission,
    run_sweep,
    trial_metrics,
)
from medmission.cli import emit_reports, load_trials, main
from medmission.metrics import (
    TABLE_COLUMNS,
    DelayRecord,
    MetricColumns,
    TrialMetrics,
    failure_rate,
)

SMALL = SweepConfig(degradation_levels=(0.0, 0.5), patient_loads=(3, 6),
                    trials_per_condition=2)


def pt(x, y):
    return SimpleNamespace(x=x, y=y)


# ---------------------------------------------------------------------------
# Sweep mechanics.

def test_sweep_produces_one_record_per_cell_trial_and_policy():
    result = run_sweep(SMALL)
    assert len(result.records) == 2 * 2 * 3 * 2 == SMALL.total_missions
    per_cell = {}
    for rec in result.records:
        per_cell.setdefault((rec.condition_id, rec.policy), []).append(rec.trial)
    assert all(sorted(trials) == [0, 1] for trials in per_cell.values())


def test_single_trial_cell_summary_equals_the_trial():
    config = SweepConfig(degradation_levels=(0.25,), patient_loads=(6,),
                         policies=(PolicyId.PI2_AUTO,), trials_per_condition=1)
    result = run_sweep(config)
    assert len(result.records) == 1
    rec = result.records[0].metrics
    summary = result.summaries[0]
    assert summary.n_trials == 1
    assert summary.rho.mean == pytest.approx(rec.rho)
    assert summary.workload.mean == pytest.approx(rec.workload)
    assert summary.mean_duration == pytest.approx(rec.duration)
    delays = [d.delay for d in rec.high_severity_delays]
    if delays:
        assert summary.delay.mean == pytest.approx(float(np.mean(delays)))


def test_parallel_and_serial_sweeps_are_identical():
    serial = run_sweep(SMALL, workers=1)
    parallel = run_sweep(SMALL, workers=2)
    assert serial.records == parallel.records
    assert serial.summaries == parallel.summaries
    assert serial.rollups == parallel.rollups
    assert serial.front_pooled == parallel.front_pooled


@pytest.mark.parametrize("cpus, size", [(1000, 12), (3, 3), (None, 1)])
def test_pool_asks_for_no_more_workers_than_cells(monkeypatch, cpus, size):
    # At most one worker per task (SMALL has 12 cells of one block) and per CPU.
    asked = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # run_sweep imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
    pooled = run_sweep(SMALL, workers=100_000)
    serial = run_sweep(SMALL, workers=1)
    assert len(SMALL.conditions()) * len(SMALL.policies) == 12
    assert asked == [size]
    assert pooled.records == serial.records
    assert pooled.summaries == serial.summaries
    assert pooled.rollups == serial.rollups


def test_the_table_dtypes_hold_every_value_the_caps_allow():
    dtypes = MetricColumns.DTYPES
    assert np.iinfo(dtypes["policy"]).max >= len(PolicyId) - 1
    for name in ("condition", "trial"):
        assert np.iinfo(dtypes[name]).max >= experiment.MAX_SWEEP_MISSIONS, name
    for name in ("served", "high_count", "high_ids"):
        assert np.iinfo(dtypes[name]).max >= experiment.MAX_PATIENT_LOAD, name


def test_a_serial_sweep_loads_no_process_pool():
    probe = ("import sys\n"
             "from medmission import SweepConfig, run_sweep\n"
             "run_sweep(SweepConfig(trials_per_condition=2, patient_loads=(5,)))\n"
             "print('multiprocessing' in sys.modules)")
    src = str(Path(experiment.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_the_default_cells_ship_only_their_metric_columns():
    # A pool worker pickles its cell back to the parent, which keys the rows;
    # a per-row copy of a cell constant would show here.
    config = SweepConfig()
    # Each default cell is one trial block, from trial 0.
    cells = [experiment._run_cell(config, condition, policy, 0)
             for condition in config.conditions() for policy in config.policies]
    assert all(type(cell) is MetricColumns for cell in cells)
    assert sum(len(pickle.dumps(cell)) for cell in cells) <= 1_404_877   # 1,377,331 + 2%


_BLOCKED = SweepConfig(master_seed=7, degradation_levels=(0.0, 1.0), patient_loads=(3, 6),
                      trials_per_condition=7)


def _sweep_bytes(config: SweepConfig, workers: int) -> tuple:
    """A sweep's records, summaries and rollups, and the bytes of its five report files."""
    result = run_sweep(config, workers=workers)
    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_reports(result, "csv", tmp)
        files = {path.name: path.read_bytes() for path in paths}
    return result.records, result.summaries, result.rollups, files


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", [1, 3, experiment._TRIAL_BLOCK])
def test_trial_blocks_leave_no_trace_in_the_output(monkeypatch, block, workers):
    # Seven trials per cell run as blocks of 1, 3 (3 + 3 + 1) or one block.
    # The pool's workers are forked, so they see the patched block size.
    expected = _sweep_bytes(_BLOCKED, 1)
    monkeypatch.setattr(experiment, "_TRIAL_BLOCK", block)
    assert _sweep_bytes(_BLOCKED, workers) == expected


@pytest.mark.parametrize("policy", [PolicyId.PI1_TELEOP, PolicyId.PI3_GEODT])
def test_a_cells_tasks_hold_memory_that_does_not_grow_with_its_trials(policy):
    # One load-5 cell at delta 1, run block by block as the sweep runs it. Its
    # tracemalloc peak, less the columns the blocks return, is one block's:
    # run as one task, the teleop cell held 5.2 MB at 2,000 trials and 52 MB
    # at 20,000.
    transients = []
    for trials in (2_000, 20_000):
        config = SweepConfig(degradation_levels=(1.0,), patient_loads=(5,),
                             trials_per_condition=trials)
        condition = config.conditions()[0]
        tracemalloc.start()
        try:
            blocks = [experiment._run_cell(config, condition, policy, first)
                      for first in range(0, trials, experiment._TRIAL_BLOCK)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(block.duration) for block in blocks) == trials
        transients.append(peak - sum(column.nbytes for block in blocks for column in block))
    assert max(transients) < 1_000_000, transients
    assert transients[1] - transients[0] < 1_000_000, transients


def test_sweep_is_reproducible():
    a = run_sweep(SMALL)
    b = run_sweep(SMALL)
    assert a.records == b.records


def test_the_sweep_builds_no_mission_events(monkeypatch):
    config = SweepConfig(master_seed=7, trials_per_condition=2)
    expected = run_sweep(config).records

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a MissionEvent")

    monkeypatch.setattr(engine, "MissionEvent", refuse)
    assert run_sweep(config).records == expected


def test_the_sweep_builds_no_patient_or_scenario(monkeypatch):
    config = SweepConfig(master_seed=7, trials_per_condition=2)
    expected = run_sweep(config).records

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a Patient or a Scenario")

    monkeypatch.setattr(scenario_module, "Patient", refuse)
    monkeypatch.setattr(scenario_module, "Scenario", refuse)
    assert run_sweep(config).records == expected


def test_sweep_emit_and_report_build_no_per_mission_record(monkeypatch, tmp_path):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (experiment.TrialRecord, TrialMetrics, DelayRecord):
        monkeypatch.setattr(cls, "__init__", refuse)
    result = run_sweep(SweepConfig(), workers=1)
    emit_reports(result, "csv", tmp_path / "run")
    assert main(["report", "--in", str(tmp_path / "run"),
                 "--out", str(tmp_path / "redo")]) == 0


def test_aggregating_the_records_gives_the_sweep_aggregates(default_sweep):
    result, _ = default_sweep
    again = experiment.aggregate(result.config, result.records)
    assert again.summaries == result.summaries
    assert again.rollups == result.rollups
    assert again.pareto_condition == result.pareto_condition
    assert again.front_condition == result.front_condition
    assert again.pareto_pooled == result.pareto_pooled
    assert again.front_pooled == result.front_pooled
    assert again.records == result.records


def bits(values):
    """Float values as their bit patterns, anything else as it is."""
    values = np.asarray(values)
    return values.view(np.int64) if values.dtype == float else values


# Seed 7, 3 trials per condition, every load, level and policy.
SMALL_DEFAULT_SHAPED = SweepConfig(master_seed=7, trials_per_condition=3)


@pytest.mark.parametrize("config", [
    SMALL_DEFAULT_SHAPED,
    SweepConfig(alpha=1e308, trials_per_condition=3, degradation_levels=(0.5,),
                patient_loads=(5,)),
    SweepConfig(master_seed=7, trials_per_condition=3,
                platform=PlatformParams(horizon=5e-324)),
], ids=["small", "alpha_1e308", "subnormal_horizon"])
def test_a_rollup_is_the_summary_of_its_policys_trials_to_the_bit(config):
    result = run_sweep(config)
    for policy, rollup in zip(config.policies, result.rollups):
        trials = result.trials.metrics.take(np.flatnonzero(result.trials.policy == policy.index))
        summary = experiment._summarize_cell(policy, None, None, trials)
        delays = trials.high_delays
        # Each field as the summary gives it, and as the rollup once computed it.
        wants = {
            "t_int_mean": (summary.delay.mean, np.mean(delays) if len(delays) else math.nan),
            "rho": (summary.rho.mean, np.mean(trials.rho)),
            "r_fail": (summary.r_fail.mean, failure_rate(trials.aborted)),
            "w_mean": (summary.workload.mean, np.mean(trials.workload)),
            "mission_time": (summary.mean_duration, np.mean(trials.duration)),
            "n_trials": (summary.n_trials, len(trials.duration)),
        }
        for name, q in (("delay_median", 0.5), ("delay_p90", 0.9), ("delay_p95", 0.95)):
            wants[name] = (getattr(summary, name),
                           quantiles(delays, (q,))[0] if len(delays) else math.nan)
        for name, want in wants.items():
            got = getattr(rollup, name)
            assert np.array_equal(bits([got, got]), bits(want)), (policy, name, got, want)


def test_a_rollup_of_samples_near_the_float_limit_is_finite_without_a_warning():
    # np.mean of the pooled workloads overflowed to inf with a warning.
    config = SweepConfig(master_seed=7, trials_per_condition=3, alpha=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(config)
    assert all(math.isfinite(rollup.w_mean) for rollup in result.rollups)


def test_aggregating_a_table_without_a_policys_rows_names_the_policy():
    trials = run_sweep(SMALL).trials
    kept = trials.take(np.flatnonzero(trials.policy != PolicyId.PI2_AUTO.index))
    with pytest.raises(ValueError, match="pi2_auto"):
        experiment.aggregate(SMALL, kept)


def test_metric_columns_name_each_field_once_by_kind():
    # The declaration holds TrialTable's keys, then MetricColumns' fields, each
    # once. Every column but high_count has a header of its own, and the flat
    # columns, whose entries high_count counts, come right after it.
    names = [column.name for column in TABLE_COLUMNS]
    keys = [f.name for f in dataclasses.fields(experiment.TrialTable) if f.name != "metrics"]
    assert names == [*keys, *MetricColumns._fields]
    headers = [column.header for column in TABLE_COLUMNS]
    assert headers[names.index("high_count")] is None
    assert len(set(headers) - {None}) == len(names) - 1
    flat = [column.flat for column in TABLE_COLUMNS]
    assert flat == sorted(flat) and names[flat.index(True) - 1] == "high_count"


@functools.lru_cache(maxsize=None)
def _small_trials_lines():
    """The header and row lines of SMALL_DEFAULT_SHAPED's trials.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        emit_reports(run_sweep(SMALL_DEFAULT_SHAPED), "csv", tmp)
        header, *rows = (Path(tmp) / "trials.csv").read_text().splitlines(keepends=True)
    return header, rows


@settings(max_examples=60, deadline=None)
@given(shuffle=st.randoms(use_true_random=False), data=st.data())
def test_each_cell_of_a_read_back_table_is_a_view_of_its_rows(shuffle, data):
    header, rows = _small_trials_lines()
    rows = list(rows)
    shuffle.shuffle(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"
        path.write_text(header + "".join(rows[:data.draw(st.integers(1, len(rows)))]))
        table = load_trials(path, SMALL_DEFAULT_SHAPED)
    cells = table.cells()
    starts = [start for start, _ in cells]
    keys = [(table.condition[start], table.policy[start]) for start in starts]
    assert starts[0] == 0 and starts == sorted(starts) and len(set(keys)) == len(keys)
    for (start, cell), stop, (condition, policy) in zip(cells, [*starts[1:], len(table)], keys):
        assert (table.condition[start:stop] == condition).all()
        assert (table.policy[start:stop] == policy).all()
        want = table.metrics.take(np.arange(start, stop))
        for name, got, value, column in zip(MetricColumns._fields, cell, want, table.metrics):
            assert got.dtype == value.dtype and np.array_equal(bits(got), bits(value)), name
            assert got.size == 0 or np.shares_memory(got, column), name


def replayed_records(config):
    """Every trial rebuilt on its own through the public replay path."""
    records = []
    for condition in config.conditions():
        for policy in sorted(config.policies, key=lambda p: p.index):
            for trial in range(config.trials_per_condition):
                coords = (config.master_seed, condition.condition_id, trial, policy.index)
                scenario = generate_scenario(
                    condition, derive_stream(*coords, StreamPurpose.SCENARIO),
                    config.scenario_params)
                trace = run_mission(scenario, policy, config.platform,
                                    config.triage_weights,
                                    derive_stream(*coords, StreamPurpose.MISSION),
                                    config.localization, config.operator_error_rate,
                                    trial_index=trial)
                records.append(experiment.TrialRecord(
                    policy=policy, delta=condition.delta, load=condition.patient_load,
                    condition_id=condition.condition_id, trial=trial,
                    metrics=trial_metrics(trace, scenario, config.tau_c,
                                          config.alpha, config.beta)))
    return tuple(records)


@st.composite
def small_configs(draw):
    # A far-off base or a field near the largest float makes distances
    # overflow to inf, so walks rank infinite distances and break their ties.
    scenario = ScenarioParams(
        area_extent=draw(st.sampled_from([4000.0, 1.7e308])),
        base_position=draw(st.sampled_from([(0.0, 0.0), (4.0, 3.0),
                                            (-1.7e308, -1.7e308), (1e308, -1e308)])))
    return SweepConfig(
        master_seed=draw(st.integers(0, 2**64)),
        trials_per_condition=draw(st.integers(1, 4)),
        patient_loads=tuple(draw(st.lists(st.sampled_from([1, 2, 7, 40]),
                                          min_size=1, max_size=2, unique=True))),
        degradation_levels=tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                               min_size=1, max_size=2, unique=True))),
        policies=tuple(draw(st.permutations(list(PolicyId)))),
        operator_error_rate=draw(st.sampled_from([0.0, 0.15, 1.0])),
        # An infinite or tiny cruise speed makes infinite legs, and NaN ones
        # where an infinite distance meets an infinite speed. A short horizon
        # cuts missions that meet no outage; a zero threshold puts every
        # supervised mission over it from the start.
        platform=PlatformParams(
            cruise_speed=draw(st.sampled_from([500.0, 5e-324, math.inf])),
            horizon=draw(st.sampled_from([600.0, 25.0])),
            uncertainty_threshold=draw(st.sampled_from([400.0, 0.0]))),
        scenario_params=scenario)


@settings(max_examples=40, deadline=None)
@given(config=small_configs())
@example(config=SweepConfig(trials_per_condition=2))   # every default cell
def test_sweep_records_equal_the_trial_by_trial_replay(config):
    assert run_sweep(config).records == replayed_records(config)


@pytest.mark.parametrize("config", [
    SweepConfig(),
    # A subnormal cruise speed makes every teleop row's planned time infinite.
    SweepConfig(trials_per_condition=4, patient_loads=(3,), degradation_levels=(0.5, 1.0),
                platform=PlatformParams(cruise_speed=5e-324)),
], ids=["default", "infinite_legs"])
def test_the_sweep_runs_no_mission_loop(monkeypatch, config):
    # Every mission's outcome is computed as columns, NaN and infinite
    # planned times included: the scalar loop is the replay path only.
    simulate, calls = engine._simulate, []

    def counted(*args, **kwargs):
        calls.append(None)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(engine, "_simulate", counted)
    run_sweep(config)
    assert calls == []


def test_config_validation_names_the_offending_key():
    with pytest.raises(ValueError, match="degradation_levels"):
        SweepConfig(degradation_levels=(0.0, 1.5)).validate()
    with pytest.raises(ValueError, match="trials_per_condition"):
        SweepConfig(trials_per_condition=0).validate()
    with pytest.raises(ValueError, match="patient_loads"):
        SweepConfig(patient_loads=()).validate()
    with pytest.raises(ValueError, match="tau_c"):
        SweepConfig(tau_c=0.0).validate()


def test_a_runs_size_is_its_missions_intervals_and_slots():
    missions, intervals, slots = SweepConfig().run_size()
    assert missions == SweepConfig().total_missions == 15_000
    assert intervals == pytest.approx(3.48)   # at delta 1, over the 600-minute horizon
    assert slots == 15_000 // 4 * (5 + 10 + 20 + 40) + 15_000 * intervals
    assert round(slots) == 333_450
    # 20,000 missions at load 1000: `validate` refuses the slots `run_size` gives.
    sized = SweepConfig(trials_per_condition=4000, patient_loads=(1000,),
                        policies=(PolicyId.PI2_AUTO,))
    assert sized.run_size()[2] > experiment.MAX_SWEEP_SLOTS
    with pytest.raises(ValueError, match="patient slots, over the cap"):
        sized.validate()


def test_condition_enumeration_is_degradation_major():
    conditions = SweepConfig(degradation_levels=(0.0, 1.0),
                             patient_loads=(5, 10)).conditions()
    assert [(c.condition_id, c.delta, c.patient_load) for c in conditions] == [
        (0, 0.0, 5), (1, 0.0, 10), (2, 1.0, 5), (3, 1.0, 10)]


# ---------------------------------------------------------------------------
# Confidence intervals.

def test_ci_of_constant_samples_is_degenerate():
    lo, hi = confidence_interval([3.5] * 10)
    assert lo == hi == pytest.approx(3.5)


def test_ci_hand_computed_case():
    lo, hi = confidence_interval([1, 2, 3, 4, 5])
    assert lo == pytest.approx(1.037, abs=1e-3)
    assert hi == pytest.approx(4.963, abs=1e-3)


def test_ci_widens_with_an_outlier():
    lo1, hi1 = confidence_interval([1, 2, 3, 4, 5])
    lo2, hi2 = confidence_interval([1, 2, 3, 4, 50])
    assert hi2 - lo2 > hi1 - lo1


def test_ci_needs_two_samples():
    with pytest.raises(ValueError):
        confidence_interval([1.0])


def test_t_critical_is_scipy_stats_t_ppf_to_the_bit():
    from scipy import stats

    n = np.array([*range(2, 20_001), 2**31])
    for level in (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999):
        got = np.asarray(experiment.t_critical(n, level), dtype=float)
        want = stats.t.ppf(0.5 + level / 2.0, n - 1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), level


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    probe = "import sys, medmission.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(experiment.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_ci_rejects_bad_levels():
    with pytest.raises(ValueError):
        confidence_interval([1.0, 2.0], level=1.0)


def test_samples_near_the_float_limit_give_finite_statistics_without_a_warning():
    # Squaring their deviations overflowed: std=inf and an interval of +-inf.
    config = SweepConfig(alpha=1e308, trials_per_condition=3, degradation_levels=(0.5,),
                         patient_loads=(5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(config)
    (teleop,) = [s for s in result.summaries if s.policy is PolicyId.PI1_TELEOP]
    stats = teleop.workload
    assert stats.mean > 1e306   # the weight reaches the samples
    assert all(map(math.isfinite, (stats.mean, stats.std, stats.ci_lo, stats.ci_hi))), stats
    assert stats.ci_lo < stats.mean < stats.ci_hi


def test_a_subnormal_horizon_runs_emits_and_reports_without_a_warning(tmp_path):
    # Missions end at once, so the rates are inf: every workload sample is inf.
    config = SweepConfig(master_seed=7, trials_per_condition=3,
                         platform=PlatformParams(horizon=5e-324))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(config)
        emit_reports(result, "csv", tmp_path / "run")
        assert main(["report", "--in", str(tmp_path / "run"),
                     "--out", str(tmp_path / "redo")]) == 0
    for name in ("summary.json", "rollup.csv", "pareto.csv"):
        assert (tmp_path / "redo" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    for summary in result.summaries:
        assert np.isinf(summary.workload.mean)
        assert all(map(math.isnan, (summary.workload.std, summary.workload.ci_lo,
                                    summary.workload.ci_hi)))
        assert summary.workload_box == (math.inf,) * 5
        assert math.isfinite(summary.rho.mean) and math.isfinite(summary.rho.std)


@pytest.mark.parametrize("samples, mean", [
    ([1.0, math.inf, 2.0], math.inf),
    ([-math.inf, -math.inf], -math.inf),
    ([-math.inf, 0.0, math.inf], math.nan),
    ([1.0, math.nan, 3.0], math.nan),
])
def test_a_set_holding_inf_or_nan_has_its_mean_and_a_nan_spread_silently(samples, mean):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = experiment._t_stats(np.array(samples))
        interval = confidence_interval(samples)
    assert got[0] == mean or math.isnan(got[0]) and math.isnan(mean)
    assert all(map(math.isnan, got[1:] + interval))


@pytest.mark.parametrize("samples, qs, want", [
    ([math.inf] * 3, (0.0, 0.5, 1.0), (math.inf,) * 3),
    ([1.0, math.inf, math.inf], (0.0, 0.25, 0.5, 1.0), (1.0, math.inf, math.inf, math.inf)),
    ([3.0, 1.0, math.inf], (0.25, 0.5, 0.75), (2.0, 3.0, math.inf)),
    ([2.9, 2.9, 2.9, math.inf], (0.3,), (2.9,)),   # not 0.7 * 2.9 + 0.3 * 2.9
    ([-math.inf, 2.0, math.inf], (0.0, 0.25, 0.5, 0.75, 1.0),
     (-math.inf, -math.inf, 2.0, math.inf, math.inf)),
    ([-math.inf, math.inf], (0.0, 0.5, 1.0), (-math.inf, math.nan, math.inf)),
    ([1.0, math.nan], (0.0, 1.0), (math.nan, math.nan)),
])
def test_quantiles_of_a_set_holding_inf_or_nan_are_defined_silently(samples, qs, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quantiles(samples, qs)
    assert np.array_equal(np.array(got), np.array(want), equal_nan=True)


_MAGNITUDES = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(st.one_of(_MAGNITUDES, _MAGNITUDES.map(float.__neg__)),
                        min_size=2, max_size=40),
       shift=st.integers(520, 1010))
def test_a_set_scaled_by_a_power_of_two_has_its_statistics_scaled_to_the_bit(samples,
                                                                              shift):
    # The scaled set passes the threshold and is scaled back down; the
    # original is not. Past the float range a result reads as inf on both sides.
    arr, factor = np.array(samples), 2.0 ** shift
    got = experiment._t_stats(arr * factor)
    want = [value * factor for value in experiment._t_stats(arr)]
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


# ---------------------------------------------------------------------------
# Quantiles and boxplots.

def quantile_oracle(xs, q):
    s = sorted(xs)
    h = (len(s) - 1) * q
    lo, hi = math.floor(h), math.ceil(h)
    return s[lo] + (s[hi] - s[lo]) * (h - lo)


def test_quantile_interpolation_hand_case():
    (v,) = quantiles(list(range(1, 101)), [0.9])
    assert v == pytest.approx(90.1)


def test_median_of_three():
    (v,) = quantiles([1, 2, 3], [0.5])
    assert v == 2.0


def test_quantile_boundaries_are_min_and_max():
    lo, hi = quantiles([7.0, -2.0, 4.5], [0.0, 1.0])
    assert lo == -2.0
    assert hi == 7.0


def test_quantiles_match_the_sort_oracle_on_random_sets():
    rng = np.random.default_rng(67)
    for _ in range(1000):
        xs = list(rng.normal(0, 10, size=int(rng.integers(1, 40))))
        qs = [float(rng.uniform()) for _ in range(3)]
        got = quantiles(xs, qs)
        for g, q in zip(got, qs):
            assert g == pytest.approx(quantile_oracle(xs, q), abs=1e-9)


def test_quantiles_validation():
    with pytest.raises(ValueError):
        quantiles([], [0.5])
    with pytest.raises(ValueError):
        quantiles([1.0], [1.5])


def test_boxplot_of_a_single_sample():
    assert boxplot_stats([4.2]) == (4.2,) * 5


def test_boxplot_of_one_to_five():
    assert boxplot_stats([5, 3, 1, 4, 2]) == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_boxplot_is_ordered_on_random_inputs():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        xs = list(rng.normal(0, 5, size=int(rng.integers(1, 30))))
        lo, q1, med, q3, hi = boxplot_stats(xs)
        assert lo <= q1 <= med <= q3 <= hi


def test_boxplot_rejects_empty_input():
    with pytest.raises(ValueError):
        boxplot_stats([])


# ---------------------------------------------------------------------------
# Pareto front.

def front_oracle(points):
    out = []
    for p in points:
        dominated = any(q.x <= p.x and q.y <= p.y and (q.x < p.x or q.y < p.y)
                        for q in points)
        if not dominated:
            out.append(p)
    return out


def test_front_hand_case():
    a, b, c = pt(1, 1), pt(2, 2), pt(0.5, 3)
    assert pareto_front([a, b, c]) == [a, c]


def test_front_of_a_single_point():
    p = pt(3, 3)
    assert pareto_front([p]) == [p]


def test_duplicate_points_survive_together():
    a, b = pt(1, 1), pt(1, 1)
    assert pareto_front([a, b]) == [a, b]


def test_front_preserves_input_order():
    pts = [pt(3, 1), pt(1, 3), pt(2, 2), pt(5, 5)]
    assert pareto_front(pts) == [pt for pt in pts[:3]]


def test_front_matches_the_quadratic_oracle_on_random_sets():
    rng = np.random.default_rng(73)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        pts = [pt(float(rng.integers(0, 8)), float(rng.integers(0, 8)))
               for _ in range(n)]
        assert pareto_front(pts) == front_oracle(pts)


def test_front_rejects_empty_input():
    with pytest.raises(ValueError):
        pareto_front([])
