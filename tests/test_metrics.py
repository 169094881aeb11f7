"""Metric extraction and aggregation against hand-computed values."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from medmission import (
    Condition,
    MetricVector,
    MissionEvent,
    MissionTrace,
    Patient,
    PolicyId,
    Scenario,
    SweepConfig,
    aggregate_workload,
    dominates,
    failure_rate,
    intervention_delays,
    intervention_frequency,
    metric_vector,
    served_within_window,
    task_switch_rate,
    trial_metrics,
    workload,
)
from medmission.engine import (
    ABORT,
    ARRIVE,
    COMPLETE,
    INTERVENE,
    OPERATOR_INTERVENTION,
    TASK_SWITCH,
)
from medmission.experiment import _run_cell
from medmission.metrics import (
    DelayRecord,
    MetricColumns,
    TrialMetrics,
    join_columns,
    outcome_columns,
)


def build_trace(event_specs, duration, aborted=False):
    events = []
    for spec in event_specs:
        time, kind = spec[0], spec[1]
        extra = spec[2] if len(spec) > 2 else None
        if kind == TASK_SWITCH:
            events.append(MissionEvent(time, kind, task_label=extra))
        else:
            events.append(MissionEvent(time, kind, patient_id=extra))
    return MissionTrace(policy=PolicyId.PI2_AUTO, condition=Condition(0, 0.0, 1),
                        trial_index=0, events=tuple(events), duration=duration,
                        aborted=aborted)


def build_scenario(severities):
    patients = tuple(
        Patient(i, (float(i), 0.0), s, 0.0, 240.0 * (1.0 - s) + 10.0, 1.0, s >= 0.7)
        for i, s in enumerate(severities))
    return Scenario(Condition(0, 0.0, len(patients)), patients, (0.0, 0.0), 4000.0)


def served_trace(times, duration=None, aborted=False):
    """Trace that arrives and intervenes each patient id at the given time."""
    specs = []
    for pid, t in times.items():
        specs.append((max(t - 0.5, 0.0), ARRIVE, pid))
        specs.append((t, INTERVENE, pid))
    specs.sort(key=lambda s: s[0])
    end = duration if duration is not None else (max(times.values()) if times else 0.0)
    specs.append((end, ABORT if aborted else COMPLETE))
    return build_trace(specs, end, aborted)


# ---------------------------------------------------------------------------
# Intervention delays.

def test_single_served_high_severity_patient():
    scenario = build_scenario([0.9])
    trace = served_trace({0: 30.0})
    got = intervention_delays(trace, scenario)
    assert got == (DelayRecord(0, 30.0, False),)


def test_delay_mean_by_hand():
    scenario = build_scenario([0.8, 0.9, 0.95])
    trace = served_trace({0: 10.0, 1: 20.0, 2: 30.0})
    got = intervention_delays(trace, scenario)
    assert [r.delay for r in got] == [10.0, 20.0, 30.0]
    assert sum(r.delay for r in got) / 3 == pytest.approx(20.0)


def test_unreached_high_severity_patient_is_censored_at_mission_end():
    scenario = build_scenario([0.9])
    trace = build_trace([(100.0, ABORT)], 100.0, aborted=True)
    got = intervention_delays(trace, scenario)
    assert got == (DelayRecord(0, 100.0, True),)


def test_low_severity_patients_are_excluded():
    scenario = build_scenario([0.2, 0.9])
    trace = served_trace({0: 5.0, 1: 12.0})
    got = intervention_delays(trace, scenario)
    assert got == (DelayRecord(1, 12.0, False),)


def test_no_high_severity_patients_gives_an_empty_sequence():
    scenario = build_scenario([0.1, 0.2])
    trace = served_trace({0: 5.0, 1: 12.0})
    assert intervention_delays(trace, scenario) == ()


# ---------------------------------------------------------------------------
# Service window.

def test_served_within_window_hand_case():
    scenario = build_scenario([0.5, 0.5, 0.5])
    trace = served_trace({0: 5.0, 1: 50.0, 2: 70.0})
    count, rho = served_within_window(trace, scenario, 60.0)
    assert count == 2
    assert rho == pytest.approx(2.0 / 3.0)


def test_no_interventions_no_service():
    scenario = build_scenario([0.5, 0.5])
    trace = build_trace([(10.0, COMPLETE)], 10.0)
    assert served_within_window(trace, scenario, 60.0) == (0, 0.0)


def test_window_boundary_is_inclusive():
    scenario = build_scenario([0.5])
    trace = served_trace({0: 60.0})
    count, _ = served_within_window(trace, scenario, 60.0)
    assert count == 1
    late = served_trace({0: 60.0 + 1e-9})
    count_late, _ = served_within_window(late, scenario, 60.0)
    assert count_late == 0


# ---------------------------------------------------------------------------
# Failure rate.

def test_failure_rate_published_scale():
    flags = [True] * 1810 + [False] * 8190
    assert failure_rate(flags) == pytest.approx(0.1810)


def test_failure_rate_zero():
    assert failure_rate([False] * 7) == 0.0


def test_failure_rate_half():
    assert failure_rate([True, False, True, False]) == 0.5


def test_failure_rate_rejects_empty_input():
    with pytest.raises(ValueError):
        failure_rate([])


# ---------------------------------------------------------------------------
# Task switching and intervention frequency.

def test_single_task_never_switches():
    trace = build_trace([(0.0, TASK_SWITCH, "monitor"), (50.0, COMPLETE)], 50.0)
    assert task_switch_rate(trace) == 0.0


def test_switch_rate_counts_label_changes():
    trace = build_trace([(0.0, TASK_SWITCH, "navigate"),
                         (40.0, TASK_SWITCH, "assess"),
                         (60.0, TASK_SWITCH, "navigate"),
                         (100.0, COMPLETE)], 100.0)
    assert task_switch_rate(trace) == pytest.approx(0.02)


def test_repeated_labels_do_not_count():
    trace = build_trace([(0.0, TASK_SWITCH, "monitor"),
                         (10.0, TASK_SWITCH, "monitor"),
                         (20.0, TASK_SWITCH, "monitor"),
                         (75.0, COMPLETE)], 75.0)
    assert task_switch_rate(trace) == 0.0


def test_zero_duration_rates_are_zero():
    trace = build_trace([(0.0, COMPLETE)], 0.0)
    assert task_switch_rate(trace) == 0.0
    assert intervention_frequency(trace) == 0.0


def test_intervention_frequency_hand_case():
    specs = [(10.0 * k, OPERATOR_INTERVENTION) for k in range(1, 5)]
    trace = build_trace(specs + [(200.0, COMPLETE)], 200.0)
    assert intervention_frequency(trace) == pytest.approx(0.02)


def test_intervention_frequency_is_count_based():
    a = build_trace([(5.0, OPERATOR_INTERVENTION), (5.0, OPERATOR_INTERVENTION),
                     (100.0, COMPLETE)], 100.0)
    b = build_trace([(1.0, OPERATOR_INTERVENTION), (99.0, OPERATOR_INTERVENTION),
                     (100.0, COMPLETE)], 100.0)
    assert intervention_frequency(a) == intervention_frequency(b)


# ---------------------------------------------------------------------------
# Workload.

def test_zero_weights_annihilate_workload():
    assert workload(5.0, 7.0, 0.0, 0.0) == 0.0


def test_workload_hand_case():
    assert workload(0.01, 0.01, 1.0, 1.0) == pytest.approx(0.02)


def test_workload_is_linear_in_the_rates():
    assert workload(0.02, 0.06, 1.0, 0.5) == pytest.approx(
        2.0 * workload(0.01, 0.03, 1.0, 0.5))


def test_workload_rejects_negative_weights():
    with pytest.raises(ValueError):
        workload(1.0, 1.0, -0.1, 1.0)


def test_aggregate_workload_single_and_mean():
    assert aggregate_workload([0.02]) == pytest.approx(0.02)
    assert aggregate_workload([0.01, 0.03]) == pytest.approx(0.02)


def test_aggregate_workload_is_permutation_invariant():
    xs = [0.05, 0.01, 0.04, 0.02]
    assert aggregate_workload(xs) == aggregate_workload(list(reversed(xs)))


def test_aggregate_workload_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate_workload([])


# ---------------------------------------------------------------------------
# Metric vector.

def _trial(delays, served, total, aborted, w, duration=100.0):
    return TrialMetrics(
        high_severity_delays=tuple(DelayRecord(i, d, False)
                                   for i, d in enumerate(delays)),
        served_count=served, total_patients=total, aborted=aborted,
        lambda_sw=0.0, lambda_int=0.0, workload=w, duration=duration)


def test_metric_vector_of_a_single_trial():
    trial = _trial([30.0], served=2, total=4, aborted=False, w=0.02)
    vec = metric_vector([trial])
    assert vec == MetricVector(30.0, 0.5, 0.0, 0.02)


def test_metric_vector_of_two_trials_by_hand():
    a = _trial([10.0, 20.0], served=1, total=4, aborted=False, w=0.01)
    b = _trial([40.0], served=3, total=4, aborted=True, w=0.03)
    vec = metric_vector([a, b])
    assert vec.t_int_mean == pytest.approx((10.0 + 20.0 + 40.0) / 3.0)
    assert vec.rho == pytest.approx((0.25 + 0.75) / 2.0)
    assert vec.r_fail == pytest.approx(0.5)
    assert vec.w_mean == pytest.approx(0.02)


def test_metric_vector_pooling_is_count_weighted():
    # Pooling the concatenation equals the delay-count-weighted combination.
    a = [_trial([4.0, 8.0], 1, 2, False, 0.0), _trial([6.0], 1, 2, False, 0.0)]
    b = [_trial([10.0], 2, 2, False, 0.0)]
    pooled = metric_vector(a + b).t_int_mean
    na, nb = 3, 1
    weighted = (metric_vector(a).t_int_mean * na
                + metric_vector(b).t_int_mean * nb) / (na + nb)
    assert pooled == weighted


def test_metric_vector_requires_trials_and_delays():
    with pytest.raises(ValueError):
        metric_vector([])
    with pytest.raises(ValueError):
        metric_vector([_trial([], 0, 2, False, 0.0)])


def test_metric_vector_components_stay_in_range():
    rng = np.random.default_rng(59)
    for _ in range(1000):
        trials = [
            _trial(list(rng.uniform(0.0, 600.0, size=rng.integers(1, 5))),
                   served=int(rng.integers(0, 5)), total=4,
                   aborted=bool(rng.uniform() < 0.3),
                   w=float(rng.uniform(0.0, 0.5)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        vec = metric_vector(trials)
        assert math.isfinite(vec.t_int_mean)
        assert 0.0 <= vec.rho <= 1.0
        assert 0.0 <= vec.r_fail <= 1.0
        assert math.isfinite(vec.w_mean)


# ---------------------------------------------------------------------------
# Dominance.

PUBLISHED = {
    "pi1": MetricVector(182.584, 0.0247, 0.1810, 0.0381),
    "pi2": MetricVector(50.947, 0.2209, 0.1224, 0.0440),
    "pi3": MetricVector(29.546, 0.1295, 0.0664, 0.0200),
}


def test_twin_policy_dominates_teleop_on_published_vectors():
    assert dominates(PUBLISHED["pi3"], PUBLISHED["pi1"])
    assert not dominates(PUBLISHED["pi1"], PUBLISHED["pi3"])


def test_twin_and_autonomy_are_incomparable_on_published_vectors():
    assert not dominates(PUBLISHED["pi3"], PUBLISHED["pi2"])
    assert not dominates(PUBLISHED["pi2"], PUBLISHED["pi3"])


def test_equal_vectors_do_not_dominate():
    v = MetricVector(10.0, 0.5, 0.1, 0.02)
    assert not dominates(v, v)


def test_dominance_is_a_strict_partial_order():
    rng = np.random.default_rng(61)
    vectors = [MetricVector(float(rng.uniform(0, 100)), float(rng.uniform()),
                            float(rng.uniform()), float(rng.uniform()))
               for _ in range(40)]
    # sprinkle duplicates and near-ties
    vectors += vectors[:5]
    for _ in range(1000):
        a, b, c = (vectors[int(rng.integers(len(vectors)))] for _ in range(3))
        assert not dominates(a, a)
        if dominates(a, b):
            assert not dominates(b, a)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


# ---------------------------------------------------------------------------
# Whole-bundle extraction.

def test_trial_metrics_reads_only_defined_event_kinds():
    scenario = build_scenario([0.9, 0.3])
    base_specs = [
        (0.0, TASK_SWITCH, "monitor"),
        (2.0, ARRIVE, 0), (3.0, INTERVENE, 0),
        (5.0, ARRIVE, 1), (6.0, INTERVENE, 1),
        (8.0, TASK_SWITCH, "assess"),
        (8.0, OPERATOR_INTERVENTION),
    ]
    plain = build_trace(base_specs + [(10.0, COMPLETE)], 10.0)
    # No-op metadata: a repeated task label just before the terminal event.
    padded = build_trace(base_specs + [(9.0, TASK_SWITCH, "assess"),
                                       (10.0, COMPLETE)], 10.0)
    a = trial_metrics(plain, scenario)
    b = trial_metrics(padded, scenario)
    assert a == b
    assert a.served_count == 2
    assert a.lambda_sw == pytest.approx(0.1)
    assert a.lambda_int == pytest.approx(0.1)
    assert a.workload == pytest.approx(0.2)
    assert a.high_severity_delays == (DelayRecord(0, 3.0, False),)


def test_outcome_columns_of_a_subnormal_duration_raise_no_warning():
    # The rates overflow to the inf that `trial_metrics` computes silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = outcome_columns(np.array([5e-324]), np.array([True]), np.array([3]),
                                  np.array([2]), np.full((1, 2), math.nan),
                                  np.array([[True, False]]))
    assert columns.lambda_sw[0] == columns.lambda_int[0] == columns.workload[0] == math.inf
    assert columns.high_delays.tolist() == [5e-324]


def test_join_columns_gives_back_a_split_cell_holding_one_joined_column_more():
    # The default protocol's twin cell at delta 1 and load 40, split as the
    # trials reader passes its blocks: an empty piece first, then the rest.
    config = SweepConfig()
    cell = _run_cell(config, config.conditions()[-1], PolicyId.PI3_GEODT, 0)
    tracemalloc.start()
    try:
        pieces = [MetricColumns._make(column.copy() for column in piece)
                  for piece in cell.split([0, 0, 1, 40, 100, 170, 250])]
        held = tracemalloc.get_traced_memory()[0]
        joined = join_columns(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pieces == []
    for name, got, want in zip(MetricColumns._fields, joined, cell):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    # Each column's pieces go before the next column is joined: a join that
    # held every piece to the end would hold all 38 KB of the cell beyond them.
    largest = max(column.nbytes for column in joined)
    assert peak - held <= largest * 3 // 2, (peak - held, largest)
