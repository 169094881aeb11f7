"""Acceptance suite: one test per acceptance criterion.

Criteria 1-3 and 6 run against a single shared sweep of the default
configuration (5 degradation levels x 4 patient loads x 3 policies x 250
trials). Every test prints a [PASS] line on success; a failed assertion
is the corresponding [FAIL].
"""

import math
from types import SimpleNamespace

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
    TriageWeights,
    aggregate_workload,
    confidence_interval,
    dominates,
    failure_rate,
    intervention_delays,
    intervention_frequency,
    metric_vector,
    order_heuristic,
    order_triage,
    pareto_front,
    quantiles,
    boxplot_stats,
    run_sweep,
    served_within_window,
    task_switch_rate,
    workload,
)
from medmission.cli import emit_reports
from medmission.engine import (
    ABORT,
    ARRIVE,
    COMPLETE,
    INTERVENE,
    OPERATOR_INTERVENTION,
    TASK_SWITCH,
)
from medmission.metrics import DelayRecord, TrialMetrics

REPORT_FILES = ("trials.csv", "summary.json", "rollup.csv", "pareto.csv",
                "manifest.json")


def rollup_of(result, policy):
    return next(r for r in result.rollups if r.policy is policy)


# ---------------------------------------------------------------------------
# Criterion 1: protocol reproduction and determinism.

def test_c1_protocol_reproduction(default_sweep, tmp_path):
    result, elapsed = default_sweep
    assert len(result.records) == 15_000, "default protocol must run 15,000 missions"
    assert elapsed < 120.0, f"single-worker sweep took {elapsed:.1f}s (budget 120s)"

    first, second, parallel = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    emit_reports(result, "csv", first)
    emit_reports(run_sweep(SweepConfig(), workers=1), "csv", second)
    emit_reports(run_sweep(SweepConfig(), workers=2), "csv", parallel)
    for name in REPORT_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            f"{name} differs between two serial runs"
        assert (first / name).read_bytes() == (parallel / name).read_bytes(), \
            f"{name} differs between 1-worker and 2-worker runs"
    print(f"\n[PASS] criterion 1: 15,000 missions in {elapsed:.1f}s, "
          "byte-identical across reruns and worker counts")


# ---------------------------------------------------------------------------
# Criterion 2: qualitative policy-rollup orderings.

def test_c2_policy_rollup_orderings(default_sweep):
    result, _ = default_sweep
    r1 = rollup_of(result, PolicyId.PI1_TELEOP)
    r2 = rollup_of(result, PolicyId.PI2_AUTO)
    r3 = rollup_of(result, PolicyId.PI3_GEODT)

    assert r3.t_int_mean < r2.t_int_mean < r1.t_int_mean
    assert r3.r_fail < r2.r_fail < r1.r_fail
    assert r3.w_mean < min(r1.w_mean, r2.w_mean)
    assert r2.rho > r3.rho > r1.rho
    assert r2.mission_time < r3.mission_time < r1.mission_time
    ratio = r1.t_int_mean / r2.t_int_mean
    assert ratio >= 2.0, f"delay ratio teleop/autonomy {ratio:.2f} < 2"
    print(f"\n[PASS] criterion 2: all rollup orderings hold "
          f"(delay ratio {ratio:.2f})")


# ---------------------------------------------------------------------------
# Criterion 3: tail behavior of high-severity delays.

def test_c3_delay_tails(default_sweep):
    result, _ = default_sweep
    r1 = rollup_of(result, PolicyId.PI1_TELEOP)
    r2 = rollup_of(result, PolicyId.PI2_AUTO)
    r3 = rollup_of(result, PolicyId.PI3_GEODT)

    assert r3.delay_p90 < r2.delay_p90
    assert r3.delay_p95 < r2.delay_p95
    assert r1.delay_p95 >= 2.0 * r2.delay_p95
    print(f"\n[PASS] criterion 3: P90/P95 tails ordered "
          f"(P95: {r3.delay_p95:.1f} < {r2.delay_p95:.1f}, "
          f"teleop {r1.delay_p95:.1f} >= 2x)")


# ---------------------------------------------------------------------------
# Criterion 4: dominance relations computed from the published summary table.

PUBLISHED = {
    "pi1": MetricVector(t_int_mean=182.584, rho=0.0247, r_fail=0.1810, w_mean=0.0381),
    "pi2": MetricVector(t_int_mean=50.947, rho=0.2209, r_fail=0.1224, w_mean=0.0440),
    "pi3": MetricVector(t_int_mean=29.546, rho=0.1295, r_fail=0.0664, w_mean=0.0200),
}


def test_c4_dominance_twin_over_teleop():
    assert dominates(PUBLISHED["pi3"], PUBLISHED["pi1"])
    assert not dominates(PUBLISHED["pi1"], PUBLISHED["pi3"])
    print("\n[PASS] criterion 4a: twin policy dominates teleop on published values")


def test_c4_dominance_twin_vs_autonomy_incomparable():
    assert not dominates(PUBLISHED["pi3"], PUBLISHED["pi2"])
    assert not dominates(PUBLISHED["pi2"], PUBLISHED["pi3"])
    print("\n[PASS] criterion 4b: twin and autonomy are incomparable "
          "(autonomy wins the service-rate component)")


def test_c4_dominance_autonomy_over_teleop():
    # Stated criterion: autonomy dominates teleop. The published values
    # themselves contradict it: the teleop workload component (0.0381) is
    # lower than autonomy's (0.0440), so component-wise dominance cannot
    # hold. The assertion is kept as stated; see the decisions ledger.
    assert dominates(PUBLISHED["pi2"], PUBLISHED["pi1"]), (
        "published workload 0.0440 (autonomy) > 0.0381 (teleop): "
        "autonomy does not dominate teleop component-wise")
    print("\n[PASS] criterion 4c: autonomy dominates teleop on published values")


# ---------------------------------------------------------------------------
# Criterion 5: metric operations against hand-computed values.

def _trace(event_specs, duration, aborted=False):
    events = []
    for spec in event_specs:
        time, kind = spec[0], spec[1]
        extra = spec[2] if len(spec) > 2 else None
        if kind == TASK_SWITCH:
            events.append(MissionEvent(time, kind, task_label=extra))
        else:
            events.append(MissionEvent(time, kind, patient_id=extra))
    events.append(MissionEvent(duration, ABORT if aborted else COMPLETE))
    return MissionTrace(policy=PolicyId.PI2_AUTO, condition=Condition(0, 0.0, 1),
                        trial_index=0, events=tuple(events), duration=duration,
                        aborted=aborted)


def _scenario(severities, detect_times=None):
    detect_times = detect_times or [0.0] * len(severities)
    patients = tuple(
        Patient(i, (float(i), 0.0), s, float(detect_times[i]),
                240.0 * (1.0 - s) + 10.0, 1.0, s >= 0.7)
        for i, s in enumerate(severities))
    return Scenario(Condition(0, 0.0, len(patients)), patients, (0.0, 0.0), 4000.0)


def _served(times, duration, aborted=False):
    specs = []
    for pid, t in sorted(times.items(), key=lambda kv: kv[1]):
        specs.append((t - 0.5, ARRIVE, pid))
        specs.append((t, INTERVENE, pid))
    return _trace(specs, duration, aborted)


def test_c5_metric_oracles():
    checked = 0

    def close(got, want):
        nonlocal checked
        checked += 1
        assert got == want or abs(got - want) <= 1e-12, f"{got} != {want}"

    # -- intervention delays (cases 1-5)
    d1 = intervention_delays(_served({0: 30.0}, 40.0), _scenario([0.9]))
    assert d1 == (DelayRecord(0, 30.0, False),); checked += 1
    d2 = intervention_delays(_served({0: 10.0, 1: 20.0, 2: 30.0}, 35.0),
                             _scenario([0.8, 0.9, 0.95]))
    close(sum(r.delay for r in d2) / 3, 20.0)
    d3 = intervention_delays(_trace([], 100.0, aborted=True), _scenario([0.9]))
    assert d3 == (DelayRecord(0, 100.0, True),); checked += 1
    d4 = intervention_delays(_served({0: 5.0, 1: 12.0}, 15.0), _scenario([0.2, 0.9]))
    assert d4 == (DelayRecord(1, 12.0, False),); checked += 1
    d5 = intervention_delays(_served({0: 30.0}, 40.0),
                             _scenario([0.9], detect_times=[5.0]))
    assert d5 == (DelayRecord(0, 25.0, False),); checked += 1

    # -- served within window (cases 6-9)
    c6 = served_within_window(_served({0: 5.0, 1: 50.0, 2: 70.0}, 80.0),
                              _scenario([0.5, 0.5, 0.5]), 60.0)
    assert c6 == (2, 2 / 3); checked += 1
    c7 = served_within_window(_trace([], 10.0), _scenario([0.5, 0.5]), 60.0)
    assert c7 == (0, 0.0); checked += 1
    c8 = served_within_window(_served({0: 60.0}, 70.0), _scenario([0.5]), 60.0)
    assert c8 == (1, 1.0); checked += 1
    c9 = served_within_window(_served({0: 60.0 + 1e-9}, 70.0), _scenario([0.5]), 60.0)
    assert c9 == (0, 0.0); checked += 1

    # -- failure rate (cases 10-12)
    close(failure_rate([True] * 1810 + [False] * 8190), 0.1810)
    close(failure_rate([False] * 4), 0.0)
    close(failure_rate([True, False, True, False]), 0.5)

    # -- task switching (cases 13-16)
    close(task_switch_rate(_trace([(0.0, TASK_SWITCH, "a")], 50.0)), 0.0)
    close(task_switch_rate(_trace([(0.0, TASK_SWITCH, "a"),
                                   (40.0, TASK_SWITCH, "b"),
                                   (60.0, TASK_SWITCH, "a")], 100.0)), 0.02)
    close(task_switch_rate(_trace([(0.0, TASK_SWITCH, "a"),
                                   (10.0, TASK_SWITCH, "a"),
                                   (20.0, TASK_SWITCH, "a")], 75.0)), 0.0)
    close(task_switch_rate(_trace([(0.0, TASK_SWITCH, "a"),
                                   (10.0, TASK_SWITCH, "b"),
                                   (20.0, TASK_SWITCH, "b"),
                                   (30.0, TASK_SWITCH, "a")], 100.0)), 0.02)

    # -- intervention frequency (cases 17-19)
    close(intervention_frequency(_trace([], 50.0)), 0.0)
    close(intervention_frequency(
        _trace([(t, OPERATOR_INTERVENTION) for t in (10.0, 20.0, 30.0, 40.0)],
               200.0)), 0.02)
    close(intervention_frequency(_trace([], 0.0)), 0.0)

    # -- workload (cases 20-23)
    close(workload(5.0, 7.0, 0.0, 0.0), 0.0)
    close(workload(0.01, 0.01, 1.0, 1.0), 0.02)
    close(workload(0.02, 0.04, 2.0, 0.5), 0.06)
    close(workload(0.02, 0.02, 1.0, 1.0), 2.0 * workload(0.01, 0.01, 1.0, 1.0))

    # -- aggregated workload (cases 24-25)
    close(aggregate_workload([0.02]), 0.02)
    close(aggregate_workload([0.01, 0.03]), 0.02)

    # -- metric vector (cases 26-27)
    t_a = TrialMetrics((DelayRecord(0, 10.0, False), DelayRecord(1, 20.0, False)),
                       served_count=1, total_patients=4, aborted=False,
                       lambda_sw=0.0, lambda_int=0.0, workload=0.01, duration=60.0)
    t_b = TrialMetrics((DelayRecord(0, 40.0, True),),
                       served_count=3, total_patients=4, aborted=True,
                       lambda_sw=0.0, lambda_int=0.0, workload=0.03, duration=40.0)
    v = metric_vector([t_a, t_b])
    close(v.t_int_mean, 70.0 / 3.0)
    assert v == MetricVector(70.0 / 3.0, 0.5, 0.5, 0.02); checked += 1

    assert checked >= 20
    print(f"\n[PASS] criterion 5: {checked} hand-computed metric checks matched")


# ---------------------------------------------------------------------------
# Criterion 6: failure-rate monotonicity in degradation.

def test_c6_degradation_monotonicity(default_sweep):
    result, _ = default_sweep
    grid = result.config.degradation_levels
    for policy in result.config.policies:
        rates = []
        for delta in grid:
            flags = [r.metrics.aborted for r in result.records
                     if r.policy is policy and r.delta == delta]
            assert len(flags) >= 250
            rates.append(failure_rate(flags))
        drops = [lo - hi for lo, hi in zip(rates, rates[1:]) if hi < lo]
        assert len(drops) <= 1, f"{policy.value}: rates {rates} invert twice"
        assert all(d <= 0.01 for d in drops), \
            f"{policy.value}: inversion larger than 0.01 in {rates}"
    print("\n[PASS] criterion 6: failure rate nondecreasing in degradation "
          "for every policy")


# ---------------------------------------------------------------------------
# Criterion 7: statistical kernels.

def test_c7_statistical_kernels():
    # CI calibration on synthetic Normal cells.
    rng = np.random.default_rng(101)
    mu, sigma, n = 3.0, 2.0, 20
    covered = 0
    reps = 10_000
    cells = rng.normal(mu, sigma, size=(reps, n))
    for row in cells:
        lo, hi = confidence_interval(row)
        covered += lo <= mu <= hi
    coverage = covered / reps
    assert abs(coverage - 0.95) <= 0.02, f"CI coverage {coverage:.4f}"

    # Quantiles and boxplots against a sort-based oracle.
    def quantile_oracle(xs, q):
        s = sorted(xs)
        h = (len(s) - 1) * q
        lo, hi = math.floor(h), math.ceil(h)
        return s[lo] + (s[hi] - s[lo]) * (h - lo)

    for _ in range(1000):
        xs = list(rng.normal(0.0, 10.0, size=int(rng.integers(1, 50))))
        for q, got in zip((0.5, 0.9, 0.95), quantiles(xs, (0.5, 0.9, 0.95))):
            assert abs(got - quantile_oracle(xs, q)) <= 1e-9
        box = boxplot_stats(xs)
        want = tuple(quantile_oracle(xs, q) for q in (0.0, 0.25, 0.5, 0.75, 1.0))
        assert all(abs(g - w) <= 1e-9 for g, w in zip(box, want))

    # Pareto front against the quadratic oracle.
    def front_oracle(points):
        return [p for p in points
                if not any(q.x <= p.x and q.y <= p.y and (q.x < p.x or q.y < p.y)
                           for q in points)]

    for _ in range(1000):
        pts = [SimpleNamespace(x=float(rng.integers(0, 10)),
                               y=float(rng.integers(0, 10)))
               for _ in range(int(rng.integers(1, 30)))]
        assert pareto_front(pts) == front_oracle(pts)

    print(f"\n[PASS] criterion 7: CI coverage {coverage:.3f}, quantile/boxplot "
          "and pareto kernels match their oracles")


# ---------------------------------------------------------------------------
# Criterion 8: ordering operations against brute-force oracles.

def _random_small_scenario(rng):
    n = int(rng.integers(1, 8))
    patients = tuple(
        Patient(i, (float(rng.uniform(0, 4000)), float(rng.uniform(0, 4000))),
                float(rng.uniform()), 0.0, float(rng.uniform(10.0, 250.0)),
                float(rng.uniform(0.2, 1.0)), False)
        for i in range(n))
    return Scenario(Condition(0, 0.0, n), patients, (0.0, 0.0), 4000.0)


def test_c8_policy_ordering_oracles():
    rng = np.random.default_rng(103)
    weights = TriageWeights()

    def nn_oracle(scenario):
        todo = {p.id: p.position for p in scenario.patients}
        at = scenario.base_position
        order = []
        while todo:
            pid = min(todo, key=lambda i: (math.dist(at, todo[i]), i))
            order.append(pid)
            at = todo.pop(pid)
        return tuple(order)

    def triage_oracle(scenario):
        scored = [(-(weights.w_severity * p.severity
                     + weights.w_urgency * math.exp(-p.time_to_criticality
                                                    / weights.urgency_timescale)
                     + weights.w_access * p.accessibility), p.id)
                  for p in scenario.patients]
        return tuple(pid for _, pid in sorted(scored))

    for _ in range(200):
        scenario = _random_small_scenario(rng)
        assert order_heuristic(scenario) == nn_oracle(scenario)
        assert order_triage(scenario, weights) == triage_oracle(scenario)

    for _ in range(1000):
        scenario = _random_small_scenario(rng)
        c = float(rng.uniform(0.01, 100.0))
        scaled = TriageWeights(c * weights.w_severity, c * weights.w_urgency,
                               c * weights.w_access, weights.urgency_timescale)
        assert order_triage(scenario, weights) == order_triage(scenario, scaled)

    print("\n[PASS] criterion 8: 200-case ordering oracle suite and 1000 "
          "weight-scaling checks matched")
