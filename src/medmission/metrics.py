"""Mission metrics: delays, service rate, failure rate, workload, dominance.

A mission's metric bundle comes from one of two sources with the same
arithmetic. `trial_metrics` scans the event log of a `MissionTrace`, as
`run_mission` returns it; it is the oracle. `outcome_metrics` reads the
`MissionOutcome` the mission loop counted as it ran, and the field's
high-severity ids and detect times instead of a `Scenario`; that is what
the sweep uses, so it builds no event log and no patients. Both share
`_delays` and `_served_count`. High-severity patients never
reached before the mission ends contribute a censored delay equal to the
mission duration; dropping them instead would reward aborting early.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from .engine import INTERVENE, OPERATOR_INTERVENTION, TASK_SWITCH, MissionOutcome, MissionTrace
from .scenario import Scenario

DEFAULT_SERVICE_WINDOW = 60.0   # minutes; clinically acceptable delay
DEFAULT_ALPHA = 1.0             # weight of the task-switching rate
DEFAULT_BETA = 1.0              # weight of the intervention frequency


@dataclass(frozen=True)
class DelayRecord:
    patient_id: int
    delay: float
    censored: bool


@dataclass(frozen=True)
class TrialMetrics:
    """Per-mission metric bundle, the row unit of the sweep."""

    high_severity_delays: tuple[DelayRecord, ...]
    served_count: int
    total_patients: int
    aborted: bool
    lambda_sw: float
    lambda_int: float
    workload: float
    duration: float

    @property
    def rho(self) -> float:
        return self.served_count / self.total_patients if self.total_patients else 0.0


@dataclass(frozen=True)
class MetricVector:
    """Per-condition aggregate [mean delay, service rate, failure rate, workload]."""

    t_int_mean: float
    rho: float
    r_fail: float
    w_mean: float


def _intervention_times(trace: MissionTrace) -> dict[int, float]:
    times: dict[int, float] = {}
    for event in trace.events:
        if event.kind == INTERVENE and event.patient_id not in times:
            times[event.patient_id] = event.time
    return times


def intervention_delays(trace: MissionTrace, scenario: Scenario) -> tuple[DelayRecord, ...]:
    """Delay to first intervention for each high-severity patient.

    Patients not reached before the terminal event get the mission-end
    delay, flagged censored.
    """
    high_ids, detect, _ = _columns(scenario)
    return _delays(_intervention_times(trace), trace.duration, high_ids, detect)


def _columns(scenario: Scenario) -> tuple[list[int], dict[int, float], int]:
    """A scenario's high-severity ids in scenario order, its detect time
    per patient id, and its patient count: what the metrics read of it."""
    patients = scenario.patients
    return ([p.id for p in patients if p.high_severity],
            {p.id: p.detect_time for p in patients}, len(patients))


def _delays(times: dict[int, float], duration: float, high_ids: list[int],
            detect: Mapping[int, float] | list[float]) -> tuple[DelayRecord, ...]:
    return tuple([DelayRecord(pid, times[pid] - detect[pid], False) if pid in times
                  else DelayRecord(pid, duration - detect[pid], True)
                  for pid in high_ids])


def served_within_window(trace: MissionTrace, scenario: Scenario,
                         tau_c: float = DEFAULT_SERVICE_WINDOW) -> tuple[int, float]:
    """Count and rate of patients served within the acceptable window.

    The window boundary is inclusive; unserved patients contribute zero.
    """
    _, detect, n_patients = _columns(scenario)
    count = _served_count(_intervention_times(trace), detect, tau_c)
    return count, count / n_patients if n_patients else 0.0


def _served_count(times: dict[int, float], detect: Mapping[int, float] | list[float],
                  tau_c: float) -> int:
    if tau_c <= 0.0:
        raise ValueError("tau_c must be positive")
    return sum(1 for pid, time in times.items() if time - detect[pid] <= tau_c)


def failure_rate(aborted_flags: list[bool] | tuple[bool, ...]) -> float:
    """Fraction of aborted missions."""
    if len(aborted_flags) == 0:
        raise ValueError("failure rate undefined for an empty trial set")
    return sum(bool(f) for f in aborted_flags) / len(aborted_flags)


def task_switch_rate(trace: MissionTrace) -> float:
    """Distinct consecutive task-label changes per minute of mission time.

    The first task event establishes the initial task; only actual label
    changes count. Zero-duration missions rate zero by convention.
    """
    if trace.duration <= 0.0:
        return 0.0
    labels = [e.task_label for e in trace.events if e.kind == TASK_SWITCH]
    changes = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    return changes / trace.duration


def intervention_frequency(trace: MissionTrace) -> float:
    """Operator control actions per minute of mission time."""
    if trace.duration <= 0.0:
        return 0.0
    count = sum(1 for e in trace.events if e.kind == OPERATOR_INTERVENTION)
    return count / trace.duration


def workload(lambda_sw: float, lambda_int: float,
             alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA) -> float:
    """Composite operator-workload proxy: alpha*switching + beta*interventions."""
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("workload weights must be nonnegative")
    return alpha * lambda_sw + beta * lambda_int


def aggregate_workload(per_trial: list[float] | tuple[float, ...]) -> float:
    """Mean workload across missions (one operator per mission).

    Uses exact summation so the result is independent of input order.
    """
    if len(per_trial) == 0:
        raise ValueError("aggregate workload undefined for an empty set")
    return math.fsum(per_trial) / len(per_trial)


def trial_metrics(trace: MissionTrace, scenario: Scenario,
                  tau_c: float = DEFAULT_SERVICE_WINDOW,
                  alpha: float = DEFAULT_ALPHA,
                  beta: float = DEFAULT_BETA) -> TrialMetrics:
    """Extract the full per-mission metric bundle from one trace."""
    return _bundle(_intervention_times(trace), task_switch_rate(trace),
                   intervention_frequency(trace), trace.duration, trace.aborted,
                   *_columns(scenario), tau_c, alpha, beta)


def outcome_metrics(outcome: MissionOutcome, high_ids: list[int],
                    detect: Mapping[int, float] | list[float], n_patients: int,
                    tau_c: float = DEFAULT_SERVICE_WINDOW,
                    alpha: float = DEFAULT_ALPHA,
                    beta: float = DEFAULT_BETA) -> TrialMetrics:
    """The bundle `trial_metrics` extracts from the same mission's trace.

    `high_ids` are the mission's high-severity patient ids in scenario
    order, `detect` maps each patient id to its detect time (a list indexed
    by id serves) and `n_patients` counts the field.
    """
    lam_sw = lam_int = 0.0
    if outcome.duration > 0.0:
        # The operator view logs a switch only when the label changes, so
        # every switch after the first is a change.
        lam_sw = max(outcome.task_switches - 1, 0) / outcome.duration
        lam_int = outcome.operator_interventions / outcome.duration
    return _bundle(outcome.intervene_times, lam_sw, lam_int, outcome.duration,
                   outcome.aborted, high_ids, detect, n_patients, tau_c, alpha, beta)


def _bundle(times: dict[int, float], lam_sw: float, lam_int: float,
            duration: float, aborted: bool, high_ids: list[int],
            detect: Mapping[int, float] | list[float], n_patients: int,
            tau_c: float, alpha: float, beta: float) -> TrialMetrics:
    return TrialMetrics(
        high_severity_delays=_delays(times, duration, high_ids, detect),
        served_count=_served_count(times, detect, tau_c),
        total_patients=n_patients,
        aborted=aborted,
        lambda_sw=lam_sw,
        lambda_int=lam_int,
        workload=workload(lam_sw, lam_int, alpha, beta),
        duration=duration,
    )


def metric_vector(trials: list[TrialMetrics] | tuple[TrialMetrics, ...]) -> MetricVector:
    """Aggregate one (policy, condition) cell into its metric vector.

    Delays are pooled across trials (censored included); the service rate
    is the mean of the per-trial rates, each already counted under the
    service window `trial_metrics` was given; the failure rate covers the
    trial abort flags; workload is the per-trial mean.
    """
    if len(trials) == 0:
        raise ValueError("metric vector undefined for an empty cell")
    delays = [rec.delay for t in trials for rec in t.high_severity_delays]
    if not delays:
        raise ValueError("metric vector undefined without any high-severity delay")
    return MetricVector(
        t_int_mean=math.fsum(delays) / len(delays),
        rho=math.fsum(t.rho for t in trials) / len(trials),
        r_fail=failure_rate([t.aborted for t in trials]),
        w_mean=aggregate_workload([t.workload for t in trials]),
    )


def dominates(a: MetricVector, b: MetricVector) -> bool:
    """Strict Pareto dominance on the minimization form [T, 1-rho, R, W]."""
    av = (a.t_int_mean, 1.0 - a.rho, a.r_fail, a.w_mean)
    bv = (b.t_int_mean, 1.0 - b.rho, b.r_fail, b.w_mean)
    if any(math.isnan(x) for x in av + bv):
        raise ValueError("dominance undefined for NaN components")
    return all(x <= y for x, y in zip(av, bv)) and any(x < y for x, y in zip(av, bv))
