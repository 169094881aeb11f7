"""Mission metrics: delays, service rate, failure rate, workload, dominance.

A mission's metric bundle comes from one of two sources with the same
arithmetic. `trial_metrics` scans the event log of a `MissionTrace`, as
`run_mission` returns it; it is the oracle. `outcome_columns` reads what
the mission loops of a whole batch counted as they ran (`MissionOutcome`),
and the field's high-severity flags instead of a `Scenario`; that is what
the sweep uses, so it builds no event log, no patients and no per-mission
bundle. `column_bundles` turns its columns back into `TrialMetrics` for
readers that want them. High-severity patients never reached before the
mission ends contribute a censored delay equal to the mission duration;
dropping them instead would reward aborting early.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import INTERVENE, OPERATOR_INTERVENTION, TASK_SWITCH, MissionTrace
from .scenario import DETECT_TIME, Scenario

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
            detect: Mapping[int, float]) -> tuple[DelayRecord, ...]:
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


def _served_count(times: dict[int, float], detect: Mapping[int, float],
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
    times = _intervention_times(trace)
    high_ids, detect, n_patients = _columns(scenario)
    lam_sw, lam_int = task_switch_rate(trace), intervention_frequency(trace)
    return TrialMetrics(
        high_severity_delays=_delays(times, trace.duration, high_ids, detect),
        served_count=_served_count(times, detect, tau_c),
        total_patients=n_patients,
        aborted=trace.aborted,
        lambda_sw=lam_sw,
        lambda_int=lam_int,
        workload=workload(lam_sw, lam_int, alpha, beta),
        duration=trace.duration,
    )


class MetricColumns(NamedTuple):
    """The metric bundles of a batch of missions, one array per field.

    Each mission's high-severity patients take `high_count` consecutive
    entries of the flat `high_ids`, `high_delays` and `high_censored`,
    in mission order and by ascending id within a mission.
    """

    aborted: np.ndarray
    duration: np.ndarray
    served: np.ndarray
    rho: np.ndarray
    lambda_sw: np.ndarray
    lambda_int: np.ndarray
    workload: np.ndarray
    high_count: np.ndarray
    high_ids: np.ndarray
    high_delays: np.ndarray
    high_censored: np.ndarray

    # The fields with one entry per mission but `high_count`, and the flat ones.
    MISSION_FIELDS = ("aborted", "duration", "served", "rho", "lambda_sw", "lambda_int",
                      "workload")
    HIGH_FIELDS = ("high_ids", "high_delays", "high_censored")

    def _pick(self, rows, flat) -> MetricColumns:
        """The per-mission fields indexed by `rows`, the flat ones by `flat`."""
        return MetricColumns(high_count=self.high_count[rows],
                             **{name: getattr(self, name)[rows] for name in self.MISSION_FIELDS},
                             **{name: getattr(self, name)[flat] for name in self.HIGH_FIELDS})

    def take(self, rows: np.ndarray) -> MetricColumns:
        """The missions at the indices `rows`, in that order."""
        starts = np.cumsum(self.high_count) - self.high_count
        counts = self.high_count[rows]
        firsts = np.cumsum(counts) - counts
        return self._pick(rows, np.arange(counts.sum()) + np.repeat(starts[rows] - firsts, counts))

    def split(self, bounds: list[int]) -> list[MetricColumns]:
        """Views of the missions in each `[bounds[i], bounds[i + 1])`."""
        flat = np.concatenate(([0], np.cumsum(self.high_count)))[bounds].tolist()
        return [self._pick(slice(start, stop), slice(first, last))
                for start, stop, first, last in zip(bounds, bounds[1:], flat, flat[1:])]


def outcome_columns(duration: np.ndarray, aborted: np.ndarray,
                    task_switches: np.ndarray, operator_interventions: np.ndarray,
                    intervene: np.ndarray, high: np.ndarray,
                    tau_c: float = DEFAULT_SERVICE_WINDOW,
                    alpha: float = DEFAULT_ALPHA,
                    beta: float = DEFAULT_BETA) -> MetricColumns:
    """The bundles `trial_metrics` extracts from a batch of missions' traces.

    The first four arrays hold each mission's `MissionOutcome` counts.
    `intervene` is the ``(missions, load)`` first intervene time by patient
    id, NaN for a patient the mission never served; `high` flags the
    high-severity patients the same way; every patient is detected at
    `DETECT_TIME`. Each value takes the IEEE operations `trial_metrics`
    takes, in its order, so it has the same bits.
    """
    if tau_c <= 0.0:
        raise ValueError("tau_c must be positive")
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("workload weights must be nonnegative")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # The operator view logs a switch only when the label changes, so
        # every switch after the first is a change.
        flying = duration > 0.0
        lambda_sw = np.where(flying, np.maximum(task_switches - 1, 0) / duration, 0.0)
        lambda_int = np.where(flying, operator_interventions / duration, 0.0)
        work = float(alpha) * lambda_sw + float(beta) * lambda_int
    waited = intervene - DETECT_TIME
    served = np.count_nonzero(waited <= tau_c, axis=1)
    rows, ids = np.nonzero(high)
    censored = np.isnan(intervene[rows, ids])
    return MetricColumns(
        aborted=aborted, duration=duration, served=served,
        rho=served / intervene.shape[1],
        lambda_sw=lambda_sw, lambda_int=lambda_int,
        workload=work,
        high_count=np.count_nonzero(high, axis=1), high_ids=ids,
        high_delays=np.where(censored, duration[rows] - DETECT_TIME, waited[rows, ids]),
        high_censored=censored)


def column_bundles(columns: MetricColumns, n_patients: list[int]) -> list[TrialMetrics]:
    """One `TrialMetrics` per mission of `columns`; `n_patients` counts each
    mission's field."""
    delays = [DelayRecord(*entry) for entry in zip(columns.high_ids.tolist(),
                                                   columns.high_delays.tolist(),
                                                   columns.high_censored.tolist())]
    ends = np.cumsum(columns.high_count).tolist()
    return [TrialMetrics(tuple(delays[end - count:end]), served, n, aborted,
                         lam_sw, lam_int, work, duration)
            for end, count, served, n, aborted, lam_sw, lam_int, work, duration in zip(
                ends, columns.high_count.tolist(), columns.served.tolist(), n_patients,
                columns.aborted.tolist(), columns.lambda_sw.tolist(),
                columns.lambda_int.tolist(), columns.workload.tolist(),
                columns.duration.tolist())]


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
