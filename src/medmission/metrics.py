"""Mission metrics: delays, service rate, failure rate, workload, dominance.

A mission's metric bundle comes from one of two sources with the same
arithmetic. `trial_metrics` scans the event log of a `MissionTrace`, as
`run_mission` returns it; it is the oracle. `outcome_columns` reads what
a log holds as a whole batch's columns, as `engine.cell_outcomes` gives
them, and the field's high-severity flags instead of a `Scenario`;
that is what the sweep uses, so it builds no event log, no patients and no
per-mission bundle. `column_bundles` turns its columns back into
`TrialMetrics`, and `written_rules` holds a trials file to them. High-severity
patients never reached before the mission ends contribute a censored delay
equal to the mission duration; dropping them instead would reward aborting early.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .engine import _EPS, INTERVENE, OPERATOR_INTERVENTION, TASK_SWITCH, MissionTrace
from .policy import PolicyId
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


# A trials-table column: its name in `experiment.TrialTable` or `MetricColumns`,
# its header in the trials file (None: not written), its dtype, how its text
# parses (float, int, bool for a 0/1 flag, or the names its values index) and
# whether it is flat: one entry per high-severity patient, `high_count` per mission.
Column = namedtuple("Column", "name header dtype parse flat", defaults=(float, False))

# The trials table's columns in table order, each dtype the narrowest the caps allow.
TABLE_COLUMNS = (
    Column("policy", "policy", np.int8, tuple(policy.value for policy in PolicyId)),
    Column("condition", "condition", np.int32, int),
    Column("trial", "trial", np.int32, int),
    Column("aborted", "aborted", np.bool_, bool),
    Column("duration", "duration", np.float64),
    Column("served", "served", np.int16, int),
    Column("rho", "rho", np.float64),
    Column("lambda_sw", "lambda_sw", np.float64),
    Column("lambda_int", "lambda_int", np.float64),
    Column("workload", "workload", np.float64),
    Column("high_count", None, np.int16, int),   # the length of each mission's lists
    Column("high_ids", "high_sev_ids", np.int16, int, True),
    Column("high_delays", "high_sev_delays", np.float64, float, True),
    Column("high_censored", "high_sev_censored", np.bool_, bool, True),
)
METRIC_COLUMNS = TABLE_COLUMNS[3:]   # after `experiment.TrialTable`'s keys


class MetricColumns(namedtuple("MetricColumns", [column.name for column in METRIC_COLUMNS])):
    """The metric bundles of a batch of missions, one array per field.

    Each mission's high-severity patients take `high_count` consecutive
    entries of the flat fields, in mission order and by ascending id
    within a mission.
    """

    __slots__ = ()
    DTYPES = {column.name: column.dtype for column in TABLE_COLUMNS}

    def _pick(self, rows, flat) -> MetricColumns:
        """The per-mission fields indexed by `rows`, the flat ones by `flat`."""
        return self._make(values[flat if column.flat else rows]
                          for column, values in zip(METRIC_COLUMNS, self))

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


def table_columns(**columns) -> dict[str, np.ndarray]:
    """Each of `columns`, named as trials-table columns, as its dtype in
    `MetricColumns.DTYPES`, copied only if that changes it. An array value
    past the dtype's range would wrap, so every caller bounds them first."""
    return {name: np.asarray(values, MetricColumns.DTYPES[name])
            for name, values in columns.items()}


def join_columns(pieces: list[tuple]) -> list[np.ndarray]:
    """Each column of `pieces`, equally shaped tuples of arrays, joined in
    order. `pieces` is emptied and each column's pieces are let go before the
    next is joined, so the join holds one joined column beyond the pieces."""
    columns = [list(column) for column in zip(*pieces)]
    pieces.clear()
    return [np.concatenate(columns.pop(0)) for _ in range(len(columns))]


def outcome_columns(duration: np.ndarray, aborted: np.ndarray,
                    task_switches: np.ndarray, operator_interventions: np.ndarray,
                    intervene: np.ndarray, high: np.ndarray,
                    tau_c: float = DEFAULT_SERVICE_WINDOW,
                    alpha: float = DEFAULT_ALPHA,
                    beta: float = DEFAULT_BETA) -> MetricColumns:
    """The bundles `trial_metrics` extracts from a batch of missions' traces.

    The first four arrays hold each mission's duration, abort flag and
    counts of task switches and control actions, as `engine.cell_outcomes`
    gives them.
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
    waited = intervene - DETECT_TIME
    served = np.count_nonzero(waited <= tau_c, axis=1)
    rows, ids = np.nonzero(high)
    censored = np.isnan(intervene[rows, ids])
    rho, work, ended = _written(served, intervene.shape[1], lambda_sw, lambda_int,
                                alpha, beta, duration[rows])
    return MetricColumns(**table_columns(
        aborted=aborted, duration=duration, served=served, rho=rho,
        lambda_sw=lambda_sw, lambda_int=lambda_int, workload=work,
        high_count=np.count_nonzero(high, axis=1), high_ids=ids,
        high_delays=np.where(censored, ended, waited[rows, ids]),
        high_censored=censored))


def _written(served, load, lambda_sw, lambda_int, alpha, beta, terminal) -> tuple:
    """`rho`, `workload` and each censored delay as `outcome_columns` writes them."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # 0 * inf is NaN
        return (served / load, float(alpha) * lambda_sw + float(beta) * lambda_int,
                terminal - DETECT_TIME)


def written_rules(table: Mapping[str, np.ndarray], delays_n: np.ndarray, load: np.ndarray,
                  horizon: float, alpha: float, beta: float) -> Iterator[tuple]:
    """The rules a block of trials-table rows keeps if a run of horizon
    `horizon` and weights `alpha` and `beta` wrote it, in the order a row is
    checked, each as (mask, message, counts): the mask flags the rows that
    break it (counts None) or the entries of the rows' lists in turn (counts
    each row's entries), and message(i) names its i-th True. `table` holds
    the block's columns by name, `high_count` counting its ids; `delays_n`
    counts its delays and `load` is each row's load. A message reads values
    in range only for a row that no earlier check rejects."""
    ids_n, ids, all_delays = table["high_count"], table["high_ids"], table["high_delays"]
    rho, work, censored = table["rho"], table["workload"], table["high_censored"]
    # Up to the shorter list: past a row whose lists differ in length, the
    # entries of the two lists belong to different rows.
    n = min(len(all_delays), len(censored))
    delays, censored = all_delays[:n], censored[:n]
    terminal = np.repeat(table["duration"], delays_n)[:n]   # a row's duration is its terminal time
    share, weighed, ended = _written(table["served"], load, table["lambda_sw"],
                                     table["lambda_int"], alpha, beta, terminal)
    yield (rho.view(np.int64) != share.view(np.int64),
           lambda i: f"rho: {float(rho[i])!r} is not served / load = {float(share[i])!r}", None)
    yield (ids_n > load,
           lambda i: f"high_sev_ids: {ids_n[i]} entries are more than load {load[i]}", None)
    row_load = np.repeat(load, ids_n)
    yield ((ids < 0) | (ids >= row_load),
           lambda i: f"high_sev_ids: {int(ids[i])} is outside [0, {row_load[i]})", ids_n)
    falls = np.diff(ids, prepend=0) <= 0   # an id not above the one before it,
    falls[(np.cumsum(ids_n) - ids_n)[ids_n > 0]] = False   # unless it is its row's first
    yield (falls, lambda i: f"high_sev_ids: {int(ids[i])} after {int(ids[i - 1])}: "
                            f"a row's ids must ascend, none twice", ids_n)
    # A kernel counts an intervention that ends within `_EPS` of the terminal
    # time, so a delay may pass a horizon-capped row's duration by that much.
    yield (~((all_delays >= 0.0) & (all_delays <= horizon + _EPS)),
           lambda i: f"high_sev_delays: {float(all_delays[i])!r} is outside [0, {horizon!r}]",
           delays_n)
    for name in ("lambda_sw", "lambda_int"):
        yield (~(table[name] >= 0.0), lambda i, name=name, rate=table[name]:
               f"{name}: {float(rate[i])!r} is outside [0, inf]", None)
    yield ((work.view(np.int64) != weighed.view(np.int64))
           & ~(np.isnan(work) & np.isnan(weighed)),   # NaNs whose bits differ match
           lambda i: f"workload: {float(work[i])!r} is not alpha * lambda_sw + beta * "
                     f"lambda_int = {float(weighed[i])!r}", None)
    yield (censored & (delays.view(np.int64) != ended.view(np.int64)),
           lambda i: f"high_sev_delays: {float(delays[i])!r} is censored, so must be "
                     f"duration - {DETECT_TIME!r} = {float(ended[i])!r}", delays_n)
    yield (~censored & (delays + DETECT_TIME > terminal + _EPS),   # the kernels' cut
           lambda i: f"high_sev_delays: {float(delays[i])!r} is uncensored, so must be at most "
                     f"duration + {_EPS!r} - {DETECT_TIME!r} = "
                     f"{float(terminal[i] + _EPS - DETECT_TIME)!r}", delays_n)


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
