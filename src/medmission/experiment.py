"""Monte Carlo sweep over policies, degradation levels, and patient loads.

Trials are indexed by (condition, trial, policy) and each one derives its
own random streams from the master seed, so results are a pure function
of the configuration: serial and parallel execution produce identical
output, and adding or removing trials never perturbs the others.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import stdtrit

from .engine import (
    DEFAULT_PLATFORM_PARAMS,
    PlatformParams,
    cell_outcomes,
    leg_timelines,
    mission_schedules,
)
from .localization import DEFAULT_LOCALIZATION_PARAMS, LocalizationParams
from .metrics import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_SERVICE_WINDOW,
    MetricColumns,
    TrialMetrics,
    column_bundles,
    outcome_columns,
)
from .policy import (
    DEFAULT_OPERATOR_ERROR_RATE,
    DEFAULT_TRIAGE_WEIGHTS,
    PolicyId,
    TriageWeights,
    operator_picks,
    plan_orders,
)
from .scenario import (
    DEFAULT_SCENARIO_PARAMS,
    MAX_TRIALS_PER_CELL,
    Condition,
    ScenarioParams,
    StreamPurpose,
    cell_seed_words,
    criticality_times,
    draw_unit_field,
    high_severity_flags,
    scale_field,
    seeded_stream,
)
from .schema import bounded, check_fields

DEFAULT_DEGRADATION_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_PATIENT_LOADS = (5, 10, 20, 40)
MAX_PATIENT_LOAD = 1000   # nearest-neighbour planning is quadratic in the load
DEFAULT_TRIALS_PER_CONDITION = 250
DEFAULT_MASTER_SEED = 42
MAX_INTERVALS_PER_MISSION = 10_000   # expected outage and integrity intervals
# Patient slots (trials times largest load) of one cell. tracemalloc puts a
# cell's peak at 181-210 bytes per slot, so 2**22 slots * 210 B is 0.8 GiB.
MAX_CELL_SLOTS = 2 ** 22


@dataclass(frozen=True)
class SweepConfig:
    master_seed: int = bounded(DEFAULT_MASTER_SEED, "[0, inf)", int)
    degradation_levels: tuple[float, ...] = bounded(DEFAULT_DEGRADATION_LEVELS, "[0, 1]")
    patient_loads: tuple[int, ...] = bounded(DEFAULT_PATIENT_LOADS,
                                             f"[1, {MAX_PATIENT_LOAD}]", int)
    policies: tuple[PolicyId, ...] = (PolicyId.PI1_TELEOP, PolicyId.PI2_AUTO,
                                      PolicyId.PI3_GEODT)
    trials_per_condition: int = bounded(DEFAULT_TRIALS_PER_CONDITION,
                                        f"[1, {MAX_TRIALS_PER_CELL}]", int)
    tau_c: float = bounded(DEFAULT_SERVICE_WINDOW, "(0, inf]")
    alpha: float = bounded(DEFAULT_ALPHA, "[0, inf)")
    beta: float = bounded(DEFAULT_BETA, "[0, inf)")
    operator_error_rate: float = bounded(DEFAULT_OPERATOR_ERROR_RATE, "[0, 1]")
    triage_weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS
    platform: PlatformParams = DEFAULT_PLATFORM_PARAMS
    localization: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS
    scenario_params: ScenarioParams = field(default=DEFAULT_SCENARIO_PARAMS,
                                            metadata={"key": "scenario"})

    def validate(self) -> None:
        """Raise ValueError naming the offending key for any bad field.

        Each field declares its own bound; only rules across fields are here.
        """
        check_fields(self)
        for key in ("policies", "degradation_levels", "patient_loads"):
            values = getattr(self, key)
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{key}: must be nonempty, without duplicates")
        slots = self.trials_per_condition * max(self.patient_loads)
        if slots > MAX_CELL_SLOTS:
            raise ValueError(f"trials_per_condition: {self.trials_per_condition!r} trials at "
                             f"a largest load of {max(self.patient_loads)} make {slots} "
                             f"patient slots per cell, over the cap of {MAX_CELL_SLOTS}")
        scenario = self.scenario_params
        if len(scenario.base_position) != 2:
            raise ValueError("scenario.base_position: must be a pair of numbers")
        if not scenario.accessibility_low <= scenario.accessibility_high:
            raise ValueError(f"scenario.accessibility_low: {scenario.accessibility_low!r} must be "
                             f"<= scenario.accessibility_high: {scenario.accessibility_high!r}")
        # Each outage or integrity interval costs the mission loop a step.
        loc, horizon = self.localization, self.platform.horizon
        intervals = ((loc.outage_rate_coeff * max(self.degradation_levels)
                      + loc.integrity_rate) * horizon)
        if not intervals <= MAX_INTERVALS_PER_MISSION:
            raise ValueError(f"localization.outage_rate_coeff: {loc.outage_rate_coeff!r}, "
                             f"localization.integrity_rate: {loc.integrity_rate!r} and "
                             f"platform.horizon: {horizon!r} expect {intervals:.3g} "
                             f"intervals per mission, over the cap of {MAX_INTERVALS_PER_MISSION}")

    def conditions(self) -> tuple[Condition, ...]:
        """Cells enumerated degradation-major, load-minor; ids are ordinal."""
        cells = [(delta, load) for delta in self.degradation_levels
                 for load in self.patient_loads]
        return tuple(Condition(condition_id=index, delta=float(delta), patient_load=int(load))
                     for index, (delta, load) in enumerate(cells))

    @property
    def total_missions(self) -> int:
        return (len(self.degradation_levels) * len(self.patient_loads)
                * len(self.policies) * self.trials_per_condition)


DEFAULT_SWEEP_CONFIG = SweepConfig()


@dataclass(frozen=True)
class TrialRecord:
    policy: PolicyId
    delta: float
    load: int
    condition_id: int
    trial: int
    metrics: TrialMetrics


_POLICY_BY_INDEX = {policy.index: policy for policy in PolicyId}


@dataclass(frozen=True, eq=False)
class TrialTable:
    """Trials as columns, one row per mission, in `(condition, policy.index,
    trial)` order; `policy` holds each row's `PolicyId.index`. A row's delta
    and load are its condition's."""

    policy: np.ndarray
    condition: np.ndarray
    trial: np.ndarray
    metrics: MetricColumns

    def __len__(self) -> int:
        return len(self.trial)

    def take(self, rows: np.ndarray) -> TrialTable:
        """The rows at the indices `rows`, in that order."""
        return TrialTable(self.policy[rows], self.condition[rows], self.trial[rows],
                          self.metrics.take(rows))

    def cells(self) -> list[tuple[int, MetricColumns]]:
        """Each (condition, policy) cell's first row and its metric columns, as views."""
        change = (np.diff(self.condition) != 0) | (np.diff(self.policy) != 0)
        bounds = [0, *(np.flatnonzero(change) + 1).tolist(), len(self)]
        return list(zip(bounds, self.metrics.split(bounds))) if len(self) else []

    def records(self, conditions: tuple[Condition, ...]) -> tuple[TrialRecord, ...]:
        """One `TrialRecord` per row; `conditions` are the run's, by id."""
        condition_ids = self.condition.tolist()
        deltas = [conditions[c].delta for c in condition_ids]
        loads = [conditions[c].patient_load for c in condition_ids]
        return tuple(TrialRecord(_POLICY_BY_INDEX[policy], delta, load, condition, trial,
                                 bundle)
                     for policy, delta, load, condition, trial, bundle in zip(
                         self.policy.tolist(), deltas, loads, condition_ids,
                         self.trial.tolist(), column_bundles(self.metrics, loads)))

    @classmethod
    def from_records(cls, records) -> TrialTable:
        """The table of `records`, in `(condition, policy.index, trial)` order."""
        records = sorted(records, key=lambda r: (r.condition_id, r.policy.index, r.trial))
        bundles = [r.metrics for r in records]
        delays = [d for m in bundles for d in m.high_severity_delays]

        def column(values, dtype):
            return np.array(list(values), dtype=dtype)

        metrics = MetricColumns(
            aborted=column((m.aborted for m in bundles), bool),
            duration=column((m.duration for m in bundles), float),
            served=column((m.served_count for m in bundles), np.int64),
            rho=column((m.rho for m in bundles), float),
            lambda_sw=column((m.lambda_sw for m in bundles), float),
            lambda_int=column((m.lambda_int for m in bundles), float),
            workload=column((m.workload for m in bundles), float),
            high_count=column((len(m.high_severity_delays) for m in bundles), np.int64),
            high_ids=column((d.patient_id for d in delays), np.int64),
            high_delays=column((d.delay for d in delays), float),
            high_censored=column((d.censored for d in delays), bool))
        return cls(policy=column((r.policy.index for r in records), np.int64),
                   condition=column((r.condition_id for r in records), np.int64),
                   trial=column((r.trial for r in records), np.int64),
                   metrics=metrics)


@dataclass(frozen=True)
class Stats:
    """Mean, sample standard deviation, and a 95% CI of one sample set."""

    mean: float
    std: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class ConditionSummary:
    policy: PolicyId
    delta: float | None          # None, as is load, for a policy's pooled trials
    load: int | None
    n_trials: int
    delay: Stats                 # pooled high-severity delays, censored included
    rho: Stats                   # per-trial service rates
    r_fail: Stats                # per-trial abort indicators
    workload: Stats              # per-trial workload proxies
    delay_median: float
    delay_p90: float
    delay_p95: float
    delay_box: tuple[float, float, float, float, float]
    workload_box: tuple[float, float, float, float, float]
    mean_duration: float


@dataclass(frozen=True)
class PolicyRollup:
    """Whole-sweep aggregate per policy: means and delay quantiles of its trials."""

    policy: PolicyId
    t_int_mean: float
    rho: float
    r_fail: float
    w_mean: float
    mission_time: float
    delay_median: float
    delay_p90: float
    delay_p95: float
    n_trials: int


@dataclass(frozen=True)
class ParetoPoint:
    """One bubble of the delay/failure trade-off plot.

    `delta`/`load` are None for policy-pooled points. Bubble size is the
    effective success rho * (1 - r_fail).
    """

    policy: PolicyId
    delta: float | None
    load: int | None
    x: float    # mean high-severity delay, minutes
    y: float    # failure rate
    size: float


@dataclass(frozen=True)
class SweepResult:
    """A sweep's trials as columns, and what aggregation builds from them.

    `records` is the same trials as `TrialRecord`s, built on first access.
    """

    config: SweepConfig
    trials: TrialTable
    summaries: tuple[ConditionSummary, ...]
    rollups: tuple[PolicyRollup, ...]
    pareto_condition: tuple[ParetoPoint, ...]
    front_condition: tuple[ParetoPoint, ...]
    pareto_pooled: tuple[ParetoPoint, ...]
    front_pooled: tuple[ParetoPoint, ...]

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        return self.trials.records(self.config.conditions())


# ---------------------------------------------------------------------------
# Statistical kernels.

def confidence_interval(samples, level: float = 0.95) -> tuple[float, float]:
    """Student-t interval on the sample mean."""
    n = len(samples)
    if n < 2:
        raise ValueError("confidence interval needs at least two samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be inside (0, 1)")
    return _t_stats(np.asarray(samples, dtype=float), level)[2:]


# A sample set whose largest magnitude passes 2**_SCALE_EXP is scaled below it
# before its deviations are squared: below it, the squares of 2**21 deviations
# (each under twice the largest magnitude) sum to a finite float.
_SCALE_EXP = 500


def _t_stats(arr: np.ndarray, level: float = 0.95) -> tuple[float, float, float, float]:
    """Mean, sample standard deviation and Student-t `level` interval of two
    or more samples `arr`.

    A finite set whose largest magnitude passes 2**_SCALE_EXP is scaled by a
    power of two to bring it below, and the results are scaled back, so no
    square of a finite sample overflows; a result past the float range reads
    as inf. Scaling by a power of two is exact, and any other finite set is
    not scaled, so its results are the unscaled bits.

    A set holding inf or NaN has its mean (inf, -inf or NaN) and a NaN
    spread and interval, reached without a warning.
    """
    scale = 1.0
    peak = float(np.abs(arr).max())
    if not peak < math.inf:
        with np.errstate(invalid="ignore"):
            return float(arr.mean()), math.nan, math.nan, math.nan
    if 2.0 ** _SCALE_EXP < peak:
        scale = 2.0 ** (math.frexp(peak)[1] - _SCALE_EXP)
        arr = arr / scale
    n = len(arr)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    half = float(t_critical(n, level)) * sd / math.sqrt(n)
    return mean * scale, sd * scale, (mean - half) * scale, (mean + half) * scale


def t_critical(n, level: float):
    """Two-sided Student-t critical value of a `level` interval on `n` samples.

    `scipy.special.stdtrit` is the quantile `scipy.stats.t.ppf` computes, to
    the bit, without importing `scipy.stats`. Takes arrays too.
    """
    return stdtrit(n - 1, 0.5 + level / 2.0)


def quantiles(samples, qs) -> tuple[float, ...]:
    """Linear-interpolation quantiles at rank (n-1)*q + 1 (1-indexed).

    A finite set's quantiles are `np.quantile`'s. In a set holding inf, the
    quantile between order statistics ``a <= b`` at weight ``0 < t < 1`` is
    ``a`` if they are equal, else ``(1 - t) * a + t * b``: the infinite one of
    the two, or NaN between -inf and inf. A set holding NaN has NaN
    quantiles. Neither warns.
    """
    if len(samples) == 0:
        raise ValueError("quantiles undefined for an empty sample set")
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
    arr = np.asarray(samples, dtype=float)
    if np.isfinite(arr).all():
        return tuple(float(v) for v in np.quantile(arr, list(qs), method="linear"))
    if np.isnan(arr).any():
        return (math.nan,) * len(qs)
    ordered = np.sort(arr).tolist()
    values = []
    for q in qs:
        rank = (len(ordered) - 1) * q
        i = math.floor(rank)
        t, a = rank - i, ordered[i]
        values.append(a if t == 0.0 or a == ordered[i + 1] else (1.0 - t) * a + t * ordered[i + 1])
    return tuple(values)


def boxplot_stats(samples) -> tuple[float, float, float, float, float]:
    """Five-number summary (min, Q1, median, Q3, max)."""
    if len(samples) == 0:
        raise ValueError("boxplot stats undefined for an empty sample set")
    return quantiles(samples, (0.0, 0.25, 0.5, 0.75, 1.0))


def pareto_front(points) -> list:
    """Non-dominated subset of (x, y) points, input order preserved.

    A point is dropped iff some other point is no worse on both axes and
    strictly better on at least one; exact duplicates survive together.
    Implemented as a sort-and-scan over x groups (the tests compare it
    against a quadratic oracle).
    """
    pts = list(points)
    if not pts:
        raise ValueError("pareto front undefined for an empty point set")
    order = sorted(range(len(pts)), key=lambda i: (pts[i].x, pts[i].y))
    dominated = [False] * len(pts)
    best_y_before = math.inf   # min y among strictly smaller x
    i = 0
    while i < len(order):
        j = i
        group_min_y = math.inf
        while j < len(order) and pts[order[j]].x == pts[order[i]].x:
            group_min_y = min(group_min_y, pts[order[j]].y)
            j += 1
        for k in range(i, j):
            y = pts[order[k]].y
            if best_y_before <= y or group_min_y < y:
                dominated[order[k]] = True
        best_y_before = min(best_y_before, group_min_y)
        i = j
    return [p for p, d in zip(pts, dominated) if not d]


# ---------------------------------------------------------------------------
# Sweep execution.

def _run_cell(config: SweepConfig, condition: Condition, policy: PolicyId) -> MetricColumns:
    n_trials, load = config.trials_per_condition, condition.patient_load
    # Rows 2*trial + purpose: the seeds derive_stream would build one by one.
    seeds = cell_seed_words(config.master_seed, condition.condition_id,
                            policy.index, n_trials)
    # Pass 1: every trial's field draws into the cell's arrays, then the draws
    # of its mission stream in their order: the operator's picks and the
    # interval schedules. The stream is kept for the twin's alert-suppression
    # draws. The field's unit uniforms are mapped to their ranges after the
    # loop, once for the cell.
    scenario_params, base = config.scenario_params, config.scenario_params.base_position
    delta, platform, loc = condition.delta, config.platform, config.localization
    teleop, error_rate = policy is PolicyId.PI1_TELEOP, config.operator_error_rate
    positions = np.empty((n_trials, load, 2))
    severities = np.empty((n_trials, load))
    access = np.empty((n_trials, load))
    picks = np.full((n_trials, load), -1)   # -1: fly to the nearest patient
    streams, schedules = [], []
    for trial, (scenario_words, mission_words) in enumerate(
            zip(seeds[StreamPurpose.SCENARIO::2], seeds[StreamPurpose.MISSION::2])):
        draw_unit_field(seeded_stream(scenario_words), positions[trial],
                        severities[trial], access[trial], scenario_params)
        stream = seeded_stream(mission_words)
        if teleop:
            picks[trial] = operator_picks(stream, load, error_rate)
        schedules.append(mission_schedules(policy, delta, platform, stream, loc))
        streams.append(stream)
    scale_field(positions, access, scenario_params)
    # Then the cell's orders and planned timelines, one call each.
    xs, ys = positions[:, :, 0], positions[:, :, 1]
    orders = plan_orders(policy, xs, ys, base, picks, severities,
                         criticality_times(severities, scenario_params), access,
                         config.triage_weights)
    depart, arrive, intervene, service = leg_timelines(
        xs, ys, access, orders, base, policy, delta, platform, loc)

    duration, aborted, switches, actions, served = cell_outcomes(
        policy, delta, orders, depart, arrive, intervene, service,
        schedules, streams, platform, loc)
    return outcome_columns(duration, aborted, switches, actions, served,
                           high_severity_flags(severities, scenario_params),
                           config.tau_c, config.alpha, config.beta)


def run_sweep(config: SweepConfig = DEFAULT_SWEEP_CONFIG,
              workers: int = 1) -> SweepResult:
    """Execute the full sweep and aggregate it.

    `workers` > 1 fans the (condition, policy) cells out to a process
    pool of at most one worker per cell. Each cell returns only its metric
    columns; they are joined in `(condition, policy.index)` order and keyed
    here, so the result does not depend on the degree of parallelism.
    """
    config.validate()
    conditions, policies = zip(*[(condition, policy)
                                 for condition in config.conditions()
                                 for policy in config.policies])
    configs = [config] * len(policies)

    if workers <= 1:
        cells = list(map(_run_cell, configs, conditions, policies))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(policies))) as pool:
            cells = list(pool.map(_run_cell, configs, conditions, policies))

    order = sorted(range(len(cells)),
                   key=lambda i: (conditions[i].condition_id, policies[i].index))
    n = config.trials_per_condition
    trials = TrialTable(
        policy=np.repeat([policies[i].index for i in order], n),
        condition=np.repeat([conditions[i].condition_id for i in order], n),
        trial=np.tile(np.arange(n), len(order)),
        metrics=MetricColumns._make(map(np.concatenate, zip(*[cells[i] for i in order]))))
    return aggregate(config, trials)


def _stats(samples: np.ndarray) -> Stats:
    n = len(samples)
    if n == 0:
        return Stats(math.nan, math.nan, math.nan, math.nan)
    arr = np.asarray(samples, dtype=float)
    if n == 1:
        return Stats(float(arr[0]), math.nan, math.nan, math.nan)
    return Stats(*_t_stats(arr))


# The five-number summary (min, Q1, median, Q3, max), then P90 and P95.
_DELAY_QS = (0.0, 0.25, 0.5, 0.75, 1.0, 0.9, 0.95)


def _summarize_cell(policy: PolicyId, delta: float | None, load: int | None,
                    cell: MetricColumns) -> ConditionSummary:
    delays, workloads = cell.high_delays, cell.workload
    delay_qs = quantiles(delays, _DELAY_QS) if len(delays) else (math.nan,) * len(_DELAY_QS)
    return ConditionSummary(
        policy=policy, delta=delta, load=load, n_trials=len(cell.duration),
        delay=_stats(delays),
        rho=_stats(cell.rho),
        r_fail=_stats(cell.aborted.astype(float)),
        workload=_stats(workloads),
        delay_median=delay_qs[2], delay_p90=delay_qs[5], delay_p95=delay_qs[6],
        delay_box=delay_qs[:5],
        workload_box=boxplot_stats(workloads),
        mean_duration=_stats(cell.duration).mean,
    )


def _pareto_points(summaries: list[ConditionSummary]) -> list[ParetoPoint]:
    """The point of each summary but those where no high-severity patient
    ever appeared."""
    return [ParetoPoint(policy=s.policy, delta=s.delta, load=s.load, x=s.delay.mean,
                        y=s.r_fail.mean, size=s.rho.mean * (1.0 - s.r_fail.mean))
            for s in summaries if not math.isnan(s.delay.mean)]


def aggregate(config: SweepConfig,
              trials: TrialTable | tuple[TrialRecord, ...]) -> SweepResult:
    """Build summaries, rollups, and Pareto sets from the trials.

    `trials` is a table in `(condition, policy.index, trial)` order, or
    records in any order, which are turned into one first. A policy's
    rollup is the summary of its cells' trials pooled in table order.
    """
    if not isinstance(trials, TrialTable):
        trials = TrialTable.from_records(trials)
    by_cell = {(int(trials.condition[start]), int(trials.policy[start])): cell
               for start, cell in trials.cells()}
    summaries = [_summarize_cell(policy, condition.delta, condition.patient_load,
                                 by_cell[condition.condition_id, policy.index])
                 for condition in config.conditions() for policy in config.policies
                 if (condition.condition_id, policy.index) in by_cell]

    pooled = []
    for policy in config.policies:
        cells = [cell for (_, index), cell in by_cell.items() if index == policy.index]
        if not cells:
            raise ValueError(f"policies: {policy.value} has no trial to roll up")
        pooled.append(_summarize_cell(policy, None, None, MetricColumns._make(
            map(np.concatenate, zip(*cells)))))
    rollups = [PolicyRollup(policy=s.policy, t_int_mean=s.delay.mean, rho=s.rho.mean,
                            r_fail=s.r_fail.mean, w_mean=s.workload.mean,
                            mission_time=s.mean_duration, delay_median=s.delay_median,
                            delay_p90=s.delay_p90, delay_p95=s.delay_p95,
                            n_trials=s.n_trials)
               for s in pooled]

    pareto_condition, pareto_pooled = _pareto_points(summaries), _pareto_points(pooled)
    return SweepResult(
        config=config,
        trials=trials,
        summaries=tuple(summaries),
        rollups=tuple(rollups),
        pareto_condition=tuple(pareto_condition),
        front_condition=tuple(pareto_front(pareto_condition)) if pareto_condition else (),
        pareto_pooled=tuple(pareto_pooled),
        front_pooled=tuple(pareto_front(pareto_pooled)) if pareto_pooled else (),
    )
