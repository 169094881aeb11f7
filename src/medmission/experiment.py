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

import numpy as np
from scipy import stats as _scipy_stats

from .engine import DEFAULT_PLATFORM_PARAMS, PlatformParams, _simulate, leg_timelines
from .localization import DEFAULT_LOCALIZATION_PARAMS, LocalizationParams
from .metrics import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_SERVICE_WINDOW,
    TrialMetrics,
    failure_rate,
    outcome_metrics,
)
from .policy import (
    DEFAULT_OPERATOR_ERROR_RATE,
    DEFAULT_TRIAGE_WEIGHTS,
    PolicyId,
    TriageWeights,
    nearest_walks,
    operator_picks,
    triage_orders,
)
from .scenario import (
    DEFAULT_SCENARIO_PARAMS,
    DETECT_TIME,
    MAX_TRIALS_PER_CELL,
    Condition,
    ScenarioParams,
    StreamPurpose,
    cell_seed_words,
    criticality_times,
    draw_field,
    high_severity_flags,
    seeded_stream,
)
from .schema import bounded, check_fields

DEFAULT_DEGRADATION_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_PATIENT_LOADS = (5, 10, 20, 40)
MAX_PATIENT_LOAD = 1000   # nearest-neighbour planning is quadratic in the load
DEFAULT_TRIALS_PER_CONDITION = 250
DEFAULT_MASTER_SEED = 42
MAX_INTERVALS_PER_MISSION = 10_000   # expected outage and integrity intervals
_NAN_BOX = (math.nan,) * 5   # the five-number summary of no samples


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
    alpha: float = bounded(DEFAULT_ALPHA, "[0, inf]")
    beta: float = bounded(DEFAULT_BETA, "[0, inf]")
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
    delta: float
    load: int
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
    """Whole-sweep aggregate per policy, one row per policy."""

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
    config: SweepConfig
    records: tuple[TrialRecord, ...]
    summaries: tuple[ConditionSummary, ...]
    rollups: tuple[PolicyRollup, ...]
    pareto_condition: tuple[ParetoPoint, ...]
    front_condition: tuple[ParetoPoint, ...]
    pareto_pooled: tuple[ParetoPoint, ...]
    front_pooled: tuple[ParetoPoint, ...]


# ---------------------------------------------------------------------------
# Statistical kernels.

def confidence_interval(samples, level: float = 0.95) -> tuple[float, float]:
    """Student-t interval on the sample mean."""
    n = len(samples)
    if n < 2:
        raise ValueError("confidence interval needs at least two samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be inside (0, 1)")
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    t_crit = float(_scipy_stats.t.ppf(0.5 + level / 2.0, n - 1))
    half = t_crit * sd / math.sqrt(n)
    return mean - half, mean + half


def quantiles(samples, qs) -> tuple[float, ...]:
    """Linear-interpolation quantiles at rank (n-1)*q + 1 (1-indexed)."""
    if len(samples) == 0:
        raise ValueError("quantiles undefined for an empty sample set")
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
    arr = np.asarray(samples, dtype=float)
    return tuple(float(v) for v in np.quantile(arr, list(qs), method="linear"))


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

def _run_cell(config: SweepConfig, condition: Condition,
              policy: PolicyId) -> list[TrialRecord]:
    n_trials, load = config.trials_per_condition, condition.patient_load
    # Rows 2*trial + purpose: the seeds derive_stream would build one by one.
    seeds = cell_seed_words(config.master_seed, condition.condition_id,
                            policy.index, n_trials)
    # Pass 1: every trial's field as arrays, and the operator's picks, which
    # are the first draws of the mission stream.
    positions = np.empty((n_trials, load, 2))
    severities = np.empty((n_trials, load))
    access = np.empty((n_trials, load))
    picks = np.full((n_trials, load), -1)   # -1: fly to the nearest patient
    streams = []
    for trial in range(n_trials):
        scenario_stream = seeded_stream(seeds[2 * trial + StreamPurpose.SCENARIO])
        positions[trial], severities[trial], access[trial] = draw_field(
            load, scenario_stream, config.scenario_params)
        streams.append(seeded_stream(seeds[2 * trial + StreamPurpose.MISSION]))
        if policy is PolicyId.PI1_TELEOP:
            picks[trial] = operator_picks(streams[-1], load, config.operator_error_rate)
    # Then the cell's orders and planned timelines, one call each.
    field, base = config.scenario_params, config.scenario_params.base_position
    xs, ys = positions[:, :, 0], positions[:, :, 1]
    if policy is PolicyId.PI3_GEODT:
        orders = triage_orders(severities, criticality_times(severities, field),
                               access, config.triage_weights)
    else:
        orders = nearest_walks(xs, ys, base, picks)
    depart, arrive, intervene, service = leg_timelines(
        xs, ys, access, orders, base, policy, condition.delta,
        config.platform, config.localization)
    high = high_severity_flags(severities, field)
    detect = [DETECT_TIME] * load   # by patient id, which is the column

    # Last, each trial's rows are lists only while its mission runs.
    records = []
    for trial, stream in enumerate(streams):
        # No event log: the mission loop counts what the metrics read.
        outcome = _simulate(policy, condition.delta, orders[trial].tolist(),
                            depart[trial].tolist(), arrive[trial].tolist(),
                            intervene[trial].tolist(), service, config.platform,
                            stream, config.localization, events=None)
        bundle = outcome_metrics(outcome, high[trial].nonzero()[0].tolist(), detect,
                                 load, config.tau_c, config.alpha, config.beta)
        records.append(TrialRecord(policy=policy, delta=condition.delta,
                                   load=load, condition_id=condition.condition_id,
                                   trial=trial, metrics=bundle))
    return records


def run_sweep(config: SweepConfig = DEFAULT_SWEEP_CONFIG,
              workers: int = 1) -> SweepResult:
    """Execute the full sweep and aggregate it.

    `workers` > 1 fans the (condition, policy) cells out to a process
    pool of at most one worker per cell; aggregation sorts everything
    back into deterministic index order, so the result does not depend
    on the degree of parallelism.
    """
    config.validate()
    conditions, policies = zip(*[(condition, policy)
                                 for condition in config.conditions()
                                 for policy in config.policies])
    configs = [config] * len(policies)

    if workers <= 1:
        chunks = list(map(_run_cell, configs, conditions, policies))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(policies))) as pool:
            chunks = list(pool.map(_run_cell, configs, conditions, policies))

    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.condition_id, r.policy.index, r.trial))
    return aggregate(config, tuple(records))


def _stats(samples: list[float]) -> Stats:
    n = len(samples)
    if n == 0:
        return Stats(math.nan, math.nan, math.nan, math.nan)
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    if n == 1:
        return Stats(mean, math.nan, math.nan, math.nan)
    lo, hi = confidence_interval(samples)
    return Stats(mean, float(arr.std(ddof=1)), lo, hi)


def _summarize_cell(policy: PolicyId, delta: float, load: int,
                    cell: list[TrialRecord]) -> ConditionSummary:
    delays = [rec.delay for r in cell for rec in r.metrics.high_severity_delays]
    workloads = [r.metrics.workload for r in cell]
    if delays:
        delay_med, delay_p90, delay_p95 = quantiles(delays, (0.5, 0.9, 0.95))
        delay_box = boxplot_stats(delays)
    else:
        delay_med = delay_p90 = delay_p95 = math.nan
        delay_box = _NAN_BOX
    return ConditionSummary(
        policy=policy, delta=delta, load=load, n_trials=len(cell),
        delay=_stats(delays),
        rho=_stats([r.metrics.rho for r in cell]),
        r_fail=_stats([1.0 if r.metrics.aborted else 0.0 for r in cell]),
        workload=_stats(workloads),
        delay_median=delay_med, delay_p90=delay_p90, delay_p95=delay_p95,
        delay_box=delay_box,
        workload_box=boxplot_stats(workloads) if workloads else _NAN_BOX,
        mean_duration=float(np.mean([r.metrics.duration for r in cell])),
    )


def _rollup(policy: PolicyId, records: list[TrialRecord]) -> PolicyRollup:
    delays = [rec.delay for r in records for rec in r.metrics.high_severity_delays]
    med, p90, p95 = quantiles(delays, (0.5, 0.9, 0.95)) if delays else (math.nan,) * 3
    return PolicyRollup(
        policy=policy,
        t_int_mean=float(np.mean(delays)) if delays else math.nan,
        rho=float(np.mean([r.metrics.rho for r in records])),
        r_fail=failure_rate([r.metrics.aborted for r in records]),
        w_mean=float(np.mean([r.metrics.workload for r in records])),
        mission_time=float(np.mean([r.metrics.duration for r in records])),
        delay_median=med, delay_p90=p90, delay_p95=p95,
        n_trials=len(records),
    )


def aggregate(config: SweepConfig, records: tuple[TrialRecord, ...]) -> SweepResult:
    """Build summaries, rollups, and Pareto sets from raw trial records."""
    by_cell: dict[tuple[int, int], list[TrialRecord]] = {}
    by_policy: dict[PolicyId, list[TrialRecord]] = {p: [] for p in config.policies}
    for rec in records:
        by_cell.setdefault((rec.condition_id, rec.policy.index), []).append(rec)
        by_policy[rec.policy].append(rec)

    summaries = []
    for condition in config.conditions():
        for policy in config.policies:
            cell = by_cell.get((condition.condition_id, policy.index), [])
            if cell:
                summaries.append(_summarize_cell(policy, condition.delta,
                                                 condition.patient_load, cell))

    rollups = [_rollup(policy, by_policy[policy]) for policy in config.policies]

    pareto_condition = []
    for s in summaries:
        if math.isnan(s.delay.mean):
            continue   # no high-severity patient ever appeared in this cell
        pareto_condition.append(ParetoPoint(
            policy=s.policy, delta=s.delta, load=s.load,
            x=s.delay.mean, y=s.r_fail.mean,
            size=s.rho.mean * (1.0 - s.r_fail.mean)))
    pareto_pooled = [
        ParetoPoint(policy=r.policy, delta=None, load=None, x=r.t_int_mean,
                    y=r.r_fail, size=r.rho * (1.0 - r.r_fail))
        for r in rollups if not math.isnan(r.t_int_mean)
    ]

    return SweepResult(
        config=config,
        records=records,
        summaries=tuple(summaries),
        rollups=tuple(rollups),
        pareto_condition=tuple(pareto_condition),
        front_condition=tuple(pareto_front(pareto_condition)) if pareto_condition else (),
        pareto_pooled=tuple(pareto_pooled),
        front_pooled=tuple(pareto_front(pareto_pooled)) if pareto_pooled else (),
    )
