"""Single-mission execution.

A mission visits patients in the order chosen by the active policy,
accumulating travel and service time, and terminates either by completing
the plan, by tripping an abort rule, or by hitting the hard horizon cap.

Time is continuous. Outages and estimator-integrity episodes are sampled
up front as interval sets, so travel, pauses, aborts, and operator events
are all computed with exact interval arithmetic; the result is
bit-reproducible for a given stream and independent of execution order.

Abort rules form a graded ladder:

* teleoperation pauses whenever the link is down and aborts once a single
  outage outlasts its (short) link timeout;
* autonomous and twin-managed missions keep flying through outages but
  abort after a sustained lost-link interval exceeding their (longer)
  policy-specific timeouts, or when the monitored pose-covariance trace
  stays above the uncertainty threshold longer than the grace period.

For the twin-managed policy the monitored covariance is the fused one, so
an integrity episode of the onboard estimator only crosses the threshold
while GPS is also out; that makes threshold crossings structurally rarer
than under pure autonomy.

The planned, pause-free visit times come from `leg_timelines`, which the
sweep calls once per (condition, policy) cell over `(trials, load)` arrays
and `run_mission` over a batch of one, on the columns and order row that
`policy.plan_scenario` built, once, for `policy.plan_orders`. The caller
draws each mission's interval schedules with `mission_schedules` and
passes them in: `run_mission` right after planning, the sweep for every
mission of a cell after its first pass, as flat columns.

`cell_outcomes` gives a cell's missions their outcome as columns, over the
whole cell at once and bit for bit as the mission loop (`_simulate`) logs
it: the duration, the abort flag, each patient's first intervention time
and the counts of operator task switches and control actions.
Supervised missions find their threshold crossings, aborts, served
patients and alerts with array passes; teleop missions fold their work
with one `np.cumsum` per outage a mission meets. The sweep runs no
mission loop and builds no event log.

The mission loop runs one mission for `run_mission`, for replay, tests
and demos. Its only output is its log of `MissionEvent`s, which ends with
an `ABORT` or `COMPLETE` event at the terminal time and which
`metrics.trial_metrics` reads as the oracle of the outcome.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .localization import (
    DEFAULT_LOCALIZATION_PARAMS,
    IntervalColumns,
    LocalizationParams,
    integrity_intervals,
    merge_intervals,
    outage_intervals,
)
from .policy import (
    DEFAULT_OPERATOR_ERROR_RATE,
    DEFAULT_TRIAGE_WEIGHTS,
    PolicyId,
    TriageWeights,
    plan_scenario,
)
from .scenario import Condition, Scenario
from .schema import bounded

# Mission event kinds.
DEPART = "depart"
ARRIVE = "arrive"
INTERVENE = "intervene"
TASK_SWITCH = "task_switch"
OPERATOR_INTERVENTION = "operator_intervention"
ABORT = "abort"
COMPLETE = "complete"

# Operator task alphabet.
TASK_NAVIGATE = "navigate"
TASK_ASSESS = "assess"
TASK_INTERVENE = "intervene"
TASK_RECOVER = "recover"
TASK_MONITOR = "monitor"

TASK_ALPHABET = frozenset({TASK_NAVIGATE, TASK_ASSESS, TASK_INTERVENE,
                           TASK_RECOVER, TASK_MONITOR})


class MissionEvent(NamedTuple):
    time: float
    kind: str
    patient_id: int | None = None
    task_label: str | None = None


@dataclass(frozen=True)
class MissionTrace:
    policy: PolicyId
    condition: Condition
    trial_index: int
    events: tuple[MissionEvent, ...]
    duration: float
    aborted: bool


@dataclass(frozen=True)
class PlatformParams:
    """Kinematics, service, and abort-rule constants."""

    cruise_speed: float = bounded(500.0, "(0, inf]")            # m/min
    service_time: float = bounded(1.5, "[0, inf]")              # minutes per intervention
    teleop_speed_factor: float = bounded(0.35, "(0, 1]")        # fraction of autonomous pace
    uncertainty_threshold: float = bounded(400.0, "[0, inf]")   # m^2 on the monitored trace
    abort_grace: float = bounded(2.0, "[0, inf]")       # minutes over threshold before abort
    comm_timeout_teleop: float = bounded(3.0, "[0, inf]")   # minutes of continuous outage
    comm_timeout_auto: float = bounded(6.0, "[0, inf]")
    comm_timeout_dt: float = bounded(12.0, "[0, inf]")
    uncertainty_penalty: float = bounded(0.5, "[0, inf)")  # travel inflation per sqrt(variance)/ref
    reference_distance: float = bounded(100.0, "(0, inf]")      # meters
    alert_suppression: float = bounded(0.5, "[0, 1]")  # share of alerts the twin resolves itself
    horizon: float = bounded(600.0, "(0, inf)")         # hard mission cap, minutes
    assess_fraction: float = bounded(0.4, "[0, 1]")     # share of teleop service spent assessing
    alert_handling_time: float = bounded(1.0, "[0, inf]")  # minutes an alert engages the operator

    def comm_timeout_for(self, policy: PolicyId) -> float:
        if policy is PolicyId.PI1_TELEOP:
            return self.comm_timeout_teleop
        if policy is PolicyId.PI2_AUTO:
            return self.comm_timeout_auto
        return self.comm_timeout_dt


DEFAULT_PLATFORM_PARAMS = PlatformParams()


@dataclass
class OperatorView:
    """The operator's active task and control actions.

    Each task change is logged in `events` as a task_switch event, and
    each control action as an operator_intervention event.
    """

    events: list[MissionEvent]
    task_label: str | None = None

    def switch(self, label: str, time: float) -> None:
        if label not in TASK_ALPHABET:
            raise ValueError(f"unknown task label {label!r}")
        if label != self.task_label:
            self.task_label = label
            self.events.append(MissionEvent(time, TASK_SWITCH, None, label))

    def act(self, time: float) -> None:
        self.events.append(MissionEvent(time, OPERATOR_INTERVENTION))


def _uncertainty_penalty(pose_variance: float, params: PlatformParams) -> float:
    """Travel inflation factor for a pose-covariance trace."""
    return 1.0 + params.uncertainty_penalty * math.sqrt(pose_variance) / params.reference_distance


def check_abort(elapsed_outage: float, elapsed_over_threshold: float,
                policy: PolicyId, params: PlatformParams = DEFAULT_PLATFORM_PARAMS) -> bool:
    """Abort rule: strict exceedance of the policy's timeout or grace period."""
    if elapsed_outage < 0.0 or elapsed_over_threshold < 0.0:
        raise ValueError("elapsed counters must be nonnegative")
    if elapsed_outage > params.comm_timeout_for(policy):
        return True
    if policy is not PolicyId.PI1_TELEOP and elapsed_over_threshold > params.abort_grace:
        return True
    return False


def monitored_trace(policy: PolicyId, delta: float, gps_valid: bool,
                    integrity_episode: bool,
                    loc: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> float:
    """Covariance trace watched by the abort monitor, per policy and regime."""
    inflation = loc.integrity_inflation if integrity_episode else 1.0
    if policy is PolicyId.PI1_TELEOP:
        return 2.0 * loc.gps_variance(delta)
    if policy is PolicyId.PI2_AUTO:
        return 2.0 * loc.auto_variance() * inflation
    return 2.0 * loc.fused_variance(delta, gps_valid=gps_valid, auto_inflation=inflation)


def nominal_trace(policy: PolicyId, delta: float,
                  loc: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> float:
    """Healthy-regime covariance trace used for travel planning."""
    return monitored_trace(policy, delta, gps_valid=True, integrity_episode=False, loc=loc)


# ---------------------------------------------------------------------------
# Threshold crossings.

def crossing_intervals(policy: PolicyId, delta: float,
                       outages: tuple[tuple[float, float], ...],
                       episodes: tuple[tuple[float, float], ...],
                       horizon: float,
                       params: PlatformParams = DEFAULT_PLATFORM_PARAMS,
                       loc: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS,
                       ) -> tuple[tuple[float, float], ...]:
    """Maximal intervals where the monitored trace sits above the threshold.

    `outages` and `episodes` must be sorted, disjoint ``[start, end)`` lists
    within ``[0, horizon]``. Their ends cut ``[0, horizon]`` into pieces on
    which GPS is up or down and an episode on or off throughout, so the
    trace is constant on each; a piece is judged by its regime at its start
    (a time lies inside a list iff an odd number of its ends are at or
    before it). That holds for any parameter set, not just the defaults.
    """
    if policy is PolicyId.PI1_TELEOP:
        return ()
    above = {(gps_valid, episode): monitored_trace(policy, delta, gps_valid, episode, loc)
             > params.uncertainty_threshold
             for gps_valid in (True, False) for episode in (False, True)}
    outage_ends = [t for interval in outages for t in interval]
    episode_ends = [t for interval in episodes for t in interval]
    cuts = sorted({0.0, horizon, *outage_ends, *episode_ends})
    return merge_intervals(
        (lo, hi) for lo, hi in zip(cuts, cuts[1:])
        if above[bisect_right(outage_ends, lo) % 2 == 0,
                 bisect_right(episode_ends, lo) % 2 == 1])


# ---------------------------------------------------------------------------
# Trace assembly.

_EPS = 1e-9
# Steps a teleop epoch folds: a row that meets many outages refolds at most
# this many steps per outage.
_WINDOW = 64


def mission_schedules(policy: PolicyId, delta: float, params: PlatformParams,
                      stream: np.random.Generator,
                      loc: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS,
                      ) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]:
    """A mission's outages and integrity episodes, drawn from its stream after
    the plan's draws: the outages, then the integrity episodes (autonomy and
    twin only: nothing in a teleop mission reads them). The sweep and
    `run_mission` both draw them here."""
    outages = outage_intervals(delta, params.horizon, stream, loc)
    if policy is PolicyId.PI1_TELEOP:
        return outages, ()
    return outages, integrity_intervals(params.horizon, stream, loc)


def run_mission(scenario: Scenario, policy: PolicyId,
                params: PlatformParams = DEFAULT_PLATFORM_PARAMS,
                weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS,
                stream: np.random.Generator | None = None,
                loc: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS,
                error_rate: float = DEFAULT_OPERATOR_ERROR_RATE,
                trial_index: int = 0) -> MissionTrace:
    """Execute one mission and return its event trace.

    Stream consumption order is fixed: visit-plan draws (teleop only),
    then `mission_schedules`, then alert-suppression draws (twin policy
    only). Identical inputs give bit-identical traces.
    """
    if params.horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if stream is None:
        stream = np.random.default_rng(0)
    delta = scenario.condition.delta
    visits, (xs, ys, _, _, access), order = plan_scenario(scenario, policy, weights, stream,
                                                          error_rate)
    outages, episodes = mission_schedules(policy, delta, params, stream, loc)
    depart, arrive, intervene, service = leg_timelines(
        xs, ys, access, order, scenario.base_position, policy, delta, params, loc)
    events: list[MissionEvent] = []
    _simulate(policy, delta, list(visits), depart[0].tolist(), arrive[0].tolist(),
              intervene[0].tolist(), service, outages, episodes, params, stream, loc, events)
    end = events[-1]   # ABORT or COMPLETE, at the terminal time
    return MissionTrace(policy=policy, condition=scenario.condition,
                        trial_index=trial_index, events=tuple(events),
                        duration=end.time, aborted=end.kind == ABORT)


_VELTKAMP = 134217729.0   # 2**27 + 1: splits a double into two 26-bit halves
_TINY = np.finfo(float).tiny   # the smallest normal float


def _square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x * x`` as the unevaluated sum of two doubles, exact for |x| < 1:
    CPython's `dl_mul(x, x)` (Dekker's mul12 on Veltkamp's split). Works in
    `x`'s memory, which it overwrites."""
    hi = x * _VELTKAMP
    hi -= hi - x   # t - (t - x)
    x -= hi        # lo
    p = hi * hi
    hi *= x
    hi += hi       # hi * lo + lo * hi, both rounded alike
    z = p + hi
    p -= z
    p += hi
    x *= x
    p += x
    return z, p


def _fast_sum(a: float | np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` and its rounding error, for |a| >= |b|: `dl_fast_sum`."""
    total = a + b
    return total, (a - total) + b


def _hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`math.hypot` of each pair of `a` and `b`, to the bit, in NumPy.

    It restates how CPython 3.11 computes a hypot of two coordinates
    (`vector_norm` in Modules/mathmodule.c) in the same IEEE operations:
    scale both magnitudes by the power of two that brings the larger into
    [0.5, 1), square each losslessly (`_square`), add the squares to 1.0
    with compensated sums, take the square root, and apply one differential
    correction before scaling back. A pair whose larger magnitude is 0,
    subnormal, infinite or NaN, which that code treats apart, is passed to
    `math.hypot` itself. The magnitudes are scaled and squared in place,
    so a batch holds at most about nine arrays of its size at once.
    """
    a, b = np.abs(a), np.abs(b)
    big = np.maximum(a, b)
    apart = np.nonzero(~((big >= _TINY) & (big < math.inf)))
    hypots = list(map(math.hypot, a[apart].tolist(), b[apart].tolist()))
    with np.errstate(all="ignore"):
        exp = np.frexp(big)[1]
        del big
        # The sum starts at 1.0 and both error terms at 0.0, which the first
        # coordinate's terms replace: a sign of zero cannot reach the result.
        square, frac1 = _square(np.ldexp(a, -exp, out=a))
        csum, frac2 = _fast_sum(1.0, square)
        square, low = _square(np.ldexp(b, -exp, out=b))
        frac1 += low
        csum, low = _fast_sum(csum, square)
        frac2 += low
        del a, b, square, low   # each array let go once read
        h = np.sqrt(csum - 1.0 + (frac1 + frac2))
        square, low = _square(h.copy())   # `dl_mul(-h, h)` is its negation
        frac1 -= low
        csum, low = _fast_sum(csum, -square)
        frac2 += low
        del square, low
        h += (csum - 1.0 + (frac1 + frac2)) / (2.0 * h)
        out = np.ldexp(h, exp, out=h)
    out[apart] = hypots
    return out


def leg_timelines(xs: np.ndarray, ys: np.ndarray, access: np.ndarray,
                  order: np.ndarray, base: tuple[float, float], policy: PolicyId,
                  delta: float, params: PlatformParams = DEFAULT_PLATFORM_PARAMS,
                  loc: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Planned visit times of a batch of missions, ignoring pauses.

    `xs`, `ys` and `access` are ``(missions, load)`` patient columns and
    `order` the ``(missions, load)`` column indices in visit order; each
    mission starts at `base` at time 0. Returns the ``(missions, load)``
    depart, arrive and intervene times in visit order, and the service time.

    A leg from the base or the previous patient takes distance over cruise
    speed, times the travel penalty, over the target's accessibility (a zero
    distance takes no time, even with an infinite penalty), and teleop flies
    it and serves slower. Distances are `math.hypot`'s, through `_hypot`,
    since `np.hypot` rounds differently; the rest takes the IEEE operations
    of one scalar leg in its order, and the times are a cumulative sum along
    each row, which adds left to right like the scalar loop.
    """
    if (access <= 0.0).any():
        raise ValueError("accessibility must be positive")
    penalty = _uncertainty_penalty(nominal_trace(policy, delta, loc), params)
    speed_scale = 1.0
    service = params.service_time
    if policy is PolicyId.PI1_TELEOP:
        speed_scale = 1.0 / params.teleop_speed_factor
        service = params.service_time / params.teleop_speed_factor
    rows = np.arange(order.shape[0])[:, None]
    tx, ty = xs[rows, order], ys[rows, order]
    ox, oy = np.empty_like(tx), np.empty_like(ty)   # each leg's origin
    ox[:, :1], oy[:, :1] = base
    ox[:, 1:], oy[:, 1:] = tx[:, :-1], ty[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):
        dist = _hypot(tx - ox, ty - oy)
        legs = np.where(dist == 0.0, 0.0,
                        dist / params.cruise_speed * penalty / access[rows, order])
        legs *= speed_scale
        steps = np.empty((len(legs), 2 * legs.shape[1]))
        steps[:, 0::2] = legs
        steps[:, 1::2] = service
        times = np.cumsum(steps, axis=1)
    arrive, intervene = times[:, 0::2], times[:, 1::2]
    depart = np.zeros_like(arrive)
    depart[:, 1:] = intervene[:, :-1]
    return depart, arrive, intervene, service


def cell_outcomes(policy: PolicyId, delta: float, orders: np.ndarray,
                  depart: np.ndarray, arrive: np.ndarray, intervene: np.ndarray,
                  service: float, outages: IntervalColumns, episodes: IntervalColumns,
                  streams: list,
                  params: PlatformParams = DEFAULT_PLATFORM_PARAMS,
                  loc: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What the metrics read off a cell of missions, as columns.

    `orders`, `depart`, `arrive` and `intervene` are the cell's
    ``(missions, load)`` visit orders and `leg_timelines`, with ``load >= 1``;
    `outages` and `episodes` are its missions' `mission_schedules` as flat
    columns and `streams` each mission's stream after them. Returns the
    duration, abort flag, task-switch and control-action counts per
    mission, and each patient's first intervention time by patient id (NaN
    if unserved), bit for bit as `_simulate` logs them, for every mission:
    NaN and infinite planned times included.
    """
    if policy is PolicyId.PI1_TELEOP:
        duration, aborted, switches, actions, times = _teleop_columns(
            depart, arrive, service, outages, params)
    else:
        duration, aborted, switches, actions, times = _supervised_columns(
            policy, delta, depart, intervene, outages, episodes, streams, params, loc)
    served = np.full(orders.shape, math.nan)
    served[np.arange(len(orders))[:, None], orders] = times
    return duration, aborted, switches, actions, served


def _first_past(rows, starts, ends, limit, n):
    """Per mission, the start plus `limit` of its first interval longer than
    `limit` (inf if none), as `check_abort` judges and stamps it; `rows` are
    the intervals' missions, in order."""
    at = np.full(n, math.inf)
    hit = np.flatnonzero(ends - starts > limit)
    first = hit[np.diff(rows[hit], prepend=-1) != 0]
    at[rows[first]] = starts[first] + limit
    return at


def _supervised_columns(policy, delta, depart, intervene, outages, episodes, streams,
                        params, loc):
    """`_run_supervised` over a cell, as columns.

    Crossings: each row is cut at 0, the horizon and every interval end; a
    piece is judged, as `crossing_intervals` judges it, by the parity of
    the ends at or before its start, and adjacent pieces above the threshold
    join. The aborts, the served patients and the operator's alerts follow
    `_run_supervised` rule by rule. The twin draws one suppression uniform
    per alert before the terminal time, in alert order, with one
    `stream.random(k)` per mission; no later draw is read.
    """
    n = len(intervene)
    horizon, handling = params.horizon, params.alert_handling_time
    natural_end = np.where(np.isnan(intervene[:, -1]), math.inf, intervene[:, -1])
    o_rows, e_rows = outages.rows(), episodes.rows()
    # above[gps up, in an episode]
    above = np.array([[monitored_trace(policy, delta, gps_valid, episode, loc)
                       > params.uncertainty_threshold for episode in (False, True)]
                      for gps_valid in (False, True)])
    everyone = np.arange(n)
    times = np.concatenate([np.zeros(n), np.full(n, horizon), outages.starts, outages.ends,
                            episodes.starts, episodes.ends])
    rows = np.concatenate([everyone, everyone, o_rows, o_rows, e_rows, e_rows])
    kinds = np.repeat([0, 1, 2], [2 * n, 2 * len(o_rows), 2 * len(e_rows)])
    order = np.lexsort((times, rows))
    times, rows, kinds = times[order], rows[order], kinds[order]
    # Every row holds an even count of each kind, so parities run on across rows.
    gps_up = np.cumsum(kinds == 1) % 2 == 0
    in_episode = np.cumsum(kinds == 2) % 2 == 1
    last = np.ones(len(times), dtype=bool)   # the last point at each distinct time
    last[:-1] = (rows[1:] != rows[:-1]) | (times[1:] != times[:-1])
    times, rows = times[last], rows[last]
    up = above[gps_up[last].astype(int), in_episode[last].astype(int)]
    up[:-1] &= rows[1:] == rows[:-1]   # a row's last cut opens no piece
    up[-1] = False
    opens, closes = up.copy(), up.copy()
    opens[1:] &= ~up[:-1]
    closes[:-1] &= ~up[1:]
    c_rows, c_starts = rows[opens], times[opens]
    c_ends = times[np.flatnonzero(closes) + 1]

    abort_at = np.minimum(
        _first_past(o_rows, outages.starts, outages.ends, params.comm_timeout_for(policy), n),
        _first_past(c_rows, c_starts, c_ends, params.abort_grace, n))
    abort_at = np.minimum(abort_at, np.where(natural_end > horizon, horizon, math.inf))
    aborted = abort_at < natural_end
    terminal = np.where(aborted, abort_at, natural_end)
    reached = np.logical_and.accumulate(depart <= terminal[:, None], axis=1)
    served = np.where(reached & (intervene <= terminal[:, None]), intervene, math.nan)

    when = np.concatenate([outages.starts, c_starts])
    who = np.concatenate([o_rows, c_rows])
    early = when < terminal[who]
    when, who = when[early], who[early]
    order = np.lexsort((when, who))
    when, who = when[order], who[order]
    if policy is PolicyId.PI3_GEODT:
        alerts = np.bincount(who, minlength=n)
        draws = [streams[row].random(alerts[row]) for row in np.flatnonzero(alerts).tolist()]
        kept = np.concatenate(draws) >= params.alert_suppression if draws else early[:0]
        when, who = when[kept], who[kept]
    handled = np.bincount(who, minlength=n)
    release = when + handling
    again = (who[1:] == who[:-1]) & (release[:-1] <= when[1:])
    returns = np.bincount(who[1:][again], minlength=n)
    final = np.flatnonzero(np.diff(who, append=n) != 0)   # each row's last alert
    released = np.zeros(n, dtype=bool)
    released[who[final]] = release[final] < terminal[who[final]]
    monitoring = (handled == 0) | released
    switches = 1 + (handled > 0) + 2 * returns + released + (aborted & monitoring)
    return terminal, aborted, switches, handled + aborted, served


def _teleop_columns(depart, arrive, service, outages, params):
    """`_run_teleop` over a cell, as columns, one epoch per outage a row meets.

    A visit is three steps of work: its leg, the assess time and the rest of
    the service; a NaN step (an infinite time less another) is infinite, as
    `do_work` reads it. Past its last step each row holds one zero step: a
    gather past the end reads it, and a scatter past the end lands where
    nothing reads. In every epoch each active row folds its next `_WINDOW`
    steps at most from its time with one `np.cumsum` of ``[t, rest of the
    step, later steps]``, `do_work`'s left fold bit for bit, and stops at
    the first step with work where its next outage starts within `_EPS` of
    the step's start or before the step's work is done; a step without work
    is not checked. A row that folds through its window without stopping
    goes on from the window's end.
    Paused inside a step, the row moves to the outage start and pauses if
    that is within `_EPS`, else folds on in the next epoch, as `do_work`
    loops. A pause switches to recover, and aborts at the outage start plus
    the timeout if the outage outlasts it, else resumes at its end with a
    control action and a switch back. An infinite step pauses at every
    outage left, all at finite times, before its row's time turns infinite.
    The counts keep what lies at or under the terminal time plus `_EPS`, as
    `_run_teleop` cuts them.
    """
    n, load = depart.shape
    steps = 3 * load
    assess = service * params.assess_fraction
    work = np.zeros((n, steps + 1))
    with np.errstate(invalid="ignore"):
        work[:, 0:steps:3] = arrive - depart
    work[:, 1:steps:3] = assess
    work[:, 2:steps:3] = service - assess
    work[np.isnan(work)] = math.inf
    o_starts = np.append(outages.starts, math.inf)
    o_ends, timeout = outages.ends, params.comm_timeout_teleop
    ends = np.full(work.shape, math.nan)   # each step's end, once done
    finish = np.zeros(n)                   # the end, or the abort time
    aborted = np.zeros(n, dtype=bool)
    no_pause = (np.empty(0, dtype=np.int64), np.empty(0))
    recover, resume = [no_pause], [no_pause]   # (rows, times) of the pauses' switches
    rows = np.arange(n)
    t, step, rest = np.zeros(n), np.zeros(n, dtype=np.int64), work[:, 0]
    nxt = np.cumsum(outages.counts) - outages.counts
    last = nxt + outages.counts
    while len(rows):
        active = np.arange(len(rows))
        meets = nxt < last
        start = np.where(meets, o_starts[nxt], math.inf)
        span = min(_WINDOW, steps - step.min())
        offset = np.arange(span)
        flat = rows[:, None] * (steps + 1) + np.minimum(step[:, None] + offset, steps)
        folds = np.empty((len(rows), span + 1))
        folds[:, 0] = t
        folds[:, 1:] = work.take(flat)
        folds[:, 1] = rest
        with np.errstate(over="ignore", invalid="ignore"):
            clock = np.cumsum(folds, axis=1)
            begin, todo = clock[:, :-1], folds[:, 1:]
            gap = start[:, None] - begin
            halt = (meets[:, None] & (todo > 0.0)
                    & ((start[:, None] <= begin + _EPS) | ~(todo <= gap)))
            halted = halt.any(axis=1)
            at = np.where(halted, halt.argmax(axis=1), span)
            j = np.minimum(at, span - 1)
            begin, todo, gap = begin[active, j], todo[active, j], gap[active, j]
            moved, left = begin + gap, todo - gap
        folded = offset < at[:, None]
        ends.put(flat[folded], clock[:, 1:][folded])
        through = ~halted & (step + span >= steps)
        finish[rows[through]] = clock[through, -1]

        # A halted row stands at its stop, before or inside the step; any
        # other goes on from the window's end.
        before = halted & (start <= begin + _EPS)
        step = step + at
        t = np.where(before, begin, np.where(halted, moved, clock[:, -1]))
        rest = np.where(before, todo,
                        np.where(halted, left, work[rows, np.minimum(step, steps)]))
        paused = before | (halted & (start <= t + _EPS))
        recover.append((rows[paused], np.maximum(t, start)[paused]))
        gives_up = paused.copy()   # a paused row meets an outage
        gives_up[paused] = o_ends[nxt[paused]] - start[paused] > timeout
        finish[rows[gives_up]] = start[gives_up] + timeout
        aborted[rows[gives_up]] = True
        back = paused & ~gives_up
        t[back] = o_ends[nxt[back]]
        resume.append((rows[back], t[back]))
        nxt = nxt + back
        go_on = ~gives_up & ~through
        rows, t, step, rest, nxt, last = (
            rows[go_on], t[go_on], step[go_on], rest[go_on], nxt[go_on], last[go_on])

    horizon = params.horizon
    aborted |= finish > horizon
    terminal = np.minimum(finish, horizon)
    cut = terminal + _EPS

    def counted(events):
        who, when = map(np.concatenate, zip(*events))
        return np.bincount(who[when <= cut[who]], minlength=n)

    started = np.ones((n, steps), dtype=bool)
    started[:, 1:] = ends[:, :steps - 1] <= cut[:, None]
    resumed = counted(resume)
    switches = started.sum(axis=1) + counted(recover) + resumed
    actions = started[:, 0::3].sum(axis=1) + resumed
    done = ends[:, 2:steps:3]
    return terminal, aborted, switches, actions, np.where(done <= cut[:, None], done, math.nan)


def _simulate(policy: PolicyId, delta: float, ids: list[int], depart: list[float],
              arrive: list[float], intervene: list[float], service: float,
              outages: tuple[tuple[float, float], ...],
              episodes: tuple[tuple[float, float], ...],
              params: PlatformParams, stream: np.random.Generator,
              loc: LocalizationParams,
              events: list[MissionEvent]) -> None:
    """Execute one mission along its planned rows and log its events into
    `events`, the last an `ABORT` or `COMPLETE` at the terminal time.

    The rows are one mission's `leg_timelines`: the visited ids, and their
    depart, arrive and intervene times. `outages` and `episodes` are its
    `mission_schedules`, and `stream` the mission stream after them.
    """
    if policy is PolicyId.PI1_TELEOP:
        _run_teleop(ids, depart, arrive, service, outages, params, events)
    else:
        crossings = crossing_intervals(policy, delta, outages, episodes,
                                       params.horizon, params, loc)
        _run_supervised(policy, ids, depart, arrive, intervene,
                        outages, crossings, params, stream, events)


def _run_supervised(policy, ids, depart, arrive, intervene, outages, crossings,
                    params, stream, events):
    """Autonomous and twin-managed missions: no pauses, supervisory operator."""
    natural_end = intervene[-1] if intervene else 0.0
    if natural_end != natural_end:
        # NaN: a leg of infinite distance at infinite speed. As in teleop, it
        # never ends, so the mission runs to an abort.
        natural_end = math.inf

    # Each rule judges an interval on its full length and, when it trips,
    # stamps the abort its limit after the interval opens.
    timeout = params.comm_timeout_for(policy)
    comm_abort = next((start + timeout for start, end in outages
                       if check_abort(end - start, 0.0, policy, params)), math.inf)
    unc_abort = next((start + params.abort_grace for start, end in crossings
                      if check_abort(0.0, end - start, policy, params)), math.inf)
    cap = params.horizon if natural_end > params.horizon else math.inf
    abort_at = min(comm_abort, unc_abort, cap)
    aborted = abort_at < natural_end
    terminal = abort_at if aborted else natural_end

    activity: list[MissionEvent] = []
    for pid, t_depart, t_arrive, t_intervene in zip(ids, depart, arrive, intervene):
        if not t_depart <= terminal:   # a NaN departure follows a NaN leg
            break
        activity.append(MissionEvent(t_depart, DEPART, pid))
        if t_arrive <= terminal:
            activity.append(MissionEvent(t_arrive, ARRIVE, pid))
        if t_intervene <= terminal:
            activity.append(MissionEvent(t_intervene, INTERVENE, pid))

    # Supervisory operator: monitor baseline, react to link and uncertainty
    # alerts; the twin autonomously resolves a share of them.
    ops: list[MissionEvent] = []
    view = OperatorView(ops)
    view.switch(TASK_MONITOR, 0.0)

    alert_times = sorted([s for s, _ in outages] + [s for s, _ in crossings])
    handled: list[float] = []
    for when in alert_times:
        suppressed = (policy is PolicyId.PI3_GEODT
                      and stream.random() < params.alert_suppression)
        if suppressed:
            continue
        if when < terminal:
            handled.append(when)

    release: float | None = None
    for when in handled:
        if release is not None and release <= when:
            view.switch(TASK_MONITOR, release)
        view.switch(TASK_ASSESS, when)
        view.act(when)
        release = when + params.alert_handling_time
    if release is not None and release < terminal:
        view.switch(TASK_MONITOR, release)

    if aborted:
        # Every other operator event precedes `terminal` and no activity
        # event follows it, so the stable sort puts these two last.
        view.switch(TASK_ASSESS, terminal)
        view.act(terminal)
    events += sorted(activity + ops, key=lambda e: e.time)
    events.append(MissionEvent(terminal, ABORT if aborted else COMPLETE))


def _run_teleop(ids, depart, arrive, service, outages, params, events):
    """Teleoperated mission: paused by outages, aborted by a long one.

    The operator flies every leg by hand (one control action per leg),
    walks through navigate/assess/intervene phases per visit, and switches
    to recovery whenever the link drops. Event times never decrease, so
    the events the log keeps at the terminal time are a prefix of those
    produced.
    """
    view = OperatorView(events)
    policy = PolicyId.PI1_TELEOP

    assess_dur = service * params.assess_fraction
    intervene_dur = service - assess_dur
    timeout = params.comm_timeout_teleop

    outage_idx = 0

    def do_work(t: float, work: float, resume_label: str) -> tuple[float, bool]:
        """Advance `work` active minutes from wall time t, pausing in outages.

        Returns the finish time and False, or the abort time and True once
        an outage outlasts the link timeout.
        """
        nonlocal outage_idx
        if work != work:   # NaN: an infinite planned time less another
            work = math.inf
        while True:
            if work <= 0.0:
                return t, False
            if outage_idx < len(outages) and outages[outage_idx][0] <= t + _EPS:
                start, end = outages[outage_idx]
                view.switch(TASK_RECOVER, max(t, start))
                if check_abort(end - start, 0.0, policy, params):
                    return start + timeout, True
                t = end
                view.act(t)
                view.switch(resume_label, t)
                outage_idx += 1
                continue
            gap = (outages[outage_idx][0] - t) if outage_idx < len(outages) else math.inf
            if work <= gap:
                return t + work, False
            t += gap
            work -= gap

    t = 0.0
    aborted = False
    for pid, t_depart, t_arrive in zip(ids, depart, arrive):
        view.act(t)
        view.switch(TASK_NAVIGATE, t)
        events.append(MissionEvent(t, DEPART, pid))
        t, aborted = do_work(t, t_arrive - t_depart, TASK_NAVIGATE)
        if aborted:
            break
        events.append(MissionEvent(t, ARRIVE, pid))
        view.switch(TASK_ASSESS, t)
        t, aborted = do_work(t, assess_dur, TASK_ASSESS)
        if aborted:
            break
        view.switch(TASK_INTERVENE, t)
        t, aborted = do_work(t, intervene_dur, TASK_INTERVENE)
        if aborted:
            break
        events.append(MissionEvent(t, INTERVENE, pid))

    terminal = t
    if terminal > params.horizon:
        terminal = params.horizon
        aborted = True

    events[:] = [e for e in events if e.time <= terminal + _EPS]
    events.append(MissionEvent(terminal, ABORT if aborted else COMPLETE))
