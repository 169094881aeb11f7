"""Patient visit orderings for the three candidate mission policies.

* Teleoperation: a simulated operator picks the nearest unvisited patient
  most of the time but occasionally picks an arbitrary one.
* Heuristic autonomy: plain nearest-neighbor from the base.
* Triage-aware planning: patients ranked by a priority score combining
  severity, urgency, and accessibility.

Every ordering returns a full permutation of the patient ids as a plain
tuple; ties always break toward the lower id so results are reproducible.

Both nearest-neighbour orderings run one kernel, `nearest_walks`, which
advances a batch of equally loaded fields in lock step, and the triage
ordering runs `triage_orders`; `plan_orders` picks the kernel of a policy.
The sweep plans a whole (condition, policy) cell with one call to it.
`plan_scenario` turns one scenario into columns once and plans it as a
batch of one; every per-scenario planner and `engine.run_mission` use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import Patient, Scenario
from .schema import bounded, check_fields

DEFAULT_OPERATOR_ERROR_RATE = 0.15


class PolicyId(Enum):
    PI1_TELEOP = "pi1_teleop"
    PI2_AUTO = "pi2_auto"
    PI3_GEODT = "pi3_geodt"

    @property
    def index(self) -> int:
        return list(PolicyId).index(self)


@dataclass(frozen=True)
class TriageWeights:
    """Weights of the priority score: severity, urgency, accessibility.

    Urgency decays exponentially in time-to-criticality with time constant
    `urgency_timescale`, so patients near criticality rank sharply higher.
    """

    w_severity: float = bounded(1.0, "[0, inf)")
    w_urgency: float = bounded(1.0, "[0, inf)")
    w_access: float = bounded(0.5, "[0, inf)")
    urgency_timescale: float = bounded(60.0, "(0, inf]")   # minutes

    def __post_init__(self) -> None:
        check_fields(self, "triage_weights.")
        if not self.w_severity + self.w_urgency + self.w_access > 0:
            raise ValueError("triage_weights: at least one weight must be positive")


DEFAULT_TRIAGE_WEIGHTS = TriageWeights()


# The batch ranks by squared distance. A row's remaining patients whose
# squared distance lies within this relative band of the row minimum, or
# within the smallest normal float of it, are ranked again with math.hypot.
# A squared distance is within 3 ulp of the true square, apart from squares
# that underflow below the smallest normal float, and math.hypot is within
# 1 ulp of the true distance. So the math.hypot nearest, and every patient
# tied with it, lies within about 1e-15 relative of the minimum: in the band.
_BAND = 1e-12
_BAND_FLOOR = np.finfo(float).tiny   # the smallest normal float


def operator_picks(stream: np.random.Generator, n: int, error_rate: float) -> list[int]:
    """The simulated operator's draws over an `n`-patient walk.

    Entry `step` is -1 when the operator flies to the nearest patient and
    `k` when it instead picks the k-th remaining patient in scenario order.
    While two or more patients remain and `error_rate` is positive, one
    uniform draw decides the mode of the step, then a second draw picks
    the random target when needed. The walk's geometry never enters, so
    these are all the draws a teleop plan takes.
    """
    picks = [-1] * n
    if error_rate > 0.0:
        random, integers = stream.random, stream.integers
        for step in range(n - 1):
            if random() < error_rate:
                picks[step] = int(integers(n - step))
    return picks


_LOW_HALF = np.uint64(0xFFFFFFFF)


def _lemire_threshold(bounds: np.ndarray) -> np.ndarray:
    """The low halves below which `integers(bound)` redraws: 2**32 mod bound."""
    return 2 ** 32 % bounds


def block_picks(streams: list[np.random.Generator], n: int, error_rate: float) -> np.ndarray:
    """`operator_picks` of each of `streams`, fresh PCG64 streams that have
    drawn nothing yet, as the rows of a ``(len(streams), n)`` int array.

    Each stream's raw words are read once, ``2 * (n - 1)`` of them, as many
    as a walk can take. NumPy's draws are then replayed a step at a time
    over the whole block: `random()` is ``(word >> 11) * 2**-53`` and
    `integers(k)` is 32-bit Lemire on PCG64's half-word buffer (the low half
    of a new word first, its high half for the next call). Each stream is
    then moved back to just after the words it used, as PCG64's `advance`
    takes its delta modulo the period. The scalar path may leave a buffered
    high half where this leaves none; nothing reads it, as every later draw
    of a mission stream (`engine.mission_schedules`, the twin's alerts)
    takes whole words. A walk whose Lemire draw would have been redrawn
    (under 2.4e-7 per pick at loads up to 1000) is drawn again by
    `operator_picks` from the stream moved back to its start.
    """
    picks = np.full((len(streams), n), -1)
    if not (error_rate > 0.0 and n > 1 and streams):
        return picks
    width = 2 * (n - 1)
    words = np.stack([stream.bit_generator.random_raw(width) for stream in streams])
    wrong = ((words >> np.uint64(11)) * 2.0 ** -53 < error_rate).ravel()
    words = words.ravel()
    start = np.arange(len(streams)) * width
    at = start.copy()     # each walk's next unread word, as an index of `words`
    held = start.copy()   # the word whose high half is buffered, while `buffered`
    buffered = np.zeros(len(streams), dtype=bool)
    redrawn = np.zeros(len(streams), dtype=bool)
    bounds = np.arange(n, 1, -1, dtype=np.uint64)   # patients left at each step
    thresholds = _lemire_threshold(bounds)
    for step in range(n - 1):
        mis = wrong[at]
        at += 1
        fresh = mis & ~buffered
        held = np.where(fresh, at, held)
        word = words[held]
        m = np.where(fresh, word & _LOW_HALF, word >> np.uint64(32)) * bounds[step]
        at += fresh
        buffered ^= mis
        redrawn |= mis & ((m & _LOW_HALF) < thresholds[step])
        picks[:, step] = np.where(mis, (m >> np.uint64(32)).astype(np.int64), -1)
    for trial, (stream, used, redraw) in enumerate(zip(streams, (at - start).tolist(),
                                                       redrawn.tolist())):
        stream.bit_generator.advance((0 if redraw else used) - width)
        if redraw:
            picks[trial] = operator_picks(stream, n, error_rate)
    return picks


def nearest_walks(xs: np.ndarray, ys: np.ndarray, base: tuple[float, float],
                  picks: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
    """Nearest-neighbour walks of a batch of fields, advanced in lock step.

    `xs` and `ys` are ``(walks, load)`` patient coordinates in scenario
    order, and every walk starts at `base`. Returns the ``(walks, load)``
    column indices in visit order. A step is the nearest remaining patient
    by `math.hypot`, ties to the lower id (`ids`, by default the column
    index), unless the walk's row of `picks` (from `block_picks` or
    `operator_picks`, or all -1 for a walk without mis-picks) names a
    mis-pick for that step.

    Each step takes the squared distances over the whole batch and an
    argmin per row. A row whose runner-up lies in the band of its minimum
    (see `_BAND`), which includes every row whose minimum is infinite, is
    ranked again with `math.hypot` over the remaining patients in the band.
    """
    walks, load = xs.shape
    if ids is None:
        ids = np.broadcast_to(np.arange(load), (walks, load))
    rows = np.arange(walks)
    visited = np.zeros((walks, load))   # added to a distance: 0, or inf once visited
    order = np.empty((walks, load), dtype=np.intp)
    cx = np.full(walks, float(base[0]))
    cy = np.full(walks, float(base[1]))
    with np.errstate(over="ignore"):
        for step in range(load):
            dx = cx[:, None] - xs
            dy = cy[:, None] - ys
            dist = dx * dx
            dist += dy * dy
            dist += visited
            k = dist.argmin(axis=1)
            best = dist[rows, k]
            edge = best + np.maximum(best * _BAND, _BAND_FLOOR)
            dist[rows, k] = np.inf
            runner_up = dist[rows, dist.argmin(axis=1)]
            for r in np.flatnonzero(runner_up <= edge).tolist():
                dist[r, k[r]] = best[r]
                band = np.flatnonzero((dist[r] <= edge[r]) & (visited[r] == 0.0)).tolist()
                x, y, row_x, row_y = float(cx[r]), float(cy[r]), xs[r].tolist(), ys[r].tolist()
                row_ids = ids[r].tolist()
                k[r] = min(band, key=lambda j: (math.hypot(x - row_x[j], y - row_y[j]),
                                                row_ids[j]))
            wrong = np.flatnonzero(picks[:, step] >= 0)
            if wrong.size:
                # The k-th remaining patient: k remaining columns precede it.
                remaining_before = np.cumsum(visited[wrong] == 0.0, axis=1)
                k[wrong] = (remaining_before <= picks[wrong, step, None]).sum(axis=1)
            order[:, step] = k
            visited[rows, k] = np.inf
            cx, cy = xs[rows, k], ys[rows, k]
    return order


def order_teleop(scenario: Scenario, stream: np.random.Generator,
                 error_rate: float = DEFAULT_OPERATOR_ERROR_RATE) -> tuple[int, ...]:
    """Noisy nearest-neighbor order chosen by a simulated operator.

    At each step the operator flies to the nearest unvisited patient with
    probability 1 - error_rate, otherwise to a uniformly random unvisited
    one. While two or more patients remain and error_rate is positive, one
    uniform draw decides the mode of the step, then a second draw picks
    the random target when needed. The last patient, and every step when
    error_rate is 0, draws nothing.
    """
    return plan_scenario(scenario, PolicyId.PI1_TELEOP, stream=stream, error_rate=error_rate)[0]


def order_heuristic(scenario: Scenario) -> tuple[int, ...]:
    """Deterministic nearest-neighbor from the base, ties to the lower id."""
    return plan_scenario(scenario, PolicyId.PI2_AUTO)[0]


def triage_score(patient: Patient, weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS) -> float:
    """Priority score: higher means visit sooner."""
    urgency = math.exp(-patient.time_to_criticality / weights.urgency_timescale)
    return (weights.w_severity * patient.severity
            + weights.w_urgency * urgency
            + weights.w_access * patient.accessibility)


def triage_orders(severities: np.ndarray, criticality: np.ndarray, access: np.ndarray,
                  weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS,
                  ids: np.ndarray | None = None) -> np.ndarray:
    """Triage orders of a batch of fields: `triage_score`, highest first.

    The arrays are ``(fields, load)`` patient columns in scenario order;
    returns the ``(fields, load)`` column indices in visit order, ties to the
    lower id (`ids`, by default the column index). Urgency is `math.exp`
    mapped over the batch, since `np.exp` rounds differently, and the score
    takes the operations of `triage_score` in its order.
    """
    if ids is None:
        ids = np.broadcast_to(np.arange(severities.shape[1]), severities.shape)
    with np.errstate(over="ignore"):
        exponents = (-criticality / weights.urgency_timescale).ravel().tolist()
    urgency = np.array(list(map(math.exp, exponents))).reshape(severities.shape)
    scores = (weights.w_severity * severities + weights.w_urgency * urgency
              + weights.w_access * access)
    return np.lexsort((ids, -scores))


def order_triage(scenario: Scenario,
                 weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS) -> tuple[int, ...]:
    """Patients sorted by priority score, highest first, ties to the lower id."""
    return plan_scenario(scenario, PolicyId.PI3_GEODT, weights)[0]


def plan_for_policy(scenario: Scenario, policy: PolicyId,
                    weights: TriageWeights, stream: np.random.Generator,
                    error_rate: float = DEFAULT_OPERATOR_ERROR_RATE) -> tuple[int, ...]:
    """Visit order of patient ids from the ordering that belongs to `policy`."""
    return plan_scenario(scenario, policy, weights, stream, error_rate)[0]


def plan_orders(policy: PolicyId, xs: np.ndarray, ys: np.ndarray, base: tuple[float, float],
                picks: np.ndarray, severities: np.ndarray, criticality: np.ndarray,
                access: np.ndarray, weights: TriageWeights,
                ids: np.ndarray | None = None) -> np.ndarray:
    """Visit orders of a batch of equally loaded fields under `policy`:
    `triage_orders` for the twin, `nearest_walks` along `picks` otherwise.
    The arrays are ``(fields, load)`` patient columns in scenario order;
    returns the ``(fields, load)`` column indices in visit order."""
    if policy is PolicyId.PI3_GEODT:
        return triage_orders(severities, criticality, access, weights, ids)
    return nearest_walks(xs, ys, base, picks, ids)


def plan_scenario(scenario: Scenario, policy: PolicyId,
                  weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS,
                  stream: np.random.Generator | None = None,
                  error_rate: float = DEFAULT_OPERATOR_ERROR_RATE,
                  ) -> tuple[tuple[int, ...], tuple[np.ndarray, ...], np.ndarray]:
    """One scenario's plan: `plan_orders` over a batch of one, on ``(1, load)``
    columns of x, y, severity, time to criticality and accessibility. Teleop
    draws its `operator_picks` from `stream`; no other policy draws. Returns
    the visited ids, the columns and the ``(1, load)`` order row."""
    ids = [p.id for p in scenario.patients]
    fields = [(*p.position, p.severity, p.time_to_criticality, p.accessibility)
              for p in scenario.patients]
    columns = tuple(np.array(fields, dtype=float).reshape(-1, 5).T[:, None])
    xs, ys, severities, criticality, access = columns
    picks = np.full(xs.shape, -1)   # -1: fly to the nearest patient
    if policy is PolicyId.PI1_TELEOP:
        picks[0] = operator_picks(stream, len(ids), error_rate)
    order = plan_orders(policy, xs, ys, scenario.base_position, picks, severities,
                        criticality, access, weights, np.array([ids]))
    return tuple(ids[j] for j in order[0].tolist()), columns, order
