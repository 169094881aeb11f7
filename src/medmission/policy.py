"""Patient visit orderings for the three candidate mission policies.

* Teleoperation: a simulated operator picks the nearest unvisited patient
  most of the time but occasionally picks an arbitrary one.
* Heuristic autonomy: plain nearest-neighbor from the base.
* Triage-aware planning: patients ranked by a priority score combining
  severity, urgency, and accessibility.

Every ordering returns a full permutation of the patient ids as a plain
tuple; ties always break toward the lower id so results are reproducible.
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
        return _POLICY_ORDER.index(self)


_POLICY_ORDER = [PolicyId.PI1_TELEOP, PolicyId.PI2_AUTO, PolicyId.PI3_GEODT]


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


def _nearest_neighbour_order(scenario: Scenario, stream: np.random.Generator | None,
                             error_rate: float) -> tuple[int, ...]:
    """Nearest-neighbour walk from the base, ties to the lower id.

    With probability `error_rate` a step instead picks a uniformly random
    remaining patient. The remaining patients are kept as an index list in
    scenario order over precomputed coordinate lists, so a random pick
    indexes the same list the operator sees and a nearest pick is one pass
    of `math.hypot` over it.
    """
    patients = scenario.patients
    ids = [p.id for p in patients]
    xs = [p.position[0] for p in patients]
    ys = [p.position[1] for p in patients]
    remaining = list(range(len(patients)))
    cx, cy = scenario.base_position
    hypot = math.hypot
    order: list[int] = []
    while remaining:
        if len(remaining) == 1:
            k = 0
        elif error_rate > 0.0 and stream.random() < error_rate:
            k = int(stream.integers(len(remaining)))
        else:
            dists = [hypot(cx - xs[i], cy - ys[i]) for i in remaining]
            best = min(dists)
            k = dists.index(best)
            if dists.count(best) > 1:   # exact tie: the lower id wins
                k = min((j for j, d in enumerate(dists) if d == best),
                        key=lambda j: ids[remaining[j]])
        i = remaining.pop(k)
        order.append(ids[i])
        cx, cy = xs[i], ys[i]
    return tuple(order)


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
    return _nearest_neighbour_order(scenario, stream, error_rate)


def order_heuristic(scenario: Scenario) -> tuple[int, ...]:
    """Deterministic nearest-neighbor from the base, ties to the lower id."""
    return _nearest_neighbour_order(scenario, None, 0.0)


def triage_score(patient: Patient, weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS) -> float:
    """Priority score: higher means visit sooner."""
    urgency = math.exp(-patient.time_to_criticality / weights.urgency_timescale)
    return (weights.w_severity * patient.severity
            + weights.w_urgency * urgency
            + weights.w_access * patient.accessibility)


def order_triage(scenario: Scenario,
                 weights: TriageWeights = DEFAULT_TRIAGE_WEIGHTS) -> tuple[int, ...]:
    """Patients sorted by priority score, highest first, ties to the lower id."""
    ranked = sorted(scenario.patients,
                    key=lambda p: (-triage_score(p, weights), p.id))
    return tuple(p.id for p in ranked)


def plan_for_policy(scenario: Scenario, policy: PolicyId,
                    weights: TriageWeights, stream: np.random.Generator,
                    error_rate: float = DEFAULT_OPERATOR_ERROR_RATE) -> tuple[int, ...]:
    """Visit order of patient ids from the ordering that belongs to `policy`."""
    if policy is PolicyId.PI1_TELEOP:
        return order_teleop(scenario, stream, error_rate)
    if policy is PolicyId.PI2_AUTO:
        return order_heuristic(scenario)
    return order_triage(scenario, weights)
