"""Experimental conditions and stochastic patient fields.

Everything here is a pure function of a seeded random stream, so any number
of workers can regenerate the exact same scenario from the same
(master_seed, condition, trial, policy) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

DEFAULT_HIGH_SEVERITY_THRESHOLD = 0.7


class StreamPurpose(IntEnum):
    """Independent random-stream lanes within one trial."""

    SCENARIO = 0
    MISSION = 1


@dataclass(frozen=True)
class Condition:
    """One experimental cell: degradation severity x patient load."""

    condition_id: int
    delta: float          # GNSS degradation severity in [0, 1]
    patient_load: int     # number of patients placed in the field

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.patient_load < 1:
            raise ValueError(f"patient_load must be >= 1, got {self.patient_load}")


class Patient(NamedTuple):
    id: int
    position: tuple[float, float]   # meters
    severity: float                 # in [0, 1]
    detect_time: float              # minutes; all patients known at mission start
    time_to_criticality: float      # minutes until the condition turns critical
    accessibility: float            # in (0, 1]; 1 = fully reachable
    high_severity: bool


@dataclass(frozen=True)
class Scenario:
    condition: Condition
    patients: tuple[Patient, ...]
    base_position: tuple[float, float] = (0.0, 0.0)
    area_extent: float = 4000.0     # side length of the square field, meters


@dataclass(frozen=True)
class ScenarioParams:
    """Distribution parameters for patient-field generation.

    Severity is Beta(2, 2): symmetric and bounded, mixing mild and severe
    cases. Time-to-criticality shrinks linearly with severity so that the
    sickest patients deteriorate soonest. Accessibility is bounded away
    from zero so every patient is reachable.
    """

    area_extent: float = 4000.0
    base_position: tuple[float, float] = (0.0, 0.0)
    severity_alpha: float = 2.0
    severity_beta: float = 2.0
    high_severity_threshold: float = DEFAULT_HIGH_SEVERITY_THRESHOLD
    criticality_max: float = 240.0   # minutes at severity 0
    criticality_floor: float = 10.0  # minutes added for every patient
    accessibility_low: float = 0.2
    accessibility_high: float = 1.0


DEFAULT_SCENARIO_PARAMS = ScenarioParams()


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation rule mapping trial coordinates to streams."""

    master_seed: int

    def stream(self, condition_index: int, trial_index: int, policy_index: int,
               purpose: StreamPurpose) -> np.random.Generator:
        return derive_stream(self.master_seed, condition_index, trial_index,
                             policy_index, purpose)


def derive_stream(master_seed: int, condition_index: int, trial_index: int,
                  policy_index: int, purpose: StreamPurpose) -> np.random.Generator:
    """Derive an independent, reproducible stream for one trial coordinate.

    Built on SeedSequence spawn keys, so distinct coordinates give
    statistically independent streams and the mapping is injective over the
    sweep domain.
    """
    seq = np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(condition_index, trial_index, policy_index, int(purpose)),
    )
    return np.random.Generator(np.random.PCG64(seq))


def classify_high_severity(patient: Patient,
                           threshold: float = DEFAULT_HIGH_SEVERITY_THRESHOLD) -> bool:
    """High-severity flag; the threshold boundary itself counts as high."""
    return patient.severity >= threshold


def generate_scenario(condition: Condition, stream: np.random.Generator,
                      params: ScenarioParams = DEFAULT_SCENARIO_PARAMS) -> Scenario:
    """Sample a patient field for one condition.

    Draw order is fixed (positions, severities, accessibilities) so the
    result is bit-identical for a given stream state. All patients are
    detected at t = 0.
    """
    n = condition.patient_load
    positions = stream.uniform(0.0, params.area_extent, size=(n, 2))
    severities = stream.beta(params.severity_alpha, params.severity_beta, size=n)
    access = stream.uniform(params.accessibility_low, params.accessibility_high, size=n)

    criticality_max = params.criticality_max
    criticality_floor = params.criticality_floor
    threshold = params.high_severity_threshold
    patients = tuple([
        Patient(i, (x, y), sev, 0.0,
                criticality_max * (1.0 - sev) + criticality_floor, acc,
                sev >= threshold)
        for i, ((x, y), sev, acc) in enumerate(zip(positions.tolist(),
                                                    severities.tolist(),
                                                    access.tolist()))])
    return Scenario(
        condition=condition,
        patients=patients,
        base_position=params.base_position,
        area_extent=params.area_extent,
    )
