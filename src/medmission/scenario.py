"""Experimental conditions and stochastic patient fields.

Everything here is a pure function of a seeded random stream, so any number
of workers can regenerate the exact same scenario from the same
(master_seed, condition, trial, policy) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .schema import bounded

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

    area_extent: float = bounded(4000.0, "(0, inf)")
    base_position: tuple[float, float] = bounded((0.0, 0.0), "(-inf, inf)")
    severity_alpha: float = bounded(2.0, "(0, inf)")
    severity_beta: float = bounded(2.0, "(0, inf)")
    high_severity_threshold: float = bounded(DEFAULT_HIGH_SEVERITY_THRESHOLD, "[0, 1]")
    criticality_max: float = bounded(240.0, "[0, inf)")   # minutes at severity 0
    criticality_floor: float = bounded(10.0, "[0, inf)")  # minutes added for every patient
    accessibility_low: float = bounded(0.2, "(0, 1]")
    accessibility_high: float = bounded(1.0, "(0, 1]")


DEFAULT_SCENARIO_PARAMS = ScenarioParams()


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


# The pool hash of NumPy's SeedSequence (numpy/random/bit_generator.pyx),
# restated so that one call hashes every stream of a cell. NumPy itself mixes
# the master-seed and condition words, which every stream of a cell shares;
# the pool it leaves is restated from the trial index on, as uint32 arrays,
# which wrap by themselves. The hash multiplier advances once per hash,
# independently of the data, so it is known where NumPy left it.
_POOL_SIZE = 4
_PCG64_WORDS = 4   # generate_state(4, np.uint64): what PCG64 seeds from
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

MAX_TRIALS_PER_CELL = 2 ** 32
"""Trials a cell may hold: each trial index must fit one uint32 spawn-key word."""


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a nonnegative integer."""
    if value < 0:
        raise ValueError(f"seed coordinates must be nonnegative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _Hashmix:
    """SeedSequence's hashmix with its running multiplier (`hash_const`)."""

    def __init__(self, init: int, mult: int) -> None:
        self.const = init
        self.mult = mult

    def lanes(self, values: np.ndarray) -> np.ndarray:
        """Each of the uint32 `values` (along its first axis) hashed as
        SeedSequence's next hash would, in turn, all at once: the hashes'
        constants do not depend on the data."""
        consts = [self.const]
        for _ in range(len(values)):
            self.const = (self.const * self.mult) & _MASK32
            consts.append(self.const)
        consts = np.array(consts, dtype=np.uint32).reshape(-1, *[1] * (values.ndim - 1))
        values = (values ^ consts[:-1]) * consts[1:]
        return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def cell_seed_words(master_seed: int, condition_index: int, policy_index: int,
                    n_trials: int, first: int = 0) -> np.ndarray:
    """PCG64 seed words of the streams of trials `first` to
    ``first + n_trials - 1`` of one (condition, policy) cell.

    Returns a ``(2 * n_trials, 4)`` uint64 array whose row
    ``2 * (trial - first) + purpose`` holds exactly the words the PCG64 of
    ``derive_stream(master_seed, condition_index, trial, policy_index,
    purpose)`` is seeded from; ``seeded_stream`` turns a row into that
    stream. NumPy's own SeedSequence mixes the master-seed and condition
    words; only the trial, policy and purpose words are hashed here, for
    every trial at once. Trial indices must each fit one uint32 word, so
    trials past ``MAX_TRIALS_PER_CELL`` raise ValueError, and a negative
    coordinate raises ValueError too.
    """
    if min(first, n_trials) < 0 or first + n_trials > MAX_TRIALS_PER_CELL:
        raise ValueError(f"first and n_trials must be nonnegative, with first + n_trials "
                         f"at most {MAX_TRIALS_PER_CELL}, got {first} and {n_trials}")
    # NumPy mixes the words every stream of the cell shares: the master seed's,
    # padded to the pool size under a spawn key, then the condition index's.
    # Filling the pool takes 4 hashes, cross-mixing it 12 and each further
    # word 4: `_POOL_SIZE` hashes per shared word in all.
    pool = np.random.SeedSequence(master_seed, spawn_key=(condition_index,)).pool
    shared = (max(_POOL_SIZE, len(_uint32_words(master_seed)))
              + len(_uint32_words(condition_index)))
    hashmix = _Hashmix(_INIT_A * pow(_MULT_A, _POOL_SIZE * shared, 2 ** 32) & _MASK32,
                       _MULT_A)
    # From the trial index on, each word is a uint32 ``(trials, purposes)``
    # column, and the pool a stack of four such columns.
    per_trial = ([np.arange(first, first + n_trials).astype(np.uint32)[:, None]]
                 + [np.full((1, 1), word, dtype=np.uint32)
                    for word in _uint32_words(policy_index)]
                 + [np.array([[int(p) for p in StreamPurpose]], dtype=np.uint32)])
    pool = pool.reshape(_POOL_SIZE, 1, 1)
    for word in per_trial:
        pool = _mix(pool, hashmix.lanes(np.broadcast_to(word, (_POOL_SIZE, *word.shape))))

    # generate_state: uint32 words cycling over the pool, paired little-endian.
    state = _Hashmix(_INIT_B, _MULT_B).lanes(
        np.tile(pool, (2 * _PCG64_WORDS // _POOL_SIZE, 1, 1))).astype(np.uint64)
    words = state[0::2] | (state[1::2] << 32)
    # Contiguous rows: PCG64 reads a row's memory as it lies.
    return np.ascontiguousarray(np.moveaxis(words, 0, -1).reshape(-1, _PCG64_WORDS))


class _SeedWords(ISeedSequence):
    """Hands PCG64 one precomputed row of `cell_seed_words`."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _PCG64_WORDS or dtype is not np.uint64:
            raise ValueError("only PCG64's 4 uint64 seed words are precomputed")
        return self.words


def seeded_stream(words: np.ndarray) -> np.random.Generator:
    """The stream seeded from one row of `cell_seed_words`."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def classify_high_severity(patient: Patient,
                           threshold: float = DEFAULT_HIGH_SEVERITY_THRESHOLD) -> bool:
    """High-severity flag; the threshold boundary itself counts as high."""
    return patient.severity >= threshold


def draw_unit_field(stream: np.random.Generator, positions: np.ndarray,
                    severities: np.ndarray, access: np.ndarray,
                    params: ScenarioParams = DEFAULT_SCENARIO_PARAMS) -> None:
    """Fill one field's arrays with its stream draws, in their fixed order.

    `positions` (``(n, 2)``) and then `access` (``(n,)``) get unit uniforms
    from `Generator.random`, which `scale_field` maps to their ranges;
    between them, `severities` gets the Beta draws.
    """
    stream.random(out=positions)
    severities[...] = stream.beta(params.severity_alpha, params.severity_beta,
                                  len(severities))
    stream.random(out=access)


def _to_range(u: np.ndarray, low: float, high: float, key: str) -> None:
    """``u = low + (high - low) * u`` in place: `Generator.uniform`'s map of
    a unit uniform, to the bit. An empty or unbounded range raises, as there."""
    span = high - low
    if not 0.0 <= span < math.inf:
        raise ValueError(f"{key}: range [{low!r}, {high!r}] is empty or unbounded")
    u *= span
    u += low


def scale_field(positions: np.ndarray, access: np.ndarray,
                params: ScenarioParams = DEFAULT_SCENARIO_PARAMS) -> None:
    """Map `draw_unit_field`'s unit uniforms to their ranges, in place.

    The arrays may hold any number of fields: the sweep maps a whole cell at
    once.
    """
    _to_range(positions, 0.0, params.area_extent, "scenario.area_extent")
    _to_range(access, params.accessibility_low, params.accessibility_high,
              "scenario.accessibility_low")


DETECT_TIME = 0.0   # minutes; every patient is known at mission start


def criticality_times(severities: np.ndarray,
                      params: ScenarioParams = DEFAULT_SCENARIO_PARAMS) -> np.ndarray:
    """Minutes until each patient turns critical, shrinking linearly with severity."""
    with np.errstate(over="ignore"):
        return params.criticality_max * (1.0 - severities) + params.criticality_floor


def high_severity_flags(severities: np.ndarray,
                        params: ScenarioParams = DEFAULT_SCENARIO_PARAMS) -> np.ndarray:
    """High-severity flags; the threshold boundary itself counts as high."""
    return severities >= params.high_severity_threshold


def generate_scenario(condition: Condition, stream: np.random.Generator,
                      params: ScenarioParams = DEFAULT_SCENARIO_PARAMS) -> Scenario:
    """Sample a patient field for one condition.

    Draw order is fixed (positions, severities, accessibilities) so the
    result is bit-identical for a given stream state. All patients are
    detected at t = 0; patient ids are the row indices.
    """
    n = condition.patient_load
    positions, severities, access = np.empty((n, 2)), np.empty(n), np.empty(n)
    draw_unit_field(stream, positions, severities, access, params)
    scale_field(positions, access, params)
    patients = tuple([
        Patient(i, (x, y), sev, DETECT_TIME, ttc, acc, high)
        for i, ((x, y), sev, ttc, acc, high) in enumerate(zip(
            positions.tolist(), severities.tolist(),
            criticality_times(severities, params).tolist(), access.tolist(),
            high_severity_flags(severities, params).tolist()))])
    return Scenario(condition, patients, params.base_position, params.area_extent)
