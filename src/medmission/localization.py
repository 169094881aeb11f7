"""Localization quality as per-axis variances, plus the two interval processes.

The engine never samples a pose. It reads three per-axis variances:

* GPS: ``sigma_gps**2``, inflated linearly with the degradation level.
* Onboard estimator: ``sigma_auto**2``, coarser than healthy GPS but with
  no degradation term; it never loses its fix.
* Fused: the inverse-variance combination of the two, stated once in
  `LocalizationParams.fused_variance`. It falls back to the onboard
  variance while GPS is out and is never above either input.

Degradation also drives two interval processes sampled per mission: GNSS
outages (rate grows with delta), during which GPS is out, and estimator
integrity episodes (rare, delta-independent spells during which the
onboard estimator distrusts itself and inflates its reported variance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import bounded


@dataclass(frozen=True)
class DegradationProfile:
    """Outage pattern for one mission: disjoint, ordered [start, end) intervals."""

    outages: tuple[tuple[float, float], ...]

    def total_outage(self) -> float:
        return sum(end - start for start, end in self.outages)


@dataclass(frozen=True)
class IntegrityProfile:
    """Low-confidence episodes of the onboard estimator (delta-independent)."""

    episodes: tuple[tuple[float, float], ...]


@dataclass(frozen=True, eq=False)
class IntervalColumns:
    """The interval lists of a batch of missions, flat: every mission's
    ``[start, end)`` intervals in turn, and how many each mission has."""

    starts: np.ndarray
    ends: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, schedules) -> IntervalColumns:
        """The columns of per-mission interval tuples, in mission order."""
        pairs: list[tuple[float, float]] = []
        counts = []
        for intervals in schedules:
            pairs += intervals
            counts.append(len(intervals))
        starts, ends = np.array(pairs, dtype=float).reshape(-1, 2).T
        return cls(starts, ends, np.array(counts, dtype=np.int64))

    def rows(self) -> np.ndarray:
        """The mission of each interval."""
        return np.repeat(np.arange(len(self.counts)), self.counts)


@dataclass(frozen=True)
class LocalizationParams:
    # The std and integrity-inflation bounds keep each variance nonzero and finite:
    # squaring past 1e154 overflows, and `fused_variance` divides by each variance.
    sigma_gps: float = bounded(3.0, "[1e-150, 1e150]")   # per-axis std of healthy GPS, meters
    kappa_gps: float = bounded(50.0, "[0, inf)")         # degradation inflation of GPS variance
    sigma_auto: float = bounded(8.0, "[1e-150, 1e150]")  # per-axis std of the onboard estimator
    outage_rate_coeff: float = bounded(0.005, "[0, inf)")  # outage onsets per minute at delta = 1
    outage_mean_duration: float = bounded(5.0, "(0, inf)")     # minutes
    integrity_rate: float = bounded(0.0008, "[0, inf)")        # episode onsets per minute
    integrity_mean_duration: float = bounded(3.0, "(0, inf)")  # minutes
    integrity_inflation: float = bounded(4.0, "[1e-8, 1e8]")  # variance multiplier in an episode

    def gps_variance(self, delta: float) -> float:
        """Per-axis GPS noise variance at a given degradation level."""
        return self.sigma_gps ** 2 * (1.0 + self.kappa_gps * delta)

    def auto_variance(self) -> float:
        return self.sigma_auto ** 2

    def fused_variance(self, delta: float, gps_valid: bool = True,
                       auto_inflation: float = 1.0) -> float:
        """Per-axis variance of the fused GPS and onboard estimate.

        The GPS and onboard variances (the latter scaled by `auto_inflation`)
        combine by inverse-variance weighting; while GPS is out the result
        is the onboard variance alone.
        """
        v_a = self.auto_variance() * auto_inflation
        if not gps_valid:
            return v_a
        v_g = self.gps_variance(delta)
        return 1.0 / (1.0 / v_g + 1.0 / v_a)


DEFAULT_LOCALIZATION_PARAMS = LocalizationParams()


def merge_intervals(intervals) -> tuple[tuple[float, float], ...]:
    """Union of [start, end) intervals as sorted, disjoint pairs.

    Intervals that overlap or touch join into one.
    """
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


def _interval_process(rate: float, mean_duration: float, horizon: float,
                      stream: np.random.Generator) -> tuple[tuple[float, float], ...]:
    """Poisson onsets with exponential durations, merged into disjoint intervals.

    Draws one exponential per onset and per duration, alternating, and stops
    at the first onset at or past `horizon`: the stream's later readers start
    right after it. Onsets come in order, so fewer than two intervals are
    already merged.
    """
    if rate <= 0.0:
        return ()
    exponential, mean_gap = stream.exponential, 1.0 / rate
    raw = []
    t = exponential(mean_gap)
    while t < horizon:
        raw.append((t, min(t + exponential(mean_duration), horizon)))
        t += exponential(mean_gap)
    return merge_intervals(raw) if len(raw) > 1 else tuple(raw)


def outage_intervals(delta: float, horizon: float, stream: np.random.Generator,
                     params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS,
                     ) -> tuple[tuple[float, float], ...]:
    """A mission's GNSS outages, for a positive `horizon`.

    Onset rate scales linearly with delta, so delta = 0 yields no outages
    and the expected outage fraction is nondecreasing in delta.
    """
    return _interval_process(params.outage_rate_coeff * delta,
                             params.outage_mean_duration, horizon, stream)


def integrity_intervals(horizon: float, stream: np.random.Generator,
                        params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS,
                        ) -> tuple[tuple[float, float], ...]:
    """A mission's integrity episodes, for a positive `horizon`."""
    return _interval_process(params.integrity_rate, params.integrity_mean_duration,
                             horizon, stream)


def outage_schedule(delta: float, horizon: float, stream: np.random.Generator,
                    params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> DegradationProfile:
    """Sample the GNSS outage pattern for one mission (`outage_intervals`)."""
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    return DegradationProfile(outage_intervals(delta, horizon, stream, params))


def integrity_schedule(horizon: float, stream: np.random.Generator,
                       params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> IntegrityProfile:
    """Sample the onboard estimator's low-confidence episodes for one mission."""
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    return IntegrityProfile(integrity_intervals(horizon, stream, params))
