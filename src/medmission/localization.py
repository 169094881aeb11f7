"""Pose-estimation quality models for the three mission policies.

Three estimators are modeled:

* GPS: accurate when healthy, noise inflates with degradation, and the fix
  disappears entirely during communication/GNSS outages.
* Self-contained onboard estimator: coarser but immune to degradation and
  outages (it never loses its fix).
* Fused estimate: per-axis inverse-variance combination of the two, which
  falls back to whichever input is valid and is never worse than either.

Degradation also drives two interval processes sampled per mission: GNSS
outages (rate grows with delta) and estimator integrity episodes (rare,
delta-independent spells during which the onboard estimator distrusts
itself and inflates its reported covariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TotalLocalizationLossError(Exception):
    """Raised when fusion is attempted with no valid input estimate."""


@dataclass(frozen=True)
class PoseEstimate:
    position: tuple[float, float]       # meters; NaN when valid is False
    covariance: np.ndarray              # 2x2, m^2
    source: str                         # "gps" | "auto" | "dt_fused"
    valid: bool

    @property
    def variance_trace(self) -> float:
        return float(self.covariance[0, 0] + self.covariance[1, 1])


@dataclass(frozen=True)
class DegradationProfile:
    """Outage pattern for one mission: disjoint, ordered [start, end) intervals."""

    delta: float
    outages: tuple[tuple[float, float], ...]

    def in_outage(self, time: float) -> bool:
        for start, end in self.outages:
            if start <= time < end:
                return True
            if start > time:
                break
        return False

    def total_outage(self) -> float:
        return sum(end - start for start, end in self.outages)


@dataclass(frozen=True)
class IntegrityProfile:
    """Low-confidence episodes of the onboard estimator (delta-independent)."""

    episodes: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class LocalizationParams:
    sigma_gps: float = 3.0            # per-axis std of healthy GPS, meters
    kappa_gps: float = 50.0           # degradation inflation of GPS variance
    sigma_auto: float = 8.0           # per-axis std of the onboard estimator
    outage_rate_coeff: float = 0.005  # outage onsets per minute at delta = 1
    outage_mean_duration: float = 5.0     # minutes
    integrity_rate: float = 0.0008        # episode onsets per minute
    integrity_mean_duration: float = 3.0  # minutes
    integrity_inflation: float = 4.0      # variance multiplier during an episode

    def gps_variance(self, delta: float) -> float:
        """Per-axis GPS noise variance at a given degradation level."""
        return self.sigma_gps ** 2 * (1.0 + self.kappa_gps * delta)

    def auto_variance(self) -> float:
        return self.sigma_auto ** 2

    def fused_variance(self, delta: float, gps_valid: bool = True,
                       auto_inflation: float = 1.0) -> float:
        """Per-axis variance of the fused estimate under nominal conditions."""
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
    """Poisson onsets with exponential durations, merged into disjoint intervals."""
    if rate <= 0.0 or horizon <= 0.0:
        return ()
    raw = []
    t = float(stream.exponential(1.0 / rate))
    while t < horizon:
        duration = float(stream.exponential(mean_duration))
        raw.append((t, min(t + duration, horizon)))
        t += float(stream.exponential(1.0 / rate))
    return merge_intervals(raw)


def outage_schedule(delta: float, horizon: float, stream: np.random.Generator,
                    params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> DegradationProfile:
    """Sample the GNSS outage pattern for one mission.

    Onset rate scales linearly with delta, so delta = 0 yields no outages
    and the expected outage fraction is nondecreasing in delta.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    intervals = _interval_process(params.outage_rate_coeff * delta,
                                  params.outage_mean_duration, horizon, stream)
    return DegradationProfile(delta=delta, outages=intervals)


def integrity_schedule(horizon: float, stream: np.random.Generator,
                       params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> IntegrityProfile:
    """Sample the onboard estimator's low-confidence episodes for one mission."""
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    return IntegrityProfile(
        episodes=_interval_process(params.integrity_rate,
                                   params.integrity_mean_duration, horizon, stream))


def gps_estimate(true_position: tuple[float, float], profile: DegradationProfile,
                 time: float, stream: np.random.Generator,
                 params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> PoseEstimate:
    """GPS fix at `time`: invalid inside outages, noisier as delta grows."""
    if profile.in_outage(time):
        return PoseEstimate(
            position=(math.nan, math.nan),
            covariance=np.full((2, 2), np.nan),
            source="gps",
            valid=False,
        )
    var = params.gps_variance(profile.delta)
    noise = stream.normal(0.0, math.sqrt(var), size=2)
    return PoseEstimate(
        position=(true_position[0] + float(noise[0]), true_position[1] + float(noise[1])),
        covariance=np.eye(2) * var,
        source="gps",
        valid=True,
    )


def auto_estimate(true_position: tuple[float, float], time: float,
                  stream: np.random.Generator,
                  params: LocalizationParams = DEFAULT_LOCALIZATION_PARAMS) -> PoseEstimate:
    """Onboard estimate: always valid, constant variance, no degradation term."""
    if time < 0.0:
        raise ValueError("time must be nonnegative")
    var = params.auto_variance()
    noise = stream.normal(0.0, math.sqrt(var), size=2)
    return PoseEstimate(
        position=(true_position[0] + float(noise[0]), true_position[1] + float(noise[1])),
        covariance=np.eye(2) * var,
        source="auto",
        valid=True,
    )


def dt_fused_estimate(gps: PoseEstimate, auto: PoseEstimate) -> PoseEstimate:
    """Per-axis inverse-variance fusion of the GPS and onboard estimates.

    Falls back to the single valid input when the other is out; raises
    TotalLocalizationLossError when both are invalid (the engine treats
    that as abort pressure, not as a recoverable state).
    """
    if not gps.valid and not auto.valid:
        raise TotalLocalizationLossError("no valid pose estimate to fuse")
    if not gps.valid:
        return PoseEstimate(auto.position, auto.covariance, "dt_fused", True)
    if not auto.valid:
        return PoseEstimate(gps.position, gps.covariance, "dt_fused", True)

    pos = np.empty(2)
    cov = np.zeros((2, 2))
    for axis in range(2):
        v_g = float(gps.covariance[axis, axis])
        v_a = float(auto.covariance[axis, axis])
        w = 1.0 / v_g + 1.0 / v_a
        fused_var = 1.0 / w
        pos[axis] = (gps.position[axis] / v_g + auto.position[axis] / v_a) * fused_var
        cov[axis, axis] = fused_var
    return PoseEstimate((float(pos[0]), float(pos[1])), cov, "dt_fused", True)
