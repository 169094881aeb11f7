"""Estimator variances, outage process, and the fusion rule."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medmission import (
    DEFAULT_LOCALIZATION_PARAMS,
    LocalizationParams,
    PolicyId,
    outage_schedule,
)
from medmission.engine import monitored_trace
from medmission.localization import _interval_process, merge_intervals

LOC = DEFAULT_LOCALIZATION_PARAMS
DELTAS = (0.0, 0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------------------
# Outage process.

def test_no_degradation_means_no_outages():
    profile = outage_schedule(0.0, 500.0, np.random.default_rng(1))
    assert profile.outages == ()


def test_outage_occurrence_probability_matches_the_arrival_process():
    # Oracle: P(any outage) = 1 - exp(-rate * horizon) for the configured
    # Poisson onsets; estimated over 1000 streams.
    horizon = 100.0
    expected = 1.0 - math.exp(-LOC.outage_rate_coeff * 1.0 * horizon)
    rng = np.random.default_rng(11)
    hits = sum(
        outage_schedule(1.0, horizon, np.random.default_rng(int(rng.integers(1 << 32)))
                        ).total_outage() > 0.0
        for _ in range(1000))
    assert abs(hits / 1000 - expected) < 0.05


def test_outage_fraction_monotone_in_degradation():
    horizon = 600.0
    means = []
    for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
        rng = np.random.default_rng(7)
        total = 0.0
        for _ in range(1000):
            seed = int(rng.integers(1 << 32))
            total += outage_schedule(delta, horizon,
                                     np.random.default_rng(seed)).total_outage()
        means.append(total / 1000 / horizon)
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 0.005
    assert means[0] == 0.0
    assert means[-1] > means[1]


def test_outage_intervals_are_disjoint_ordered_and_clipped():
    for seed in range(200):
        profile = outage_schedule(1.0, 300.0, np.random.default_rng(seed))
        last_end = 0.0
        for start, end in profile.outages:
            assert start >= last_end
            assert end > start
            assert end <= 300.0
            last_end = end


# ---------------------------------------------------------------------------
# GPS and onboard variances.

def _sort_then_merge_process(rate, mean_duration, horizon, stream):
    """The interval process as first written: every interval, sorted and merged."""
    if rate <= 0.0:
        return ()
    raw = []
    t = float(stream.exponential(1.0 / rate))
    while t < horizon:
        duration = float(stream.exponential(mean_duration))
        raw.append((t, min(t + duration, horizon)))
        t += float(stream.exponential(1.0 / rate))
    return merge_intervals(raw)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       rate=st.one_of(st.just(0.0), st.floats(1e-4, 2.0), st.floats(5e-324, 1e-300)),
       mean_duration=st.floats(1e-3, 60.0), horizon=st.floats(1e-3, 300.0))
@example(seed=1, rate=1.0, mean_duration=50.0, horizon=100.0)   # nearly all overlap
@example(seed=2, rate=0.005, mean_duration=5.0, horizon=600.0)  # the default outages
@example(seed=3, rate=5e-324, mean_duration=3.0, horizon=600.0)  # an infinite mean gap
def test_the_interval_process_is_the_sort_then_merge_process(seed, rate, mean_duration,
                                                             horizon):
    # Same intervals, and the stream left where the integrity process and the
    # twin's suppression draws expect to read on.
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _sort_then_merge_process(rate, mean_duration, horizon, old)
    got = _interval_process(rate, mean_duration, horizon, new)
    assert got == want and all(type(end) is float for pair in got for end in pair)
    assert new.bit_generator.random_raw() == old.bit_generator.random_raw()


def test_gps_error_variance_matches_nominal_at_zero_degradation():
    assert LOC.gps_variance(0.0) == LOC.sigma_gps ** 2
    assert LocalizationParams(sigma_gps=2.0).gps_variance(0.0) == 4.0


def test_gps_reported_covariance_grows_with_degradation():
    # Teleoperation watches the GPS covariance trace, so it grows with delta.
    traces = [monitored_trace(PolicyId.PI1_TELEOP, d, True, False) for d in DELTAS]
    assert traces[0] == 2 * LOC.sigma_gps ** 2
    assert all(hi > lo for lo, hi in zip(traces, traces[1:]))


def test_gps_variance_formula_monotone_in_delta():
    grid = [LOC.gps_variance(d) for d in DELTAS]
    assert all(hi > lo for lo, hi in zip(grid, grid[1:]))


def test_auto_error_variance_matches_nominal():
    assert LOC.auto_variance() == LOC.sigma_auto ** 2
    assert LocalizationParams(sigma_auto=5.0).auto_variance() == 25.0


def test_auto_reported_variance_has_no_degradation_term():
    # Autonomy watches the onboard covariance trace: neither delta nor a
    # GNSS outage moves it, only an integrity episode does.
    for delta in DELTAS:
        for gps_valid in (True, False):
            assert (monitored_trace(PolicyId.PI2_AUTO, delta, gps_valid, False)
                    == 2 * LOC.sigma_auto ** 2)
            assert (monitored_trace(PolicyId.PI2_AUTO, delta, gps_valid, True)
                    == 2 * LOC.sigma_auto ** 2 * LOC.integrity_inflation)


# ---------------------------------------------------------------------------
# Fusion.

def test_fusion_falls_back_to_the_valid_input():
    # GPS out: the fused variance is the onboard one, inflation included.
    for delta in DELTAS:
        assert LOC.fused_variance(delta, gps_valid=False) == LOC.auto_variance()
        assert (LOC.fused_variance(delta, gps_valid=False, auto_inflation=4.0)
                == LOC.auto_variance() * 4.0)


def test_fusion_symmetric_case():
    # Equal inputs halve the variance.
    loc = LocalizationParams(sigma_gps=2.0, sigma_auto=2.0)
    assert loc.fused_variance(0.0) == pytest.approx(2.0)


def test_fusion_inverse_variance_value():
    # (1/1 + 1/3)^-1 = 0.75
    loc = LocalizationParams(sigma_gps=1.0, sigma_auto=math.sqrt(3.0))
    assert loc.fused_variance(0.0) == pytest.approx(0.75)


_POSITIVE = st.floats(min_value=0.1, max_value=30.0)


@given(sigma_gps=_POSITIVE, sigma_auto=_POSITIVE,
       kappa_gps=st.floats(min_value=0.0, max_value=100.0),
       delta=st.floats(min_value=0.0, max_value=1.0),
       auto_inflation=st.floats(min_value=1.0, max_value=10.0))
def test_fusion_never_exceeds_either_input_variance(sigma_gps, sigma_auto, kappa_gps,
                                                    delta, auto_inflation):
    loc = LocalizationParams(sigma_gps=sigma_gps, sigma_auto=sigma_auto,
                             kappa_gps=kappa_gps)
    fused = loc.fused_variance(delta, auto_inflation=auto_inflation)
    assert fused < loc.gps_variance(delta)
    assert fused < loc.auto_variance() * auto_inflation


def test_expected_variance_ordering_fused_auto_gps():
    # At every degradation level, with GPS up or out:
    # fused <= auto <= fully degraded GPS.
    gps_floor = LOC.gps_variance(1.0)
    for delta in DELTAS:
        for gps_valid in (True, False):
            fused = LOC.fused_variance(delta, gps_valid=gps_valid)
            assert fused <= LOC.auto_variance() <= gps_floor
