"""Condition/patient-field generation and random-stream derivation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medmission import (
    Condition,
    Patient,
    ScenarioParams,
    StreamPurpose,
    classify_high_severity,
    derive_stream,
    generate_scenario,
)
from medmission.scenario import (
    MAX_TRIALS_PER_CELL,
    cell_seed_words,
    draw_unit_field,
    scale_field,
    seeded_stream,
)

MASTER = 42


def _first_draws(seed, c, t, p, tag, n=10):
    return derive_stream(seed, c, t, p, tag).uniform(size=n)


def test_identical_coordinates_give_identical_streams():
    a = _first_draws(MASTER, 0, 0, 0, StreamPurpose.SCENARIO)
    b = _first_draws(MASTER, 0, 0, 0, StreamPurpose.SCENARIO)
    assert np.array_equal(a, b)


def test_trial_index_changes_the_stream():
    a = _first_draws(MASTER, 0, 0, 0, StreamPurpose.SCENARIO)
    b = _first_draws(MASTER, 0, 1, 0, StreamPurpose.SCENARIO)
    assert not np.array_equal(a, b)


def test_master_seed_changes_the_stream():
    a = _first_draws(7, 0, 0, 0, StreamPurpose.SCENARIO)
    b = _first_draws(MASTER, 0, 0, 0, StreamPurpose.SCENARIO)
    assert not np.array_equal(a, b)


# Master seeds of one word, of several words, and of more words than the
# SeedSequence pool holds (>= 2**128), where no zero padding applies.
master_seeds = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**128 - 1),
    st.integers(2**128, 2**200),
)


@settings(max_examples=200, deadline=None)
# The shared words' count sets where the per-trial hashes start: master seeds
# at the edges of four words, and condition indices at the edges of one and two.
@example(seed=2**96, condition=0, policy=0, n_trials=1, first=0)
@example(seed=2**128 - 1, condition=2**32, policy=2, n_trials=2, first=0)
@example(seed=2**128, condition=2**64, policy=2**36, n_trials=1, first=0)
@example(seed=0, condition=2**32, policy=0, n_trials=1, first=0)
@example(seed=0, condition=2**64, policy=0, n_trials=1, first=0)
@given(seed=master_seeds,
       condition=st.one_of(st.integers(0, 63), st.integers(2**32, 2**40)),
       policy=st.one_of(st.integers(0, 2), st.integers(3, 2**36)),
       n_trials=st.integers(1, 5),
       first=st.one_of(st.just(0), st.integers(1, 2**20), st.integers(2**32 - 5, 2**32 - 1)))
def test_cell_seed_words_give_the_streams_derive_stream_gives(seed, condition, policy,
                                                               n_trials, first):
    n_trials = min(n_trials, MAX_TRIALS_PER_CELL - first)   # up to the last trial a cell holds
    words = cell_seed_words(seed, condition, policy, n_trials, first)
    assert words.shape == (2 * n_trials, 4)
    assert words.dtype == np.uint64
    for trial in range(n_trials):
        for purpose in StreamPurpose:
            got = seeded_stream(words[2 * trial + purpose])
            want = derive_stream(seed, condition, first + trial, policy, purpose)
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.random(4), want.random(4))
            assert got.integers(1 << 63) == want.integers(1 << 63)


def test_cell_seed_words_reject_trial_indices_beyond_one_word():
    # Index 2**32 would take two spawn-key words, which the kernel does not
    # hash; it must refuse before allocating anything.
    with pytest.raises(ValueError, match="n_trials"):
        cell_seed_words(MASTER, 0, 0, MAX_TRIALS_PER_CELL + 1)
    # So must a block whose last trial is past the last index of one word.
    for n_trials, first in ((2, MAX_TRIALS_PER_CELL - 1), (1, MAX_TRIALS_PER_CELL),
                            (1, -1), (-1, 1)):
        with pytest.raises(ValueError, match="first"):
            cell_seed_words(MASTER, 0, 0, n_trials, first)
    assert cell_seed_words(MASTER, 0, 0, 1, MAX_TRIALS_PER_CELL - 1).shape == (2, 4)
    for master, condition, policy in ((-1, 0, 0), (MASTER, -1, 0), (MASTER, 0, -1)):
        with pytest.raises(ValueError):
            cell_seed_words(master, condition, policy, 1)


def test_no_stream_collisions_over_the_full_sweep_domain():
    # Oracle: the first 63-bit draw of every stream in the default domain
    # (20 conditions x 250 trials x 3 policies x 2 purposes) is unique.
    seen = set()
    count = 0
    for c in range(20):
        for t in range(250):
            for p in range(3):
                for tag in StreamPurpose:
                    seen.add(int(derive_stream(MASTER, c, t, p, tag).integers(1 << 63)))
                    count += 1
    assert len(seen) == count == 20 * 250 * 3 * 2


def test_condition_validation():
    with pytest.raises(ValueError):
        Condition(0, -0.1, 5)
    with pytest.raises(ValueError):
        Condition(0, 1.2, 5)
    with pytest.raises(ValueError):
        Condition(0, 0.5, 0)


def test_generate_scenario_invariants():
    condition = Condition(0, 0.5, 10)
    scenario = generate_scenario(condition, derive_stream(MASTER, 0, 0, 0,
                                                          StreamPurpose.SCENARIO))
    assert len(scenario.patients) == 10
    params = ScenarioParams()
    for p in scenario.patients:
        assert 0.0 <= p.position[0] <= scenario.area_extent
        assert 0.0 <= p.position[1] <= scenario.area_extent
        assert 0.0 <= p.severity <= 1.0
        assert p.detect_time == 0.0
        assert p.time_to_criticality > 0.0
        assert params.accessibility_low <= p.accessibility <= params.accessibility_high
        assert p.high_severity == classify_high_severity(p)


def test_generate_scenario_is_deterministic():
    condition = Condition(3, 0.25, 8)
    a = generate_scenario(condition, derive_stream(MASTER, 3, 1, 2, StreamPurpose.SCENARIO))
    b = generate_scenario(condition, derive_stream(MASTER, 3, 1, 2, StreamPurpose.SCENARIO))
    assert a == b


def test_scenario_draws_do_not_depend_on_other_trials():
    # Generating trials 0..4 first must not perturb trial 5's field.
    condition = Condition(0, 0.5, 6)
    for t in range(5):
        generate_scenario(condition, derive_stream(MASTER, 0, t, 0, StreamPurpose.SCENARIO))
    after = generate_scenario(condition, derive_stream(MASTER, 0, 5, 0, StreamPurpose.SCENARIO))
    alone = generate_scenario(condition, derive_stream(MASTER, 0, 5, 0, StreamPurpose.SCENARIO))
    assert after == alone


def _uniform_beta_uniform(n, stream, params):
    """A field's draws as `Generator.uniform` and `Generator.beta` take them."""
    return (stream.uniform(0.0, params.area_extent, size=(n, 2)),
            stream.beta(params.severity_alpha, params.severity_beta, size=n),
            stream.uniform(params.accessibility_low, params.accessibility_high, size=n))


def _same_bits(got, want):
    return all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))


@st.composite
def _field_params(draw):
    low = draw(st.floats(1e-300, 1.0))
    high = draw(st.one_of(st.just(low), st.floats(low, 1.0)))
    return ScenarioParams(
        area_extent=draw(st.one_of(st.just(4000.0), st.floats(1e-300, 1.7e308))),
        severity_alpha=draw(st.floats(0.1, 10.0)), severity_beta=draw(st.floats(0.1, 10.0)),
        accessibility_low=low, accessibility_high=high)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), load=st.integers(1, 40), trials=st.integers(1, 4),
       params=_field_params())
@example(seed=42, load=5, trials=3, params=ScenarioParams(accessibility_low=0.3,
                                                          accessibility_high=0.3))
@example(seed=7, load=40, trials=2, params=ScenarioParams(area_extent=1.7e308))
def test_the_split_field_draw_is_uniform_beta_uniform_to_the_bit(seed, load, trials, params):
    # Generator.uniform(low, high) returns low + (high - low) * u for the u that
    # Generator.random returns: no fused multiply-add, no other draw count.
    def stream(trial):
        return derive_stream(seed, 0, trial, 0, StreamPurpose.SCENARIO)

    olds, news = [stream(t) for t in range(trials)], [stream(t) for t in range(trials)]
    want = [_uniform_beta_uniform(load, old, params) for old in olds]
    # The sweep's way: unit draws into a cell's rows, mapped once for the cell.
    positions, severities, access = (np.empty((trials, load, 2)), np.empty((trials, load)),
                                     np.empty((trials, load)))
    for t, new in enumerate(news):
        draw_unit_field(new, positions[t], severities[t], access[t], params)
    scale_field(positions, access, params)
    for t in range(trials):
        assert _same_bits((positions[t], severities[t], access[t]), want[t])
    assert ([s.bit_generator.random_raw() for s in news]
            == [s.bit_generator.random_raw() for s in olds])
    # The replay's way: generate_scenario on one stream.
    old, new = stream(trials), stream(trials)
    patients = generate_scenario(Condition(0, 0.0, load), new, params).patients
    got = tuple(np.array([getattr(p, key) for p in patients])
                for key in ("position", "severity", "accessibility"))
    assert _same_bits(got, _uniform_beta_uniform(load, old, params))
    assert new.bit_generator.random_raw() == old.bit_generator.random_raw()


def test_an_empty_accessibility_range_still_raises():
    params = ScenarioParams(accessibility_low=0.9, accessibility_high=0.5)
    with pytest.raises(ValueError, match="scenario.accessibility_low"):
        generate_scenario(Condition(0, 0.0, 3), np.random.default_rng(0), params)


def test_severity_mean_matches_the_beta_distribution():
    # Beta(2, 2): mean 1/2, variance 1/20; allow three standard errors.
    n = 10_000
    condition = Condition(0, 0.0, n)
    scenario = generate_scenario(condition, derive_stream(MASTER, 0, 0, 0,
                                                          StreamPurpose.SCENARIO))
    sev = np.array([p.severity for p in scenario.patients])
    se = math.sqrt(0.05 / n)
    assert abs(sev.mean() - 0.5) < 3 * se


def test_range_safety_over_many_random_scenarios():
    rng = np.random.default_rng(2024)
    params = ScenarioParams()
    for i in range(10_000):
        load = int(rng.integers(1, 13))
        delta = float(rng.uniform())
        scenario = generate_scenario(
            Condition(0, delta, load),
            derive_stream(int(rng.integers(1 << 32)), 0, 0, 0, StreamPurpose.SCENARIO),
            params)
        assert len(scenario.patients) == load
        for p in scenario.patients:
            assert 0.0 <= p.position[0] <= params.area_extent
            assert 0.0 <= p.position[1] <= params.area_extent
            assert 0.0 <= p.severity <= 1.0
            assert p.time_to_criticality >= params.criticality_floor
            assert params.accessibility_low <= p.accessibility <= params.accessibility_high


def _patient(severity):
    return Patient(0, (0.0, 0.0), severity, 0.0, 100.0, 1.0,
                   severity >= 0.7)


def test_high_severity_boundary_is_inclusive():
    assert classify_high_severity(_patient(0.7)) is True


def test_zero_severity_is_not_high():
    assert classify_high_severity(_patient(0.0)) is False


def test_full_severity_is_high():
    assert classify_high_severity(_patient(1.0)) is True


def test_threshold_is_configurable():
    assert classify_high_severity(_patient(0.5), threshold=0.4) is True
    assert classify_high_severity(_patient(0.5), threshold=0.6) is False
