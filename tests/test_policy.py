"""Visit orderings against independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medmission import (
    Condition,
    Patient,
    Scenario,
    TriageWeights,
    order_heuristic,
    order_teleop,
    order_triage,
    triage_score,
)
import medmission.policy as policy
from medmission.policy import block_picks, nearest_walks, operator_picks, triage_orders
from medmission.scenario import cell_seed_words, seeded_stream

BASE = (0.0, 0.0)


def make_scenario(positions, severities=None, access=None, delta=0.0):
    n = len(positions)
    severities = severities or [0.5] * n
    access = access or [1.0] * n
    patients = tuple(
        Patient(i, tuple(map(float, positions[i])), float(severities[i]), 0.0,
                240.0 * (1.0 - severities[i]) + 10.0, float(access[i]),
                severities[i] >= 0.7)
        for i in range(n))
    return Scenario(Condition(0, delta, n), patients, BASE, 4000.0)


def random_scenario(rng, max_load=7):
    n = int(rng.integers(1, max_load + 1))
    return make_scenario(
        positions=[(rng.uniform(0, 4000), rng.uniform(0, 4000)) for _ in range(n)],
        severities=[float(rng.uniform()) for _ in range(n)],
        access=[float(rng.uniform(0.2, 1.0)) for _ in range(n)],
    )


# Independent oracles, re-implemented from scratch on purpose.

def nn_oracle(scenario):
    todo = {p.id: p.position for p in scenario.patients}
    at = scenario.base_position
    out = []
    while todo:
        best = None
        best_key = None
        for pid, pos in todo.items():
            d = math.dist(at, pos)
            key = (d, pid)
            if best_key is None or key < best_key:
                best, best_key = pid, key
        out.append(best)
        at = todo.pop(best)
    return tuple(out)


def triage_oracle(scenario, weights):
    scored = []
    for p in scenario.patients:
        v = (weights.w_severity * p.severity
             + weights.w_urgency * math.exp(-p.time_to_criticality
                                            / weights.urgency_timescale)
             + weights.w_access * p.accessibility)
        scored.append((-v, p.id))
    return tuple(pid for _, pid in sorted(scored))


# ---------------------------------------------------------------------------
# Teleoperation ordering.

def test_teleop_single_patient():
    scenario = make_scenario([(100.0, 0.0)])
    plan = order_teleop(scenario, np.random.default_rng(0))
    assert plan == (0,)


def test_teleop_without_errors_is_nearest_neighbor():
    scenario = make_scenario([(3000.0, 0.0), (1000.0, 0.0), (2000.0, 0.0)])
    plan = order_teleop(scenario, np.random.default_rng(0), error_rate=0.0)
    assert plan == (1, 2, 0)


def test_teleop_always_yields_a_permutation():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        scenario = random_scenario(rng, max_load=9)
        plan = order_teleop(scenario, np.random.default_rng(int(rng.integers(1 << 32))))
        assert sorted(plan) == [p.id for p in scenario.patients]


def test_teleop_is_deterministic_given_its_stream():
    rng = np.random.default_rng(3)
    scenario = random_scenario(rng)
    a = order_teleop(scenario, np.random.default_rng(99))
    b = order_teleop(scenario, np.random.default_rng(99))
    assert a == b


# ---------------------------------------------------------------------------
# Heuristic ordering.

def test_heuristic_single_patient():
    assert order_heuristic(make_scenario([(5.0, 5.0)])) == (0,)


def test_heuristic_tie_breaks_to_lower_id():
    scenario = make_scenario([(100.0, 0.0), (0.0, 100.0)])
    assert order_heuristic(scenario) == (0, 1)


def test_heuristic_matches_oracle_on_a_five_patient_case():
    scenario = make_scenario([(900.0, 100.0), (200.0, 50.0), (400.0, 700.0),
                              (2500.0, 2500.0), (300.0, 60.0)])
    assert order_heuristic(scenario) == nn_oracle(scenario)


def test_heuristic_matches_oracle_on_200_random_small_cases():
    rng = np.random.default_rng(41)
    for _ in range(200):
        scenario = random_scenario(rng)
        assert order_heuristic(scenario) == nn_oracle(scenario)


# ---------------------------------------------------------------------------
# Nearest-neighbour planners against the original list-of-patients walk.

def nearest_walk_oracle(scenario, stream=None, error_rate=0.0):
    """The first implementation: `min` over (distance, id), then `remove`."""
    remaining = list(scenario.patients)
    current = scenario.base_position
    order = []
    while remaining:
        if len(remaining) == 1:
            pick = remaining[0]
        elif error_rate > 0.0 and float(stream.uniform()) < error_rate:
            pick = remaining[int(stream.integers(len(remaining)))]
        else:
            pick = min(remaining, key=lambda p: (
                math.hypot(current[0] - p.position[0], current[1] - p.position[1]),
                p.id))
        order.append(pick.id)
        remaining.remove(pick)
        current = pick.position
    return tuple(order)


# A coarse grid makes duplicate positions and equal distances common.
COORDS = st.sampled_from([0.0, 3.0, 4.0, 5.0, 100.0, 2500.0]) | st.floats(0.0, 4000.0)


@st.composite
def shuffled_scenarios(draw, load=None, base=None):
    positions = draw(st.lists(st.tuples(COORDS, COORDS),
                              min_size=load or 1, max_size=load or 12))
    ids = draw(st.permutations(range(len(positions))))
    patients = tuple(Patient(pid, pos, 0.5, 0.0, 130.0, 1.0, False)
                     for pid, pos in zip(ids, positions))
    if base is None:
        base = draw(st.sampled_from([BASE, (4.0, 3.0)]))
    return Scenario(Condition(0, 0.0, len(patients)), patients, base, 4000.0)


@settings(max_examples=300, deadline=None)
@given(scenario=shuffled_scenarios())
def test_heuristic_matches_the_original_walk(scenario):
    assert order_heuristic(scenario) == nearest_walk_oracle(scenario)


@settings(max_examples=300, deadline=None)
@given(scenario=shuffled_scenarios(), error_rate=st.sampled_from([0.0, 0.15, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_teleop_matches_the_original_walk_and_its_draws(scenario, error_rate, seed):
    stream = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    got = order_teleop(scenario, stream, error_rate)
    assert got == nearest_walk_oracle(scenario, reference, error_rate)
    assert stream.random() == reference.random()   # same number of draws


def batch_arrays(batch):
    """Coordinates and ids of equally loaded scenarios as (walks, load) arrays."""
    return tuple(np.array([[f(p) for p in scenario.patients] for scenario in batch])
                 for f in (lambda p: p.position[0], lambda p: p.position[1],
                           lambda p: p.id))


@st.composite
def scenario_batches(draw):
    load = draw(st.integers(1, 12))
    # From the far-off base every first distance overflows to inf.
    base = draw(st.sampled_from([BASE, (4.0, 3.0), (-1.7e308, -1.7e308)]))
    return draw(st.lists(shuffled_scenarios(load, base), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(batch=scenario_batches(), error_rate=st.sampled_from([0.0, 0.15, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_a_batch_of_walks_equals_each_walk_alone_and_its_draws(batch, error_rate, seed):
    xs, ys, ids = batch_arrays(batch)
    base = batch[0].base_position
    streams = [np.random.default_rng([seed, row]) for row in range(len(batch))]
    picks = np.array([operator_picks(stream, len(ids[0]), error_rate) for stream in streams])
    walks = nearest_walks(xs, ys, base, picks, ids)
    plain = nearest_walks(xs, ys, base, np.full(ids.shape, -1), ids)
    for row, (scenario, stream) in enumerate(zip(batch, streams)):
        reference = np.random.default_rng([seed, row])
        assert (tuple(ids[row, walks[row]].tolist())
                == nearest_walk_oracle(scenario, reference, error_rate))
        assert stream.random() == reference.random()   # same number of draws
        assert tuple(ids[row, plain[row]].tolist()) == nearest_walk_oracle(scenario)


def mission_streams(seed, n):
    """Two copies of `n` fresh mission streams of one cell, as the sweep seeds them."""
    words = cell_seed_words(seed, 0, 0, n)[1::2]
    return [seeded_stream(w) for w in words], [seeded_stream(w) for w in words]


def assert_block_picks_are_the_scalar_picks(seed, n_streams, load, error_rate):
    """`block_picks` equals `operator_picks` row by row, and leaves each
    stream where the scalar path does: the next whole-word draws agree."""
    streams, scalar = mission_streams(seed, n_streams)
    picks = block_picks(streams, load, error_rate)
    assert picks.shape == (n_streams, load)
    assert picks.tolist() == [operator_picks(stream, load, error_rate) for stream in scalar]
    for stream, reference in zip(streams, scalar):
        assert stream.bit_generator.random_raw() == reference.bit_generator.random_raw()
        assert stream.exponential() == reference.exponential()
        assert stream.random() == reference.random()


@pytest.mark.parametrize("error_rate", [0.0, 0.15, 1.0])
def test_block_picks_are_the_operator_picks_at_loads_1_to_40(error_rate):
    for load in range(1, 41):
        assert_block_picks_are_the_scalar_picks(load, 12, load, error_rate)


@pytest.mark.parametrize("error_rate", [0.15, 1.0])
def test_block_picks_are_the_operator_picks_at_load_1000(error_rate):
    assert_block_picks_are_the_scalar_picks(5, 6, 1000, error_rate)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_streams=st.integers(1, 8),
       load=st.integers(1, 60),
       error_rate=st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
                            st.floats(0.0, 1.0)))
def test_block_picks_are_the_operator_picks(seed, n_streams, load, error_rate):
    assert_block_picks_are_the_scalar_picks(seed, n_streams, load, error_rate)


def test_a_pick_lemire_would_redraw_falls_back_to_the_scalar_draws(monkeypatch):
    # Lemire redraws a pick under 2.4e-7 of the time, so no seed shows one;
    # a threshold of 2**31 marks about half of the picks instead.
    calls = []

    def counted(stream, n, error_rate):
        calls.append(n)
        return operator_picks(stream, n, error_rate)

    monkeypatch.setattr(policy, "_lemire_threshold", lambda bounds: bounds * 0 + 2 ** 31)
    monkeypatch.setattr(policy, "operator_picks", counted)
    assert_block_picks_are_the_scalar_picks(3, 16, 20, 0.15)
    assert 0 < len(calls) < 16   # some walks fell back, and some did not


def near_tie(rng):
    """Two patients nearly equally far from the base, from a seeded search:
    both the batch's first ranking (squared distance) and np.hypot order
    them the other way round from math.hypot."""
    while True:
        x0, y0 = rng.uniform(0.0, 4000.0, 2).tolist()
        radius = math.hypot(x0, y0)
        x1 = float(rng.uniform(0.0, radius))
        y1 = math.sqrt(radius * radius - x1 * x1)
        exact = math.hypot(x1, y1) < math.hypot(x0, y0)
        if (exact != (x1 * x1 + y1 * y1 < x0 * x0 + y0 * y0)
                and exact != (np.hypot(x1, y1) < np.hypot(x0, y0))):
            return [(x0, y0), (x1, y1)]


def test_walks_rank_a_near_tie_by_math_hypot():
    rng = np.random.default_rng(9)
    for _ in range(20):
        scenario = make_scenario(near_tie(rng) + [(4000.0, 4000.0)])
        expected = nearest_walk_oracle(scenario)
        assert order_heuristic(scenario) == expected
        assert order_teleop(scenario, np.random.default_rng(0), 0.0) == expected
        xs, ys, ids = batch_arrays([scenario, scenario])
        assert nearest_walks(xs, ys, BASE, np.full(xs.shape, -1)).tolist() == [list(expected)] * 2


def underflowing_pair(rng):
    """Two patients within 1e-161 of the base, from a seeded search, whose
    squared distances underflow into an order unlike math.hypot's."""
    while True:
        x0, y0, x1, y1 = (rng.uniform(0.0, 4.0, 4) * 1e-162).tolist()
        squared = (x0 * x0 + y0 * y0, x1 * x1 + y1 * y1)
        if (squared[0] != squared[1]
                and (math.hypot(x1, y1) < math.hypot(x0, y0)) != (squared[1] < squared[0])):
            return [(x0, y0), (x1, y1)]


def test_walks_rank_underflowing_distances_by_math_hypot():
    rng = np.random.default_rng(9)
    for _ in range(20):
        scenario = make_scenario(underflowing_pair(rng) + [(1.0, 1.0)])
        assert order_heuristic(scenario) == nearest_walk_oracle(scenario)


def test_planners_on_a_single_patient_draw_nothing():
    scenario = make_scenario([(7.0, 7.0)])
    stream = np.random.default_rng(5)
    assert order_teleop(scenario, stream, 1.0) == (0,)
    assert stream.random() == np.random.default_rng(5).random()


# ---------------------------------------------------------------------------
# Triage score and ordering.

def test_score_reduces_to_severity_with_isolated_weight():
    weights = TriageWeights(1.0, 0.0, 0.0, 60.0)
    patient = Patient(0, (0.0, 0.0), 0.37, 0.0, 55.0, 0.9, False)
    assert triage_score(patient, weights) == pytest.approx(0.37, abs=1e-15)


def test_score_direct_evaluation():
    # 0.5 + e^-1 + 0.5 with unit weights and delta == timescale
    weights = TriageWeights(1.0, 1.0, 1.0, 60.0)
    patient = Patient(0, (0.0, 0.0), 0.5, 0.0, 60.0, 0.5, False)
    assert triage_score(patient, weights) == pytest.approx(1.3678794411714423,
                                                           abs=1e-12)


def test_score_decreases_with_time_to_criticality():
    weights = TriageWeights(1.0, 1.0, 0.5, 60.0)
    sooner = Patient(0, (0.0, 0.0), 0.5, 0.0, 30.0, 0.5, False)
    later = Patient(1, (0.0, 0.0), 0.5, 0.0, 90.0, 0.5, False)
    assert triage_score(sooner, weights) > triage_score(later, weights)


def test_triage_identical_patients_order_by_id():
    scenario = make_scenario([(10.0, 10.0)] * 4)
    assert order_triage(scenario) == (0, 1, 2, 3)


def test_triage_matches_oracle_on_a_six_patient_case():
    scenario = make_scenario(
        positions=[(i * 100.0, 0.0) for i in range(6)],
        severities=[0.9, 0.1, 0.7, 0.7, 0.3, 0.99],
        access=[0.5, 1.0, 0.3, 0.9, 0.8, 0.2])
    weights = TriageWeights()
    assert order_triage(scenario, weights) == triage_oracle(scenario, weights)


def test_triage_matches_oracle_on_200_random_small_cases():
    rng = np.random.default_rng(43)
    weights = TriageWeights()
    for _ in range(200):
        scenario = random_scenario(rng)
        assert order_triage(scenario, weights) == triage_oracle(scenario, weights)


def test_triage_ordering_invariant_under_weight_scaling():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        scenario = random_scenario(rng)
        w = TriageWeights(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)),
                          float(rng.uniform(0.1, 2.0)), 60.0)
        c = float(rng.uniform(0.01, 100.0))
        scaled = TriageWeights(c * w.w_severity, c * w.w_urgency, c * w.w_access, 60.0)
        assert order_triage(scenario, w) == order_triage(scenario, scaled)


@st.composite
def triage_batches(draw):
    """Scenario batches whose patients draw severity and accessibility from a
    few values each, so that equal scores are common; `shuffled_scenarios`
    ids are not the column index."""
    batch = draw(scenario_batches())
    return [Scenario(scenario.condition, tuple(
        p._replace(severity=sev, time_to_criticality=240.0 * (1.0 - sev) + 10.0,
                   accessibility=acc)
        for p, sev, acc in zip(
            scenario.patients,
            draw(st.lists(st.sampled_from([0.5, 0.5, 0.9]), min_size=len(scenario.patients),
                          max_size=len(scenario.patients))),
            draw(st.lists(st.sampled_from([1.0, 0.2]), min_size=len(scenario.patients),
                          max_size=len(scenario.patients))))),
        scenario.base_position, scenario.area_extent) for scenario in batch]


@settings(max_examples=300, deadline=None)
@given(batch=triage_batches(),
       weights=st.sampled_from([TriageWeights(), TriageWeights(0.0, 1.0, 0.0, 60.0),
                                TriageWeights(1.0, 1.0, 0.5, math.inf)]))
def test_a_batch_of_triage_orders_equals_each_order_alone(batch, weights):
    sev, ttc, acc, ids = (np.array([[f(p) for p in scenario.patients] for scenario in batch])
                          for f in (lambda p: p.severity, lambda p: p.time_to_criticality,
                                    lambda p: p.accessibility, lambda p: p.id))
    orders = triage_orders(sev, ttc, acc, weights, ids)
    for row, scenario in enumerate(batch):
        got = tuple(ids[row, orders[row]].tolist())
        assert got == triage_oracle(scenario, weights)
        assert got == order_triage(scenario, weights)


def exp_rounding_down(rng):
    """A time-to-criticality whose urgency np.exp rounds below math.exp,
    from a seeded search."""
    while True:
        ttc = float(rng.uniform(0.0, 600.0))
        if np.exp(-ttc / 60.0) < math.exp(-ttc / 60.0):
            return ttc


def test_triage_scores_urgency_with_math_exp():
    rng = np.random.default_rng(9)
    weights = TriageWeights(1.0, 1.0, 0.0, 60.0)
    for _ in range(20):
        ttc = exp_rounding_down(rng)
        # Patient 1 scores patient 0's urgency by math.exp: a tie, which patient 0 wins.
        scenario = Scenario(Condition(0, 0.0, 2), (
            Patient(0, (0.0, 0.0), 0.0, 0.0, ttc, 1.0, False),
            Patient(1, (0.0, 0.0), math.exp(-ttc / 60.0), 0.0, math.inf, 1.0, False)),
            BASE, 4000.0)
        assert order_triage(scenario, weights) == triage_oracle(scenario, weights) == (0, 1)


def test_orderings_always_yield_permutations():
    rng = np.random.default_rng(53)
    for _ in range(10_000):
        scenario = random_scenario(rng, max_load=8)
        ids = [p.id for p in scenario.patients]
        assert sorted(order_heuristic(scenario)) == ids
        assert sorted(order_triage(scenario)) == ids


def test_weight_validation():
    with pytest.raises(ValueError):
        TriageWeights(0.0, 0.0, 0.0, 60.0)
    with pytest.raises(ValueError):
        TriageWeights(-1.0, 1.0, 0.5, 60.0)
    with pytest.raises(ValueError):
        TriageWeights(1.0, 1.0, 0.5, 0.0)
