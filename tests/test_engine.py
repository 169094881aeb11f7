"""Mission execution: travel, pauses, aborts, events, and trace invariants."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import medmission.engine as engine
import medmission.experiment as experiment
from medmission import (
    Condition,
    Patient,
    PlatformParams,
    PolicyId,
    Scenario,
    SweepConfig,
    TriageWeights,
    check_abort,
    generate_scenario,
    run_mission,
    trial_metrics,
)
from medmission.engine import (
    ABORT,
    ARRIVE,
    COMPLETE,
    DEPART,
    INTERVENE,
    OPERATOR_INTERVENTION,
    TASK_SWITCH,
    crossing_intervals,
    nominal_trace,
)
from medmission.localization import (
    DEFAULT_LOCALIZATION_PARAMS,
    IntervalColumns,
    LocalizationParams,
)
from medmission.metrics import column_bundles, outcome_columns
from medmission.policy import order_heuristic

PARAMS = PlatformParams()
BASE = (0.0, 0.0)

# Quiet localization: no outages, no integrity episodes, regardless of delta.
QUIET_LOC = LocalizationParams(outage_rate_coeff=0.0, integrity_rate=0.0)


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


def events_of(trace, kind):
    return [e for e in trace.events if e.kind == kind]


def assert_well_formed(trace, scenario):
    times = [e.time for e in trace.events]
    assert times == sorted(times)
    arrived = set()
    terminal_seen = False
    for e in trace.events:
        assert not terminal_seen, "no events allowed after the terminal event"
        if e.kind == ARRIVE:
            arrived.add(e.patient_id)
        if e.kind == INTERVENE:
            assert e.patient_id in arrived
        if e.kind in (ABORT, COMPLETE):
            terminal_seen = True
    assert terminal_seen
    assert (trace.events[-1].kind == ABORT) == trace.aborted
    assert trace.duration == trace.events[-1].time
    served = {e.patient_id for e in events_of(trace, INTERVENE)}
    assert len(served) + (len(scenario.patients) - len(served)) == len(scenario.patients)
    assert served <= {p.id for p in scenario.patients}


# ---------------------------------------------------------------------------
# Leg time: the ARRIVE time of a one-patient autonomous mission.

def first_arrival(position, access=1.0, params=PARAMS, loc=QUIET_LOC):
    scenario = make_scenario([position], access=[access])
    trace = run_mission(scenario, PolicyId.PI2_AUTO, params,
                        stream=np.random.default_rng(0), loc=loc)
    return events_of(trace, ARRIVE)[0].time


def test_travel_time_zero_distance():
    assert first_arrival(BASE, access=0.5) == 0.0


def test_travel_time_without_penalties_is_distance_over_speed():
    t = first_arrival((1000.0, 0.0), params=replace(PARAMS, uncertainty_penalty=0.0))
    assert t == pytest.approx(1000.0 / PARAMS.cruise_speed, abs=1e-15)


def test_travel_time_monotone_in_pose_variance():
    lo = first_arrival((1000.0, 0.0), loc=replace(QUIET_LOC, sigma_auto=4.0))
    hi = first_arrival((1000.0, 0.0), loc=replace(QUIET_LOC, sigma_auto=12.0))
    assert hi > lo


def test_travel_time_decreasing_in_accessibility():
    hard = first_arrival((1000.0, 0.0), access=0.25)
    easy = first_arrival((1000.0, 0.0), access=1.0)
    assert hard > easy


def test_travel_time_rejects_zero_accessibility():
    with pytest.raises(ValueError):
        first_arrival((1.0, 0.0), access=0.0)


# ---------------------------------------------------------------------------
# Planned timelines: the batch kernel against the scalar loop it replaced.

def planned_legs_oracle(order, patients, base, policy, delta, params, loc):
    """(id, depart, arrive, intervene) per visit, one leg at a time."""
    penalty = engine._uncertainty_penalty(nominal_trace(policy, delta, loc), params)
    speed_scale = 1.0
    service = params.service_time
    if policy is PolicyId.PI1_TELEOP:
        speed_scale = 1.0 / params.teleop_speed_factor
        service = params.service_time / params.teleop_speed_factor
    t = 0.0
    pos = base
    legs = []
    for pid in order:
        patient = patients[pid]
        distance = math.hypot(patient.position[0] - pos[0], patient.position[1] - pos[1])
        leg = 0.0
        if distance != 0.0:
            leg = (distance / params.cruise_speed) * penalty / patient.accessibility
        leg *= speed_scale
        depart = t
        arrive = depart + leg
        intervene = arrive + service
        legs.append((pid, depart, arrive, intervene))
        t = intervene
        pos = patient.position
    return legs, service


def bits(values):
    """Each float exactly, with -0.0 apart from 0.0 and every NaN alike."""
    return [v.hex() if v == v else "nan" for v in values]


# A coarse grid makes duplicate positions, and so zero legs, common.
GRID = st.sampled_from([0.0, 3.0, 4.0, 2500.0]) | st.floats(0.0, 4000.0)


@st.composite
def timeline_batches(draw):
    """Equally loaded scenarios whose ids are shuffled, each with a visit order."""
    load = draw(st.integers(0, 8))
    condition = Condition(0, draw(st.sampled_from([0.0, 0.5, 1.0])), max(load, 1))
    # From the far-off base every first distance overflows to inf.
    base = draw(st.sampled_from([BASE, (4.0, 3.0), (-1.7e308, -1.7e308)]))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        ids = draw(st.permutations(range(load)))
        patients = tuple(
            Patient(pid, (draw(GRID), draw(GRID)), 0.5, 0.0, 130.0,
                    draw(st.sampled_from([1.0, 0.2]) | st.floats(1e-3, 1.0)), False)
            for pid in ids)
        batch.append((Scenario(condition, patients, base, 4000.0),
                      tuple(draw(st.permutations(ids)))))
    return batch


@settings(max_examples=300, deadline=None)
@given(batch=timeline_batches(), policy=st.sampled_from(list(PolicyId)),
       cruise_speed=st.sampled_from([500.0, 5e-324, math.inf]),
       penalty=st.sampled_from([0.5, 1e300]))
def test_leg_timelines_equal_the_scalar_loop_bit_for_bit(batch, policy, cruise_speed,
                                                         penalty):
    params = replace(PARAMS, cruise_speed=cruise_speed, uncertainty_penalty=penalty)
    base, delta = batch[0][0].base_position, batch[0][0].condition.delta
    xs, ys, access = (np.array([[f(p) for p in scenario.patients] for scenario, _ in batch],
                               dtype=float).reshape(len(batch), -1)
                      for f in (lambda p: p.position[0], lambda p: p.position[1],
                                lambda p: p.accessibility))
    columns = np.array([[[p.id for p in scenario.patients].index(pid) for pid in order]
                        for scenario, order in batch], dtype=np.intp).reshape(len(batch), -1)
    depart, arrive, intervene, service = engine.leg_timelines(
        xs, ys, access, columns, base, policy, delta, params, DEFAULT_LOCALIZATION_PARAMS)
    for row, (scenario, order) in enumerate(batch):
        patients = {p.id: p for p in scenario.patients}
        legs, want_service = planned_legs_oracle(order, patients, base, policy, delta,
                                                 params, DEFAULT_LOCALIZATION_PARAMS)
        want = [list(column) for column in zip(*legs)] or [[], [], [], []]
        got = [depart[row].tolist(), arrive[row].tolist(), intervene[row].tolist()]
        assert [bits(times) for times in got] == [bits(times) for times in want[1:]]
        assert bits([service]) == bits([want_service])


def assert_hypot_is_math_hypot(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    got = engine._hypot(a, b)
    assert got.shape == a.shape
    want = np.array(list(map(math.hypot, a.ravel().tolist(), b.ravel().tolist())))
    assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))


# Zeros, subnormals, the smallest normal float and its neighbour below,
# ordinary and extreme magnitudes, the largest float, infinities and NaN.
HYPOT_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
                  2.2250738585072014e-308, 3.3e-308, 1e-300, 1.0, 3.0, 4.0, 4000.0, 1e300,
                  1.3e308, 1.7976931348623157e308, -1.7976931348623157e308,
                  math.inf, -math.inf, math.nan]


def test_hypot_is_math_hypot_on_every_pair_of_special_values():
    a, b = np.meshgrid(HYPOT_SPECIALS, HYPOT_SPECIALS)
    assert_hypot_is_math_hypot(a, b)   # a 2-d batch, as leg_timelines passes


def test_hypot_is_math_hypot_on_random_pairs():
    rng = np.random.default_rng(17)
    n = 200_000
    signs = rng.choice([-1.0, 1.0], (2, n))
    a, b = signs * 10.0 ** rng.uniform(-310.0, 308.2, (2, n))   # every exponent
    assert_hypot_is_math_hypot(a, b)
    assert_hypot_is_math_hypot(a, a * 10.0 ** rng.uniform(-20.0, 0.0, n))   # close magnitudes
    assert_hypot_is_math_hypot(*rng.uniform(-4000.0, 4000.0, (2, n)))   # leg components


@settings(max_examples=500, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=20))
def test_hypot_is_math_hypot(pairs):
    assert_hypot_is_math_hypot(*zip(*pairs))


# ---------------------------------------------------------------------------
# check_abort

def test_no_abort_with_zero_counters():
    for policy in PolicyId:
        assert not check_abort(0.0, 0.0, policy, PARAMS)


def test_teleop_aborts_just_past_the_comm_timeout():
    t = PARAMS.comm_timeout_teleop
    assert not check_abort(t, 0.0, PolicyId.PI1_TELEOP, PARAMS)
    assert check_abort(t + 1e-6, 0.0, PolicyId.PI1_TELEOP, PARAMS)


def test_supervised_policies_abort_after_the_grace_period():
    for policy in (PolicyId.PI2_AUTO, PolicyId.PI3_GEODT):
        g = PARAMS.abort_grace
        assert not check_abort(0.0, g, policy, PARAMS)
        assert check_abort(0.0, g + 1e-6, policy, PARAMS)


def test_teleop_ignores_the_uncertainty_counter():
    assert not check_abort(0.0, 1e9, PolicyId.PI1_TELEOP, PARAMS)


def test_comm_timeouts_are_graded_by_policy():
    assert (PARAMS.comm_timeout_for(PolicyId.PI1_TELEOP)
            < PARAMS.comm_timeout_for(PolicyId.PI2_AUTO)
            < PARAMS.comm_timeout_for(PolicyId.PI3_GEODT))


def test_negative_counters_are_rejected():
    with pytest.raises(ValueError):
        check_abort(-1.0, 0.0, PolicyId.PI2_AUTO, PARAMS)


def test_operator_view_rejects_labels_outside_the_alphabet():
    events = []
    view = engine.OperatorView(events)
    view.switch(engine.TASK_MONITOR, 1.0)
    view.switch(engine.TASK_MONITOR, 2.0)   # no-op repeat
    assert events == [engine.MissionEvent(1.0, TASK_SWITCH, None, engine.TASK_MONITOR)]
    with pytest.raises(ValueError):
        view.switch("daydream", 3.0)


# ---------------------------------------------------------------------------
# Threshold crossings

def test_autonomy_crosses_only_during_integrity_episodes():
    episodes = ((10.0, 14.0), (50.0, 51.0))
    got = crossing_intervals(PolicyId.PI2_AUTO, 0.5, (), episodes, 600.0)
    assert got == episodes


def test_twin_crossings_need_both_an_outage_and_an_episode():
    outages = ((10.0, 30.0), (100.0, 110.0))
    episodes = ((20.0, 40.0), (105.0, 106.0), (200.0, 210.0))
    got = crossing_intervals(PolicyId.PI3_GEODT, 1.0, outages, episodes, 600.0)
    assert got == ((20.0, 30.0), (105.0, 106.0))


def test_teleop_has_no_uncertainty_crossings():
    assert crossing_intervals(PolicyId.PI1_TELEOP, 1.0, ((0.0, 600.0),),
                              ((0.0, 600.0),), 600.0) == ()


def _in_any(intervals, t):
    return any(start <= t < end for start, end in intervals)


@st.composite
def _crossing_cases(draw):
    """A supervised policy, delta, threshold, horizon and two sorted,
    disjoint interval lists within [0, horizon]; intervals may be empty,
    may touch, and may end at 0 or at the horizon."""
    policy = draw(st.sampled_from([PolicyId.PI2_AUTO, PolicyId.PI3_GEODT]))
    delta = draw(st.floats(0.0, 1.0))
    traces = [engine.monitored_trace(policy, delta, gps, episode)
              for gps in (True, False) for episode in (False, True)]
    threshold = draw(st.one_of(st.sampled_from([0.0, 400.0, 1e9, *traces]),
                               st.floats(0.0, 1e9)))
    horizon = draw(st.sampled_from([25.0, 600.0]) | st.floats(1e-3, 1e3))
    point = st.sampled_from([0.0, horizon]) | st.floats(0.0, horizon)

    def intervals():
        ends = sorted(draw(st.lists(point, max_size=8)))
        return tuple(zip(ends[0:-1:2], ends[1::2]))
    return policy, delta, threshold, horizon, intervals(), intervals()


@settings(max_examples=400, deadline=None)
@given(case=_crossing_cases())
def test_crossings_are_where_the_monitored_trace_exceeds_the_threshold(case):
    policy, delta, threshold, horizon, outages, episodes = case
    params = replace(PARAMS, uncertainty_threshold=threshold)
    got = crossing_intervals(policy, delta, outages, episodes, horizon, params)
    ends = sorted({0.0, horizon, *(t for i in outages + episodes for t in i)})
    probes = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    for t in probes:
        if t < horizon:
            trace = engine.monitored_trace(policy, delta, not _in_any(outages, t),
                                           _in_any(episodes, t))
            assert _in_any(got, t) == (trace > threshold), t
    assert all(start < end for start, end in got)
    assert all(end < start for (_, end), (start, _) in zip(got, got[1:]))
    assert {t for interval in got for t in interval} <= set(ends)


def test_fused_trace_stays_below_threshold_when_gps_is_valid():
    # Even fully degraded GPS keeps the fused estimate under the abort
    # threshold while a fix exists; that is what makes crossings rare.
    for delta in (0.0, 0.5, 1.0):
        for episode in (False, True):
            trace = engine.monitored_trace(PolicyId.PI3_GEODT, delta, True, episode)
            assert trace < PARAMS.uncertainty_threshold


# ---------------------------------------------------------------------------
# Hand-traced mission (autonomous, no degradation).

def test_hand_traced_autonomous_mission():
    # Three collinear patients 1000 m apart, full accessibility, delta 0.
    # Each leg: (1000/500) * (1 + 0.5*sqrt(128)/100) = 2.1131370849898476 min,
    # then 1.5 min of service.
    scenario = make_scenario([(1000.0, 0.0), (2000.0, 0.0), (3000.0, 0.0)],
                             severities=[0.8, 0.5, 0.9])
    trace = run_mission(scenario, PolicyId.PI2_AUTO, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC)
    leg = 2.1131370849898476
    expected = [leg + 1.5, 2 * (leg + 1.5), 3 * (leg + 1.5)]
    got = [(e.patient_id, e.time) for e in events_of(trace, INTERVENE)]
    assert [pid for pid, _ in got] == [0, 1, 2]
    for (_, t), want in zip(got, expected):
        assert t == pytest.approx(want, abs=1e-12)
    assert not trace.aborted
    assert trace.duration == pytest.approx(expected[-1], abs=1e-12)
    assert_well_formed(trace, scenario)


def test_autonomous_visits_follow_the_heuristic_order():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        scenario = make_scenario(
            [(rng.uniform(0, 4000), rng.uniform(0, 4000)) for _ in range(n)],
            severities=[float(rng.uniform()) for _ in range(n)],
            access=[float(rng.uniform(0.2, 1.0)) for _ in range(n)])
        trace = run_mission(scenario, PolicyId.PI2_AUTO, PARAMS,
                            stream=np.random.default_rng(1), loc=QUIET_LOC)
        got = tuple(e.patient_id for e in events_of(trace, INTERVENE))
        assert got == order_heuristic(scenario)


def test_empty_plan_completes_immediately():
    scenario = Scenario(Condition(0, 0.0, 1), (), BASE, 4000.0)
    trace = run_mission(scenario, PolicyId.PI2_AUTO, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC)
    assert trace.duration == 0.0
    assert not trace.aborted
    assert trace.events[-1].kind == COMPLETE


# ---------------------------------------------------------------------------
# Teleop pause and abort semantics under a controlled outage pattern.

def _fixed_outages(intervals):
    def fake(delta, horizon, stream, params=None):
        return tuple(intervals)
    return fake


def _fixed_episodes(intervals):
    def fake(horizon, stream, params=None):
        return tuple(intervals)
    return fake


def _no_episodes(horizon, stream, params=None):
    return ()


def test_teleop_pauses_during_a_short_outage(monkeypatch):
    monkeypatch.setattr(engine, "outage_intervals", _fixed_outages([(1.0, 3.0)]))
    monkeypatch.setattr(engine, "integrity_intervals", _no_episodes)
    scenario = make_scenario([(1000.0, 0.0)], delta=0.5)
    trace = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC,
                        error_rate=0.0)
    quiet = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC,
                        error_rate=0.0)
    # Same mission without the outage, for reference.
    monkeypatch.setattr(engine, "outage_intervals", _fixed_outages([]))
    baseline = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                           stream=np.random.default_rng(0), loc=QUIET_LOC,
                           error_rate=0.0)
    assert not trace.aborted
    # The 2-minute outage shifts arrival and completion by exactly 2 minutes.
    assert trace.duration == pytest.approx(baseline.duration + 2.0, abs=1e-9)
    assert quiet.duration == trace.duration
    recover = [e for e in events_of(trace, TASK_SWITCH)
               if e.task_label == engine.TASK_RECOVER]
    assert len(recover) == 1 and recover[0].time == pytest.approx(1.0)


def test_teleop_aborts_when_an_outage_outlasts_the_timeout(monkeypatch):
    monkeypatch.setattr(engine, "outage_intervals", _fixed_outages([(2.0, 9.0)]))
    monkeypatch.setattr(engine, "integrity_intervals", _no_episodes)
    scenario = make_scenario([(1000.0, 0.0), (2000.0, 0.0)], delta=0.8)
    trace = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC,
                        error_rate=0.0)
    assert trace.aborted
    assert trace.duration == pytest.approx(2.0 + PARAMS.comm_timeout_teleop, abs=1e-12)
    assert events_of(trace, INTERVENE) == []
    assert_well_formed(trace, scenario)


def test_teleop_mission_with_infinite_legs_ends_at_the_horizon(monkeypatch):
    # A subnormal cruise speed makes every leg infinite, so the second leg's
    # planned work is inf - inf = NaN; the mission must still end, by abort.
    monkeypatch.setattr(engine, "outage_intervals", _fixed_outages([(1.0, 2.0)]))
    monkeypatch.setattr(engine, "integrity_intervals", _no_episodes)
    scenario = make_scenario([(1000.0, 0.0), (2000.0, 0.0)], delta=0.5)
    params = replace(PARAMS, cruise_speed=5e-324)
    trace = run_mission(scenario, PolicyId.PI1_TELEOP, params,
                        stream=np.random.default_rng(0), loc=QUIET_LOC,
                        error_rate=0.0)
    assert trace.aborted
    assert trace.duration == params.horizon
    assert events_of(trace, ARRIVE) == []
    assert trace.events[-1].kind == ABORT


@pytest.mark.parametrize("policy", [PolicyId.PI2_AUTO, PolicyId.PI3_GEODT])
def test_supervised_mission_with_nan_legs_ends_at_the_horizon(policy):
    # From a far-off base the first leg is infinitely long, and at infinite
    # cruise speed it takes inf / inf = NaN minutes: it never ends.
    scenario = replace(make_scenario([(1000.0, 0.0), (1000.0, 0.0)]),
                       base_position=(-1.7e308, -1.7e308))
    params = replace(PARAMS, cruise_speed=math.inf)
    trace = run_mission(scenario, policy, params, stream=np.random.default_rng(0),
                        loc=QUIET_LOC)
    assert trace.aborted
    assert trace.duration == params.horizon
    assert [e.kind for e in trace.events if e.patient_id is not None] == [DEPART]
    assert_well_formed(trace, scenario)


_TIMEOUT = PARAMS.comm_timeout_teleop


@settings(max_examples=150, deadline=None)
@given(positions=st.lists(st.tuples(st.floats(0.0, 4000.0), st.floats(0.0, 4000.0)),
                          min_size=1, max_size=4),
       gaps=st.lists(st.floats(0.05, 40.0), max_size=6),
       lengths=st.lists(st.floats(0.05, 12.0).filter(
           lambda d: abs(d - _TIMEOUT) > 1e-6), min_size=6, max_size=6),
       horizon=st.sampled_from([25.0, 600.0]),
       seed=st.integers(0, 2**32 - 1))
def test_teleop_abort_cuts_the_no_timeout_run_at_the_first_long_outage(
        positions, gaps, lengths, horizon, seed):
    outages = []
    t = 0.0
    for gap, length in zip(gaps, lengths):
        outages.append((t + gap, t + gap + length))
        t = outages[-1][1]
    scenario = make_scenario(positions, delta=0.5)
    params = replace(PARAMS, horizon=horizon)

    def run(platform):
        return run_mission(scenario, PolicyId.PI1_TELEOP, platform,
                           stream=np.random.default_rng(seed), loc=QUIET_LOC)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "outage_intervals", _fixed_outages(outages))
        mp.setattr(engine, "integrity_intervals", _no_episodes)
        trace = run(params)
        unbounded = run(replace(params, comm_timeout_teleop=math.inf))

    if not trace.aborted:
        assert trace == unbounded
        return
    long_starts = [start for start, end in outages if end - start > _TIMEOUT]
    terminal = min(long_starts[0] + _TIMEOUT if long_starts else math.inf, horizon)
    kept = tuple(e for e in unbounded.events[:-1] if e.time <= terminal + engine._EPS)
    assert trace == replace(unbounded, events=kept + (engine.MissionEvent(terminal, ABORT),),
                            duration=terminal, aborted=True)


# ---------------------------------------------------------------------------
# The sweep's metric kernel on the mission loop's outcome, against its log.

def _logged_outcome(events):
    """What the metrics read off a mission's log: the last event's time and
    whether it is an abort, each patient's first intervention time, and the
    counts of task switches and control actions."""
    kinds = [event.kind for event in events]
    intervene_times = {}
    for event in events:
        if event.kind == INTERVENE:
            intervene_times.setdefault(event.patient_id, event.time)
    return (events[-1].time, events[-1].kind == ABORT, intervene_times,
            kinds.count(TASK_SWITCH), kinds.count(OPERATOR_INTERVENTION))


_TIMEOUTS = sorted({PARAMS.comm_timeout_for(policy) for policy in PolicyId})
_LENGTHS = st.one_of(st.sampled_from(_TIMEOUTS),
                     st.sampled_from(_TIMEOUTS).map(lambda d: d + 1e-6),
                     st.floats(0.05, 15.0))


@st.composite
def _horizon_and_outages(draw):
    """A horizon, and None (outages sampled) or outages on rule boundaries.

    Either outages lasting about a link timeout (a length equal to a timeout
    does not abort, as the rule is strict, and one just past it does), or one
    outage near the horizon: it opens where an abort lands on the horizon,
    or it opens or closes just past the horizon, inside the teleop cut, where
    the log keeps the switch or the control action it brings.
    """
    horizon = draw(st.sampled_from([25.0, 600.0]))
    kind = draw(st.sampled_from(["sampled", "timeouts", "horizon"]))
    if kind == "sampled":
        return horizon, None
    if kind == "timeouts":
        outages = []
        t = 0.0
        for gap, length in draw(st.lists(st.tuples(st.floats(0.05, 40.0), _LENGTHS),
                                         max_size=6)):
            outages.append((t + gap, t + gap + length))
            t = outages[-1][1]
        return horizon, outages
    length = draw(_LENGTHS)
    start = draw(st.sampled_from([horizon - d for d in _TIMEOUTS] + [
        horizon + engine._EPS / 2, horizon + engine._EPS,
        horizon + engine._EPS / 2 - length, horizon + engine._EPS - length]))
    return horizon, [(start, start + length)]


_CUT = 25.0 + engine._EPS / 2   # inside the teleop cut of a horizon-25 mission


@settings(max_examples=400, deadline=None)
@given(policy=st.sampled_from(list(PolicyId)),
       load=st.integers(1, 40),
       delta=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
       horizon_and_outages=_horizon_and_outages(),
       seed=st.integers(0, 2**32 - 1),
       tau_c=st.one_of(st.floats(1e-3, 300.0), st.just(math.inf)),
       alpha=st.floats(0.0, 10.0),
       beta=st.floats(0.0, 10.0))
@example(policy=PolicyId.PI1_TELEOP, load=10, delta=0.5,
         horizon_and_outages=(25.0, [(_CUT, 26.0)]),
         seed=1, tau_c=60.0, alpha=1.0, beta=1.0)
@example(policy=PolicyId.PI1_TELEOP, load=10, delta=0.5,
         horizon_and_outages=(25.0, [(_CUT - 2.0, _CUT)]),
         seed=1, tau_c=60.0, alpha=1.0, beta=1.0)
def test_sweep_metrics_equal_trial_metrics_of_the_logged_trace(
        policy, load, delta, horizon_and_outages, seed, tau_c, alpha, beta):
    horizon, outages = horizon_and_outages
    scenario = generate_scenario(Condition(0, delta, load), np.random.default_rng(seed))
    params = replace(PARAMS, horizon=horizon)
    with pytest.MonkeyPatch.context() as mp:
        if outages is not None:
            mp.setattr(engine, "outage_intervals", _fixed_outages(outages))
        trace = run_mission(scenario, policy, params, stream=np.random.default_rng(seed))
    duration, aborted, intervene_times, switches, actions = _logged_outcome(trace.events)
    # The sweep's metric kernel on a batch of one mission; ids are the columns.
    served = np.full((1, load), math.nan)
    served[0, list(intervene_times)] = list(intervene_times.values())
    columns = outcome_columns(
        np.array([duration]), np.array([aborted]), np.array([switches]), np.array([actions]),
        served, np.array([[p.high_severity for p in scenario.patients]]), tau_c, alpha, beta)
    assert (column_bundles(columns, [load])
            == [trial_metrics(trace, scenario, tau_c, alpha, beta)])


# ---------------------------------------------------------------------------
# A cell's column kernels against the scalar loop, row by row.

def _timelines(legs, service):
    """Depart, arrive and intervene times of missions with these legs, laid
    out as `leg_timelines` lays them out."""
    legs = np.array(legs, dtype=float)
    steps = np.repeat(legs, 2, axis=1)
    steps[:, 1::2] = service
    times = np.cumsum(steps, axis=1)
    arrive, intervene = times[:, 0::2], times[:, 1::2]
    depart = np.zeros_like(arrive)
    depart[:, 1:] = intervene[:, :-1]
    return depart, arrive, intervene


def _check_rows_against_the_loop(policy, legs, schedules, params, delta=0.5):
    """Run a hand-built cell through `cell_outcomes` and hold each row to
    the log `_simulate` writes on the same schedules."""
    service = params.service_time
    if policy is PolicyId.PI1_TELEOP:
        service /= params.teleop_speed_factor
    depart, arrive, intervene = _timelines(legs, service)
    n, load = depart.shape
    orders = np.tile(np.arange(load)[::-1], (n, 1))   # ids differ from visit order
    streams = [np.random.default_rng(trial) for trial in range(n)]
    duration, aborted, switches, actions, served = engine.cell_outcomes(
        policy, delta, orders, depart, arrive, intervene, service,
        *map(IntervalColumns.of, zip(*schedules)), streams, params)
    for trial in range(n):
        events = []
        engine._simulate(policy, delta, orders[trial].tolist(), depart[trial].tolist(),
                         arrive[trial].tolist(), intervene[trial].tolist(), service,
                         *schedules[trial], params, np.random.default_rng(trial),
                         DEFAULT_LOCALIZATION_PARAMS, events)
        end, ended_by_abort, times, want_switches, want_actions = _logged_outcome(events)
        got = {pid: t.hex() for pid, t in enumerate(served[trial].tolist()) if t == t}
        assert float(duration[trial]).hex() == end.hex(), trial
        assert (aborted[trial], switches[trial], actions[trial]) == (
            ended_by_abort, want_switches, want_actions), trial
        assert got == {pid: t.hex() for pid, t in times.items()}, trial


def _teleop_end(legs, params):
    """The pause-free end of a teleop mission, folded as the loop folds it."""
    service = params.service_time / params.teleop_speed_factor
    assess = service * params.assess_fraction
    depart, arrive, _ = _timelines([legs], service)
    t = 0.0
    for leg in (arrive - depart)[0].tolist():
        t = t + leg + assess + (service - assess)
    return t


def _ulps(x, k):
    """`x` moved `k` ulp up (or down, for negative `k`)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def test_teleop_rows_with_an_outage_near_their_end_equal_the_loop():
    legs = [2.0, 3.5, 1.25]
    end = _teleop_end(legs, PARAMS)
    past = end + engine._EPS + abs(end) * 1e-12
    firsts = ([_ulps(end + engine._EPS, k) for k in range(-3, 4)]
              + [past, _ulps(past, 1), end + 1.0, end - 1.0, math.inf])
    schedules = [((((first, first + 1.0),) if first < math.inf else ()), ())
                 for first in firsts]
    _check_rows_against_the_loop(PolicyId.PI1_TELEOP, [legs] * len(firsts), schedules, PARAMS)


def test_teleop_fast_rows_take_the_horizon_cut():
    params = replace(PARAMS, horizon=25.0)
    legs = [[2.0, 3.5, 1.25], [9.0, 8.0, 7.0], [0.0, 30.0, 1.0], [30.0, 1.0, 1.0]]
    assert min(_teleop_end(row, params) for row in legs[1:]) > params.horizon
    _check_rows_against_the_loop(PolicyId.PI1_TELEOP, legs, [((), ())] * len(legs), params)


def test_teleop_nan_and_infinite_legs_equal_the_loop():
    legs = [[2.0, math.inf, 1.0], [math.nan, 1.0, 1.0], [2.0, 1.0, math.inf], [2.0, 1.0, 1.0]]
    _check_rows_against_the_loop(PolicyId.PI1_TELEOP, legs, [((), ())] * len(legs), PARAMS)


@pytest.mark.parametrize("policy", [PolicyId.PI2_AUTO, PolicyId.PI3_GEODT])
def test_supervised_rows_with_an_interval_at_the_planned_end_equal_the_loop(policy):
    legs = [2.0, 3.5, 1.25]
    end = _timelines([legs], PARAMS.service_time)[2][0, -1]
    before = math.nextafter(end, 0.0)
    outage, episode = (lambda s: (((s, s + 20.0),), ())), (lambda s: ((), ((s, s + 20.0),)))
    schedules = [outage(end), outage(before), episode(end), episode(before), ((), ()),
                 ((), ()), ((), ()), ((), ())]
    rows = [legs] * 5 + [[2.0, math.nan, 1.0], [2.0, math.inf, 1.0], [700.0, 1.0, 1.0]]
    _check_rows_against_the_loop(policy, rows, schedules, PARAMS)


@pytest.mark.parametrize("policy", [PolicyId.PI2_AUTO, PolicyId.PI3_GEODT])
def test_supervised_rows_over_a_zero_threshold_equal_the_loop(policy):
    params = replace(PARAMS, uncertainty_threshold=0.0)
    legs = [[2.0, 3.5, 1.25], [1.0, 1.0, 1.0]]
    _check_rows_against_the_loop(policy, legs, [((), ())] * 2, params)


_SPANS = st.sampled_from([0.0, 1e-10, 0.25, 1.0, 2.0, 3.0, 6.0, 12.0, 40.0])


@st.composite
def _intervals(draw, origin, horizon):
    """Sorted, disjoint intervals from `origin`, cut at the horizon: touching,
    empty, at 0 or at the horizon, long or short in any order."""
    intervals, t = [], origin
    for gap, length in draw(st.lists(st.tuples(_SPANS, _SPANS), max_size=7)):
        start = min(t + gap, horizon)
        t = min(start + length, horizon)
        intervals.append((start, t))
    return tuple(intervals)


@st.composite
def _cells(draw):
    """A hand-built cell: its policy, legs, schedules, parameters and level.

    A far cell has its intervals past 1e10 under a horizon of 1e11, where an
    ulp of a time exceeds `_EPS`, and legs long enough to reach them. A zero
    or infinite service time gives steps without work, infinite steps and
    NaN ones (``inf * 0`` and ``inf - inf``), as NaN and infinite legs do.
    """
    policy = draw(st.sampled_from(list(PolicyId)))
    far = draw(st.booleans())
    horizon = 1e11 if far else draw(st.sampled_from([25.0, 600.0]))
    origin, scale = (1e10, 1e9) if far else (0.0, 1.0)
    timeout = draw(st.sampled_from([3.0, 0.0, 30.0, math.inf]))
    params = replace(PARAMS, horizon=horizon,
                     service_time=draw(st.sampled_from([1.5, 0.0, math.inf])),
                     uncertainty_threshold=draw(st.sampled_from([400.0, 100.0, 0.0])),
                     abort_grace=draw(st.sampled_from([2.0, 0.0])),
                     comm_timeout_teleop=timeout, comm_timeout_auto=timeout,
                     comm_timeout_dt=timeout,
                     assess_fraction=draw(st.sampled_from([0.4, 0.0, 1.0])))
    load, n = draw(st.one_of(st.integers(1, 4), st.just(25))), draw(st.integers(1, 5))
    leg = st.one_of(st.floats(0.0, 30.0).map(lambda x: x * scale),
                    st.sampled_from([0.0, math.nan, math.inf]))
    legs = draw(st.lists(st.lists(leg, min_size=load, max_size=load), min_size=n, max_size=n))
    schedules = [(draw(_intervals(origin, horizon)),
                  () if policy is PolicyId.PI1_TELEOP else draw(_intervals(origin, horizon)))
                 for _ in range(n)]
    return policy, legs, schedules, params, draw(st.sampled_from([0.0, 0.5, 1.0]))


# An outage at 15000000001.675402 met from 5038000004.285714: the step's
# start plus the gap rounds 2 ulp (1.9e-6) below the outage start, so the row
# folds on to it before it pauses, as `do_work` loops.
_FAR_START = 15000000001.675402


@settings(max_examples=400, deadline=None)
@given(cell=_cells())
@example(cell=(PolicyId.PI1_TELEOP, [[5.038e9, 2e10]], [(((_FAR_START, _FAR_START + 2.0),), ())],
               replace(PARAMS, horizon=1e11), 0.5))
# Paused in its first step, the row folds its other 74 steps over two
# windows.
@example(cell=(PolicyId.PI1_TELEOP, [[1.0] * 25], [(((0.5, 1.5),), ())], PARAMS, 0.5))
# With no outage the row folds its 75 steps over two windows from step 0.
@example(cell=(PolicyId.PI1_TELEOP, [[1.0] * 25], [((), ())], PARAMS, 0.5))
# The outage opens inside step 65 (112.0 to 113.7), past the first window.
@example(cell=(PolicyId.PI1_TELEOP, [[1.0] * 25], [(((112.5, 113.5),), ())], PARAMS, 0.5))
# Row 0 pauses in its first step and row 1 in its third, so the next window
# runs past row 1's last step: it must fold the zero step there.
@example(cell=(PolicyId.PI1_TELEOP, [[1.0], [1.0]], [(((0.5, 1.5),), ()), (((2.0, 3.0),), ())],
               PARAMS, 0.5))
# A row flown past the horizon meets an outage inside the teleop cut: the
# log keeps the switch it brings, as the kernel counts it.
@example(cell=(PolicyId.PI1_TELEOP, [[30.0]], [(((_CUT, 26.0),), ())],
               replace(PARAMS, horizon=25.0), 0.5))
def test_cell_outcomes_equal_the_mission_loop_row_by_row(cell):
    _check_rows_against_the_loop(*cell)


def test_the_teleop_kernel_holds_one_window_of_temporaries(monkeypatch):
    # A default 250-trial load-40 teleop cell at delta 1. Every epoch folds at
    # most `_WINDOW` steps, so the kernel's tracemalloc peak above its entry
    # (1,252,876 B) does not grow with its rows' length; a first epoch that
    # folds whole rows peaks at 2.11 MB on this cell.
    config = SweepConfig()
    condition = config.conditions()[-1]
    assert (condition.delta, condition.patient_load) == (1.0, 40)
    kernel, peaks = engine._teleop_columns, []

    def traced(*args):
        tracemalloc.start()
        try:
            return kernel(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(engine, "_teleop_columns", traced)
    experiment._run_cell(config, condition, PolicyId.PI1_TELEOP, 0)   # the whole cell
    assert len(peaks) == 1 and peaks[0] < 1_566_000   # 1,252,876 B + 25%


def test_autonomous_missions_fly_through_outages(monkeypatch):
    monkeypatch.setattr(engine, "outage_intervals", _fixed_outages([(1.0, 4.0)]))
    monkeypatch.setattr(engine, "integrity_intervals", _no_episodes)
    scenario = make_scenario([(1000.0, 0.0)], delta=0.8)
    trace = run_mission(scenario, PolicyId.PI2_AUTO, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC)
    # 3-minute outage is under the autonomy timeout and causes no pause.
    assert not trace.aborted
    assert trace.duration == pytest.approx(2.1131370849898476 + 1.5, abs=1e-12)


def test_autonomous_aborts_after_a_sustained_threshold_crossing(monkeypatch):
    monkeypatch.setattr(engine, "outage_intervals", _fixed_outages([]))
    monkeypatch.setattr(engine, "integrity_intervals", _fixed_episodes([(1.0, 6.0)]))
    scenario = make_scenario([(3000.0, 0.0)])
    trace = run_mission(scenario, PolicyId.PI2_AUTO, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC)
    assert trace.aborted
    assert trace.duration == pytest.approx(1.0 + PARAMS.abort_grace, abs=1e-12)


def test_twin_policy_shrugs_off_the_same_episode(monkeypatch):
    monkeypatch.setattr(engine, "outage_intervals", _fixed_outages([]))
    monkeypatch.setattr(engine, "integrity_intervals", _fixed_episodes([(1.0, 6.0)]))
    scenario = make_scenario([(3000.0, 0.0)])
    trace = run_mission(scenario, PolicyId.PI3_GEODT, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC)
    assert not trace.aborted


@pytest.mark.parametrize("policy, kind, limit", [
    (PolicyId.PI2_AUTO, "outage", PARAMS.comm_timeout_auto),
    (PolicyId.PI3_GEODT, "outage", PARAMS.comm_timeout_dt),
    (PolicyId.PI2_AUTO, "episode", PARAMS.abort_grace),
])
def test_supervised_abort_needs_an_interval_longer_than_its_limit(
        monkeypatch, policy, kind, limit):
    # Autonomy crosses the threshold exactly during an episode, so an
    # episode's length is its crossing's. The abort rules compare strictly.
    start = 1.0
    scenario = make_scenario([(20000.0, 0.0)])
    for length, aborts in ((limit, False), (math.nextafter(limit, math.inf), True)):
        interval = [(start, start + length)]
        assert interval[0][1] - start == length
        monkeypatch.setattr(engine, "outage_intervals",
                            _fixed_outages(interval if kind == "outage" else []))
        monkeypatch.setattr(engine, "integrity_intervals",
                            _fixed_episodes(interval if kind == "episode" else []))
        trace = run_mission(scenario, policy, PARAMS,
                            stream=np.random.default_rng(0), loc=QUIET_LOC)
        assert trace.aborted == aborts
        if aborts:
            assert trace.duration == start + limit
        else:
            assert trace.duration > start + limit
            assert trace.events[-1].kind == COMPLETE


def test_horizon_cap_forces_an_abort():
    slow = PlatformParams(cruise_speed=5.0)
    scenario = make_scenario([(3900.0, 3900.0)])
    for policy in PolicyId:
        trace = run_mission(scenario, policy, slow,
                            stream=np.random.default_rng(0), loc=QUIET_LOC)
        assert trace.aborted
        assert trace.duration == slow.horizon


# ---------------------------------------------------------------------------
# Operator event model.

@pytest.mark.parametrize("horizon", [0.0, -1.0])
@pytest.mark.parametrize("policy", list(PolicyId))
def test_a_non_positive_horizon_is_rejected(policy, horizon):
    scenario = make_scenario([(1000.0, 0.0)])
    with pytest.raises(ValueError, match="horizon must be positive"):
        run_mission(scenario, policy, replace(PARAMS, horizon=horizon),
                    stream=np.random.default_rng(0))


def test_supervisory_mission_with_no_alerts_has_zero_rates():
    scenario = make_scenario([(1000.0, 0.0), (2000.0, 0.0)])
    trace = run_mission(scenario, PolicyId.PI2_AUTO, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC)
    assert events_of(trace, OPERATOR_INTERVENTION) == []
    labels = [e.task_label for e in events_of(trace, TASK_SWITCH)]
    assert labels == [engine.TASK_MONITOR]


def test_teleop_has_one_control_action_per_leg_at_least():
    scenario = make_scenario([(500.0, 0.0), (900.0, 0.0), (1300.0, 0.0)])
    trace = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC,
                        error_rate=0.0)
    assert len(events_of(trace, OPERATOR_INTERVENTION)) >= 3
    assert len(events_of(trace, DEPART)) == 3


def test_teleop_phases_cycle_per_visit():
    scenario = make_scenario([(500.0, 0.0), (900.0, 0.0)])
    trace = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                        stream=np.random.default_rng(0), loc=QUIET_LOC,
                        error_rate=0.0)
    labels = [e.task_label for e in events_of(trace, TASK_SWITCH)]
    assert labels == [engine.TASK_NAVIGATE, engine.TASK_ASSESS, engine.TASK_INTERVENE,
                      engine.TASK_NAVIGATE, engine.TASK_ASSESS, engine.TASK_INTERVENE]


def test_twin_workload_below_teleop_workload_at_mid_degradation():
    from medmission.metrics import trial_metrics

    rng = np.random.default_rng(71)
    w1, w3 = [], []
    for trial in range(1000):
        scenario = make_scenario(
            [(rng.uniform(0, 4000), rng.uniform(0, 4000)) for _ in range(10)],
            severities=[float(rng.uniform()) for _ in range(10)],
            access=[float(rng.uniform(0.2, 1.0)) for _ in range(10)],
            delta=0.5)
        t1 = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                         stream=np.random.default_rng(trial))
        t3 = run_mission(scenario, PolicyId.PI3_GEODT, PARAMS,
                         stream=np.random.default_rng(trial))
        w1.append(trial_metrics(t1, scenario).workload)
        w3.append(trial_metrics(t3, scenario).workload)
    assert float(np.mean(w3)) < float(np.mean(w1))


# ---------------------------------------------------------------------------
# Whole-trace properties.

def test_traces_are_bit_identical_for_identical_inputs():
    scenario = make_scenario([(800.0, 300.0), (2500.0, 1200.0)], delta=0.7)
    for policy in PolicyId:
        a = run_mission(scenario, policy, PARAMS, stream=np.random.default_rng(5))
        b = run_mission(scenario, policy, PARAMS, stream=np.random.default_rng(5))
        assert a == b


def test_teleop_and_autonomy_visit_identically_without_errors_or_degradation():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        scenario = make_scenario(
            [(rng.uniform(0, 4000), rng.uniform(0, 4000)) for _ in range(n)],
            access=[float(rng.uniform(0.2, 1.0)) for _ in range(n)])
        t1 = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                         stream=np.random.default_rng(1), loc=QUIET_LOC,
                         error_rate=0.0)
        t2 = run_mission(scenario, PolicyId.PI2_AUTO, PARAMS,
                         stream=np.random.default_rng(1), loc=QUIET_LOC)
        seq1 = [e.patient_id for e in events_of(t1, INTERVENE)]
        seq2 = [e.patient_id for e in events_of(t2, INTERVENE)]
        assert seq1 == seq2


def test_well_formedness_over_random_missions():
    rng = np.random.default_rng(31)
    policies = list(PolicyId)
    for i in range(10_000):
        n = int(rng.integers(1, 9))
        scenario = make_scenario(
            [(rng.uniform(0, 4000), rng.uniform(0, 4000)) for _ in range(n)],
            severities=[float(rng.uniform()) for _ in range(n)],
            access=[float(rng.uniform(0.2, 1.0)) for _ in range(n)],
            delta=float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])))
        policy = policies[i % 3]
        trace = run_mission(scenario, policy, PARAMS,
                            stream=np.random.default_rng(int(rng.integers(1 << 32))))
        assert_well_formed(trace, scenario)
        served = {e.patient_id for e in events_of(trace, INTERVENE)}
        unvisited = {p.id for p in scenario.patients} - served
        assert len(served) + len(unvisited) == n


def test_teleop_abort_fraction_rises_with_degradation():
    rng = np.random.default_rng(37)
    rates = []
    for delta in (0.0, 1.0):
        aborts = 0
        for trial in range(1000):
            scenario = make_scenario(
                [(rng.uniform(0, 4000), rng.uniform(0, 4000)) for _ in range(8)],
                access=[float(rng.uniform(0.2, 1.0)) for _ in range(8)],
                delta=delta)
            trace = run_mission(scenario, PolicyId.PI1_TELEOP, PARAMS,
                                stream=np.random.default_rng(trial))
            aborts += trace.aborted
        rates.append(aborts / 1000)
    assert rates[1] > rates[0]


def test_abort_rates_order_by_policy_at_high_degradation():
    rates = {}
    for policy in PolicyId:
        aborts = 0
        for trial in range(1000):
            scenario_rng = np.random.default_rng(trial)
            scenario = make_scenario(
                [(scenario_rng.uniform(0, 4000), scenario_rng.uniform(0, 4000))
                 for _ in range(10)],
                access=[float(scenario_rng.uniform(0.2, 1.0)) for _ in range(10)],
                delta=0.75)
            trace = run_mission(scenario, policy, PARAMS,
                                stream=np.random.default_rng(10_000 + trial))
            aborts += trace.aborted
        rates[policy] = aborts / 1000
    assert (rates[PolicyId.PI3_GEODT] <= rates[PolicyId.PI2_AUTO]
            <= rates[PolicyId.PI1_TELEOP])
