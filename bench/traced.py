"""Traced replica of the medmission sweep, for the per-layer numbers.

The replica runs the same public calls as ``experiment.run_sweep`` in the
same order (``derive_stream``, ``generate_scenario``, ``run_mission``,
``trial_metrics``, then ``aggregate``) and times each call from here, so no
code under ``src/`` is instrumented. ``run_mission`` hides two layers: the
planner and the schedule sampler. Their cost is measured by calling
``plan_for_policy``, ``outage_schedule`` and ``integrity_schedule`` a
second time on an identically derived mission stream, which consumes the
stream in the same order as ``run_mission`` does. Engine self time is
``run_mission`` minus those two.

The caller checks that the replica's records equal ``run_sweep``'s, so the
replica cannot drift from the real sweep loop unnoticed.
"""

from __future__ import annotations

import heapq
import pickle
import statistics
from collections import defaultdict
from time import perf_counter

from medmission import (
    StreamPurpose,
    derive_stream,
    generate_scenario,
    integrity_schedule,
    outage_schedule,
    run_mission,
    trial_metrics,
)
from medmission.experiment import TrialRecord, aggregate
from medmission.policy import plan_for_policy

US = 1e6


def _traced_cell(config, condition, policy):
    """One (condition, policy) cell: its records, per-call samples and counts."""
    samples = defaultdict(list)
    counts = defaultdict(int)
    plan_key = f"policy.plan_us.{policy.value}.load{condition.patient_load}"
    engine_key = f"engine.mission_us.{policy.value}.load{condition.patient_load}"
    seed, cid, pidx = config.master_seed, condition.condition_id, policy.index
    horizon = config.platform.horizon
    records = []
    cell_seconds = 0.0
    for trial in range(config.trials_per_condition):
        t0 = perf_counter()
        scenario_stream = derive_stream(seed, cid, trial, pidx, StreamPurpose.SCENARIO)
        t1 = perf_counter()
        scenario = generate_scenario(condition, scenario_stream, config.scenario_params)
        t2 = perf_counter()
        mission_stream = derive_stream(seed, cid, trial, pidx, StreamPurpose.MISSION)
        t3 = perf_counter()
        trace = run_mission(scenario, policy, config.platform, config.triage_weights,
                            mission_stream, config.localization,
                            config.operator_error_rate, trial_index=trial)
        t4 = perf_counter()
        bundle = trial_metrics(trace, scenario, config.tau_c, config.alpha, config.beta)
        t5 = perf_counter()
        records.append(TrialRecord(policy=policy, delta=condition.delta,
                                   load=condition.patient_load, condition_id=cid,
                                   trial=trial, metrics=bundle))
        t6 = perf_counter()

        # Replay outside the mission span: same stream, same draw order.
        replay = derive_stream(seed, cid, trial, pidx, StreamPurpose.MISSION)
        r0 = perf_counter()
        plan_for_policy(scenario, policy, config.triage_weights, replay,
                        config.operator_error_rate)
        r1 = perf_counter()
        outages = outage_schedule(condition.delta, horizon, replay, config.localization)
        episodes = integrity_schedule(horizon, replay, config.localization)
        r2 = perf_counter()

        samples["scenario.derive_stream_us"] += [(t1 - t0) * US, (t3 - t2) * US]
        samples["scenario.generate_us"].append((t2 - t1) * US)
        samples["localization.schedule_us"].append((r2 - r1) * US)
        samples[plan_key].append((r1 - r0) * US)
        samples[engine_key].append(((t4 - t3) - (r2 - r0)) * US)
        samples["metrics.trial_metrics_us"].append((t5 - t4) * US)
        samples["experiment.mission_us"].append((t6 - t0) * US)
        counts["scenario.derive_stream_calls"] += 2
        counts["localization.intervals"] += len(outages.outages) + len(episodes.episodes)
        counts["engine.events"] += len(trace.events)
        counts["missions"] += 1
        cell_seconds += t6 - t0
    return records, dict(samples), dict(counts), cell_seconds


def sweep_tasks(config):
    """The (config, condition, policy) tasks in run_sweep's submission order."""
    return [(config, condition, policy)
            for condition in config.conditions()
            for policy in config.policies]


class TracedSweep:
    """Result and per-layer samples of one serial traced pass.

    ``task_bytes`` and ``result_bytes`` are the pickled sizes a process
    pool would ship for the same tasks and cell results.
    """

    def __init__(self, config):
        tasks = sweep_tasks(config)
        started = perf_counter()
        cells = [_traced_cell(*task) for task in tasks]
        records = [rec for cell in cells for rec in cell[0]]
        records.sort(key=lambda r: (r.condition_id, r.policy.index, r.trial))
        t_agg = perf_counter()
        self.result = aggregate(config, tuple(records))
        self.aggregate_s = perf_counter() - t_agg
        self.sweep_s = perf_counter() - started

        self.samples = defaultdict(list)
        self.counts = defaultdict(int)
        for _, samples, counts, _ in cells:
            for name, values in samples.items():
                self.samples[name] += values
            for name, value in counts.items():
                self.counts[name] += value
        # Cell costs in submission order, as (policy, delta, load, seconds).
        self.cells = [(policy.value, condition.delta, condition.patient_load, cell[3])
                      for (_, condition, policy), cell in zip(tasks, cells)]
        self.task_bytes = sum(len(pickle.dumps(task)) for task in tasks)
        self.result_bytes = sum(len(pickle.dumps(cell[0])) for cell in cells)


def makespan(costs, workers):
    """Finish time of `costs` taken in order by whichever worker frees first."""
    free = [0.0] * workers
    for cost in costs:
        heapq.heappush(free, heapq.heappop(free) + cost)
    return max(free)


def layer_metrics(passes, probe=None):
    """Per-layer metrics from one or more traced passes of the same config.

    `probe` supplies planning and engine samples for the (policy, load)
    pairs the workload itself does not run. Timings are medians per call or
    per mission; per-pass figures are medians over the passes.
    """
    samples = defaultdict(list)
    for traced in passes:
        for name, values in traced.samples.items():
            samples[name] += values
    if probe is not None:
        for name, values in probe.samples.items():
            samples.setdefault(name, values)

    metrics = {name: statistics.median(values) for name, values in samples.items()
               if name != "experiment.mission_us"}
    mission_us = samples["experiment.mission_us"]
    metrics["experiment.mission_us.p50"] = statistics.median(mission_us)
    metrics["experiment.mission_us.p99"] = statistics.quantiles(mission_us, n=100)[98]

    first = passes[0]
    missions = first.counts["missions"]
    metrics["scenario.derive_stream_calls"] = first.counts["scenario.derive_stream_calls"]
    metrics["localization.intervals_per_mission"] = (
        first.counts["localization.intervals"] / missions)
    metrics["engine.events_per_mission"] = first.counts["engine.events"] / missions
    metrics["experiment.pool.task_bytes"] = first.task_bytes
    metrics["experiment.pool.result_bytes"] = first.result_bytes

    def per_pass(fn):
        return statistics.median(fn(traced) for traced in passes)

    metrics["experiment.cell_s.max"] = per_pass(lambda t: max(c[3] for c in t.cells))
    metrics["experiment.cell_s.sum"] = per_pass(lambda t: sum(c[3] for c in t.cells))
    metrics["experiment.aggregate_s"] = per_pass(lambda t: t.aggregate_s)
    metrics["experiment.pool.makespan_pred_s"] = per_pass(
        lambda t: makespan([c[3] for c in t.cells], 2))
    metrics["experiment.pool.ideal_s"] = per_pass(lambda t: sum(c[3] for c in t.cells) / 2)
    return metrics


def exact_counts(traced):
    """The figures that must repeat exactly from pass to pass."""
    return (dict(traced.counts), traced.task_bytes, traced.result_bytes)


def cell_table(passes):
    """Median cost in seconds of each (policy, delta, load) cell over the passes."""
    costs = defaultdict(list)
    for traced in passes:
        for policy, delta, load, seconds in traced.cells:
            costs[(policy, delta, load)].append(seconds)
    return [{"policy": policy, "delta": delta, "load": load,
             "seconds": statistics.median(values)}
            for (policy, delta, load), values in costs.items()]
