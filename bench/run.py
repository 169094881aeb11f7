"""End-to-end and per-layer benchmark of the medmission sweep.

Usage, from the repository root:

    python3 bench/run.py --workload protocol --seed 42 --seconds 45 --trace 0

Each workload is a closed loop of whole sweeps in one process: the next
sweep starts when the previous one has written its reports. The package is
imported from ``src/`` of the checkout the script sits in, unchanged.

``--trace 0`` times repeated sweeps through the public API (``run_sweep``
then ``emit_reports``), re-reads each run with ``medmission report`` and
reports the end-to-end metrics. Their times are in seconds at a nominal host
speed: co-tenants of a shared host slow its cores by up to half for minutes
at a time, so each raw median is scaled by ``REFERENCE_NOMINAL_S`` over the
mean time of a fixed reference kernel, measured in chunks between the sweeps
of the same run. The kernel uses no medmission code, so no change to the
package moves it. Raw medians are printed beside the scaled ones.

``--trace 1`` pairs an untraced sweep with the traced replica in
``traced.py`` and reports the per-layer metrics, as raw medians, with the
raw untraced sweep time and the reference kernel's time per call; it also
writes the per-cell cost table and the top ``-X importtime`` entries to
``.bench_out/trace-<workload>-seed<seed>.json``.

The metric names and units are read from ``BENCHMARK.json``.

Every sweep passes the output gate or counts as failed: its five report
files must match the digests pinned in ``golden.json`` (seed 42, default
trial count), ``medmission report`` must rebuild summary, rollup and pareto
byte for byte, and repeated sweeps must agree. The last line of standard
output is one JSON object; the exit code is 1 if any sweep failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Workload -> config overrides on the defaults; every sweep runs serially.
# protocol: the full default protocol, what users run; load-40 planning and
#   engine loops dominate it.
# sparse_fields: load 5 only at 2,000 trials per condition, so per-mission
#   fixed costs and trials.csv size dominate and planning is almost free.
WORKLOADS = {
    "protocol": {},
    "sparse_fields": {"patient_loads": [5], "trials_per_condition": 2000},
}
PINNED_SEED = 42
REPORT_FILES = ("trials.csv", "summary.json", "rollup.csv", "pareto.csv",
                "manifest.json")
REREAD_FILES = ("summary.json", "rollup.csv", "pareto.csv")
SETUP_RUNS = 5
# reference_kernel() per call on an idle core of the development host
# (x86-64 at 2.1 GHz); chunks of REFERENCE_CHUNK_S run between sweeps.
REFERENCE_NOMINAL_S = 0.015
REFERENCE_CHUNK_S = 1.0
REREADS_PER_SWEEP = 2
PROBE_TRIALS = 10

SETUP_SCRIPT = ("import json, sys\n"
                "from medmission.cli import config_from_dict\n"
                "config_from_dict(json.loads(sys.argv[1]))\n")


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="master seed of the sweep")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; at least one sweep runs, and "
                             "no sweep starts that would typically end after it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="trials per condition instead of the workload's "
                             "(for self-tests; skips the pinned digests)")
    return parser.parse_args(argv)


def import_package():
    """Import medmission from this checkout's src/, or exit 2."""
    if not (SRC / "medmission" / "__init__.py").is_file():
        print(f"bench: no medmission package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import medmission
    if Path(medmission.__file__).resolve().parent != (SRC / "medmission").resolve():
        print(f"bench: imported {medmission.__file__}, not the checkout's",
              file=sys.stderr)
        raise SystemExit(2)


import_package()

from medmission import SweepConfig, run_sweep  # noqa: E402
from medmission import cli  # noqa: E402
from medmission.cli import config_from_dict, emit_reports, load_trials  # noqa: E402

import traced  # noqa: E402


def config_data(workload: str, seed: int, trials: int | None) -> dict:
    data = {"master_seed": seed, **WORKLOADS[workload]}
    if trials is not None:
        data["trials_per_condition"] = trials
    return data


def digests(outdir: Path, names=REPORT_FILES) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in names}


def pinned_digests(workload: str, seed: int, trials: int | None):
    if seed != PINNED_SEED or trials is not None:
        return None
    return json.loads((BENCH_DIR / "golden.json").read_text())[workload]


def gate_errors(written: dict, reread: dict, reference: dict | None) -> list[str]:
    """Output-gate findings for one sweep's report digests."""
    errors = [f"medmission report rebuilt {name} with other bytes"
              for name in REREAD_FILES if reread[name] != written[name]]
    if reference is not None:
        errors += [f"{name} has sha256 {written[name]}, expected {reference[name]}"
                   for name in REPORT_FILES if written[name] != reference[name]]
    return errors


def timed_sweep(config, outdir: Path):
    """Seconds from a validated config to the five report files on disk."""
    started = perf_counter()
    result = run_sweep(config, workers=1)
    emit_reports(result, "csv", outdir)
    return perf_counter() - started, result


def timed_reread(indir: Path, outdir: Path) -> float:
    started = perf_counter()
    code = cli.main(["report", "--in", str(indir), "--out", str(outdir)])
    elapsed = perf_counter() - started
    if code != 0:
        raise RuntimeError(f"medmission report exited {code}")
    return elapsed


def setup_command(data: dict, *flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", SETUP_SCRIPT, json.dumps(data)]


def setup_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(data: dict) -> list[float]:
    """Fresh-interpreter import plus config validation, several times."""
    times = []
    for _ in range(SETUP_RUNS):
        started = perf_counter()
        subprocess.run(setup_command(data), env=setup_env(), check=True, timeout=120)
        times.append(perf_counter() - started)
    return times


def reference_kernel() -> float:
    """Fixed work in the package's mix: tuples, hypot, min-by-key, small draws."""
    rng = np.random.Generator(np.random.PCG64(1))
    points = [(float(x), float(y), i)
              for i, (x, y) in enumerate(rng.uniform(0.0, 1.0, size=(40, 2)))]
    total = 0.0
    for _ in range(20):
        remaining, here = list(points), (0.0, 0.0)
        while remaining:
            pick = min(remaining, key=lambda p: (math.hypot(p[0] - here[0],
                                                            p[1] - here[1]), p[2]))
            remaining.remove(pick)
            here = pick[:2]
            total += here[0]
        sums: dict[int, float] = {}
        for i in range(300):
            sums[i % 17] = sums.get(i % 17, 0.0) + float(rng.uniform())
    return total


class HostSpeed:
    """Mean time of reference_kernel() over chunks spread through a run."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def chunk(self) -> None:
        gc.collect()
        started = perf_counter()
        end = started + REFERENCE_CHUNK_S
        while perf_counter() < end:
            reference_kernel()
            self.calls += 1
        self.seconds += perf_counter() - started

    @property
    def per_call_s(self) -> float:
        return self.seconds / self.calls

    @property
    def scale(self) -> float:
        """Factor taking a time measured in this run to nominal host speed."""
        return REFERENCE_NOMINAL_S / self.per_call_s


def keep_going(cycles: list[float], deadline: float) -> bool:
    """Start another cycle only if a typical one still ends by the deadline."""
    return not cycles or perf_counter() + statistics.median(cycles) <= deadline


def import_times(data: dict, top: int = 15) -> dict:
    """Largest `python -X importtime` entries of the set-up command."""
    proc = subprocess.run(setup_command(data, "-X", "importtime"), env=setup_env(),
                          check=True, timeout=120, capture_output=True, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        rows.append({"module": name.strip(), "self_us": int(self_us),
                     "cumulative_us": int(cumulative_us)})
    return {key: sorted(rows, key=lambda r: -r[key])[:top]
            for key in ("cumulative_us", "self_us")}


def own_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Gate:
    """Counts sweeps and collects the ones whose outputs are wrong."""

    def __init__(self):
        self.outputs: list[tuple[dict, dict, list[str]]] = []

    def add(self, outdir: Path, redo: Path, errors=()) -> None:
        self.outputs.append((digests(outdir), digests(redo, REREAD_FILES),
                             list(errors)))

    def failures(self, reference: dict | None) -> list[list[str]]:
        """Findings per sweep; without a reference the first sweep is one."""
        reference = reference or self.outputs[0][0]
        return [gate_errors(written, reread, reference) + errors
                for written, reread, errors in self.outputs]


def measure(config, data, seconds, workdir):
    """Untraced closed loop of sweeps; returns (metrics, raw medians, gate)."""
    host = HostSpeed()
    host.chunk()
    setup = measure_setup(data)
    host.chunk()
    gate = Gate()
    walls, rereads, rss_mb, cycles = [], [], [], []
    deadline = perf_counter() + seconds
    while keep_going(cycles, deadline):
        cycle_start = perf_counter()
        outdir, redo = workdir / f"run{len(walls)}", workdir / f"redo{len(walls)}"
        gc.collect()
        wall, result = timed_sweep(config, outdir)
        del result
        walls.append(wall)
        rss_mb.append(own_peak_kb() / 1024)
        host.chunk()
        for _ in range(REREADS_PER_SWEEP):
            rereads.append(timed_reread(outdir, redo))
            host.chunk()
        gate.add(outdir, redo)
        shutil.rmtree(outdir)
        shutil.rmtree(redo)
        cycles.append(perf_counter() - cycle_start)

    raw = {"wall_s": statistics.median(walls),
           "reread_s": statistics.median(rereads),
           "setup_s": statistics.median(setup),
           "reference_s": host.per_call_s}
    wall_s = raw["wall_s"] * host.scale
    metrics = {
        "wall_s": wall_s,
        "missions_per_s": config.total_missions / wall_s,
        "reread_s": raw["reread_s"] * host.scale,
        "setup_s": raw["setup_s"] * host.scale,
        "peak_rss_mb": statistics.median(rss_mb),
    }
    return metrics, raw, gate


def measure_traced(workload, config, data, seconds, workdir):
    """Untraced/traced pairs; returns (per-layer metrics, gate, trace file body)."""
    host = HostSpeed()
    host.chunk()
    gate = Gate()
    passes, walls, overheads, emits, loads, cycles = [], [], [], [], [], []
    deadline = perf_counter() + seconds
    while keep_going(cycles, deadline):
        cycle_start = perf_counter()
        outdir, redo = workdir / "untraced", workdir / "redo"
        gc.collect()
        wall, result = timed_sweep(config, outdir)
        walls.append(wall)
        records = result.records
        del result
        timed_reread(outdir, redo)
        gate.add(outdir, redo)

        tdir, tredo = workdir / "traced", workdir / "traced_redo"
        gc.collect()
        replica = traced.TracedSweep(config)
        started = perf_counter()
        emit_reports(replica.result, "csv", tdir)
        emits.append(perf_counter() - started)
        overheads.append(replica.sweep_s + emits[-1] - wall)
        started = perf_counter()
        load_trials(tdir / "trials.csv", config)
        loads.append(perf_counter() - started)
        timed_reread(tdir, tredo)
        errors = []
        if replica.result.records != records:
            errors.append("traced records differ from run_sweep's")
        if passes and traced.exact_counts(replica) != traced.exact_counts(passes[0]):
            errors.append("exact counts differ between traced passes")
        gate.add(tdir, tredo, errors)
        report_bytes = sum((tdir / name).stat().st_size for name in REPORT_FILES)
        replica.result = None
        passes.append(replica)
        for path in (outdir, redo, tdir, tredo):
            shutil.rmtree(path)
        cycles.append(perf_counter() - cycle_start)
    host.chunk()

    defaults = SweepConfig()
    missing = tuple(load for load in defaults.patient_loads
                    if load not in config.patient_loads)
    probe = None
    if missing:
        probe_config = config_from_dict({**data, "patient_loads": list(missing),
                                         "trials_per_condition": PROBE_TRIALS})
        probe = traced.TracedSweep(probe_config)

    metrics = traced.layer_metrics(passes, probe)
    metrics["cli.emit_reports_s"] = statistics.median(emits)
    metrics["cli.report_bytes"] = report_bytes
    metrics["cli.load_trials_s"] = statistics.median(loads)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["experiment.sweep_s"] = statistics.median(walls)
    metrics["host.reference_us"] = host.per_call_s * traced.US
    mission_samples = sum(len(p.samples["experiment.mission_us"]) for p in passes)
    body = {"workload": workload, "seed": config.master_seed,
            "passes": len(passes), "per_layer": metrics,
            "mission_us_samples": mission_samples,
            "cells": traced.cell_table(passes),
            "importtime": import_times(data),
            "probe_loads": list(missing)}
    return metrics, gate, body


def print_cell_table(cells) -> None:
    deltas = sorted({c["delta"] for c in cells})
    print("cell_s " + " ".join(f"d={d:<8}" for d in deltas))
    by_key = {(c["policy"], c["load"], c["delta"]): c["seconds"] for c in cells}
    for policy in sorted({c["policy"] for c in cells}):
        for load in sorted({c["load"] for c in cells}):
            row = " ".join(f"{by_key[(policy, load, d)]:<10.4f}" for d in deltas)
            print(f"{policy}.load{load} {row}")


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    data = config_data(args.workload, args.seed, args.trials)
    config = config_from_dict(data)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, gate, body = measure_traced(args.workload, config, data,
                                                 args.seconds, workdir)
        else:
            metrics, raw, gate = measure(config, data, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics not measured: {missing}")
    failures = gate.failures(pinned_digests(args.workload, args.seed, args.trials))
    attempted = len(failures)
    failed = sum(1 for errors in failures if errors)
    for errors in failures:
        for error in errors:
            print(f"gate: {error}", file=sys.stderr)

    if args.trace:
        print_cell_table(body["cells"])
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(body, indent=1) + "\n")
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        print(f"experiment.mission_us percentiles over {body['mission_us_samples']} missions")
    else:
        for name, value in raw.items():
            print(f"raw {name} = {value!r} s")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"failed_share = {failed / attempted!r} ratio ({failed} of {attempted} sweeps)")

    values = {name: metrics[name] for name in units}
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()):
        raise RuntimeError(f"non-finite metric in {values}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
