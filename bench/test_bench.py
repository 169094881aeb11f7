"""Self-test of the benchmark at a tiny trial count.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from medmission import SweepConfig, run_sweep  # noqa: E402
from medmission.cli import emit_reports  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "7", "--seconds", "0", "--trials", "2"]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


def test_predictions_cover_every_per_layer_metric():
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text())
    config = SweepConfig()
    named = set()
    for entry in predictions["predictions"]:
        for pattern in entry["metrics"]:
            named |= {pattern.replace("<policy>", p.value).replace("<L>", str(load))
                      for p in config.policies for load in config.patient_loads}
        assert set(entry["on"]) <= set(predictions["workloads"])
    assert named == {m["name"] for m in SPEC["per_layer"]}
    assert set(predictions["workloads"]) == set(run.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_gate_names_each_corrupted_report_file(tmp_path):
    config = SweepConfig(master_seed=7, trials_per_condition=2)
    good = tmp_path / "good"
    emit_reports(run_sweep(config), "csv", good)
    reference = run.digests(good)
    assert run.gate_errors(reference, reference, reference) == []
    for name in run.REPORT_FILES:
        bad = tmp_path / f"bad-{name}"
        shutil.copytree(good, bad)
        data = bytearray((bad / name).read_bytes())
        data[len(data) // 2] ^= 1
        (bad / name).write_bytes(bytes(data))
        errors = run.gate_errors(run.digests(bad), reference, reference)
        assert len(errors) == 1 + (name in run.REREAD_FILES)
        assert all(name in error for error in errors)


def test_one_corrupted_byte_fails_the_run(monkeypatch, capsys):
    def emit_then_corrupt(result, fmt, outdir):
        paths = emit_reports(result, fmt, outdir)
        summary = Path(outdir) / "summary.json"
        data = bytearray(summary.read_bytes())
        data[-2] ^= 1
        summary.write_bytes(bytes(data))
        return paths

    monkeypatch.setattr(run, "emit_reports", emit_then_corrupt)
    assert run.main(["--workload", "protocol", "--trace", "0", *TINY]) == 1
    result = _result(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "protocol", "--trace", "0",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
