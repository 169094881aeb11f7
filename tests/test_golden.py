"""Golden digests: the report bytes are pinned, not only self-consistent.

A rerun that matches itself would also pass after a one-ulp drift in any
kernel; these sha256 digests fail on it. A deliberate change of the output
format updates them and says so in CHANGES.md.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from medmission import SweepConfig, run_sweep
from medmission.cli import emit_reports, main

# Full default protocol (seed 42, 250 trials per condition); the same values
# are the `protocol` entry of bench/golden.json.
PROTOCOL_DIGESTS = {
    "trials.csv": "b2c49e8bd4ff2513f265fdbb757df69739886fadb4ae1b2d62de25761332a2b1",
    "summary.json": "d9df2fef07479671896bf78734abba399f7db59a80a5d92a958b72b4e1159773",
    "rollup.csv": "900062c02774f577ea21126232f4f31a108ad26b30738aa3765a0a5d644da452",
    "pareto.csv": "acb706c233685cc9aae1d19c06ba93ed8399d9fd7e53c2688d1b4e6b1b715c7b",
    "manifest.json": "84dd0a4003df14d5c3bf23c662e6acd33f672f19d473d06ff6201744d0d24504",
}

# Seed 7, 3 trials per condition, every load, level and policy.
SMALL_CONFIG = SweepConfig(master_seed=7, trials_per_condition=3)
SMALL_DIGESTS = {
    "csv": {
        "trials.csv": "9d839748b665b106e6e67b0c14c5111d4548e15dbe00de0822b24e614f156192",
        "summary.json": "cc4aa3dd9906c90662679554f488f13825ba6574575a34b55ce85d763bfa8f06",
        "rollup.csv": "360c415dce0d134c63e85a4746d98aee6f7cff02d6c189eff961532775bdd548",
        "pareto.csv": "24bf3110bbe07e1278dfc7771151aa24e55f9dfdd555fd912fcce9c06aa597c2",
        "manifest.json": "dedc5cb2fa1789fe68ab6c381e3d41e5123de8ac97e3f18897df5aa8c772f86e",
    },
    "jsonl": {
        "trials.jsonl": "af0add15b0868947d2029f32c1deb7bee10d926a088f97d815e770c7624b1a9c",
        "summary.json": "cc4aa3dd9906c90662679554f488f13825ba6574575a34b55ce85d763bfa8f06",
        "rollup.jsonl": "0f87800094b63e3e598adf9b65a0daf47357f910d8482507bc9f174a27613e7a",
        "pareto.jsonl": "918c3ee1093e5135039583cefe5ce42e0421a18d859345fe60ef7bdd3fc628c0",
        "manifest.json": "dedc5cb2fa1789fe68ab6c381e3d41e5123de8ac97e3f18897df5aa8c772f86e",
    },
}

# `medmission report` on SMALL_CONFIG's trials table with its rows shuffled
# by random.Random(11) and every second row kept (90 of 180), the manifest's
# trial_rows edited to match.
PARTIAL_DIGESTS = {
    "csv": {
        "pareto.csv": "01c8e3897244b1dd864f8b23f7833dd1ff2542e53da623de306a7a7e2cc05ff2",
        "rollup.csv": "52c2a7dc26d696f602fda19d0e7933fe449c4abdd45905788f5015b5e3de6ade",
        "summary.json": "878393cbee3a2fd3c1bc09c59ac40079586689b1cdfcb8112132c6c46c7783f7",
    },
    "jsonl": {
        "pareto.jsonl": "b903b4622d729dab2de73ff7e597b26f853ee8cdb92abef23cf11f998a9958e2",
        "rollup.jsonl": "b5c5e2d1b4ea685e94109a82e2e32abd216cfe854418d70001f908d56626def1",
        "summary.json": "878393cbee3a2fd3c1bc09c59ac40079586689b1cdfcb8112132c6c46c7783f7",
    },
}


def digests_of(result, fmt, outdir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in emit_reports(result, fmt, outdir)}


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(SMALL_CONFIG, workers=1)


@pytest.mark.parametrize("fmt", sorted(SMALL_DIGESTS))
def test_small_config_report_digests(small_sweep, fmt, tmp_path):
    assert digests_of(small_sweep, fmt, tmp_path) == SMALL_DIGESTS[fmt]


def test_full_protocol_report_digests(default_sweep, tmp_path):
    result, _ = default_sweep
    assert digests_of(result, "csv", tmp_path) == PROTOCOL_DIGESTS


# The benchmark's `sparse_fields` workload: load 5 only, 2,000 trials per
# condition, seed 42. Its digests are read from the file the benchmark gates on.
BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def test_sparse_fields_report_digests(tmp_path):
    expected = json.loads(BENCH_GOLDEN.read_text())["sparse_fields"]
    config = SweepConfig(master_seed=42, patient_loads=(5,), trials_per_condition=2000)
    assert digests_of(run_sweep(config, workers=1), "csv", tmp_path) == expected


def rewrite_rows(run, fmt, keep_every):
    """Shuffle the trial rows of `run`, keep every `keep_every`-th and make
    the manifest's trial_rows match."""
    table = run / f"trials.{fmt}"
    lines = table.read_text().splitlines(keepends=True)
    header, rows = (lines[:1], lines[1:]) if fmt == "csv" else ([], lines)
    random.Random(11).shuffle(rows)
    rows = rows[::keep_every]
    table.write_text("".join(header + rows))
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["trial_rows"] = len(rows)
    (run / "manifest.json").write_text(json.dumps(manifest))


def report_digests(run, fmt, outdir):
    assert main(["report", "--in", str(run), "--out", str(outdir), "--format", fmt]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())}


@pytest.mark.parametrize("fmt", sorted(SMALL_DIGESTS))
def test_report_of_shuffled_rows_writes_the_run_bytes(small_sweep, fmt, tmp_path):
    emit_reports(small_sweep, fmt, tmp_path / "run")
    rewrite_rows(tmp_path / "run", fmt, keep_every=1)
    assert report_digests(tmp_path / "run", fmt, tmp_path / "redo") == {
        name: digest for name, digest in SMALL_DIGESTS[fmt].items()
        if not name.startswith(("trials.", "manifest."))}


@pytest.mark.parametrize("fmt", sorted(PARTIAL_DIGESTS))
def test_report_of_some_shuffled_rows_writes_pinned_bytes(small_sweep, fmt, tmp_path):
    emit_reports(small_sweep, fmt, tmp_path / "run")
    rewrite_rows(tmp_path / "run", fmt, keep_every=2)
    assert report_digests(tmp_path / "run", fmt, tmp_path / "redo") == PARTIAL_DIGESTS[fmt]
