"""The benchmark's traced replica still matches the sweep.

`bench/traced.py` calls the public per-trial API (`derive_stream`,
`generate_scenario`, `run_mission`, `plan_for_policy`, ...) and
`bench/run.py --trace 1` checks its records against `run_sweep`. Running it
here on a two-trial protocol makes any drift between `src/` and the
replica's calls fail the test suite, not only the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_replica_runs_and_agrees_with_the_sweep():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "protocol", "--trace", "1",
         "--seed", "7", "--seconds", "0", "--trials", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
