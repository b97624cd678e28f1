"""The benchmark's own correctness gate on a short replay of each workload.

`BENCHMARK.json` names the command that times this package and checks
every output it produces (see benchmarks/gate.py). Running it here, for a
second of each workload with and without tracing, shows a wrong output
or a traced name that no longer resolves before any timing run does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_the_benchmark_gate_passes(workload, trace):
    # the declared command, its interpreter replaced by this one
    command = [sys.executable, *BENCHMARK["command"][1:]]
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
    assert "missing:" not in done.stderr
