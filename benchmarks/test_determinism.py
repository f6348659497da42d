"""Two traced runs of one workload and seed must give identical work counts,
so later changes can cite them as exact counts.

Slow (two traced runs, plus the prepared datasets on first use):
``python3 -m pytest benchmarks``.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = (
    "emulator.lml.calls",
    "material.step.point_updates",
    "bayes.tmcmc.stages",
    "bayes.loglike.rows",
)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=1200, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_counts_repeat_exactly():
    first, second = traced("dataset", 3), traced("dataset", 3)
    for name in EXACT:
        assert first[name] > 0, name
        assert first[name] == second[name], name
