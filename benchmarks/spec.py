"""The benchmark's definition: workloads, metrics and bounds.

``python3 benchmarks/spec.py`` rewrites ``BENCHMARK.json`` at the root of
the checkout from these definitions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

RUN_SECONDS = 45

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("build_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("posterior_s", "s", "lower", 0.25),
    ("ess_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}

#: Per-layer metrics for which more is better; for the rest, less is.
_HIGHER_IS_BETTER = ("simulator.completed_fraction", "trace.layer_coverage",
                     "bayes.ess_min", "bayes.truth_covered")


def spec() -> dict:
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import layers
    import workloads

    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {
                "name": name,
                "unit": layers.UNITS[name],
                "better": "higher" if name in _HIGHER_IS_BETTER else "lower",
            }
            for name in layers.NAMES
        ],
    }


if __name__ == "__main__":
    (REPO_ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
