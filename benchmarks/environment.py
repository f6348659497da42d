"""Environment recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

#: BLAS/OpenMP threads for the benchmark's own processes (<= nproc).
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Must run before numpy is imported; child processes inherit it."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD of the checkout at ``root``; the benchmark may also run from an
    export that is not a git repository (or sits inside another one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown (not a git checkout)"
    return lines[1]


def _blas() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {
        "name": cfg.get("name"),
        "version": cfg.get("version"),
        "configuration": cfg.get("openblas configuration", ""),
    }


def record(root: Path, source_key: str) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "git_sha": _git_sha(root),
        "source_key": source_key,
    }
