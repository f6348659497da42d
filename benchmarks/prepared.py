"""The prepared default-size dataset that the workloads train and infer on.

It is ``build_dataset(ExperimentConfig())``: 400 runs, default seed, built
through the public pipeline with up to ``nproc`` jobs, once per source tree,
and cached under ``benchmarks/.cache/`` keyed by a hash of every file under
``src/``.  Its one-off build time is recorded in ``READY.json`` as
information; it is not a metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CACHE_DIR = BENCH_DIR / ".cache"

#: Prefixes the workloads read; each is hash-verified before every run.
READ_PREFIXES = ("design", "scores", "features", "bundles")


def source_key() -> str:
    """Hash of every file under src/ (path and content), excluding caches."""
    h = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        h.update(str(path.relative_to(SRC_DIR)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


def ensure_prepared() -> tuple[Path, dict, bool]:
    """Return (dataset root, build info, whether it was built now), building
    the dataset if this source tree has none yet.  A half-built cache entry
    (no READY.json) is rebuilt."""
    from gtncal.pipeline import dataset
    from gtncal.pipeline.config import ExperimentConfig

    home = CACHE_DIR / f"prepared-{source_key()}"
    ready = home / "READY.json"
    root = home / "default"
    if ready.exists():
        return root, json.loads(ready.read_text()), False
    if CACHE_DIR.exists():
        shutil.rmtree(CACHE_DIR)
    jobs = max(1, len(os.sched_getaffinity(0)))
    config = ExperimentConfig().override({"output_dir": str(root)})
    t0 = time.perf_counter()
    reduced = dataset.build_dataset(config, jobs=jobs)
    info = {
        "build_s": time.perf_counter() - t0,
        "jobs": jobs,
        "k_fd": reduced["k_fd"],
        "k_field": reduced["k_field"],
        "n_train": len(reduced["train_rows"]),
        "n_test": len(reduced["test_rows"]),
    }
    ready.write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
    return root, info, True


def verify_prepared(root: Path) -> None:
    from gtncal.pipeline.manifest import RunManifest

    manifest = RunManifest.load(root)
    for prefix in READ_PREFIXES:
        manifest.verify_prefix(prefix)


def working_copy(root: Path, dest: Path) -> Path:
    """Copy the prepared dataset without sims/ (inference never reads it)."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    for name in ("manifest.json", "config.json"):
        shutil.copy2(root / name, dest / name)
    for prefix in READ_PREFIXES:
        shutil.copytree(root / prefix, dest / prefix)
    return dest
