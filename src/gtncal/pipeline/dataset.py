"""Dataset stages: design -> simulate -> reduce (features) -> train (GPs).

Each stage verifies the content hashes of the artifacts it consumes and
registers what it produces, so a stale or edited artifact fails fast with an
ArtifactError.  Simulation is chunked in fixed blocks; the chunking (and
therefore every floating-point result) is independent of the worker count.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ..emulator.bundle import load_bundle, save_bundle, train_bundle
from ..emulator.kernel import HyperparamBounds
from ..errors import ArtifactError, SimulationIncompleteError
from ..features.pipelines import FdFeaturePipeline, FieldFeaturePipeline
from ..formats import FLOAT, read_csv, read_json, write_csv, write_json
from ..material import PARAM_NAMES, GtnParams
from ..simulator import (
    build_templates,
    read_curve_csv,
    read_snapshot_csv,
    simulate_batch,
    write_curve_csv,
    write_snapshot_csv,
)
from .config import ExperimentConfig
from .design import lhs_design
from .manifest import MANIFEST_NAME, RunManifest

_SIM_CHUNK = 64
_MAX_EXCLUDED_FRACTION = 0.05


def _manifest(config: ExperimentConfig) -> RunManifest:
    root = config.out()
    root.mkdir(parents=True, exist_ok=True)
    if not (root / MANIFEST_NAME).exists():
        config.save(root / "config.json")
        return RunManifest.create(root, config.config_hash())
    manifest = RunManifest.load(root)
    if manifest.config_hash != config.config_hash():
        raise ArtifactError("config hash changed; refusing to mix artifacts from different configs")
    return manifest


def stage_design(config: ExperimentConfig) -> Path:
    manifest = _manifest(config)
    seed = config.stage_seed("design")
    theta = lhs_design(config.design_size, config.box_array(), seed)
    path = config.out("design")
    path.mkdir(parents=True, exist_ok=True)
    out = path / "design.csv"
    write_csv(
        out,
        np.column_stack([np.arange(theta.shape[0]), theta]),
        header="row_id," + ",".join(PARAM_NAMES),
        fmt=["%d"] + [FLOAT] * 4,
    )
    manifest.add("design/design.csv", stage="design")
    manifest.seeds["design"] = seed
    manifest.save()
    return out


def load_design(config: ExperimentConfig) -> np.ndarray:
    manifest = RunManifest.load(config.out())
    manifest.verify(["design/design.csv"])
    return read_csv(config.out("design", "design.csv"), skip_header=True)[:, 1:]


def _simulate_chunk(args) -> list:
    theta_chunk, program, settings = args
    params = [GtnParams.from_array(row) for row in theta_chunk]
    return simulate_batch(params, program=program, settings=settings)


def stage_simulate(config: ExperimentConfig, jobs: int) -> dict:
    """Simulate every design row into ``sims/``: ``curve_XXXX.csv`` and
    ``snapshot_XXXX.csv`` per completed row, and ``index.json`` with the
    completed and excluded rows and each completed run's ``achieved_ratio``
    (F / F_max at the captured snapshot), in ``completed`` order.  When more
    than 5% of the runs are incomplete it raises before writing any of them."""
    manifest = _manifest(config)
    theta = load_design(config)
    sims_dir = config.out("sims")
    sims_dir.mkdir(parents=True, exist_ok=True)

    chunks = [
        (theta[i : i + _SIM_CHUNK], config.loading, config.simulator)
        for i in range(0, theta.shape[0], _SIM_CHUNK)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk_results = list(pool.map(_simulate_chunk, chunks))
    else:
        chunk_results = [_simulate_chunk(c) for c in chunks]

    results = [res for chunk in chunk_results for res in chunk]
    excluded = [
        {"row_id": row, "reason": str(res)}
        for row, res in enumerate(results)
        if isinstance(res, SimulationIncompleteError)
    ]
    if len(excluded) > _MAX_EXCLUDED_FRACTION * len(results):
        raise SimulationIncompleteError(
            f"{len(excluded)} of {len(results)} simulations incomplete "
            f"(> {100 * _MAX_EXCLUDED_FRACTION:.0f}%); aborting dataset build"
        )
    if excluded:
        warnings.warn(f"excluded {len(excluded)} incomplete simulation row(s)", stacklevel=2)
    completed, achieved = [], []
    for row, res in enumerate(results):
        if not isinstance(res, SimulationIncompleteError):
            write_curve_csv(sims_dir / f"curve_{row:04d}.csv", res.curve)
            write_snapshot_csv(sims_dir / f"snapshot_{row:04d}.csv", res.snapshot)
            completed.append(row)
            achieved.append(res.achieved_ratio)
    index = {
        "achieved_ratio": achieved,
        "completed": completed,
        "excluded": excluded,
        "total": len(results),
    }
    write_json(sims_dir / "index.json", index)
    manifest.add_tree("sims", stage="simulate")
    manifest.save()
    return index


def _load_sims(config: ExperimentConfig, rows: list[int]):
    """The curves and snapshots of ``rows`` from ``sims/``; each curve ends
    at its d_f."""
    sims_dir = config.out("sims")
    grid = build_templates(config.loading, config.simulator)
    curves, snaps = [], []
    for row in rows:
        curves.append(read_curve_csv(sims_dir / f"curve_{row:04d}.csv"))
        snaps.append(read_snapshot_csv(sims_dir / f"snapshot_{row:04d}.csv", grid))
    return curves, snaps


def train_test_split(config: ExperimentConfig, completed: list[int]) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng(config.stage_seed("split"))
    order = rng.permutation(len(completed))
    n_train = int(round(config.train_fraction * len(completed)))
    train = sorted(completed[i] for i in order[:n_train])
    test = sorted(completed[i] for i in order[n_train:])
    return train, test


def stage_reduce(config: ExperimentConfig) -> dict:
    """Fit feature pipelines on the training split only; score every row.

    Every completed run is read once; the pipelines are fitted on the
    training rows of that one read.  Returns a summary of the fit: k and
    retained variance per modality and the split rows, each of which
    ``features/`` or the scores' split column also holds.
    """
    manifest = _manifest(config)
    manifest.verify_prefix("sims")
    index = read_json(config.out("sims", "index.json"))
    completed = index["completed"]
    train_rows, test_rows = train_test_split(config, completed)

    all_rows = sorted(completed)
    curves, snaps = _load_sims(config, all_rows)
    train_set = set(train_rows)
    split = {r: ("train" if r in train_set else "test") for r in all_rows}
    train_idx = [i for i, r in enumerate(all_rows) if r in train_set]
    fd_pipe = FdFeaturePipeline.fit(
        [curves[i] for i in train_idx],
        n_stations=config.n_stations,
        variance_threshold=config.pca_threshold_fd,
    )
    field_pipe = FieldFeaturePipeline.fit(
        [snaps[i] for i in train_idx], variance_threshold=config.pca_threshold_field
    )

    features_dir = config.out("features")
    fd_pipe.save(features_dir / "fd")
    field_pipe.save(features_dir / "field")

    fd_scores = np.stack([fd_pipe.encode(c) for c in curves])
    field_scores = np.stack([field_pipe.encode(s) for s in snaps])

    scores_dir = config.out("scores")
    scores_dir.mkdir(parents=True, exist_ok=True)
    _write_scores(scores_dir / "fd_scores.csv", all_rows, split, fd_scores, fd_pipe.score_names)
    _write_scores(
        scores_dir / "field_scores.csv", all_rows, split, field_scores, field_pipe.score_names
    )
    manifest.add_tree("features", stage="reduce")
    manifest.add_tree("scores", stage="reduce")
    manifest.seeds["split"] = config.stage_seed("split")
    manifest.save()
    return {
        "k_fd": fd_pipe.basis.k,
        "k_field": field_pipe.basis.k,
        "fd_retained_variance": fd_pipe.basis.retained_variance(),
        "field_retained_variance": field_pipe.basis.retained_variance(),
        "train_rows": train_rows,
        "test_rows": test_rows,
    }


def _write_scores(path: Path, rows, split, scores, names) -> None:
    write_csv(
        path,
        np.array([[row, split[row], *vec] for row, vec in zip(rows, scores)], dtype=object),
        header="row_id,split," + ",".join(names),
        fmt=["%d", "%s"] + [FLOAT] * len(names),
    )


def read_scores(path: Path) -> tuple[np.ndarray, list[str], np.ndarray, list[str]]:
    """Returns (row_ids, split labels, score matrix, column names)."""
    table = read_csv(path, dtype=str)
    names, body = table[0, 2:].tolist(), table[1:]
    return body[:, 0].astype(int), body[:, 1].tolist(), body[:, 2:].astype(float), names


def stage_train(config: ExperimentConfig, jobs: int) -> dict:
    manifest = _manifest(config)
    manifest.verify_prefix("scores")
    theta = load_design(config)
    bounds = HyperparamBounds()
    out = {}
    for modality, filename in (("FD", "fd_scores.csv"), ("FIELD", "field_scores.csv")):
        rows, splits, scores, names = read_scores(config.out("scores", filename))
        train_mask = np.array([s == "train" for s in splits])
        train_rows = rows[train_mask]
        bundle = train_bundle(
            modality,
            theta[train_rows],
            scores[train_mask],
            config.box_array(),
            names,
            bounds=bounds,
            seed=config.stage_seed(f"gp-{modality}"),
            train_indices=train_rows,
            test_indices=rows[~train_mask],
            jobs=jobs,
        )
        bundle_dir = config.out("bundles", modality.lower())
        save_bundle(bundle_dir, bundle)
        manifest.add_tree(f"bundles/{modality.lower()}", stage="train")
        manifest.seeds[f"gp-{modality}"] = config.stage_seed(f"gp-{modality}")
        out[modality] = {"outputs": names, "n_train": int(train_mask.sum())}
    manifest.save()
    return out


def load_pipelines(config: ExperimentConfig):
    manifest = RunManifest.load(config.out())
    manifest.verify_prefix("features")
    fd = FdFeaturePipeline.load(config.out("features", "fd"))
    field = FieldFeaturePipeline.load(config.out("features", "field"))
    return fd, field


def load_bundles(config: ExperimentConfig, names: Sequence[str]) -> list:
    """Verify and load ``bundles/<name>`` for each of ``names`` ("fd",
    "field"), in that order; other bundles are neither hashed nor read."""
    manifest = RunManifest.load(config.out())
    bundles = []
    for name in names:
        manifest.verify_prefix(f"bundles/{name}")
        bundles.append(load_bundle(config.out("bundles", name)))
    return bundles


def build_dataset(config: ExperimentConfig, jobs: int = 1) -> dict:
    """design -> simulate -> reduce -> train, returning the reduce summary."""
    stage_design(config)
    stage_simulate(config, jobs=jobs)
    info = stage_reduce(config)
    stage_train(config, jobs=jobs)
    return info
