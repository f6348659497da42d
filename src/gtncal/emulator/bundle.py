"""Per-score GP bundles with shared-input batched prediction."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import AlignmentError, OptimizationError
from ..formats import read_csv, read_json, write_csv, write_json
from .gp import TrainedGp
from .kernel import ArdHyperparams, HyperparamBounds


@dataclass
class SurrogateBundle:
    """One trained GP per output score, all sharing the same inputs.

    Raw parameters are scaled to the unit hypercube by the prior box before
    any kernel evaluation.
    """

    modality: str
    box: np.ndarray  # (d, 2) parameter box used for input scaling
    gps: list[TrainedGp]
    output_names: list[str]
    seed: int
    train_indices: np.ndarray
    test_indices: np.ndarray

    @property
    def n_outputs(self) -> int:
        return len(self.gps)

    def scale_inputs(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        if theta.shape[1] != self.box.shape[0]:
            raise AlignmentError("parameter dimension does not match the bundle box")
        lo = self.box[:, 0]
        hi = self.box[:, 1]
        return (theta - lo) / (hi - lo)

    def predict(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Means and variances for a parameter batch; shapes (m, n_outputs).

        Inputs are scaled to the unit hypercube once and passed to each GP's
        ``TrainedGp.predict``: one augmented GEMM for the cross covariance,
        a matrix-vector product with alpha for the mean, and one triangular
        product with the cached inverse Cholesky factor for the variance.
        """
        xq = self.scale_inputs(theta)
        m = xq.shape[0]
        means = np.empty((m, self.n_outputs))
        variances = np.empty((m, self.n_outputs))
        for j, gp in enumerate(self.gps):
            means[:, j], variances[:, j] = gp.predict(xq)
        return means, variances


def train_bundle(
    modality: str,
    inputs: np.ndarray,
    score_table: np.ndarray,
    box: np.ndarray,
    output_names: list[str],
    bounds: HyperparamBounds,
    seed: int,
    train_indices: np.ndarray,
    test_indices: np.ndarray,
    jobs: int = 1,
) -> SurrogateBundle:
    """Train one GP per score-table column on unit-hypercube inputs."""
    inputs = np.asarray(inputs, dtype=float)
    score_table = np.asarray(score_table, dtype=float)
    if inputs.shape[0] != score_table.shape[0]:
        raise AlignmentError("inputs and score table must have matching row counts")
    if score_table.shape[1] != len(output_names):
        raise AlignmentError(
            f"{score_table.shape[1]} score columns vs {len(output_names)} output names"
        )
    box = np.asarray(box, dtype=float)
    bundle = SurrogateBundle(
        modality=modality,
        box=box,
        gps=[],
        output_names=list(output_names),
        seed=seed,
        train_indices=train_indices,
        test_indices=test_indices,
    )
    x = bundle.scale_inputs(inputs)
    args = [
        (x, score_table[:, j], bounds, seed + 1000 * j, output_names[j])
        for j in range(score_table.shape[1])
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from importlib import import_module

        # The workers fork from this process: load the optimizer (and with it
        # scipy.linalg) here once, or every worker of every pool loads it.
        import_module("scipy.optimize")
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            gps = list(pool.map(_train_one, args))
    else:
        gps = [_train_one(a) for a in args]
    bundle.gps = gps
    return bundle


def _train_one(arg) -> TrainedGp:
    x, y, bounds, seed, name = arg
    try:
        return TrainedGp.train(x, y, bounds, seed=seed)
    except Exception as exc:  # noqa: BLE001 - annotate which output failed
        raise OptimizationError(f"GP training failed for output {name!r}: {exc}") from exc


def save_bundle(path: str | Path, bundle: SurrogateBundle) -> None:
    """JSON header plus CSV payloads; inverse Cholesky factors recomputed on load."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    header = {
        "modality": bundle.modality,
        "seed": bundle.seed,
        "output_names": bundle.output_names,
        "box": bundle.box.tolist(),
        "train_indices": bundle.train_indices.tolist(),
        "test_indices": bundle.test_indices.tolist(),
        "hyperparams": [
            {
                "signal_variance": gp.hyperparams.signal_variance,
                "length_scales": list(gp.hyperparams.length_scales),
                "noise_variance": gp.hyperparams.noise_variance,
            }
            for gp in bundle.gps
        ],
    }
    write_json(path / "bundle.json", header)
    write_csv(path / "inputs.csv", bundle.gps[0].x)
    write_csv(path / "targets.csv", np.column_stack([gp.y for gp in bundle.gps]))


def load_bundle(path: str | Path) -> SurrogateBundle:
    """Read a bundle written by ``save_bundle``; each GP's inverse Cholesky
    factor is recomputed from the stored hyperparameters and training data."""
    path = Path(path)
    header = read_json(path / "bundle.json")
    x = read_csv(path / "inputs.csv")
    targets = read_csv(path / "targets.csv")
    gps = []
    for j, hp in enumerate(header["hyperparams"]):
        h = ArdHyperparams(
            signal_variance=hp["signal_variance"],
            length_scales=tuple(hp["length_scales"]),
            noise_variance=hp["noise_variance"],
        )
        gps.append(TrainedGp.from_hyperparams(x, targets[:, j], h))
    return SurrogateBundle(
        modality=header["modality"],
        box=np.asarray(header["box"]),
        gps=gps,
        output_names=header["output_names"],
        seed=header["seed"],
        train_indices=np.asarray(header["train_indices"], dtype=int),
        test_indices=np.asarray(header["test_indices"], dtype=int),
    )
