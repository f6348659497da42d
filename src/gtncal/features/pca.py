"""SVD-based principal component analysis with a deterministic sign choice,
and the propagation of measurement noise into score space.

Input rows are expected to be preprocessed (z-scored or scaled) feature
vectors; the fit still removes the column mean it sees, so projecting the
training mean gives exactly zero scores.  The retained dimension is the
smallest k whose discarded variance, the sum over the directions after the
first k, is at most (1 - threshold) of the total.  Directions whose singular
value is at or below 1e-12 times the largest one count as numerically zero
and are never kept, so threshold 1.0 keeps every direction above that cut.

Measurement noise with covariance S in feature space propagates through a
diagonal preprocessing A (z-scoring or component scaling; centering drops
out of a covariance) and the basis Phi to

    Sigma_s = Phi^T A S A^T Phi,      sigma_k^2 = [Sigma_s]_kk,

which ``propagate_noise`` returns for S = sigma^2 I or a full S.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import AlignmentError, InsufficientDataError, NumericError
from ..formats import read_csv, read_json, write_csv, write_json

_ORTHO_TOL = 1.0e-10


@dataclass
class PcaBasis:
    """Truncated orthonormal basis; k and the feature count are the
    component matrix's shape."""

    components: np.ndarray  # (n_features, k), orthonormal columns
    singular_values: np.ndarray  # all r singular values, descending
    mean: np.ndarray  # column mean of the fitted matrix

    def __post_init__(self) -> None:
        gram = self.components.T @ self.components
        if np.max(np.abs(gram - np.eye(self.k))) > _ORTHO_TOL:
            raise NumericError("retained components are not orthonormal")

    @property
    def n_features(self) -> int:
        return self.components.shape[0]

    @property
    def k(self) -> int:
        return self.components.shape[1]

    def retained_variance(self) -> float:
        """Share of the fitted variance in the first k directions."""
        var = self.singular_values**2
        return float((var / var.sum())[: self.k].sum())


def pca_fit(z: np.ndarray, variance_threshold: float) -> PcaBasis:
    """Fit a basis on preprocessed rows; retain the fewest components whose
    discarded variance is at most ``(1 - variance_threshold)`` of the total.

    The discarded tail is summed from the smallest variance up, so directions
    with a tiny variance share still count.  Directions with a singular value
    at or below ``1e-12 * s_0`` are dropped as numerically zero; threshold 1.0
    therefore keeps every direction above that cut.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 2:
        raise InsufficientDataError("PCA fit needs a matrix with >= 2 rows")
    if not np.all(np.isfinite(z)):
        raise NumericError("PCA input contains non-finite entries")
    if not 0.0 < variance_threshold <= 1.0:
        raise ValueError("variance_threshold must lie in (0, 1]")
    mean = z.mean(axis=0)
    centered = z - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    var = svals**2
    total = float(var.sum())
    if total <= 0.0:
        raise InsufficientDataError("PCA fit needs rows that vary; the total variance is zero")
    # tail[k] = sum(var[k:]), summed smallest-first so small terms survive.
    tail = np.append(np.cumsum(var[::-1])[::-1], 0.0)
    k = int(np.argmax(tail <= (1.0 - variance_threshold) * total))
    # Drop numerically-zero directions even at threshold 1.0.
    positive = svals > svals[0] * 1e-12
    k = min(k, int(np.count_nonzero(positive)))
    components = vt[:k].T.copy()
    # Sign convention: the largest-magnitude entry of each component is positive.
    for j in range(k):
        col = components[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            components[:, j] = -col
    return PcaBasis(components=components, singular_values=svals, mean=mean)


def pca_project_vector(basis: PcaBasis, vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != basis.n_features:
        raise AlignmentError(
            f"vector length {vec.shape[-1]} does not match basis ({basis.n_features})"
        )
    return (vec - basis.mean) @ basis.components


def pca_reconstruct_vector(basis: PcaBasis, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.shape[-1] != basis.k:
        raise AlignmentError(f"score length {scores.shape[-1]} does not match k = {basis.k}")
    return scores @ basis.components.T + basis.mean


def propagate_noise(
    basis_components: np.ndarray, scale: np.ndarray, sigma_meas: float | np.ndarray
) -> np.ndarray:
    """Diagonal of Phi^T A S A^T Phi with A = diag(``scale``), for S the
    scalar ``sigma_meas`` squared times I or the full (p, p) ``sigma_meas``."""
    phi = np.asarray(basis_components, dtype=float)
    a = np.asarray(scale, dtype=float)
    if a.ndim != 1 or a.size != phi.shape[0]:
        raise AlignmentError("preprocessing scale length must match feature count")
    sigma_meas = np.asarray(sigma_meas, dtype=float)
    ap = a[:, None] * phi  # A^T Phi with diagonal A
    if sigma_meas.ndim == 0:
        return sigma_meas**2 * np.sum(ap * ap, axis=0)
    if sigma_meas.shape != (phi.shape[0], phi.shape[0]):
        raise AlignmentError("full noise covariance shape must be (p, p)")
    return np.einsum("jk,jl,lk->k", ap, sigma_meas, ap)


def save_basis(path: str | Path, basis: PcaBasis, extra: dict) -> None:
    """Persist as a JSON header, with ``extra``'s keys added, plus CSV
    matrix payloads (no binary formats)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_json(path / "basis.json", {"singular_values": basis.singular_values.tolist(), **extra})
    write_csv(path / "components.csv", basis.components)
    write_csv(path / "mean.csv", basis.mean[None, :])


def load_basis(path: str | Path) -> tuple[PcaBasis, dict]:
    path = Path(path)
    header = read_json(path / "basis.json")
    basis = PcaBasis(
        components=read_csv(path / "components.csv"),
        singular_values=np.asarray(header["singular_values"]),
        mean=read_csv(path / "mean.csv")[0],
    )
    return basis, header
