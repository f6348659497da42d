"""Modality pipelines: raw observation -> standardized PC-score vector.

The FD pipeline segments a curve at Point Y, resamples ``n_stations`` forces
on the unit axis, z-scores them with training statistics, projects onto the
truncated basis, and appends the failure displacement (unstandardized, mm).
The field pipeline scales strain components for variance balance and
projects the flattened snapshot.  Both pipelines persist as JSON + CSV and
own their score layout: the score names written to ``scores/`` and each
score's measurement-noise variance, propagated through the preprocessing
and the basis (d_f last for FD).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..formats import read_csv, write_csv
from ..simulator import CurveSegment, StrainSnapshot
from . import pca as _pca
from .curves import locate_yield_point, resample_segment
from .fields import (
    field_reference_magnitudes,
    field_scaling_factors,
    flatten_field,
    flatten_scale,
    unflatten_field,
)
from .pca import PcaBasis
from .standardize import Standardizer


def _stations(curve: CurveSegment, n_stations: int) -> np.ndarray:
    return resample_segment(curve, locate_yield_point(curve), n_stations)


@dataclass
class FdFeaturePipeline:
    """Curve segment -> [alpha_1..alpha_k, d_f]."""

    standardizer: Standardizer
    basis: PcaBasis

    @classmethod
    def fit(
        cls, curves: list[CurveSegment], n_stations: int, variance_threshold: float
    ) -> "FdFeaturePipeline":
        """Fit the standardizer and the PCA basis on the training curves'
        ``stations``."""
        forces = np.stack([_stations(curve, n_stations) for curve in curves])
        standardizer = Standardizer.fit(forces)
        return cls(standardizer, _pca.pca_fit(standardizer.apply(forces), variance_threshold))

    @property
    def n_stations(self) -> int:
        return self.standardizer.n_features

    @property
    def score_names(self) -> list[str]:
        return [f"alpha{i+1}" for i in range(self.basis.k)] + ["d_f"]

    def stations(self, curve: CurveSegment) -> np.ndarray:
        """The curve segmented at Point Y and resampled to ``n_stations``
        forces: what the standardizer and the basis see."""
        return _stations(curve, self.n_stations)

    def encode(self, curve: CurveSegment) -> np.ndarray:
        return self.encode_stations(self.stations(curve), curve.failure_displacement)

    def encode_stations(self, forces: np.ndarray, failure_displacement: float) -> np.ndarray:
        """Resampled station forces and d_f -> [alpha_1..alpha_k, d_f]."""
        scores = _pca.pca_project_vector(self.basis, self.standardizer.apply(forces))
        return np.append(scores, failure_displacement)

    def decode(self, scores: np.ndarray) -> np.ndarray:
        """A score row [alpha_1..alpha_k, d_f] -> resampled force vector."""
        z = _pca.pca_reconstruct_vector(self.basis, np.asarray(scores, dtype=float)[:-1])
        return self.standardizer.invert(z)

    def noise_variances(self, sigma_fd: float, sigma_df: float) -> np.ndarray:
        """Each score's noise variance for iid force noise of sd ``sigma_fd``
        on the stations, then ``sigma_df**2`` for d_f."""
        var = _pca.propagate_noise(self.basis.components, 1.0 / self.standardizer.std, sigma_fd)
        return np.append(var, sigma_df**2)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        _pca.save_basis(path, self.basis, extra={})
        write_csv(path / "standardizer_mean.csv", self.standardizer.mean[None, :])
        write_csv(path / "standardizer_std.csv", self.standardizer.std[None, :])

    @classmethod
    def load(cls, path: str | Path) -> "FdFeaturePipeline":
        path = Path(path)
        mean = read_csv(path / "standardizer_mean.csv")[0]
        std = read_csv(path / "standardizer_std.csv")[0]
        return cls(standardizer=Standardizer(mean=mean, std=std), basis=_pca.load_basis(path)[0])


@dataclass
class FieldFeaturePipeline:
    """Strain snapshot -> [beta_1..beta_k]."""

    basis: PcaBasis
    mask: np.ndarray
    scale_e11: float
    scale_e12: float
    eps_ref: dict[str, float]

    @classmethod
    def fit(
        cls, snapshots: list[StrainSnapshot], variance_threshold: float
    ) -> "FieldFeaturePipeline":
        """Fit the variance-balancing scales, the PCA basis and the NMAE
        reference magnitudes on the training snapshots."""
        mask = snapshots[0].mask.copy()
        s11, s12 = field_scaling_factors(snapshots, mask)
        flat = np.stack([flatten_field(s, mask, s11, s12) for s in snapshots])
        basis = _pca.pca_fit(flat, variance_threshold)
        eps_ref = field_reference_magnitudes(snapshots, mask)
        return cls(basis=basis, mask=mask, scale_e11=s11, scale_e12=s12, eps_ref=eps_ref)

    @property
    def score_names(self) -> list[str]:
        return [f"beta{i+1}" for i in range(self.basis.k)]

    def encode(self, snap: StrainSnapshot) -> np.ndarray:
        flat = flatten_field(snap, self.mask, self.scale_e11, self.scale_e12)
        return _pca.pca_project_vector(self.basis, flat)

    def decode(self, scores: np.ndarray) -> dict[str, np.ndarray]:
        """PC scores -> per-component masked-cell strain vectors."""
        flat = _pca.pca_reconstruct_vector(self.basis, np.asarray(scores, dtype=float))
        return unflatten_field(flat, self.mask, self.scale_e11, self.scale_e12)

    def noise_variances(self, sigma_dic: float) -> np.ndarray:
        """Each score's noise variance for iid strain noise of sd
        ``sigma_dic`` on every snapshot cell."""
        scale = flatten_scale(self.mask, self.scale_e11, self.scale_e12)
        return _pca.propagate_noise(self.basis.components, scale, sigma_dic)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        _pca.save_basis(
            path,
            self.basis,
            extra={
                "scale_e11": self.scale_e11,
                "scale_e12": self.scale_e12,
                "eps_ref": self.eps_ref,
            },
        )
        write_csv(path / "mask.csv", self.mask.astype(int), fmt="%d")

    @classmethod
    def load(cls, path: str | Path) -> "FieldFeaturePipeline":
        path = Path(path)
        basis, header = _pca.load_basis(path)
        mask = read_csv(path / "mask.csv").astype(bool)
        return cls(
            basis=basis,
            mask=mask,
            scale_e11=header["scale_e11"],
            scale_e12=header["scale_e12"],
            eps_ref=header["eps_ref"],
        )
