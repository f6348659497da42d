"""Column-wise z-scoring with the population (divide-by-N) convention."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import AlignmentError, InsufficientDataError

#: Floor applied to standard deviations of (near-)constant columns.
STD_FLOOR = 1.0e-12


@dataclass
class Standardizer:
    """Per-feature mean/std map fitted on a training matrix."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def n_features(self) -> int:
        return self.mean.size

    @classmethod
    def fit(cls, data: np.ndarray) -> "Standardizer":
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 2:
            raise InsufficientDataError("standardizer fit needs a matrix with >= 2 rows")
        mean = data.mean(axis=0)
        std = data.std(axis=0)  # population convention
        constant = np.flatnonzero(std < STD_FLOOR)
        if constant.size:
            warnings.warn(
                f"{constant.size} constant column(s) floored at {STD_FLOOR}", stacklevel=2
            )
            std = np.maximum(std, STD_FLOOR)
        return cls(mean=mean, std=std)

    def _check(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float)
        if data.shape[-1] != self.n_features:
            raise AlignmentError(
                f"feature count {data.shape[-1]} does not match fit ({self.n_features})"
            )
        return data

    def apply(self, data: np.ndarray) -> np.ndarray:
        return (self._check(data) - self.mean) / self.std

    def invert(self, z: np.ndarray) -> np.ndarray:
        return self._check(z) * self.std + self.mean
