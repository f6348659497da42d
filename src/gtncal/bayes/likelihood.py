"""Score-space Gaussian likelihood over plain score and variance arrays.

Each observed score y_k is compared against the GP surrogate prediction with
total variance v_k(theta) = sigma_k^2 + s_k^2(theta), where sigma_k^2 is the
score's measurement-noise variance, propagated into score space by the
feature pipelines (``features.pca.propagate_noise``).  The log v_k term is
kept because the GP variance varies with theta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..emulator.bundle import SurrogateBundle
from ..errors import AlignmentError, NumericError

_VAR_FLOOR = 1.0e-12


@dataclass
class ScoreLogLikelihood:
    """Callable log-likelihood over parameter batches for one modality.

    ``observed`` holds the observed scores and ``noise_variances`` the
    measurement-noise variance of each score (a feature pipeline's
    ``noise_variances``).
    Variances below 1e-12 are floored at 1e-12 with a warning.
    """

    observed: np.ndarray
    bundle: SurrogateBundle
    noise_variances: np.ndarray

    def __post_init__(self) -> None:
        self.observed = np.asarray(self.observed, dtype=float)
        v = np.asarray(self.noise_variances, dtype=float)
        if self.observed.size != self.bundle.n_outputs:
            raise AlignmentError(
                f"observed score length {self.observed.size} does not match "
                f"bundle outputs {self.bundle.n_outputs}"
            )
        if v.size != self.bundle.n_outputs:
            raise AlignmentError("noise variance length does not match bundle outputs")
        if not np.all(np.isfinite(self.observed)):
            raise AlignmentError("observed scores have non-finite entries")
        if np.any(v < _VAR_FLOOR):
            warnings.warn(
                f"floored {int(np.sum(v < _VAR_FLOOR))} score variance(s) at {_VAR_FLOOR}",
                stacklevel=2,
            )
            v = np.maximum(v, _VAR_FLOOR)
        self.noise_variances = v

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        mean, gp_var = self.bundle.predict(theta)
        if not np.all(np.isfinite(mean)):
            raise NumericError("non-finite surrogate prediction")
        v = gp_var + self.noise_variances
        resid = self.observed - mean
        return np.sum(-0.5 * resid**2 / v - 0.5 * np.log(2.0 * math.pi * v), axis=1)


@dataclass
class SummedLogLikelihood:
    """Sum of independent per-modality log-likelihoods."""

    parts: list

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        total = np.zeros(theta.shape[0])
        for part in self.parts:
            total = total + part(theta)
        return total
