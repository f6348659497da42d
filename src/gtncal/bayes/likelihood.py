"""Score-space Gaussian likelihood with measurement-noise propagation.

Measurement noise with covariance S in observation space propagates through
the linear preprocessing A (standardization or component scaling; centering
drops out of a covariance) and the PC projection to

    Sigma_s = Phi^T A S A^T Phi,      sigma_k^2 = [Sigma_s]_kk.

Each observed score y_k is compared against the GP surrogate prediction with
total variance v_k(theta) = sigma_k^2 + s_k^2(theta); the log v_k term is
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


def propagate_noise(
    basis_components: np.ndarray,
    preprocess_scale: np.ndarray,
    sigma_meas: float | np.ndarray,
) -> np.ndarray:
    """Diagonal of Phi^T A S A^T Phi for S scalar*I, diagonal, or full."""
    phi = np.asarray(basis_components, dtype=float)
    a = np.asarray(preprocess_scale, dtype=float)
    if a.ndim != 1 or a.size != phi.shape[0]:
        raise AlignmentError("preprocessing scale length must match feature count")
    sigma_meas = np.asarray(sigma_meas, dtype=float)
    ap = a[:, None] * phi  # A^T Phi with diagonal A
    if sigma_meas.ndim == 0:
        return sigma_meas**2 * np.sum(ap * ap, axis=0)
    if sigma_meas.ndim == 1:
        if sigma_meas.size != phi.shape[0]:
            raise AlignmentError("per-feature noise length must match feature count")
        return np.sum((sigma_meas[:, None] ** 2) * ap * ap, axis=0)
    if sigma_meas.shape != (phi.shape[0], phi.shape[0]):
        raise AlignmentError("full noise covariance shape must be (p, p)")
    return np.einsum("jk,jl,lk->k", ap, sigma_meas, ap)


@dataclass
class ScoreLogLikelihood:
    """Callable log-likelihood over parameter batches for one modality.

    ``observed`` holds the observed scores and ``noise_variances`` the
    measurement-noise variance of each score (from ``propagate_noise``).
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
