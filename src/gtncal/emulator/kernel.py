"""Squared-exponential kernel with automatic relevance determination.

k(x, x') = signal_variance * exp(-0.5 * sum_i (x_i - x'_i)^2 / l_i^2)
           + noise_variance * delta(x, x')

Inputs are expected on the unit hypercube (the bundle scales raw parameters
by the prior box before kernel evaluation), which makes one set of
length-scale bounds meaningful across parameters of different magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError, require_finite


@dataclass(frozen=True)
class HyperparamBounds:
    """Box bounds for hyperparameter optimization."""

    length_scale: tuple[float, float] = (1.0e-3, 1.0e2)
    signal_variance: tuple[float, float] = (1.0e-6, 1.0e2)
    noise_variance: tuple[float, float] = (1.0e-8, 1.0e-1)

    def log_bounds(self, n_dims: int) -> list[tuple[float, float]]:
        """Optimization box in log space: [signal, l_1..l_d, noise]."""
        lo_s, hi_s = self.signal_variance
        lo_l, hi_l = self.length_scale
        lo_n, hi_n = self.noise_variance
        out = [(np.log(lo_s), np.log(hi_s))]
        out += [(np.log(lo_l), np.log(hi_l))] * n_dims
        out.append((np.log(lo_n), np.log(hi_n)))
        return out


@dataclass(frozen=True)
class ArdHyperparams:
    signal_variance: float
    length_scales: tuple[float, ...]
    noise_variance: float

    def __post_init__(self) -> None:
        require_finite(
            signal_variance=self.signal_variance,
            noise_variance=self.noise_variance,
            **{f"length_scales[{i}]": l for i, l in enumerate(self.length_scales)},
        )
        if self.signal_variance <= 0.0 or self.noise_variance <= 0.0:
            raise ParameterError("variances must be positive")
        if any(l <= 0.0 for l in self.length_scales):
            raise ParameterError("length scales must be positive")

    @classmethod
    def from_log_vector(cls, v: np.ndarray) -> "ArdHyperparams":
        v = np.exp(np.asarray(v, dtype=float))
        return cls(
            signal_variance=float(v[0]),
            length_scales=tuple(float(x) for x in v[1:-1]),
            noise_variance=float(v[-1]),
        )


def _sq_dists(x: np.ndarray, z: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Scaled squared distances sum_k ((x_k - z_k) / l_k)^2, shape (n, m).

    The sum is accumulated one input dimension at a time into one (n, m)
    array, ((t_0 + t_1) + t_2) + ..., the order numpy's sum over a short
    trailing axis uses: the result equals the (n, m, d) broadcast formula
    bit for bit without building its (n, m, d) temporaries.  A pairwise
    order such as t_0 + ((t_1 + t_2) + t_3) does not.
    """
    r2 = np.zeros((x.shape[0], z.shape[0]))
    for k in range(x.shape[1]):
        t = np.subtract.outer(x[:, k], z[:, k]) / length_scales[k]
        r2 += t * t
    return r2


def kernel_cross(h: ArdHyperparams, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Cross covariance K(X, Z) without the delta term, built in place on
    the (n, m) array of ``_sq_dists``."""
    k = _sq_dists(np.asarray(x, dtype=float), np.asarray(z, dtype=float),
                  np.asarray(h.length_scales))
    k *= -0.5
    np.exp(k, out=k)
    k *= h.signal_variance
    return k
