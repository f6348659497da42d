"""Priors over the GTN parameter box.

The physical constraint f_c < f_f needs no truncation here: a config's box
orders every f_c at or below every f_f (``ExperimentConfig``).  The
sequential-update prior is a Gaussian KDE fitted in logit space,

    z_i = log((theta_i - a_i) / (b_i - theta_i)),

which preserves the box support and non-Gaussian shape of a posterior; the
theta-space density carries the Jacobian prod_i (b_i - a_i) /
((theta_i - a_i)(b_i - theta_i)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, InsufficientDataError, NumericError

#: Indices of the constrained pair (f_c, f_f) in the canonical ordering.
FC_INDEX = 2
FF_INDEX = 3

_BOUNDARY_NUDGE = 1.0e-9
#: A KDE prior keeps at least this many kernel centers.
KDE_MIN_CENTERS = 50
#: Entries of one (rows x centers) block of ``KdePrior.log_density``: 1 MB.
_KDE_BLOCK_ENTRIES = 2**17


def _check_box(bounds: np.ndarray) -> np.ndarray:
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise DomainError("bounds must have shape (d, 2)")
    if np.any(bounds[:, 0] >= bounds[:, 1]):
        raise DomainError("every lower bound must lie below its upper bound")
    return bounds


def logit_map(theta: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Map box-interior points to unconstrained space."""
    bounds = _check_box(bounds)
    theta = np.asarray(theta, dtype=float)
    a, b = bounds[:, 0], bounds[:, 1]
    if np.any(theta <= a) or np.any(theta >= b):
        raise DomainError("theta must lie strictly inside the bounds")
    return np.log((theta - a) / (b - theta))


def inverse_logit_map(z: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    bounds = _check_box(bounds)
    z = np.asarray(z, dtype=float)
    a, b = bounds[:, 0], bounds[:, 1]
    # Stable sigmoid for both tails.
    pos = z >= 0.0
    ez = np.exp(np.where(pos, -z, z))
    sig = np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return a + (b - a) * sig


def constraint_ok(theta: np.ndarray) -> np.ndarray:
    """f_c < f_f for each row."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    return theta[:, FC_INDEX] < theta[:, FF_INDEX]


@dataclass(frozen=True)
class UniformBoxPrior:
    """Uniform density over the closed box."""

    bounds: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", _check_box(self.bounds))

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        a, b = self.bounds[:, 0], self.bounds[:, 1]
        inside = np.all((theta >= a) & (theta <= b), axis=1)
        log_vol = float(np.sum(np.log(b - a)))
        return np.where(inside, -log_vol, -np.inf)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        a, b = self.bounds[:, 0], self.bounds[:, 1]
        return a + rng.uniform(size=(n, self.dim)) * (b - a)


@dataclass
class KdePrior:
    """Gaussian KDE in whitened logit space with box Jacobian.

    Its support is the open box.

    The kernel covariance is h^2 * Sigma_z (Scott-type full-covariance
    bandwidth), realized as a diagonal unit-bandwidth KDE on whitened
    coordinates.  Whitening preserves the thin, correlated ridges typical of
    partially identified posteriors, which per-axis bandwidths would smear.

    ``log_density`` sums the kernels over blocks of rows, each a (rows x
    centers) array of about ``_KDE_BLOCK_ENTRIES`` float64 entries (1 MB),
    so its working memory does not grow with the number of rows.  Per
    block: one augmented GEMM [u, 1] . [v, -|v|^2/2]^T, the row maximum
    subtracted and the block exponentiated in place, a row sum, and
    -|u|^2/2 added after the log.  This is log-sum-exp without a second
    temporary.  Every step runs along a row, and a block has at least two
    rows, so the densities equal those of one block holding every row.
    With OpenBLAS that holds bit for bit when the center count is a
    multiple of 8, as in the shipped bridges (1000 and 2000 centers): for
    other counts its GEMM picks kernels by problem size, which round
    differently.
    """

    centers_z: np.ndarray  # (m, d) logit-space kernel centers
    bandwidths: np.ndarray  # (d,) in whitened coordinates
    bounds: np.ndarray
    whiten: np.ndarray  # (d, d) map from centered z to whitened coordinates
    _log_norm: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        self.bounds = _check_box(self.bounds)
        if np.any(self.bandwidths <= 0.0):
            raise NumericError("bandwidths must be positive")
        m, d = self.centers_z.shape
        self._z_mean = self.centers_z.mean(axis=0)
        self._unwhiten = np.linalg.inv(self.whiten)
        # Normalization includes |det W| from the whitening change of variables.
        sign, logdet_w = np.linalg.slogdet(self.whiten)
        if sign <= 0:
            raise NumericError("whitening transform must have positive determinant")
        self._log_norm = (
            -math.log(m)
            - float(np.sum(np.log(self.bandwidths)))
            - 0.5 * d * math.log(2.0 * math.pi)
            + logdet_w
        )
        w = ((self.centers_z - self._z_mean) @ self.whiten.T) / self.bandwidths
        # Augmented centers [v, -|v|^2/2], transposed once for the GEMM.
        self._centers_aug_t = np.column_stack([w, -0.5 * (w * w).sum(axis=1)]).T.copy()

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        a, b = self.bounds[:, 0], self.bounds[:, 1]
        inside = np.all((theta > a) & (theta < b), axis=1)
        out = np.full(theta.shape[0], -np.inf)
        if not inside.any():
            return out
        th = theta[inside]
        z = np.log((th - a) / (b - th))
        u = ((z - self._z_mean) @ self.whiten.T) / self.bandwidths
        log_kde = self._log_kernel_sums(u) - 0.5 * (u * u).sum(axis=1) + self._log_norm
        # Jacobian of the logit map for each coordinate.
        log_jac = np.sum(
            np.log(b - a) - np.log(th - a) - np.log(b - th), axis=1
        )
        out[inside] = log_kde + log_jac
        return out

    def _log_kernel_sums(self, u: np.ndarray) -> np.ndarray:
        """log sum_j exp(u.v_j - |v_j|^2/2) for each row of whitened ``u``,
        in blocks of rows sized from the center count."""
        # u.v - |v|^2/2 for every (row, center) pair; -|u|^2/2 is the same for
        # every center of a row, so it factors out and is added after the log.
        n = u.shape[0]
        u_aug = np.column_stack([u, np.ones(n)])
        out = np.empty(n)
        rows = max(2, _KDE_BLOCK_ENTRIES // self._centers_aug_t.shape[1])
        # A one-row product goes to GEMV, which rounds differently from GEMM,
        # so a lone last row joins the block before it.
        starts = range(0, max(n - 1, 1), rows)
        for lo, hi in zip(starts, [*starts[1:], n]):
            log_k = u_aug[lo:hi] @ self._centers_aug_t
            row_max = log_k.max(axis=1)
            log_k -= row_max[:, None]
            np.exp(log_k, out=log_k)
            out[lo:hi] = np.log(log_k.sum(axis=1)) + row_max
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        picks = rng.integers(0, self.centers_z.shape[0], size=n)
        step = (rng.normal(size=(n, self.dim)) * self.bandwidths) @ self._unwhiten.T
        return inverse_logit_map(self.centers_z[picks] + step, self.bounds)


def fit_kde_prior(
    samples: np.ndarray,
    bounds: np.ndarray,
    max_centers: int,
    seed: int,
    bandwidth_scale: float,
) -> KdePrior:
    """Fit the logit-space KDE with per-dimension Silverman bandwidths.

    Samples touching the bounds are nudged inward by 1e-9 * (b - a) rather
    than rejected, since bound-hugging posteriors are expected for weakly
    identifying data.  A sample of more than ``max_centers`` rows is thinned
    to that many kernel centers (seeded) to bound the cost of downstream
    density evaluations.

    ``bandwidth_scale`` multiplies the Silverman widths; ``bridge_prior``
    passes 0.5 because plain Silverman (MISE-optimal for display)
    oversmooths a posterior carried forward as a prior, measurably inflating
    the second update's credible intervals.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    bounds = _check_box(bounds)
    n_centers = min(samples.shape[0], max_centers)
    if n_centers < KDE_MIN_CENTERS:
        raise InsufficientDataError(
            f"KDE prior needs >= {KDE_MIN_CENTERS} centers, got {n_centers}"
        )
    a, b = bounds[:, 0], bounds[:, 1]
    span = b - a
    low = samples <= a + _BOUNDARY_NUDGE * span
    high = samples >= b - _BOUNDARY_NUDGE * span
    n_nudged = int(np.count_nonzero(low | high))
    if n_nudged:
        warnings.warn(f"nudged {n_nudged} boundary-touching sample value(s) inward", stacklevel=2)
    clipped = np.clip(samples, a + _BOUNDARY_NUDGE * span, b - _BOUNDARY_NUDGE * span)
    if clipped.shape[0] > max_centers:
        rng = np.random.default_rng(seed)
        keep = rng.choice(clipped.shape[0], size=max_centers, replace=False)
        keep.sort()
        clipped = clipped[keep]
    z = logit_map(clipped, bounds)
    m, d = z.shape
    sd = z.std(axis=0, ddof=1)
    if np.any(sd <= 0.0):
        raise NumericError("degenerate sample: constant in at least one coordinate")
    cov = np.cov(z.T)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError("degenerate sample covariance in logit space") from exc
    whiten = np.linalg.inv(chol)
    silverman = (4.0 / ((d + 2.0) * m)) ** (1.0 / (d + 4.0))
    return KdePrior(
        centers_z=z,
        bandwidths=np.full(d, bandwidth_scale * silverman),
        bounds=bounds,
        whiten=whiten,
    )
