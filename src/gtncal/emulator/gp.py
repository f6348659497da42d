"""GP training: exact log marginal likelihood, analytic gradients in
log-hyperparameter space, and LHS-multistart L-BFGS-B optimization.

scipy is imported inside the functions that call it, not at module top.
Every pipeline module and the CLI import this one, but only GP training
needs ``scipy.optimize`` and only factoring or predicting needs
``scipy.linalg``; at module top the two cost every process about 0.3 s of
CPU and 50 MB of resident memory at start-up (numpy alone is about 27 MB).
So ``gtncal --help``, ``design``, ``simulate``, ``reduce``, ``recover`` and
``compare`` load neither, ``validate`` and ``infer`` load ``scipy.linalg``
with the bundles, and only ``train`` loads ``scipy.optimize``.  After the
first call each import costs a lookup in ``sys.modules``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import InsufficientDataError, NumericError, OptimizationError
from .kernel import ArdHyperparams, HyperparamBounds, kernel_cross

N_MULTISTARTS = 15
_MAX_OPT_ITER = 200
_GRAD_TOL = 1.0e-6
_JITTERS = (0.0, 1.0e-10, 1.0e-9, 1.0e-8, 1.0e-7, 1.0e-6)
_EPS = float(np.finfo(float).eps)


def _chol_with_jitter(k: np.ndarray) -> np.ndarray:
    from scipy import linalg

    scale = float(np.mean(np.diag(k)))
    for jitter in _JITTERS:
        if jitter:
            k_j = k.copy()
            k_j.flat[:: k.shape[0] + 1] += jitter * scale
        else:
            k_j = k
        try:
            return linalg.cholesky(k_j, lower=True)
        except linalg.LinAlgError:
            continue
    raise NumericError("Cholesky factorization failed at maximum jitter")


def _sq_diffs(x: np.ndarray) -> np.ndarray:
    """Squared per-dimension input differences (x_i - x'_i)^2, shape (d, n*n).

    Column i*n + j belongs to the pair (i, j).  They do not depend on the
    hyperparameters, so the optimizer computes them once per call instead of
    once per likelihood evaluation.
    """
    xt = x.T
    s = xt[:, :, None] - xt[:, None, :]
    s *= s
    return s.reshape(xt.shape[0], -1)


def _se_kernel(h: ArdHyperparams, sq_diffs: np.ndarray, n: int) -> np.ndarray:
    """K_se = sf2 * exp(-0.5 * (1/l^2) @ S) as an (n, n) array, with every
    entry below eps * sn2 / n set to exact 0 and ``exp`` evaluated only on
    the rest (the floor is explained in ``log_marginal_likelihood``)."""
    arg = ((-0.5 / np.square(h.length_scales)) @ sq_diffs).reshape(n, n)
    cut = math.log(_EPS * h.noise_variance / (n * h.signal_variance))
    k_se = np.zeros((n, n))
    np.exp(arg, out=k_se, where=arg >= cut)
    k_se *= h.signal_variance
    return k_se


def log_marginal_likelihood(
    sq_diffs: np.ndarray, y: np.ndarray, h: ArdHyperparams
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient wrt log-hyperparameters.

    Gradient entries follow the layout [log sf2, log l_1..l_d, log sn2] and
    use d/d(log t) = t * d/dt.  ``sq_diffs`` is ``_sq_diffs(x)`` of the
    inputs, which the optimizer computes once for every hyperparameter set
    it evaluates.

    Each call makes three BLAS/LAPACK calls beyond the Cholesky factor and
    its solve, plus a few in-place passes over (n, n) arrays:

    - K_se = sf2 * exp(-0.5 * (1/l^2) @ S) from one GEMV over the squared
      differences S (``_se_kernel``), with the noise added on the diagonal
      only;
    - K^-1 from LAPACK ``dpotri`` on the factor, its lower triangle mirrored
      to the upper;
    - with W = alpha alpha^T - K^-1, the gradient is 0.5 tr(W dK/dtheta)
      (Rasmussen & Williams, GPML eq. 5.9), and all d length-scale terms
      come from one GEMV, S @ (W * K_se).ravel(), scaled by 1 / (2 l^2).

    Accuracy bound, checked by the tests against an 80-bit long-double
    evaluation of the same formulas: the LML and the gradient norm lie
    within rtol 1e-9 (measured at n = 300, sf2 in [0.1, 5] and sn2 in
    [1e-6, 1e-2]: at most 3e-12 on the LML and 6e-11 on the gradient norm).

    Floor: every K_se entry below eps * sn2 / n is set to exact 0, and
    ``exp`` is evaluated only on the rest.  The perturbation E this makes
    has ||E||_2 <= n max|E_ij| < eps * sn2 <= eps * lambda_min(K), below the
    backward error of the Cholesky factor itself (Higham 2002, Thm 10.3),
    so the bound above still holds.  The diagonal is never cut: its
    exponent is 0 and the cut is negative inside the hyperparameter box.
    The floor exists for speed: short length-scales (the multistarts reach
    1e-3) leave K full of subnormal numbers, and ``exp``, the Cholesky
    factor, ``dpotri`` and the gradient take a microcode assist on x86 for
    each operation on one.
    """
    from scipy import linalg
    from scipy.linalg import lapack

    y = np.asarray(y, dtype=float)
    n = y.size
    k_se = _se_kernel(h, sq_diffs, n)
    diag = k_se.reshape(-1)[:: n + 1]
    diag += h.noise_variance
    low = _chol_with_jitter(k_se)
    # exp(0) is exact, so this restores K_se's diagonal bit for bit.
    diag[:] = h.signal_variance
    alpha = linalg.cho_solve((low, True), y)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(low))))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    k_inv, info = lapack.dpotri(low, lower=1, overwrite_c=1)
    if info:
        raise NumericError(f"dpotri failed with info={info}")
    # Mirror the lower triangle: the upper one is zero, so the sum is exact
    # off the diagonal, and halving the doubled diagonal is exact too.
    k_inv = k_inv + k_inv.T
    k_inv.flat[:: n + 1] *= 0.5
    w = np.multiply.outer(alpha, alpha)
    w -= k_inv
    inv_l2 = 1.0 / np.square(h.length_scales)
    grad = np.empty(inv_l2.size + 2)
    # d/d log sn2: dK = sn2 * I
    grad[-1] = 0.5 * h.noise_variance * float(np.trace(w))
    w *= k_se
    # d/d log sf2: dK = K_se
    grad[0] = 0.5 * float(np.sum(w))
    # d/d log l_i: dK = K_se * S_i / l_i^2
    grad[1:-1] = 0.5 * inv_l2 * (sq_diffs @ w.ravel())
    return lml, grad


def _lhs_unit(n: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    cols = [(rng.permutation(n) + rng.uniform(size=n)) / n for _ in range(dims)]
    return np.column_stack(cols)


def optimize_hyperparams(
    x: np.ndarray,
    y: np.ndarray,
    bounds: HyperparamBounds,
    seed: int,
) -> ArdHyperparams:
    """Maximize the log marginal likelihood from ``N_MULTISTARTS`` LHS starts
    in log space.

    Each start runs L-BFGS-B on ``log_marginal_likelihood`` with its analytic
    gradient; the squared input differences it needs are computed once here,
    as a (d, n^2) matrix, and shared by every evaluation.  The optimum
    depends on the kernel's rounding only through the optimizer's path: the
    tests pin one n = 150, d = 4 problem to log-hyperparameters recorded
    from the previous kernel, within 1e-4, and its optimum LML within
    rtol 1e-9.
    """
    from scipy.optimize import minimize

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size < 8:
        raise InsufficientDataError("hyperparameter optimization needs n >= 8")
    log_box = bounds.log_bounds(x.shape[1])
    lo = np.array([b[0] for b in log_box])
    hi = np.array([b[1] for b in log_box])
    rng = np.random.default_rng(seed)
    starts = lo + _lhs_unit(N_MULTISTARTS, lo.size, rng) * (hi - lo)

    sq_diffs = _sq_diffs(x)

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        h = ArdHyperparams.from_log_vector(v)
        lml, grad = log_marginal_likelihood(sq_diffs, y, h)
        return -lml, -grad

    best_val = np.inf
    best_v = None
    failures = 0
    for v0 in starts:
        try:
            res = minimize(
                objective,
                v0,
                jac=True,
                method="L-BFGS-B",
                bounds=log_box,
                options={"maxiter": _MAX_OPT_ITER, "gtol": _GRAD_TOL},
            )
        except NumericError:
            failures += 1
            continue
        if res.fun < best_val:
            best_val = float(res.fun)
            best_v = res.x
    if best_v is None:
        raise OptimizationError(f"all {N_MULTISTARTS} optimization starts failed")
    if failures:
        warnings.warn(f"{failures} of {N_MULTISTARTS} optimization starts failed", stacklevel=2)
    return ArdHyperparams.from_log_vector(best_v)


@dataclass
class TrainedGp:
    """Immutable trained GP with cached inverse Cholesky factor and weights.

    ``chol_inv`` is L^-1 for K + noise I = L L^T (Fortran order), computed
    once per factor at train and load time.  The predictive variance then
    needs one triangular matrix product per call instead of a triangular
    solve (Rasmussen & Williams, GPML Alg. 2.1, with the solve hoisted).
    """

    x: np.ndarray  # (n, d) unit-hypercube inputs
    y: np.ndarray  # (n,) raw targets
    y_mean: float
    hyperparams: ArdHyperparams
    chol_inv: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)

    @classmethod
    def train(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        bounds: HyperparamBounds,
        seed: int,
    ) -> "TrainedGp":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        y_mean = float(y.mean())
        h = optimize_hyperparams(x, y - y_mean, bounds, seed=seed)
        return cls.from_hyperparams(x, y, h)

    @classmethod
    def from_hyperparams(cls, x, y, h: ArdHyperparams) -> "TrainedGp":
        from scipy import linalg

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        y_mean = float(y.mean())
        k = kernel_cross(h, x, x)
        k.flat[:: x.shape[0] + 1] += h.noise_variance
        low = _chol_with_jitter(k)
        alpha = linalg.cho_solve((low, True), y - y_mean)
        low_inv = np.asfortranarray(
            linalg.solve_triangular(low, np.eye(low.shape[0]), lower=True)
        )
        return cls(x=x, y=y, y_mean=y_mean, hyperparams=h, chol_inv=low_inv, alpha=alpha)

    def predict(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior predictive mean and variance (noise included).

        The cross covariance comes from one augmented GEMM on
        length-scale-normalized inputs,
        [u, -|u|^2/2, 1] . [v, 1, -|v|^2/2 + log sf2]^T = log sf2 - |u - v|^2 / 2,
        clipped at log sf2 against round-off and exponentiated in place.  The
        variance term |L^-1 k|^2 comes from BLAS trmm, L^-1 times the
        (Fortran-ordered) transpose of the cross covariance, written in place.
        """
        from scipy.linalg import blas

        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        if not np.all(np.isfinite(xq)):
            raise NumericError("prediction inputs must be finite")
        h = self.hyperparams
        ls = np.asarray(h.length_scales)
        log_sf2 = math.log(h.signal_variance)
        u = xq / ls
        v = self.x / ls
        u_aug = np.column_stack([u, -0.5 * np.einsum("ij,ij->i", u, u), np.ones(u.shape[0])])
        v_aug = np.column_stack(
            [v, np.ones(v.shape[0]), log_sf2 - 0.5 * np.einsum("ij,ij->i", v, v)]
        )
        ks = u_aug @ v_aug.T  # (m, n)
        np.minimum(ks, log_sf2, out=ks)
        np.exp(ks, out=ks)
        mean = ks @ self.alpha + self.y_mean
        # w = ks L^-T; trmm on the transposed view overwrites ks with it.
        w = blas.dtrmm(1.0, self.chol_inv, ks.T, lower=1, overwrite_b=1).T
        var = h.signal_variance + h.noise_variance - np.einsum("ij,ij->i", w, w)
        neg = var < 0.0
        if neg.any():
            warnings.warn(
                f"clamped {int(neg.sum())} negative predictive variance value(s)",
                stacklevel=2,
            )
            var = np.maximum(var, 0.0)
        return mean, var
