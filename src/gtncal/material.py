"""GTN porous-plasticity material-point model.

The yield surface couples von Mises plasticity to the void volume fraction

    Phi = (s_eq/s_y)^2 + 2 q1 f* cosh(3 q2 s_m / (2 s_y)) - (1 + q3 f*^2),

with the effective void fraction f* accelerating past the coalescence
threshold f_c and reaching 1/q1 at the failure fraction f_f.  Void evolution
combines growth driven by plastic dilatation, (1 - f) tr(deps_p), with
strain-controlled nucleation distributed normally around eps_n.

Material points here carry a single signed axial stress; the stress state is
parameterized by a triaxiality ratio s_m = triaxiality * s_ax (1/3 recovers
uniaxial tension).  Integration is explicit: an elastic predictor on the
axial stress followed by a return to the current yield surface, with the
internal variables updated from the normality rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParameterError, StabilityError, require_finite

#: Ceiling on the strain increment accepted by :meth:`GtnPointBatch.step`;
#: accuracy at this step size is covered by the step-refinement convergence
#: test.
BATCH_STEP_CAP = 2.0e-3

_FLOW_TOL = 1.0e-9
_FLOW_MAX_ITER = 80


@dataclass(frozen=True)
class FixedGtnConstants:
    """Void-interaction coefficients and baseline porosity held fixed."""

    q1: float = 1.5
    q2: float = 1.0
    q3: float = 2.25
    f0: float = 0.001
    sn_ratio: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if self.q1 <= 0.0 or self.q2 <= 0.0 or self.sn_ratio <= 0.0:
            raise ParameterError("q1, q2 and sn_ratio must be positive")
        if not math.isclose(self.q3, self.q1**2, rel_tol=1e-12):
            raise ParameterError("q3 must equal q1**2")
        if not 0.0 <= self.f0 < 1.0:
            raise ParameterError("f0 must lie in [0, 1)")


@dataclass(frozen=True)
class GtnParams:
    """The four calibrated damage parameters."""

    eps_n: float
    f_n: float
    f_c: float
    f_f: float

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if min(self.eps_n, self.f_n, self.f_c, self.f_f) <= 0.0:
            raise ParameterError("all GTN parameters must be strictly positive")
        if self.f_c >= self.f_f:
            raise ParameterError(
                f"coalescence fraction f_c={self.f_c} must be below failure fraction f_f={self.f_f}"
            )

    @classmethod
    def from_array(cls, theta: np.ndarray) -> "GtnParams":
        e, fn, fc, ff = (float(v) for v in np.asarray(theta).ravel())
        return cls(e, fn, fc, ff)


#: Canonical ordering of the calibrated parameters throughout the package.
PARAM_NAMES = ("eps_n", "f_n", "f_c", "f_f")


@dataclass(frozen=True)
class VoceParams:
    """Saturating isotropic hardening: sigma0 + q_sat*(1 - exp(-b_rate*eps_p))."""

    sigma0: float = 165.0
    q_sat: float = 136.0
    b_rate: float = 9.8

    def __post_init__(self) -> None:
        if self.sigma0 <= 0.0:
            raise ParameterError("sigma0 must be positive")
        if self.q_sat < 0.0:
            raise ParameterError("q_sat must be nonnegative")
        if self.b_rate <= 0.0:
            raise ParameterError("b_rate must be positive")


def voce_flow_stress(voce: VoceParams, eps_p) -> float | np.ndarray:
    """Matrix flow stress at equivalent plastic strain ``eps_p`` (MPa)."""
    eps_p = np.asarray(eps_p, dtype=float)
    if np.any(eps_p < 0.0):
        raise DomainError("eps_p must be nonnegative")
    out = voce.sigma0 + voce.q_sat * (1.0 - np.exp(-voce.b_rate * eps_p))
    return float(out) if out.ndim == 0 else out


def effective_void_fraction(consts: FixedGtnConstants, params: GtnParams, f) -> float | np.ndarray:
    """Coalescence-accelerated effective void fraction.

    Identity below f_c, then linear to 1/q1 at f_f; continuous at f_c.
    """
    if params.f_c >= params.f_f:
        raise ParameterError("f_c must be below f_f")
    f = np.asarray(f, dtype=float)
    if np.any((f < 0.0) | (f > 1.0)):
        raise DomainError("f must lie in [0, 1]")
    slope = (1.0 / consts.q1 - params.f_c) / (params.f_f - params.f_c)
    out = np.where(f < params.f_c, f, params.f_c + slope * (f - params.f_c))
    return float(out) if out.ndim == 0 else out


def gtn_yield(consts: FixedGtnConstants, sigma_eq, sigma_m, sigma_y, f_star) -> float | np.ndarray:
    """Yield function Phi; Phi = 0 defines the yield surface."""
    sigma_y = np.asarray(sigma_y, dtype=float)
    if np.any(sigma_y <= 0.0):
        raise DomainError("sigma_y must be positive")
    sigma_eq = np.asarray(sigma_eq, dtype=float)
    sigma_m = np.asarray(sigma_m, dtype=float)
    f_star = np.asarray(f_star, dtype=float)
    out = (
        (sigma_eq / sigma_y) ** 2
        + 2.0 * consts.q1 * f_star * np.cosh(1.5 * consts.q2 * sigma_m / sigma_y)
        - (1.0 + consts.q3 * f_star**2)
    )
    return float(out) if out.ndim == 0 else out


def flow_stress_on_surface(
    consts: FixedGtnConstants,
    sigma_y: np.ndarray,
    f_star: np.ndarray,
    triaxiality,
    start: np.ndarray,
) -> np.ndarray:
    """Solve Phi(s) = 0 for the axial flow stress, vectorized.

    Phi is convex and increasing in s >= 0 with Phi(0) <= 0 and
    Phi(sigma_y) >= 0, so Newton started at (or above) the root converges
    monotonically after at most one overshoot.  The iteration runs on the
    whole fixed-shape array; each entry is frozen (masked out of every later
    update) once its residual is within tolerance, so every entry sees the
    same arithmetic whatever else is in the batch and results do not depend
    on the batch composition.
    """
    sigma_y = np.atleast_1d(np.asarray(sigma_y, dtype=float))
    shape = sigma_y.shape
    f_star = np.broadcast_to(np.asarray(f_star, dtype=float), shape)
    c = np.broadcast_to(1.5 * consts.q2 * np.asarray(triaxiality, dtype=float), shape)
    s = np.array(np.broadcast_to(start, shape), dtype=float)
    np.maximum(s, 0.0, out=s)
    rhs = 1.0 + consts.q3 * f_star**2
    two_q1_f = 2.0 * consts.q1 * f_star
    two_q1_fc = two_q1_f * c
    open_mask = np.ones(shape, dtype=bool)
    for _ in range(_FLOW_MAX_ITER):
        # Fresh temporaries are updated in place and no name outlives an
        # iteration, so the allocator reuses their memory; every entry still
        # rounds as phi = x^2 + 2 q1 f* cosh(c x) - rhs would.
        x = s / sigma_y
        e = c * x
        np.exp(e, out=e)
        e_inv = 1.0 / e
        phi = e + e_inv
        phi *= 0.5
        phi *= two_q1_f
        phi += x * x
        phi -= rhs
        open_mask &= np.abs(phi) > _FLOW_TOL
        if not open_mask.any():
            break
        # x becomes dPhi/ds = (2 x + 2 q1 f* c sinh(c x)) / sigma_y, and phi
        # the clipped Newton iterate, stored only where still open.
        e -= e_inv
        e *= 0.5
        e *= two_q1_fc
        x *= 2.0
        x += e
        x /= sigma_y
        np.copyto(x, 1.0, where=~(x > 0.0))
        phi /= x
        np.subtract(s, phi, out=phi)
        np.maximum(phi, 0.0, out=phi)
        np.minimum(phi, sigma_y, out=phi)
        np.copyto(s, phi, where=open_mask)
    else:
        raise NumericError("flow-stress Newton iteration did not converge")
    return s


class GtnPointBatch:
    """Vectorized bank of independent GTN material points.

    Drives each point with a signed axial strain increment and keeps the
    axial stress on or inside the yield surface.  The state arrays share one
    shape, into which the specimen simulator stacks (run, cell); the
    parameters and the triaxiality broadcast against it, as the simulator's
    (run, 1) parameter columns and each cell group's scalar triaxiality do.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        consts: FixedGtnConstants,
        params_arrays: dict[str, np.ndarray],
        voce: VoceParams,
        elastic_modulus: float,
        triaxiality: float | np.ndarray,
    ):
        self.consts = consts
        self.voce = voce
        self.modulus = float(elastic_modulus)
        self.triaxiality = triaxiality
        self.eps_n, self.f_n, self.f_c, self.f_f = (
            np.asarray(params_arrays[name], dtype=float) for name in PARAM_NAMES
        )
        if np.any(self.f_c >= self.f_f):
            raise ParameterError("f_c must be below f_f for every point")
        self.s_n = consts.sn_ratio * self.eps_n
        self._fstar_slope = (1.0 / consts.q1 - self.f_c) / (self.f_f - self.f_c)

        self.sigma = np.zeros(shape)
        self.eps_p = np.zeros(shape)
        self.f = np.full(shape, consts.f0)
        self.f_star = self._effective(self.f)
        self.failed = np.zeros(shape, dtype=bool)
        self._sigma_y = voce.sigma0 * np.ones(shape)
        self._flow = flow_stress_on_surface(
            consts, self._sigma_y, np.minimum(self.f_star, 1.0 / consts.q1), self.triaxiality,
            start=self._sigma_y,
        )

    def _effective(self, f: np.ndarray) -> np.ndarray:
        """Effective void fraction: f below f_c, else f_c + slope (f - f_c)."""
        out = f - self.f_c
        out *= self._fstar_slope
        out += self.f_c
        np.copyto(out, f, where=f < self.f_c)
        return out

    def take_runs(self, rows: np.ndarray) -> None:
        """Keep only the given leading-axis rows (run repacking); the
        per-run parameters must then be (run, 1) columns."""
        for name in ("sigma", "eps_p", "f", "f_star", "failed", "_sigma_y", "_flow",
                     "eps_n", "f_n", "f_c", "f_f", "s_n", "_fstar_slope"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name)[rows]))

    def step(self, d_eps: np.ndarray) -> None:
        """Advance every non-failed point by the signed axial strain increment.

        The plastic corrector runs on the whole fixed-shape batch with a zero
        plastic increment wherever a point does not yield, and the new state
        is written back only where it does.  Every point therefore sees the
        same arithmetic whatever else is in the batch, so results do not
        depend on the batch composition.  The flow stress is cached and stays
        valid because hardening and damage change exclusively through
        yielding, which refreshes the cache.
        """
        d_eps = np.broadcast_to(np.asarray(d_eps, dtype=float), self.sigma.shape)
        amax = float(np.max(np.abs(d_eps)))
        if not np.isfinite(amax):
            raise NumericError("non-finite strain increment")
        if amax > BATCH_STEP_CAP:
            raise StabilityError(
                f"strain increment {amax:.3e} exceeds stability cap {BATCH_STEP_CAP:.1e}"
            )
        consts = self.consts
        fstar_cap = 1.0 / consts.q1

        # Temporaries are updated in place, which keeps allocations (and the
        # page faults of fresh memory) down; every entry still rounds exactly
        # as the formula written above each block would.
        # trial = sigma + E d_eps, held where failed.
        trial = self.modulus * d_eps
        trial += self.sigma
        np.copyto(trial, self.sigma, where=self.failed)
        over = np.abs(trial)
        over -= self._flow
        # 1e-9 MPa slack keeps points resting exactly on the surface elastic.
        yielding = over > 1.0e-9
        yielding &= ~self.failed
        if not yielding.any():
            self.sigma = trial
            return

        sy = self._sigma_y
        flow = self._flow
        f = self.f
        tri = self.triaxiality
        sign = np.where(trial >= 0.0, 1.0, -1.0)

        # Normality split of the plastic increment into deviatoric and
        # volumetric parts, evaluated on the yield surface:
        # d_eq = dPhi/dsigma_eq = 2 x / sy with x = flow / sy,
        # d_m = dPhi/dsigma_m = 3 q1 q2 f*_eff sinh(1.5 q2 tri x) / sy.
        d_eq = flow / sy
        sinh = (1.5 * consts.q2 * tri) * d_eq
        np.exp(sinh, out=sinh)
        sinh -= 1.0 / sinh
        sinh *= 0.5
        d_eq *= 2.0
        d_eq /= sy
        d_m = 3.0 * consts.q1 * consts.q2 * np.minimum(self.f_star, fstar_cap)
        d_m *= sinh
        d_m /= sy
        # lam = d_eps_ax_p / max(d_eq + d_m / 3, 1e-300), where the axial
        # plastic strain d_eps_ax_p = (|trial| - flow) / E is zero wherever
        # the point does not yield; then d_dev = lam d_eq and d_tr = lam d_m.
        lam = over
        lam /= self.modulus
        np.copyto(lam, 0.0, where=~yielding)
        denom = d_m / 3.0
        denom += d_eq
        np.maximum(denom, 1.0e-300, out=denom)
        lam /= denom
        d_dev = d_eq
        d_dev *= lam
        d_tr = d_m
        d_tr *= lam
        # Matrix strain from plastic-work equivalence:
        # (1-f) sigma_y deps_p = sigma_eq*d_dev + sigma_m*d_tr, i.e.
        # d_eps_p = (flow d_dev + tri flow d_tr) / (max(1 - f, 1e-12) sy).
        d_eps_p = flow * d_dev
        work_m = tri * flow
        work_m *= d_tr
        d_eps_p += work_m
        denom = 1.0 - f
        np.maximum(denom, 1.0e-12, out=denom)
        denom *= sy
        d_eps_p /= denom
        # df = (1 - f) d_tr sign + a_nuc d_eps_p, with the nucleation
        # intensity a_nuc = f_n / (s_n sqrt(2 pi)) exp(-z^2 / 2),
        # z = (eps_p - eps_n) / s_n.
        z = self.eps_p - self.eps_n
        z /= self.s_n
        a_nuc = -0.5 * z
        a_nuc *= z
        np.exp(a_nuc, out=a_nuc)
        a_nuc *= self.f_n / (self.s_n * math.sqrt(2.0 * math.pi))
        a_nuc *= d_eps_p
        df = 1.0 - f
        df *= d_tr
        df *= sign
        df += a_nuc

        eps_p_new = self.eps_p + d_eps_p
        f_new = df
        f_new += f
        np.maximum(f_new, 0.0, out=f_new)
        np.minimum(f_new, 1.0, out=f_new)
        fstar_new = self._effective(f_new)
        failed_new = f_new >= self.f_f

        # Stress back on the surface, re-solved with end-of-step hardening
        # sy_new = sigma0 + q_sat (1 - exp(-b eps_p_new)) and damage, so
        # returned states satisfy Phi = 0 to solver tolerance.
        sy_new = -self.voce.b_rate * eps_p_new
        np.exp(sy_new, out=sy_new)
        np.subtract(1.0, sy_new, out=sy_new)
        sy_new *= self.voce.q_sat
        sy_new += self.voce.sigma0
        flow_new = flow_stress_on_surface(
            consts, sy_new, np.minimum(fstar_new, fstar_cap), tri, start=flow
        )
        if not np.all(np.isfinite(flow_new)):
            raise NumericError("non-finite stress after integration step")

        sigma_new = sign
        sigma_new *= flow_new
        np.copyto(sigma_new, 0.0, where=failed_new)
        np.copyto(trial, sigma_new, where=yielding)
        self.sigma = trial
        for target, values in (
            (self.eps_p, eps_p_new),
            (self.f, f_new),
            (self.f_star, fstar_new),
            (self._sigma_y, sy_new),
            (self._flow, flow_new),
            (self.failed, failed_new),
        ):
            np.copyto(target, values, where=yielding)

