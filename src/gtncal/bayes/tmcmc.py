"""Transitional MCMC.

Each run tempers prior -> posterior through p_gamma ~ prior * like^gamma.
The gamma increment is chosen by bisection so the coefficient of variation
of the stage importance weights is close to a target (1.0 by default);
particles are then systematically resampled and refreshed with short
Metropolis-Hastings chains whose Gaussian proposal covariance is a scaled
copy of the weighted sample covariance.  Independent runs provide
between-run convergence diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, NumericError, ParameterError, require_finite
from .diagnostics import (
    ESS_MIN_DRAWS,
    HPD_MIN_SAMPLES,
    RHAT_MIN_CHAINS,
    effective_sample_size,
    map_and_hpd,
    split_rhat,
)
from .priors import KDE_MIN_CENTERS

_MIN_DGAMMA = 1.0e-6
#: Every parameter's split R-hat must lie below this for a posterior to pass.
RHAT_GATE = 1.05
_WEIGHT_DEGENERACY_FRACTION = 1.0e-3


@dataclass(frozen=True)
class TmcmcConfig:
    particles: int = 2000
    runs: int = 8
    mh_steps: int = 5
    proposal_scale: float = 0.04  # multiplies the weighted sample covariance
    cov_target: float = 1.0  # target coefficient of variation of weights
    max_stages: int = 60
    kde_max_centers: int = 2000  # centers of the KDE bridge between updates

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        # Each run is one chain of the pooled diagnostics, and the bridge
        # after an update keeps kde_max_centers centers.
        minima = {"runs": RHAT_MIN_CHAINS, "particles": ESS_MIN_DRAWS, "max_stages": 1,
                  "mh_steps": 0, "kde_max_centers": KDE_MIN_CENTERS}
        for name, least in minima.items():
            if not getattr(self, name) >= least:
                raise ParameterError(
                    f"key {name!r} must be at least {least}, not {getattr(self, name)}"
                )
        if self.runs * self.particles < HPD_MIN_SAMPLES:
            raise ParameterError(
                f"keys 'runs' x 'particles' must be at least {HPD_MIN_SAMPLES}, "
                f"not {self.runs} x {self.particles}"
            )
        for name in ("proposal_scale", "cov_target"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"key {name!r} must be positive, not {getattr(self, name)}")


@dataclass
class PosteriorSampleSet:
    """Pooled samples from all runs with provenance and diagnostics."""

    samples: np.ndarray  # (m, d)
    chain_ids: np.ndarray  # (m,)
    log_posterior: np.ndarray  # (m,) log prior + log likelihood at gamma=1
    gamma_ladders: list[list[float]]
    rhat: np.ndarray
    ess: np.ndarray
    map_point: np.ndarray
    map_log_posterior: float
    hpd: np.ndarray  # (d, 2), HPD_COVERAGE intervals
    seed: int

    def passes_gate(self) -> bool:
        return bool(np.all(self.rhat < RHAT_GATE))


def _cov_of_weights(log_like: np.ndarray, dgamma: float) -> float:
    logw = dgamma * (log_like - log_like.max())
    w = np.exp(logw)
    mean = w.mean()
    if mean <= 0.0:
        return np.inf
    return float(w.std() / mean)


def _next_gamma(gamma: float, log_like: np.ndarray, target: float) -> float:
    remaining = 1.0 - gamma
    if _cov_of_weights(log_like, remaining) <= target:
        return 1.0
    lo, hi = 0.0, remaining
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _cov_of_weights(log_like, mid) <= target:
            lo = mid
        else:
            hi = mid
    if lo < _MIN_DGAMMA:
        raise ConvergenceError(
            "weight degeneracy: no admissible tempering increment above "
            f"{_MIN_DGAMMA} (effective weight fraction < {_WEIGHT_DEGENERACY_FRACTION})"
        )
    return gamma + lo


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = weights.size
    positions = (rng.random() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(0, n - 1)


def _single_run(
    prior,
    loglike,
    config: TmcmcConfig,
    seed: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    rng = np.random.default_rng(seed)
    n = config.particles
    theta = prior.sample(n, rng)
    log_like = np.asarray(loglike(theta), dtype=float)
    log_prior = prior.log_density(theta)
    if not np.all(np.isfinite(log_like)):
        raise NumericError("non-finite log-likelihood at initial particles")
    gamma = 0.0
    ladder = [0.0]

    for _ in range(config.max_stages):
        if gamma >= 1.0:
            break
        gamma_new = _next_gamma(gamma, log_like, config.cov_target)
        dgamma = gamma_new - gamma
        logw = dgamma * (log_like - log_like.max())
        w = np.exp(logw)
        w /= w.sum()
        ess_frac = 1.0 / (n * float(np.sum(w * w)))
        if ess_frac < _WEIGHT_DEGENERACY_FRACTION:
            raise ConvergenceError(
                f"weight degeneracy at gamma={gamma_new:.4f}: effective fraction {ess_frac:.2e}"
            )

        mean = w @ theta
        centered = theta - mean
        cov = (w[:, None] * centered).T @ centered
        proposal_cov = config.proposal_scale * cov
        # Guard against rank deficiency when the population collapses.
        jitter = 1e-12 * np.trace(proposal_cov) / theta.shape[1] + 1e-300
        chol = np.linalg.cholesky(proposal_cov + jitter * np.eye(theta.shape[1]))

        idx = _systematic_resample(w, rng)
        theta = theta[idx]
        log_like = log_like[idx]
        log_prior = log_prior[idx]

        gamma = gamma_new
        ladder.append(gamma)

        log_post = log_prior + gamma * log_like
        for _ in range(config.mh_steps):
            step = rng.normal(size=theta.shape) @ chol.T
            proposal = theta + step
            prop_prior = prior.log_density(proposal)
            feasible = np.isfinite(prop_prior)
            prop_like = np.full(theta.shape[0], -np.inf)
            if feasible.any():
                prop_like[feasible] = loglike(proposal[feasible])
            prop_post = prop_prior + gamma * prop_like
            accept = np.log(rng.uniform(size=theta.shape[0])) < prop_post - log_post
            theta = np.where(accept[:, None], proposal, theta)
            log_like = np.where(accept, prop_like, log_like)
            log_prior = np.where(accept, prop_prior, log_prior)
            log_post = np.where(accept, prop_post, log_post)
    else:
        raise ConvergenceError(f"tempering did not reach gamma=1 in {config.max_stages} stages")

    # Final particles are exchangeable, but systematic resampling leaves
    # duplicate ancestors adjacent; a seeded shuffle removes that artificial
    # index ordering before sequence-based diagnostics see it.  It also
    # leaves no index correlation at all, so the autocorrelation ESS of the
    # pooled runs reads about runs x particles whatever the sampler's real
    # efficiency (see effective_sample_size).
    order = rng.permutation(n)
    return theta[order], (log_prior + log_like)[order], ladder


def tmcmc_sample(prior, loglike, config: TmcmcConfig, seed: int) -> PosteriorSampleSet:
    """Run independent tempered chains and pool them with diagnostics.

    ``prior`` needs ``sample(n, rng)`` and ``log_density(theta)``; ``loglike``
    maps an (m, d) batch to (m,) log-likelihood values.  Run r draws from
    ``SeedSequence(seed).spawn(config.runs)[r]``, and the result records
    ``seed``.

    ``ess`` is the index-autocorrelation ESS of the shuffled particles, about
    runs x particles by construction; replicate seeds put the real figure
    5-9x lower (ROADMAP, Defects), and ROADMAP direction 1 replaces it with
    a between-run ESS.
    """
    all_theta, all_logpost, ladders, chain_ids = [], [], [], []
    for run_id, seq in enumerate(np.random.SeedSequence(seed).spawn(config.runs)):
        theta, log_post, ladder = _single_run(prior, loglike, config, seq)
        all_theta.append(theta)
        all_logpost.append(log_post)
        ladders.append(ladder)
        chain_ids.append(np.full(theta.shape[0], run_id))
    samples = np.vstack(all_theta)
    log_posterior = np.concatenate(all_logpost)
    ids = np.concatenate(chain_ids)

    chains = samples.reshape(config.runs, config.particles, -1)
    rhat = split_rhat(chains)
    ess = effective_sample_size(chains)
    map_point, hpd = map_and_hpd(samples, log_posterior)
    return PosteriorSampleSet(
        samples=samples,
        chain_ids=ids,
        log_posterior=log_posterior,
        gamma_ladders=ladders,
        rhat=rhat,
        ess=ess,
        map_point=map_point,
        map_log_posterior=float(log_posterior.max()),
        hpd=hpd,
        seed=seed,
    )
