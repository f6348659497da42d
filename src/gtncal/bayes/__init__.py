"""Score-space likelihoods, T-MCMC sampling, diagnostics, sequential updates."""

from .priors import KdePrior, UniformBoxPrior, fit_kde_prior
from .likelihood import NoiseModel, ScoreLogLikelihood, propagate_noise
from .diagnostics import effective_sample_size, map_and_hpd, split_rhat
from .tmcmc import PosteriorSampleSet, TmcmcConfig, tmcmc_sample
from .sequential import bridge_prior, update_chain

__all__ = [
    "UniformBoxPrior",
    "KdePrior",
    "fit_kde_prior",
    "NoiseModel",
    "propagate_noise",
    "ScoreLogLikelihood",
    "split_rhat",
    "effective_sample_size",
    "map_and_hpd",
    "TmcmcConfig",
    "PosteriorSampleSet",
    "tmcmc_sample",
    "bridge_prior",
    "update_chain",
]
