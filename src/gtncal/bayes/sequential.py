"""Order-dependent sequential updating across data modalities.

``update_chain`` samples one posterior per likelihood, in the given order.
The first update samples from the uniform box prior.  Each later update
samples from ``bridge_prior`` of the posterior before it: a logit-space KDE
that keeps the box bounds.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .priors import KdePrior, UniformBoxPrior, fit_kde_prior
from .tmcmc import PosteriorSampleSet, TmcmcConfig, tmcmc_sample

#: Bandwidth multiplier for the update-to-update KDE bridge; see
#: fit_kde_prior for the rationale.
BRIDGE_BANDWIDTH_SCALE = 0.5


def bridge_prior(
    samples: np.ndarray, prior: UniformBoxPrior, max_centers: int, seed: int
) -> KdePrior:
    """The KDE prior that carries ``samples`` into the next update, on
    ``prior``'s box, thinned to ``max_centers`` centers with ``seed``."""
    return fit_kde_prior(
        samples, prior.bounds, max_centers=max_centers, seed=seed,
        bandwidth_scale=BRIDGE_BANDWIDTH_SCALE,
    )


def update_chain(
    prior: UniformBoxPrior,
    likelihoods: Sequence[Callable[[np.ndarray], np.ndarray]],
    config: TmcmcConfig,
    seed: int,
) -> Iterator[PosteriorSampleSet]:
    """Yield the posterior after each likelihood in turn.

    Stage i samples with the seed drawn from ``SeedSequence(seed).spawn(n)[i]``,
    and the bridge after it thins to ``config.kde_max_centers`` centers with
    the same seed.  Each posterior is yielded before the next stage starts,
    so a caller can persist it even if a later stage fails.
    """
    seeds = np.random.SeedSequence(seed).spawn(len(likelihoods))
    current = prior
    for i, (loglike, seq) in enumerate(zip(likelihoods, seeds)):
        stage_seed = int(seq.generate_state(1)[0])
        post = tmcmc_sample(current, loglike, config, stage_seed)
        yield post
        if i + 1 < len(likelihoods):
            current = bridge_prior(post.samples, prior, config.kde_max_centers, stage_seed)
