"""Shared fixtures.

``small_pipeline`` builds a reduced-size dataset once per session for the
integration tests; the acceptance module builds the full default-size
dataset itself (session-scoped as well) because the spec criteria are tied
to the default configuration.
"""

import time

import pytest

from gtncal.bayes.tmcmc import TmcmcConfig
from gtncal.pipeline.config import ExperimentConfig
from gtncal.pipeline import dataset


SMALL_TMCMC = TmcmcConfig(particles=400, runs=4, kde_max_centers=1000)


@pytest.fixture(scope="session")
def small_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_pipeline")
    config = ExperimentConfig(
        output_dir=str(root / "run"),
        design_size=48,
        seed=1234,
        tmcmc=SMALL_TMCMC,
    )
    t0 = time.time()
    reduce = dataset.build_dataset(config)
    return {"config": config, "build_seconds": time.time() - t0, "reduce": reduce}
