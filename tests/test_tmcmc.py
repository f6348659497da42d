import math

import numpy as np
import pytest
from scipy import stats

from gtncal.bayes.priors import UniformBoxPrior
from gtncal.bayes.sequential import bridge_prior, update_chain
from gtncal.bayes.tmcmc import TmcmcConfig, tmcmc_sample
from gtncal.errors import ParameterError

TABLE_BOX = np.array([[0.1, 0.5], [0.01, 0.05], [0.01, 0.15], [0.15, 0.35]])


def flat_loglike(theta):
    theta = np.atleast_2d(theta)
    return np.zeros(theta.shape[0])


@pytest.mark.parametrize(
    "bad",
    [
        {"runs": 1},
        {"runs": 0},
        {"particles": 3},
        {"max_stages": 0},
        {"mh_steps": -1},
        {"kde_max_centers": 0},
        {"proposal_scale": 0.0},
        {"cov_target": -1.0},
        {"particles": 9},
        {"runs": 2, "particles": 49},
        {"kde_max_centers": 49},
    ],
)
def test_config_rejects_settings_the_sampler_cannot_run(bad):
    with pytest.raises(ParameterError):
        TmcmcConfig(**bad)


@pytest.mark.parametrize("name", ["cov_target", "proposal_scale"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_nonfinite_settings(name, value):
    with pytest.raises(ParameterError, match=f"'{name}' must be finite"):
        TmcmcConfig(**{name: value})


class TestTmcmcPriorRecovery:
    def test_constant_likelihood_recovers_prior(self):
        prior = UniformBoxPrior(TABLE_BOX)
        config = TmcmcConfig(particles=1250, runs=4)
        post = tmcmc_sample(prior, flat_loglike, config, seed=11)
        assert post.samples.shape[0] == 5000
        for j in range(4):
            lo, hi = TABLE_BOX[j]
            # With f_c's top edge meeting f_f's bottom edge, the truncated
            # marginals stay uniform for every parameter.
            stat = stats.kstest(post.samples[:, j], stats.uniform(lo, hi - lo).cdf)
            assert stat.pvalue > 0.01

    def test_single_stage_ladder_for_flat_likelihood(self):
        prior = UniformBoxPrior(TABLE_BOX)
        config = TmcmcConfig(particles=200, runs=2)
        post = tmcmc_sample(prior, flat_loglike, config, seed=1)
        for ladder in post.gamma_ladders:
            assert ladder[0] == 0.0
            assert ladder[-1] == 1.0
            assert np.all(np.diff(ladder) > 0.0)


class GaussianBoxPrior(UniformBoxPrior):
    """Truncated-Gaussian prior in the first coordinate for conjugate tests."""

    def __init__(self, bounds, mu, sd):
        super().__init__(np.asarray(bounds))
        self.mu = mu
        self.sd = sd

    def log_density(self, theta):
        theta = np.atleast_2d(theta)
        base = super().log_density(theta)
        return base - 0.5 * ((theta[:, 0] - self.mu) / self.sd) ** 2

    def sample(self, n, rng):
        out = super().sample(n, rng)
        filled = 0
        while filled < n:
            draw = rng.normal(self.mu, self.sd, size=2 * (n - filled))
            draw = draw[(draw > self.bounds[0, 0]) & (draw < self.bounds[0, 1])]
            take = min(draw.size, n - filled)
            out[filled : filled + take, 0] = draw[:take]
            filled += take
        return out


class TestTmcmcConjugateGaussian:
    def test_posterior_matches_closed_form(self):
        # Prior N(0, 1) x likelihood N(y=0.7 | theta, 0.5^2), both well inside
        # a wide box, so truncation is negligible.
        bounds = np.array([[-8.0, 8.0], [-8.0, 8.0]])
        prior = GaussianBoxPrior(bounds, mu=0.0, sd=1.0)
        y, sd_like = 0.7, 0.5
        post_var = 1.0 / (1.0 / 1.0**2 + 1.0 / sd_like**2)
        post_mean = post_var * (y / sd_like**2)

        def loglike(theta):
            theta = np.atleast_2d(theta)
            return -0.5 * ((y - theta[:, 0]) / sd_like) ** 2

        config = TmcmcConfig(particles=2000, runs=4)
        post = tmcmc_sample(prior, loglike, config, seed=21)
        ess = max(float(post.ess[0]), 100.0)
        mean_est = post.samples[:, 0].mean()
        var_est = post.samples[:, 0].var()
        se_mean = np.sqrt(post_var / ess)
        se_var = post_var * np.sqrt(2.0 / ess)
        assert abs(mean_est - post_mean) < 3 * se_mean
        assert abs(var_est - post_var) < 3 * se_var

    def test_diagnostics_pass_paper_gates(self):
        bounds = np.array([[-8.0, 8.0], [-8.0, 8.0]])
        prior = GaussianBoxPrior(bounds, mu=0.0, sd=1.0)

        def loglike(theta):
            theta = np.atleast_2d(theta)
            return -0.5 * (theta[:, 0] - 0.3) ** 2 - 0.5 * (theta[:, 1] / 2.0) ** 2

        post = tmcmc_sample(prior, loglike, TmcmcConfig(), seed=5)
        assert post.passes_gate()
        assert float(post.ess.min()) > 6500.0


class TestSupportLaw:
    def test_no_sample_violates_box_or_constraint(self):
        prior = UniformBoxPrior(TABLE_BOX)

        def loglike(theta):
            theta = np.atleast_2d(theta)
            # Pull toward the f_c < f_f boundary to stress the constraint.
            return -200.0 * (theta[:, 3] - theta[:, 2]) ** 2

        post = tmcmc_sample(prior, loglike, TmcmcConfig(particles=500, runs=2), seed=3)
        s = post.samples
        assert np.all(s >= TABLE_BOX[:, 0])
        assert np.all(s <= TABLE_BOX[:, 1])
        assert np.all(s[:, 2] < s[:, 3])

    def test_reproducibility(self):
        prior = UniformBoxPrior(TABLE_BOX)
        config = TmcmcConfig(particles=300, runs=2)

        def loglike(theta):
            theta = np.atleast_2d(theta)
            return -50.0 * (theta[:, 0] - 0.3) ** 2

        p1 = tmcmc_sample(prior, loglike, config, seed=77)
        p2 = tmcmc_sample(prior, loglike, config, seed=77)
        np.testing.assert_array_equal(p1.samples, p2.samples)
        np.testing.assert_array_equal(p1.log_posterior, p2.log_posterior)


class TestSequentialUpdate:
    def test_flat_second_stage_preserves_first_posterior(self):
        prior = UniformBoxPrior(TABLE_BOX)

        def informative(theta):
            theta = np.atleast_2d(theta)
            return -0.5 * ((theta[:, 0] - 0.32) / 0.05) ** 2

        # Fixed seed: Silverman smoothing in 4D at this sample size sits near
        # the two-sample-KS detectability edge, so the check is seeded.
        config = TmcmcConfig(particles=1250, runs=4, kde_max_centers=4000)
        update1, update2 = update_chain(prior, [informative, flat_loglike], config, seed=31)
        for j in range(4):
            stat = stats.ks_2samp(update1.samples[:, j], update2.samples[:, j])
            assert stat.pvalue > 0.01

    def test_informative_second_stage_contracts(self):
        prior = UniformBoxPrior(TABLE_BOX)

        def like1(theta):
            theta = np.atleast_2d(theta)
            return -0.5 * ((theta[:, 0] - 0.3) / 0.04) ** 2

        def like2(theta):
            theta = np.atleast_2d(theta)
            return -0.5 * ((theta[:, 1] - 0.03) / 0.002) ** 2

        config = TmcmcConfig(particles=1000, runs=4, kde_max_centers=4000)
        update1, update2 = update_chain(prior, [like1, like2], config, seed=13)
        w1 = update1.hpd[:, 1] - update1.hpd[:, 0]
        w2 = update2.hpd[:, 1] - update2.hpd[:, 0]
        assert w2[1] < w1[1]  # second stage pins parameter 2
        assert w2[0] < 1.5 * w1[0]  # and does not blow up the first

    def test_stage_seeds_follow_the_spawn_rule(self):
        # run_sequence's artifacts are reproducible from its one seed because
        # of this rule: stage i samples with the i-th spawned seed, under the
        # bridge of stage i-1 thinned with stage i-1's seed.
        prior = UniformBoxPrior(TABLE_BOX)

        def like(center):
            def loglike(theta):
                theta = np.atleast_2d(theta)
                return -0.5 * ((theta[:, 0] - center) / 0.05) ** 2

            return loglike

        likes = [like(0.25), like(0.3), like(0.35)]
        config = TmcmcConfig(particles=200, runs=2, kde_max_centers=150)
        chain = list(update_chain(prior, likes, config, seed=8))
        assert len(chain) == 3
        current = prior
        for i, seq in enumerate(np.random.SeedSequence(8).spawn(3)):
            seed = int(seq.generate_state(1)[0])
            expected = tmcmc_sample(current, likes[i], TmcmcConfig(particles=200, runs=2), seed)
            np.testing.assert_array_equal(chain[i].samples, expected.samples)
            np.testing.assert_array_equal(chain[i].log_posterior, expected.log_posterior)
            current = bridge_prior(expected.samples, prior, max_centers=150, seed=seed)
        # Stage i's seed does not depend on how many stages follow it, so a
        # one-stage chain reproduces the first stage of a longer one.
        (alone,) = update_chain(prior, likes[:1], config, seed=8)
        np.testing.assert_array_equal(alone.samples, chain[0].samples)
        np.testing.assert_array_equal(alone.log_posterior, chain[0].log_posterior)
