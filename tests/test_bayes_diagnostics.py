import numpy as np
import pytest

from gtncal.bayes.diagnostics import effective_sample_size, map_and_hpd, split_rhat
from gtncal.errors import InsufficientDataError


class TestSplitRhat:
    def test_iid_chains_near_one(self):
        rng = np.random.default_rng(0)
        chains = rng.normal(size=(4, 1000, 2))
        rhat = split_rhat(chains)
        assert np.all(rhat >= 0.99)
        assert np.all(rhat < 1.05)

    def test_offset_chains_flagged(self):
        rng = np.random.default_rng(1)
        c1 = rng.normal(size=(1, 500, 1))
        c2 = rng.normal(loc=5.0, size=(1, 500, 1))
        rhat = split_rhat(np.concatenate([c1, c2], axis=0))
        assert rhat[0] > 1.5

    def test_single_chain_rejected(self):
        with pytest.raises(InsufficientDataError):
            split_rhat(np.zeros((1, 100, 2)))

    def test_within_chain_drift_detected(self):
        # Split halves expose a mean drift even with a single pair of chains.
        rng = np.random.default_rng(2)
        drift = np.linspace(0.0, 6.0, 800)
        chains = rng.normal(size=(2, 800)) + drift
        assert split_rhat(chains[:, :, None])[0] > 1.5


class TestEss:
    def test_iid_near_n(self):
        rng = np.random.default_rng(3)
        chains = rng.normal(size=(1, 4000, 1))
        ess = effective_sample_size(chains)
        assert 0.8 * 4000 <= ess[0] <= 1.2 * 4000

    def test_ar1_matches_theory(self):
        rng = np.random.default_rng(4)
        rho = 0.9
        n = 40000
        x = np.empty(n)
        x[0] = rng.normal()
        noise = rng.normal(size=n) * np.sqrt(1 - rho**2)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + noise[i]
        ess = effective_sample_size(x[None, :, None])[0]
        expected = n * (1 - rho) / (1 + rho)
        assert abs(ess - expected) / expected < 0.3

    def test_constant_chain_zero_with_warning(self):
        with pytest.warns(UserWarning):
            ess = effective_sample_size(np.ones((1, 100, 1)))
        assert ess[0] == 0.0

    def test_short_chain_rejected(self):
        with pytest.raises(InsufficientDataError):
            effective_sample_size(np.zeros((1, 5, 1)))


class TestMapAndHpd:
    def test_standard_normal_hpd(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(100000, 1))
        logp = -0.5 * samples[:, 0] ** 2
        map_point, hpd = map_and_hpd(samples, logp)
        assert abs(map_point[0]) < 0.05
        assert hpd[0, 0] == pytest.approx(-1.96, abs=0.05)
        assert hpd[0, 1] == pytest.approx(1.96, abs=0.05)

    def test_point_mass_zero_width(self):
        samples = np.full((200, 2), 3.5)
        logp = np.zeros(200)
        _, hpd = map_and_hpd(samples, logp)
        assert np.all(hpd[:, 0] == 3.5)
        assert np.all(hpd[:, 1] == 3.5)

    def test_uniform_ties_break_to_earliest(self):
        # Integer-valued grid: all 95% windows tie exactly, earliest wins.
        samples = np.arange(1000, dtype=float)[:, None]
        logp = np.zeros(1000)
        _, hpd = map_and_hpd(samples, logp)
        assert hpd[0, 0] == 0.0
        assert hpd[0, 1] == 949.0

    def test_map_is_argmax_sample(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(500, 3))
        logp = rng.normal(size=500)
        map_point, _ = map_and_hpd(samples, logp)
        np.testing.assert_array_equal(map_point, samples[np.argmax(logp)])

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientDataError):
            map_and_hpd(np.zeros((50, 2)), np.zeros(50))
