import math

import numpy as np
import pytest

from gtncal.bayes.likelihood import ScoreLogLikelihood, SummedLogLikelihood
from gtncal.errors import AlignmentError
from gtncal.features.pca import propagate_noise


def random_orthonormal(p, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return q[:, :k]


class TestPropagateNoise:
    def test_orthonormal_identity_preprocessing(self):
        phi = random_orthonormal(8, 8, 0)
        var = propagate_noise(phi, np.ones(8), 2.5)
        np.testing.assert_allclose(var, 2.5**2, rtol=1e-12)

    def test_diagonal_standardization_closed_form(self):
        phi = random_orthonormal(10, 4, 1)
        s = np.linspace(0.5, 3.0, 10)
        var = propagate_noise(phi, 1.0 / s, 2.0)
        expected = 4.0 * np.sum(phi**2 / s[:, None] ** 2, axis=0)
        np.testing.assert_allclose(var, expected, rtol=1e-12)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(2)
        phi = random_orthonormal(12, 5, 3)
        a = rng.uniform(0.2, 2.0, size=12)
        m = rng.normal(size=(12, 12))
        sigma = m @ m.T
        var = propagate_noise(phi, a, sigma)
        dense = phi.T @ np.diag(a) @ sigma @ np.diag(a).T @ phi
        np.testing.assert_allclose(var, np.diag(dense), rtol=1e-12, atol=1e-12)

    def test_zero_noise_floored_with_warning(self):
        phi = random_orthonormal(6, 3, 4)
        var = propagate_noise(phi, np.ones(6), 0.0)
        with pytest.warns(UserWarning):
            ll = make_likelihood(np.zeros(3), np.zeros(3), np.zeros(3), var)
        assert np.all(ll.noise_variances >= 1e-12)

    def test_dimension_mismatch(self):
        phi = random_orthonormal(6, 3, 5)
        with pytest.raises(AlignmentError):
            propagate_noise(phi, np.ones(5), 1.0)


class FakeBundle:
    """Deterministic stand-in: mean = linear map of theta, fixed variance."""

    def __init__(self, w, b, var):
        self.w = w
        self.b = b
        self.var = var
        self.n_outputs = b.size

    def predict(self, theta):
        theta = np.atleast_2d(theta)
        mean = theta @ self.w.T + self.b
        return mean, np.tile(self.var, (theta.shape[0], 1))


def make_likelihood(y, mu, gp_var, meas_var):
    k = np.size(mu)
    bundle = FakeBundle(np.zeros((k, 4)), np.asarray(mu, dtype=float), np.asarray(gp_var))
    return ScoreLogLikelihood(np.asarray(y, dtype=float), bundle, np.asarray(meas_var))


class TestScoreLogLikelihood:
    def test_single_score_at_mean(self):
        ll = make_likelihood([1.3], [1.3], [0.5], [0.5])
        val = ll(np.zeros((1, 4)))[0]
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_single_score_unit_residual(self):
        ll = make_likelihood([2.0], [1.0], [0.25], [0.75])
        val = ll(np.zeros((1, 4)))[0]
        assert val == pytest.approx(-0.5 - 0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_two_scores_match_bivariate_oracle(self):
        from scipy import stats

        y = np.array([0.4, -1.1])
        mu = np.array([0.1, 0.2])
        v = np.array([0.3, 1.7])
        ll = make_likelihood(y, mu, v * 0.4, v * 0.6)
        val = ll(np.zeros((3, 4)))
        oracle = stats.multivariate_normal(mean=mu, cov=np.diag(v)).logpdf(y)
        np.testing.assert_allclose(val, oracle, rtol=1e-12)

    def test_block_additivity(self):
        y1, mu1, v1 = [0.5], [0.0], [1.2]
        y2, mu2, v2 = [1.5, -0.2], [1.0, 0.0], [0.8, 2.0]
        la = make_likelihood(y1, mu1, [0.0 + 1e-12], v1)
        lb = make_likelihood(y2, mu2, [1e-12, 1e-12], v2)
        combined = make_likelihood(y1 + y2, mu1 + mu2, [1e-12] * 3, v1 + v2)
        theta = np.zeros((5, 4))
        total = SummedLogLikelihood([la, lb])(theta)
        np.testing.assert_allclose(total, combined(theta), atol=1e-12)

    def test_length_mismatch_rejected(self):
        # Observed and noise lengths must match the bundle; a NaN observation
        # is refused the same way.
        for y, meas_var in ([1.0, 2.0], [0.1]), ([1.0], [0.1, 0.1]), ([np.nan], [0.1]):
            with pytest.raises(AlignmentError):
                make_likelihood(y, [0.0], [0.1], meas_var)
