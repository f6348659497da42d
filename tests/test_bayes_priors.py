import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtncal.bayes.priors import (
    KdePrior,
    UniformBoxPrior,
    fit_kde_prior,
    inverse_logit_map,
    logit_map,
)
from gtncal.errors import DomainError, InsufficientDataError, NumericError

TABLE_BOX = np.array([[0.1, 0.5], [0.01, 0.05], [0.01, 0.15], [0.15, 0.35]])


class TestLogitMap:
    def test_midpoint_is_zero(self):
        bounds = np.array([[0.0, 2.0]])
        assert logit_map(np.array([1.0]), bounds)[0] == pytest.approx(0.0, abs=1e-15)

    def test_unit_box_value(self):
        bounds = np.array([[0.0, 1.0]])
        assert logit_map(np.array([0.75]), bounds)[0] == pytest.approx(math.log(3.0), rel=1e-12)

    def test_boundary_rejected(self):
        bounds = np.array([[0.0, 1.0]])
        with pytest.raises(DomainError):
            logit_map(np.array([0.0]), bounds)
        with pytest.raises(DomainError):
            logit_map(np.array([1.0]), bounds)

    @settings(max_examples=100)
    @given(st.floats(min_value=1e-8, max_value=1 - 1e-8))
    def test_roundtrip(self, t):
        bounds = np.array([[0.2, 1.7]])
        theta = np.array([0.2 + t * 1.5])
        back = inverse_logit_map(logit_map(theta, bounds), bounds)
        np.testing.assert_allclose(back, theta, atol=1e-12)

    def test_extreme_z_stays_in_box(self):
        bounds = np.array([[0.0, 1.0]])
        assert 0.0 <= inverse_logit_map(np.array([-900.0]), bounds)[0] <= 1.0
        assert 0.0 <= inverse_logit_map(np.array([900.0]), bounds)[0] <= 1.0


class TestUniformBoxPrior:
    def test_constraint_zeroes_density(self):
        prior = UniformBoxPrior(TABLE_BOX)
        ok = np.array([0.3, 0.03, 0.05, 0.25])
        bad = np.array([0.3, 0.03, 0.14, 0.15])
        bad[2] = 0.16  # f_c above f_f lies outside the f_c box
        viol = np.array([0.3, 0.03, 0.1499, 0.15])
        assert np.isfinite(prior.log_density(ok))[0]
        assert prior.log_density(bad)[0] == -np.inf
        assert prior.log_density(viol)[0] > -np.inf  # 0.1499 < 0.15 is fine

    def test_samples_respect_support(self):
        prior = UniformBoxPrior(TABLE_BOX)
        rng = np.random.default_rng(0)
        draws = prior.sample(5000, rng)
        assert np.all(draws >= TABLE_BOX[:, 0])
        assert np.all(draws <= TABLE_BOX[:, 1])
        assert np.all(draws[:, 2] < draws[:, 3])

    def test_degenerate_box_rejected(self):
        with pytest.raises(DomainError):
            UniformBoxPrior(np.array([[0.1, 0.1]]))


class TestKdePrior:
    def make_uniform_kde(self, m=10000, seed=1, max_centers=None):
        rng = np.random.default_rng(seed)
        prior = UniformBoxPrior(TABLE_BOX)
        samples = prior.sample(m, rng)
        return fit_kde_prior(
            samples, TABLE_BOX, max_centers=max_centers or m, seed=0, bandwidth_scale=1.0
        )

    def test_too_few_samples_refused(self):
        with pytest.raises(InsufficientDataError):
            fit_kde_prior(
                np.tile([0.3, 0.03, 0.05, 0.25], (20, 1)), TABLE_BOX,
                max_centers=20, seed=0, bandwidth_scale=1.0,
            )
        samples = UniformBoxPrior(TABLE_BOX).sample(400, np.random.default_rng(1))
        with pytest.raises(InsufficientDataError):
            fit_kde_prior(samples, TABLE_BOX, max_centers=10, seed=0, bandwidth_scale=1.0)

    def test_degenerate_coordinate_rejected(self):
        rng = np.random.default_rng(2)
        samples = UniformBoxPrior(TABLE_BOX).sample(200, rng)
        samples[:, 1] = 0.03
        with pytest.raises(NumericError):
            fit_kde_prior(samples, TABLE_BOX, max_centers=200, seed=0, bandwidth_scale=1.0)

    def test_boundary_samples_nudged(self):
        rng = np.random.default_rng(3)
        samples = UniformBoxPrior(TABLE_BOX).sample(100, rng)
        samples[0, 0] = TABLE_BOX[0, 0]  # exactly on the bound
        with pytest.warns(UserWarning):
            kde = fit_kde_prior(samples, TABLE_BOX, max_centers=100, seed=0, bandwidth_scale=1.0)
        assert np.isfinite(kde.log_density(samples[1:3])).all()

    def test_zero_outside_support(self):
        kde = self.make_uniform_kde(m=500, seed=4)
        outside = np.array([[0.05, 0.03, 0.05, 0.25]])
        violating = np.array([[0.3, 0.03, 0.149, 0.1501]])
        violating[0, 2] = 0.1502  # f_c > f_f
        assert kde.log_density(outside)[0] == -np.inf
        assert kde.log_density(violating)[0] == -np.inf

    def test_normalization_by_quadrature(self):
        # 2D fixture keeps the tensor-product quadrature cheap and accurate.
        bounds = np.array([[0.0, 1.0], [2.0, 4.0]])
        rng = np.random.default_rng(5)
        z = rng.normal(size=(400, 2)) * 0.8
        samples = np.column_stack(
            [
                bounds[0, 0] + (bounds[0, 1] - bounds[0, 0]) / (1 + np.exp(-z[:, 0])),
                bounds[1, 0] + (bounds[1, 1] - bounds[1, 0]) / (1 + np.exp(-z[:, 1])),
            ]
        )
        kde = fit_kde_prior(samples, bounds, max_centers=400, seed=0, bandwidth_scale=1.0)
        n = 160
        xs = np.linspace(bounds[0, 0] + 1e-9, bounds[0, 1] - 1e-9, n)
        ys = np.linspace(bounds[1, 0] + 1e-9, bounds[1, 1] - 1e-9, n)
        xx, yy = np.meshgrid(xs, ys)
        grid = np.column_stack([xx.ravel(), yy.ravel()])
        dens = np.exp(kde.log_density(grid)).reshape(n, n)
        integral = np.trapezoid(np.trapezoid(dens, ys, axis=0), xs)
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_log_density_matches_brute_force_reference(self):
        # Reference: each center's Gaussian in whitened logit space, reduced
        # with logaddexp, plus the logit Jacobian.  Correlated samples make
        # the whitening non-diagonal; the far-tail probes sit 1e-7 of a span
        # from the bounds, where every kernel underflows in linear space.
        rng = np.random.default_rng(11)
        span = TABLE_BOX[:, 1] - TABLE_BOX[:, 0]
        z = rng.normal(size=(600, 4)) @ np.array(
            [[0.6, 0.3, 0.0, 0.1], [0.0, 0.4, 0.2, 0.0], [0.0, 0.0, 0.5, 0.3], [0.0, 0.0, 0.0, 0.3]]
        )
        samples = TABLE_BOX[:, 0] + span / (1.0 + np.exp(-z))
        kde = fit_kde_prior(samples, TABLE_BOX, max_centers=600, seed=0, bandwidth_scale=0.5)
        near = TABLE_BOX[:, 0] + span / (1.0 + np.exp(-z[:20] - 0.1 * rng.normal(size=(20, 4))))
        interior = np.vstack(
            [near, TABLE_BOX[:, 0] + rng.uniform(0.05, 0.95, size=(20, 4)) * span]
        )
        tail = TABLE_BOX[:, 0] + np.array(
            [[1e-7, 0.5, 0.5, 0.5], [0.5, 1.0 - 1e-7, 0.5, 0.5],
             [1e-7, 1e-7, 1.0 - 1e-7, 1e-7], [0.2, 0.9, 1e-7, 1.0 - 1e-7]]
        ) * span
        probe = np.vstack([interior, tail])
        a, b = TABLE_BOX[:, 0], TABLE_BOX[:, 1]
        zq = np.log((probe - a) / (b - probe))
        d = kde.centers_z.shape[1]
        log_det_w = np.linalg.slogdet(kde.whiten)[1]
        expected = np.empty(probe.shape[0])
        for i, zi in enumerate(zq):
            r = ((zi - kde.centers_z) @ kde.whiten.T) / kde.bandwidths
            log_kernels = (
                -0.5 * np.sum(r * r, axis=1)
                - np.sum(np.log(kde.bandwidths))
                - 0.5 * d * math.log(2.0 * math.pi)
                + log_det_w
            )
            log_jac = np.sum(np.log(b - a) - np.log(probe[i] - a) - np.log(b - probe[i]))
            expected[i] = np.logaddexp.reduce(log_kernels) - math.log(len(r)) + log_jac
        np.testing.assert_allclose(kde.log_density(probe), expected, rtol=1e-12)

    def test_uniform_samples_give_flat_interior_density(self):
        kde = self.make_uniform_kde(m=10000, seed=6)
        rng = np.random.default_rng(7)
        span = TABLE_BOX[:, 1] - TABLE_BOX[:, 0]
        lo = TABLE_BOX[:, 0] + 0.05 * span
        hi = TABLE_BOX[:, 1] - 0.05 * span
        probe = lo + rng.uniform(size=(400, 4)) * (hi - lo)
        probe = probe[probe[:, 2] < probe[:, 3]]
        dens = np.exp(kde.log_density(probe))
        assert dens.max() / dens.min() < 3.0

    def test_thinning_bounds_center_count(self):
        kde = self.make_uniform_kde(m=5000, seed=8, max_centers=512)
        assert kde.centers_z.shape[0] == 512

    def test_sampling_respects_support(self):
        kde = self.make_uniform_kde(m=400, seed=9)
        rng = np.random.default_rng(10)
        draws = kde.sample(2000, rng)
        assert np.all(draws > TABLE_BOX[:, 0])
        assert np.all(draws < TABLE_BOX[:, 1])
        assert np.all(draws[:, 2] < draws[:, 3])


def single_block_log_density(kde: KdePrior, theta: np.ndarray) -> np.ndarray:
    """``KdePrior.log_density`` with every row in one (rows x centers) block,
    the form it had before row blocking: the bit-for-bit reference."""
    a, b = kde.bounds[:, 0], kde.bounds[:, 1]
    inside = np.all((theta > a) & (theta < b), axis=1) & (theta[:, 2] < theta[:, 3])
    out = np.full(theta.shape[0], -np.inf)
    th = theta[inside]
    z = np.log((th - a) / (b - th))
    u = ((z - kde._z_mean) @ kde.whiten.T) / kde.bandwidths
    log_k = np.column_stack([u, np.ones(u.shape[0])]) @ kde._centers_aug_t
    row_max = log_k.max(axis=1)
    log_k -= row_max[:, None]
    np.exp(log_k, out=log_k)
    log_kde = np.log(log_k.sum(axis=1)) + row_max - 0.5 * (u * u).sum(axis=1) + kde._log_norm
    log_jac = np.sum(np.log(b - a) - np.log(th - a) - np.log(b - th), axis=1)
    out[inside] = log_kde + log_jac
    return out


class TestKdeRowBlocks:
    """``log_density`` sums the kernels over blocks of 2**17 // centers rows.

    The center counts are those of the shipped profiles' bridges (1000 and
    2000).  The row counts are those that reach the kernel sum; rows outside
    the box and rows with f_c >= f_f are mixed in on top of them.
    """

    @staticmethod
    def bridge_like_kde(m: int) -> KdePrior:
        rng = np.random.default_rng(m)
        span = TABLE_BOX[:, 1] - TABLE_BOX[:, 0]
        z = rng.normal(size=(m, 4)) @ np.array(
            [[0.6, 0.3, 0.0, 0.1], [0.0, 0.4, 0.2, 0.0], [0.0, 0.0, 0.5, 0.3], [0.0, 0.0, 0.0, 0.3]]
        )
        samples = TABLE_BOX[:, 0] + span / (1.0 + np.exp(-z))
        return fit_kde_prior(samples, TABLE_BOX, max_centers=m, seed=0, bandwidth_scale=0.5)

    @staticmethod
    def probe(kde: KdePrior, rows: int, seed: int) -> np.ndarray:
        """``rows`` supported rows, shuffled with rows outside the box and rows
        that violate f_c < f_f."""
        rng = np.random.default_rng(seed)
        draws = kde.sample(rows, rng)
        n_bad = rows // 3 + 2
        outside = draws[rng.integers(0, rows, size=n_bad)].copy()
        outside[:, 0] = TABLE_BOX[0, 1] + 0.01
        violating = draws[rng.integers(0, rows, size=n_bad)].copy()
        violating[:, 2] = violating[:, 3] + 0.001
        theta = np.vstack([draws, outside, violating])
        return theta[rng.permutation(theta.shape[0])]

    @pytest.mark.parametrize("m", [1000, 2000])
    def test_blocked_density_is_the_single_block_density(self, m):
        kde = self.bridge_like_kde(m)
        block = 2**17 // m
        # k * block + 1 leaves one row over after whole blocks; a row computed
        # alone changes the density of about one row in six, so these cases
        # run on several draws.
        cases = [(rows, 0) for rows in (1, block - 1, block, block + 1, 3 * block + 7)]
        cases += [(k * block + 1, seed) for k in (1, 2, 3) for seed in range(1, 9)]
        for rows, seed in cases:
            theta = self.probe(kde, rows, seed=100 * rows + seed)
            got = kde.log_density(theta)
            assert np.count_nonzero(np.isfinite(got)) == rows
            assert got.tobytes() == single_block_log_density(kde, theta).tobytes()
            # One call per block of supported rows gives the same bits.  A
            # lone last row joins the block before it, as in log_density: a
            # one-row product goes to GEMV, which rounds differently.
            inside = theta[np.isfinite(got)]
            starts = list(range(0, max(rows - 1, 1), block))
            pieces = [kde.log_density(inside[lo:hi])
                      for lo, hi in zip(starts, [*starts[1:], rows])]
            assert np.concatenate(pieces).tobytes() == got[np.isfinite(got)].tobytes()

    def test_working_memory_does_not_grow_with_rows(self):
        # One call at 2000 rows x 2000 centers, the default T-MCMC profile's
        # bridge: the single (rows x centers) block alone was 32 MB.
        kde = self.bridge_like_kde(2000)
        theta = kde.sample(2000, np.random.default_rng(3))
        kde.log_density(theta)
        tracemalloc.start()
        try:
            kde.log_density(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6
