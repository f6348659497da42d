import math
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from gtncal.emulator.bundle import SurrogateBundle, load_bundle, save_bundle, train_bundle
from gtncal.emulator.gp import (
    TrainedGp,
    _se_kernel,
    _sq_diffs,
    log_marginal_likelihood,
    optimize_hyperparams,
)
from gtncal.emulator.kernel import ArdHyperparams, HyperparamBounds, kernel_cross
from gtncal.errors import AlignmentError, InsufficientDataError, ParameterError

H_ISO = ArdHyperparams(signal_variance=1.0, length_scales=(1.0, 1.0, 1.0, 1.0), noise_variance=1e-6)
# Two short length-scales: most of K_se underflows, much of it to subnormals.
H_SHORT = ArdHyperparams(
    signal_variance=1.0, length_scales=(0.005, 0.006, 1.0, 1.0), noise_variance=1e-6
)


def random_hyperparams(rng, d=4):
    return ArdHyperparams(
        signal_variance=float(rng.uniform(0.1, 5.0)),
        length_scales=tuple(rng.uniform(0.2, 3.0, size=d)),
        noise_variance=float(rng.uniform(1e-6, 1e-2)),
    )


def training_covariance(h, x):
    """K(X, X) + noise_variance * I, as ``TrainedGp.from_hyperparams`` builds it."""
    return kernel_cross(h, x, x) + h.noise_variance * np.eye(len(x))


def log_vector(h):
    """The optimizer's log-space vector: signal variance, length scales, noise."""
    return np.log([h.signal_variance, *h.length_scales, h.noise_variance])


class TestKernel:
    def test_same_point_includes_nugget(self):
        # With K = 1 + 1e-6 at its one training point, the predictive
        # variance there is 1 + 1e-6 - 1 / (1 + 1e-6); without the nugget in
        # K it would be 1e-6.
        x = np.array([[0.1, 0.2, 0.3, 0.4]])
        _, var = TrainedGp.from_hyperparams(x, np.array([0.7]), H_ISO).predict(x)
        assert var[0] == pytest.approx(1.0 + 1e-6 - 1.0 / (1.0 + 1e-6), rel=1e-6)

    def test_distance_decay(self):
        x = np.zeros((1, 4))
        far = np.array([[50.0, 0.0, 0.0, 0.0]])
        k = kernel_cross(H_ISO, x, far)[0, 0]
        assert k < 1e-200 or k == 0.0

    def test_unit_offset_value(self):
        h = ArdHyperparams(1.0, (1.0, 1.0, 1.0, 1.0), 1e-8)
        x = np.zeros((1, 4))
        x2 = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert kernel_cross(h, x, x2)[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_matrix_psd_for_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            h = random_hyperparams(rng)
            x = rng.uniform(size=(rng.integers(5, 20), 4))
            k = training_covariance(h, x)
            min_eig = np.linalg.eigvalsh(k).min()
            assert min_eig > 0.0

    def test_matrix_is_the_broadcast_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            h = random_hyperparams(rng, d)
            x = rng.uniform(size=(int(rng.integers(1, 301)), d))
            z = rng.uniform(size=(int(rng.integers(1, 301)), d))
            ls = np.asarray(h.length_scales)
            # The (n, n, d) broadcast that _sq_dists replaced, summed over d.
            r2 = np.sum(((x[:, None, :] - x[None, :, :]) / ls) ** 2, axis=2)
            k_ref = h.signal_variance * np.exp(-0.5 * r2)
            r2_cross = np.sum(((x[:, None, :] - z[None, :, :]) / ls) ** 2, axis=2)
            ks_ref = h.signal_variance * np.exp(-0.5 * r2_cross)
            assert kernel_cross(h, x, x).tobytes() == k_ref.tobytes()
            assert kernel_cross(h, x, z).tobytes() == ks_ref.tobytes()

    def test_matrix_working_memory_is_a_few_n_by_n_arrays(self):
        # n = 298, d = 4 is a default bundle's GP: one (n, n) array is 0.71 MB
        # and the (n, n, d) broadcast 2.8 MB.
        rng = np.random.default_rng(14)
        h = random_hyperparams(rng)
        x = rng.uniform(size=(298, 4))
        kernel_cross(h, x, x)
        tracemalloc.start()
        try:
            kernel_cross(h, x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_invalid_hyperparams_rejected(self):
        with pytest.raises(ParameterError):
            ArdHyperparams(-1.0, (1.0,), 1e-6)
        with pytest.raises(ParameterError):
            ArdHyperparams(1.0, (0.0,), 1e-6)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((math.nan, (1.0,), 1e-6), "signal_variance"),
            ((math.inf, (1.0,), 1e-6), "signal_variance"),
            ((1.0, (1.0,), math.inf), "noise_variance"),
            ((1.0, (1.0, math.nan), 1e-6), r"length_scales\[1\]"),
        ],
        ids=["nan-signal", "inf-signal", "inf-noise", "nan-length-scale"],
    )
    def test_nonfinite_hyperparams_rejected(self, args, name):
        with pytest.raises(ParameterError, match=f"'{name}' must be finite"):
            ArdHyperparams(*args)

    def test_log_roundtrip(self):
        rng = np.random.default_rng(12)
        h = random_hyperparams(rng)
        back = ArdHyperparams.from_log_vector(log_vector(h))
        assert back.signal_variance == pytest.approx(h.signal_variance, rel=1e-12)
        assert back.noise_variance == pytest.approx(h.noise_variance, rel=1e-12)


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        # n=1: -0.5 y^2 / v - 0.5 log(2 pi v) with v = sf2 + sn2
        h = ArdHyperparams(2.0, (1.0,), 0.5)
        x = np.array([[0.3]])
        y = np.array([1.7])
        v = 2.5
        expected = -0.5 * y[0] ** 2 / v - 0.5 * math.log(2 * math.pi * v)
        lml, _ = log_marginal_likelihood(_sq_diffs(x), y, h)
        assert lml == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(8, 16))
            x = rng.uniform(size=(n, 4))
            y = rng.normal(size=n)
            h = random_hyperparams(rng)
            v0 = log_vector(h)
            s = _sq_diffs(x)
            _, grad = log_marginal_likelihood(s, y, h)
            fd = np.empty_like(grad)
            eps = 1e-5
            for i in range(v0.size):
                vp, vm = v0.copy(), v0.copy()
                vp[i] += eps
                vm[i] -= eps
                lp, _ = log_marginal_likelihood(s, y, ArdHyperparams.from_log_vector(vp))
                lm, _ = log_marginal_likelihood(s, y, ArdHyperparams.from_log_vector(vm))
                fd[i] = (lp - lm) / (2 * eps)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, rel)
        assert worst < 1e-4

    @pytest.mark.parametrize("n", [150, 300])
    def test_matches_dense_reference(self, n):
        # Both the kernel and a dense float64 reference (K from
        # kernel_cross plus the nugget, per-dimension gradient terms, K^-1 from a Cholesky
        # solve against the identity) must lie within rtol 1e-9 of an
        # 80-bit long-double oracle, on the LML and on the gradient norm.
        # The oracle keeps every K_se entry, so H_SHORT checks the kernel's
        # floor on small entries against the unfloored formulas.
        def reference(x, y, h):
            k = training_covariance(h, x)
            low = linalg.cholesky(k, lower=True)
            alpha = linalg.cho_solve((low, True), y)
            lml = (
                -0.5 * y @ alpha
                - np.sum(np.log(np.diag(low)))
                - 0.5 * y.size * math.log(2 * math.pi)
            )
            w = np.outer(alpha, alpha) - linalg.cho_solve((low, True), np.eye(y.size))
            k_se = k - h.noise_variance * np.eye(y.size)
            grad = [0.5 * np.sum(w * k_se)]
            for i, l_i in enumerate(h.length_scales):
                d2 = (x[:, None, i] - x[None, :, i]) ** 2 / l_i**2
                grad.append(0.5 * np.sum(w * (k_se * d2)))
            grad.append(0.5 * h.noise_variance * np.trace(w))
            return lml, np.array(grad)

        def oracle(x, y, h):
            # Cholesky, forward substitution and K^-1 = L^-T L^-1 written out
            # in np.longdouble (80-bit on x86), independent of LAPACK.
            ld = np.longdouble
            x, y, n = x.astype(ld), y.astype(ld), y.size
            d2 = (x.T[:, :, None] - x.T[:, None, :]) ** 2
            d2 /= np.square(np.array(h.length_scales, dtype=ld))[:, None, None]
            k_se = ld(h.signal_variance) * np.exp(-0.5 * d2.sum(axis=0))
            k = k_se + ld(h.noise_variance) * np.eye(n, dtype=ld)
            low = np.zeros((n, n), dtype=ld)
            for j in range(n):
                low[j, j] = np.sqrt(k[j, j] - low[j, :j] @ low[j, :j])
                low[j + 1 :, j] = (k[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
            low_inv = np.zeros((n, n), dtype=ld)
            eye = np.eye(n, dtype=ld)
            for j in range(n):
                low_inv[j] = (eye[j] - low[j, :j] @ low_inv[:j]) / low[j, j]
            k_inv = low_inv.T @ low_inv
            alpha = k_inv @ y
            log_2pi = np.log(2 * np.pi, dtype=ld)
            lml = -0.5 * y @ alpha - np.sum(np.log(np.diag(low))) - 0.5 * n * log_2pi
            w = np.outer(alpha, alpha) - k_inv
            grad = [0.5 * np.sum(w * k_se)]
            grad += [0.5 * np.sum(w * k_se * d2_i) for d2_i in d2]
            grad.append(ld(h.noise_variance) * 0.5 * np.trace(w))
            return float(lml), np.array(grad, dtype=float)

        rng = np.random.default_rng(17)
        x = rng.uniform(size=(n, 4))
        y = np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.normal(size=n)
        for h in [random_hyperparams(rng) for _ in range(5)] + [H_SHORT]:
            ora_lml, ora_grad = oracle(x, y, h)
            for lml, grad in (log_marginal_likelihood(_sq_diffs(x), y, h), reference(x, y, h)):
                assert lml == pytest.approx(ora_lml, rel=1e-9)
                assert np.linalg.norm(grad - ora_grad) <= 1e-9 * np.linalg.norm(ora_grad)

    def test_short_length_scales_leave_no_subnormals(self):
        # Subnormal operands cost a microcode assist each on x86; the floor
        # in _se_kernel keeps them out of K and of its Cholesky factor.
        def subnormals(a):
            return np.count_nonzero((a != 0.0) & (np.abs(a) < np.finfo(float).tiny))

        n = 150
        x = np.random.default_rng(17).uniform(size=(n, 4))
        assert subnormals(kernel_cross(H_SHORT, x, x)) > 0
        k = _se_kernel(H_SHORT, _sq_diffs(x), n) + H_SHORT.noise_variance * np.eye(n)
        assert subnormals(k) == 0
        assert subnormals(linalg.cholesky(k, lower=True)) == 0

    def test_duplicate_training_point_keeps_mean(self):
        # At the noise floor the GP interpolates, so duplicating a point
        # (with the same target) leaves the mean there essentially unchanged.
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(10, 4))
        y = rng.normal(size=10)
        h = ArdHyperparams(1.0, (0.5, 0.5, 0.5, 0.5), 1e-8)
        gp1 = TrainedGp.from_hyperparams(x, y, h)
        x2 = np.vstack([x, x[3]])
        y2 = np.append(y, y[3])
        gp2 = TrainedGp.from_hyperparams(x2, y2, h)
        m1, _ = gp1.predict(x[3])
        m2, _ = gp2.predict(x[3])
        assert abs(m1[0] - m2[0]) < 1e-6


class TestPredict:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(size=(20, 4))
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]
        h = ArdHyperparams(1.0, (0.7, 0.7, 0.7, 0.7), 1e-8)
        gp = TrainedGp.from_hyperparams(x, y, h)
        mean, var = gp.predict(x)
        spread = y.max() - y.min()
        assert np.max(np.abs(mean - y)) / spread < 1e-5
        assert np.all(var >= 0.0)
        assert np.all(var <= 1.0 + 1e-8 + 1e-8)

    def test_prior_reversion_far_away(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(size=(12, 4))
        y = rng.normal(loc=2.0, size=12)
        h = ArdHyperparams(1.5, (0.3, 0.3, 0.3, 0.3), 1e-6)
        gp = TrainedGp.from_hyperparams(x, y, h)
        far = np.full((1, 4), 50.0)
        mean, var = gp.predict(far)
        assert mean[0] == pytest.approx(gp.y_mean, abs=1e-9)
        assert var[0] == pytest.approx(1.5 + 1e-6, rel=1e-9)

    def test_two_point_closed_form_posterior(self):
        # Hand-computed 2x2 GP posterior at a query point.
        h = ArdHyperparams(1.0, (1.0,), 0.1)
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, -1.0])
        xq = np.array([[0.5]])
        k01 = math.exp(-0.5)
        kq = np.array([math.exp(-0.5 * 0.25), math.exp(-0.5 * 0.25)])
        kmat = np.array([[1.1, k01], [k01, 1.1]])
        y_mean = 0.0  # y already zero-mean
        alpha = np.linalg.solve(kmat, y - y_mean)
        mu_exp = kq @ alpha + y_mean
        var_exp = 1.0 + 0.1 - kq @ np.linalg.solve(kmat, kq)
        gp = TrainedGp.from_hyperparams(x, y, h)
        mean, var = gp.predict(xq)
        assert mean[0] == pytest.approx(mu_exp, abs=1e-10)
        assert var[0] == pytest.approx(var_exp, abs=1e-10)


class TestOptimizeHyperparams:
    def test_needs_enough_points(self):
        with pytest.raises(InsufficientDataError):
            optimize_hyperparams(np.zeros((4, 4)), np.zeros(4), HyperparamBounds(), seed=0)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(size=(25, 4))
        y = np.sin(4 * x[:, 0]) + 0.1 * rng.normal(size=25)
        h1 = optimize_hyperparams(x, y, HyperparamBounds(), seed=5)
        h2 = optimize_hyperparams(x, y, HyperparamBounds(), seed=5)
        assert h1 == h2

    def test_optimum_matches_recorded_parent(self):
        # Log-hyperparameters and optimum LML recorded from the kernel that
        # formed K^-1 with a Cholesky solve against the identity, before the
        # dpotri kernel replaced it.  The 4th length scale sits on its upper
        # bound, log(100).
        rng = np.random.default_rng(23)
        x = rng.uniform(size=(150, 4))
        y = (
            np.sin(5.0 * x[:, 0])
            + 0.5 * np.cos(3.0 * x[:, 1])
            + 0.2 * x[:, 2]
            + 0.01 * rng.normal(size=150)
        )
        y -= y.mean()
        recorded_v = [
            0.7819804793317464,
            -0.7136591284673941,
            -0.10098395878412571,
            2.6317006204512814,
            4.605170185988092,
            -9.330177694268434,
        ]
        recorded_lml = 398.6416831660473
        h = optimize_hyperparams(x, y, HyperparamBounds(), seed=4)
        np.testing.assert_allclose(log_vector(h), recorded_v, rtol=0.0, atol=1e-4)
        lml, _ = log_marginal_likelihood(_sq_diffs(x), y, h)
        assert lml == pytest.approx(recorded_lml, rel=1e-9)

    def test_ard_relevance_detection(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(size=(60, 4))
        y = np.sin(6.0 * x[:, 0])
        h = optimize_hyperparams(x, y, HyperparamBounds(), seed=3)
        active = h.length_scales[0]
        others = h.length_scales[1:]
        assert all(active < o for o in others)

    def test_pure_noise_absorbed(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(size=(40, 4))
        y = 0.05 * rng.normal(size=40)
        h = optimize_hyperparams(x, y, HyperparamBounds(), seed=7)
        gp = TrainedGp.from_hyperparams(x, y, h)
        grid = rng.uniform(size=(50, 4))
        mean, _ = gp.predict(grid)
        assert np.max(np.abs(mean)) < 0.1


class TestBundle:
    def box(self):
        return np.array([[0.1, 0.5], [0.01, 0.05], [0.01, 0.15], [0.15, 0.35]])

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            train_bundle(
                "FD",
                np.zeros((10, 4)),
                np.zeros((10, 3)),
                self.box(),
                ["a", "b"],
                bounds=HyperparamBounds(),
                seed=0,
                train_indices=None,
                test_indices=None,
            )

    def test_train_predict_roundtrip_and_persistence(self, tmp_path):
        rng = np.random.default_rng(20)
        box = self.box()
        theta = box[:, 0] + rng.uniform(size=(30, 4)) * (box[:, 1] - box[:, 0])
        scores = np.column_stack(
            [
                np.sin(8 * theta[:, 0]) + theta[:, 2],
                np.cos(20 * theta[:, 1]),
            ]
        )
        bundle = train_bundle(
            "FD", theta, scores, box, ["a1", "a2"], bounds=HyperparamBounds(), seed=1,
            train_indices=np.arange(30), test_indices=np.arange(0),
        )
        mean, var = bundle.predict(theta)
        spread = scores.max(axis=0) - scores.min(axis=0)
        assert np.max(np.abs(mean - scores) / spread) < 1e-3
        assert np.all(var >= 0.0)

        save_bundle(tmp_path / "b", bundle)
        again = load_bundle(tmp_path / "b")
        m2, v2 = again.predict(theta)
        np.testing.assert_allclose(m2, mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(v2, var, rtol=1e-8, atol=1e-14)

    def test_bundle_matches_dense_reference(self):
        # Reference: the GP posterior from dense kernel matrices and a plain
        # LU solve, for two GPs with different ARD hyperparameters.
        rng = np.random.default_rng(21)
        box = self.box()
        span = box[:, 1] - box[:, 0]
        n = 240
        theta = box[:, 0] + rng.uniform(size=(n, 4)) * span
        scores = np.column_stack(
            [5.0 + np.sin(6.0 * (theta[:, 0] - box[0, 0]) / span[0]) + theta[:, 3],
             -3.0 + ((theta[:, 1] - box[1, 0]) / span[1]) ** 2]
        )
        hps = [
            ArdHyperparams(1.3, (0.4, 0.9, 2.0, 0.6), 1e-2),
            ArdHyperparams(0.7, (1.5, 0.3, 0.8, 3.0), 3e-3),
        ]
        x = (theta - box[:, 0]) / span
        bundle = SurrogateBundle(
            modality="FIELD",
            box=box,
            gps=[TrainedGp.from_hyperparams(x, scores[:, j], h) for j, h in enumerate(hps)],
            output_names=["b1", "b2"],
            seed=0,
            train_indices=None,
            test_indices=None,
        )
        near = theta[:20] + 1e-6 * span * rng.uniform(-1.0, 1.0, size=(20, 4))
        fresh = box[:, 0] + rng.uniform(size=(20, 4)) * span
        q = np.vstack([theta[:20], near, fresh])
        mean, var = bundle.predict(q)
        xq = bundle.scale_inputs(q)
        for j, (gp, h) in enumerate(zip(bundle.gps, hps)):
            k = training_covariance(h, x)
            ks = kernel_cross(h, xq, x)
            y = scores[:, j]
            m_ref = ks @ np.linalg.solve(k, y - y.mean()) + y.mean()
            v_ref = (
                h.signal_variance
                + h.noise_variance
                - np.sum(ks * np.linalg.solve(k, ks.T).T, axis=1)
            )
            np.testing.assert_allclose(mean[:, j], m_ref, rtol=1e-12)
            np.testing.assert_allclose(var[:, j], v_ref, rtol=1e-9, atol=1e-12)

    def test_serialized_determinism(self, tmp_path):
        rng = np.random.default_rng(22)
        box = self.box()
        theta = box[:, 0] + rng.uniform(size=(20, 4)) * (box[:, 1] - box[:, 0])
        scores = theta[:, :1] * 3.0
        kwargs = dict(bounds=HyperparamBounds(), seed=9,
                      train_indices=np.arange(20), test_indices=np.arange(0))
        b1 = train_bundle("FD", theta, scores, box, ["a1"], **kwargs)
        b2 = train_bundle("FD", theta, scores, box, ["a1"], **kwargs)
        save_bundle(tmp_path / "x1", b1)
        save_bundle(tmp_path / "x2", b2)
        assert (tmp_path / "x1" / "bundle.json").read_bytes() == (
            tmp_path / "x2" / "bundle.json"
        ).read_bytes()
        assert (tmp_path / "x1" / "inputs.csv").read_bytes() == (
            tmp_path / "x2" / "inputs.csv"
        ).read_bytes()
