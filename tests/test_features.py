import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtncal.errors import (
    AlignmentError,
    CurveFormatError,
    InsufficientDataError,
    NoYieldError,
    SegmentationError,
)
from gtncal.features.curves import (
    _fit_elastic_slope,
    curve_nmae,
    locate_yield_point,
    resample_segment,
)
from gtncal.features.fields import (
    field_nmae,
    field_scaling_factors,
    flatten_field,
    unflatten_field,
)
from gtncal.features.pca import pca_fit, pca_project_vector, pca_reconstruct_vector
from gtncal.features.pipelines import FdFeaturePipeline, FieldFeaturePipeline
from gtncal.features.standardize import STD_FLOOR, Standardizer
from gtncal.pipeline import dataset
from gtncal.simulator import CurveSegment, StrainSnapshot


def make_curve(d, f):
    return CurveSegment(np.asarray(d, dtype=float), np.asarray(f, dtype=float))


def bilinear_curve(k=100.0, knee=1.0, ratio=0.1, d_end=2.0, step=0.005):
    d = np.arange(0.0, d_end + step / 2, step)
    f = np.where(d <= knee, k * d, k * knee + ratio * k * (d - knee))
    return make_curve(d, f)


class TestLocateYieldPoint:
    def test_linear_curve_has_no_yield(self):
        d = np.linspace(0.0, 2.0, 100)
        with pytest.raises(NoYieldError):
            locate_yield_point(make_curve(d, 50.0 * d))

    def test_bilinear_analytic_intersection(self):
        # Slope k then k/10 beyond d=1: the 0.95 k line meets the second leg
        # where k(1 + (d-1)/10) = 0.95 k d, i.e. d = 18/17.
        yp = locate_yield_point(bilinear_curve())
        assert _fit_elastic_slope(bilinear_curve()) == pytest.approx(100.0, rel=1e-12)
        assert yp.d_y == pytest.approx(18.0 / 17.0, rel=1e-12)

    def test_force_scaling_leaves_dy_unchanged(self):
        c1 = bilinear_curve()
        c2 = make_curve(c1.displacements, 2.0 * c1.forces)
        assert locate_yield_point(c1).d_y == pytest.approx(
            locate_yield_point(c2).d_y, rel=1e-12
        )

    def test_too_few_points_rejected(self):
        d = np.linspace(0.0, 1.0, 5)
        with pytest.raises(CurveFormatError):
            locate_yield_point(make_curve(d, 10 * d))

    def test_nonlinear_start_rejected(self):
        d = np.linspace(0.0, 2.0, 400)
        f = 100.0 * np.sqrt(d)
        with pytest.raises(CurveFormatError):
            locate_yield_point(make_curve(d, f))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_affine_invariance_property(self, c):
        base = bilinear_curve()
        scaled = make_curve(base.displacements, c * base.forces)
        assert locate_yield_point(scaled).d_y == pytest.approx(
            locate_yield_point(base).d_y, rel=1e-10
        )


class TestResampleSegment:
    def test_endpoints_match(self):
        curve = bilinear_curve()
        yp = locate_yield_point(curve)
        forces = resample_segment(curve, yp, 50)
        assert forces[0] == pytest.approx(yp.f_y, rel=1e-12)
        assert forces[-1] == pytest.approx(curve.forces[-1], rel=1e-12)

    def test_linear_ramp_gives_arithmetic_progression(self):
        curve = bilinear_curve()
        yp = locate_yield_point(curve)
        forces = resample_segment(curve, yp, 20)
        diffs = np.diff(forces)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)

    def test_degenerate_segment_rejected(self):
        curve = bilinear_curve()
        yp = locate_yield_point(curve)
        keep = curve.displacements <= yp.d_y
        bad = make_curve(curve.displacements[keep], curve.forces[keep])
        with pytest.raises(SegmentationError):
            resample_segment(bad, yp, 200)

    def test_refinement_improves_reconstruction(self):
        d = np.linspace(0.0, 2.0, 2000)
        f = np.where(d <= 0.5, 100 * d, 50 + 20 * np.sin(3 * (d - 0.5)) + 5 * (d - 0.5))
        curve = make_curve(d, f)
        yp = locate_yield_point(curve)
        errs = []
        for n in (25, 50, 100, 200):
            stations = yp.d_y + np.linspace(0, 1, n) * (curve.failure_displacement - yp.d_y)
            coarse = resample_segment(curve, yp, n)
            dense_d = np.linspace(yp.d_y, curve.failure_displacement, 1500)
            dense_interp = np.interp(dense_d, stations, coarse)
            dense_true = np.interp(dense_d, d, f)
            errs.append(np.max(np.abs(dense_interp - dense_true)))
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestStandardizer:
    def test_two_row_population_convention(self):
        s = Standardizer.fit(np.array([[0.0], [2.0]]))
        assert s.mean[0] == 1.0
        assert s.std[0] == 1.0  # divide-by-N convention
        np.testing.assert_allclose(s.apply(np.array([[0.0], [2.0]])), [[-1.0], [1.0]])

    def test_constant_column_flagged_and_floored(self):
        with pytest.warns(UserWarning, match="^1 constant column"):
            s = Standardizer.fit(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]))
        assert s.std[0] == STD_FLOOR < s.std[1]
        z = s.apply(np.array([[3.0, 2.0]]))
        assert z[0, 0] == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(5.0, 3.0, size=(40, 7))
        s = Standardizer.fit(x)
        np.testing.assert_allclose(s.invert(s.apply(x)), x, atol=1e-10)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            Standardizer.fit(np.ones((1, 3)))


class TestPca:
    def test_identical_rows_rejected(self):
        with pytest.raises(InsufficientDataError, match="total variance is zero"):
            pca_fit(np.tile([1.0, 2.0, 3.0], (5, 1)), 0.99)

    def test_line_data_gives_one_component(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=300)
        pts = np.column_stack([t, 2 * t]) + rng.normal(scale=1e-8, size=(300, 2))
        basis = pca_fit(pts, 0.99)
        assert basis.k == 1
        np.testing.assert_allclose(
            np.abs(basis.components[:, 0]), np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-6
        )
        assert basis.components[1, 0] > 0  # sign convention

    def test_threshold_one_full_rank(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 6))
        basis = pca_fit(x, 1.0)
        assert basis.k == 6

    def test_threshold_one_keeps_tiny_variance_directions(self):
        # Singular values 1 ... 1e-8: the smallest directions hold a variance
        # share near 1e-16, far below 1e-12, yet lie well above the 1e-12 * s_0
        # numerically-zero cut, so threshold 1.0 must keep all of them.
        rng = np.random.default_rng(7)
        n, d = 40, 12
        q1, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, d))]))
        q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        z = q1[:, 1:] @ np.diag(np.logspace(0.0, -8.0, d)) @ q2.T  # zero column mean
        basis = pca_fit(z, 1.0)
        assert basis.k == d
        rec = pca_reconstruct_vector(basis, pca_project_vector(basis, z))
        assert np.max(np.abs(rec - z)) < 1e-10
        # The first two directions hold 99.88% of the variance, the first 96.5%.
        assert pca_fit(z, 0.99).k == 2

    def test_orthonormality_and_variance_accounting(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 12)) @ np.diag(np.linspace(3, 0.1, 12))
        basis = pca_fit(x, 0.95)
        gram = basis.components.T @ basis.components
        assert np.max(np.abs(gram - np.eye(basis.k))) < 1e-10
        centered = x - x.mean(axis=0)
        kept = np.sum((centered @ basis.components) ** 2) / np.sum(centered**2)
        assert basis.retained_variance() == pytest.approx(kept, abs=1e-10)
        assert basis.retained_variance() >= 0.95

    def test_projecting_mean_gives_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 9))
        basis = pca_fit(x, 0.99)
        scores = pca_project_vector(basis, x.mean(axis=0))
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)

    def test_roundtrip_in_span(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 9))
        basis = pca_fit(x, 1.0)
        row = x[3]
        rec = pca_reconstruct_vector(basis, pca_project_vector(basis, row))
        np.testing.assert_allclose(rec, row, atol=1e-8)

    def test_nonfinite_rejected(self):
        x = np.ones((5, 3))
        x[2, 1] = np.nan
        with pytest.raises(Exception):
            pca_fit(x, 0.99)


class TestCurveNmae:
    def test_identical_is_zero(self):
        v = np.linspace(1, 5, 17)
        assert curve_nmae(v, v, 10.0) == 0.0

    def test_constant_offset_closed_form(self):
        v = np.linspace(1, 5, 17)
        assert curve_nmae(v, v + 0.5, 25.0) == pytest.approx(100 * 0.5 / 25.0, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(CurveFormatError):
            curve_nmae(np.ones(3), np.ones(4), 1.0)


def make_snapshot(e11, e12, e22, mask):
    ny, nx = mask.shape
    y, x = np.mgrid[0:ny, 0:nx].astype(float)
    return StrainSnapshot(x=x, y=y, mask=mask, e11=e11, e12=e12, e22=e22)


class TestFields:
    MASK = np.array([[True, True], [True, False]])

    def test_zero_field_gives_zero_vector(self):
        z = np.zeros((2, 2))
        snap = make_snapshot(z, z, z, self.MASK)
        assert np.all(flatten_field(snap, self.MASK, 1.87, 2.79) == 0.0)

    def test_unit_shear_scaled(self):
        z = np.zeros((2, 2))
        snap = make_snapshot(z, np.ones((2, 2)), z, self.MASK)
        vec = flatten_field(snap, self.MASK, scale_e11=1.87, scale_e12=2.79)
        p = int(self.MASK.sum())
        np.testing.assert_allclose(vec[p : 2 * p], 2.79)

    def test_flatten_roundtrip(self):
        rng = np.random.default_rng(7)
        fields = [rng.normal(size=(2, 2)) for _ in range(3)]
        snap = make_snapshot(*fields, self.MASK)
        vec = flatten_field(snap, self.MASK, 1.5, 2.5)
        back = unflatten_field(vec, self.MASK, 1.5, 2.5)
        m = self.MASK.ravel()
        for name, field in zip(("e11", "e12", "e22"), fields):
            np.testing.assert_allclose(back[name], field.ravel()[m], atol=1e-14)

    def test_mask_mismatch_rejected(self):
        z = np.zeros((2, 2))
        snap = make_snapshot(z, z, z, self.MASK)
        with pytest.raises(AlignmentError):
            flatten_field(snap, np.ones((2, 2), dtype=bool), 1.0, 1.0)

    def test_scaling_factors_balance_variance(self):
        rng = np.random.default_rng(8)
        mask = np.ones((4, 5), dtype=bool)
        snaps = [
            make_snapshot(
                0.3 * rng.normal(size=(4, 5)),
                0.1 * rng.normal(size=(4, 5)),
                1.0 * rng.normal(size=(4, 5)),
                mask,
            )
            for _ in range(60)
        ]
        s11, s12 = field_scaling_factors(snaps, mask)
        flat = np.stack([flatten_field(s, mask, s11, s12) for s in snaps])
        p = int(mask.sum())
        tv = [np.sum(np.var(flat[:, i * p : (i + 1) * p], axis=0)) for i in range(3)]
        assert abs(tv[0] / tv[2] - 1.0) < 0.05
        assert abs(tv[1] / tv[2] - 1.0) < 0.05

    def test_field_nmae_closed_form(self):
        p = int(self.MASK.sum())
        z = np.zeros(self.MASK.shape)
        truth = make_snapshot(z, z, z, self.MASK)
        pred = {c: np.zeros(p) for c in ("e11", "e12", "e22")}
        pred["e22"][1] = 0.006
        out = field_nmae(truth, pred, self.MASK, {"e11": 0.01, "e12": 0.01, "e22": 0.02})
        assert out["e11"] == 0.0
        assert out["e22"] == pytest.approx(100 * 0.006 / (p * 0.02), rel=1e-12)


def softening_curves(n=16, seed=21):
    """Bilinear curves with a softening wave past the knee, each with its
    own stiffness, knee, wave and failure displacement."""
    rng = np.random.default_rng(seed)
    curves = []
    for _ in range(n):
        k, knee, amp = rng.uniform(80, 120), rng.uniform(0.8, 1.2), rng.uniform(2, 10)
        d = np.arange(0.0, rng.uniform(1.8, 2.4), 0.005)
        plastic = k * knee + 10.0 * (d - knee) - amp * np.sin(3.0 * (d - knee))
        curves.append(make_curve(d, np.where(d <= knee, k * d, plastic)))
    return curves


def random_snapshots(mask, n=30, seed=22):
    rng = np.random.default_rng(seed)
    scales = (0.3, 0.1, 1.0)
    return [make_snapshot(*(s * rng.normal(size=mask.shape) for s in scales), mask)
            for _ in range(n)]


class TestFeaturePipelines:
    """The score layout the pipelines own: stations, score names, the d_f
    column and each score's noise variance."""

    MASK = np.array([[True, True, False], [True, True, True]])

    def test_stations_are_point_y_resampling(self):
        curves = softening_curves()
        pipe = FdFeaturePipeline.fit(curves, n_stations=40, variance_threshold=0.999)
        for curve in curves:
            expected = resample_segment(curve, locate_yield_point(curve), 40)
            np.testing.assert_array_equal(pipe.stations(curve), expected)

    def test_fd_noise_variances_match_dense_oracle(self):
        pipe = FdFeaturePipeline.fit(softening_curves(), n_stations=40, variance_threshold=0.999)
        phi, a = pipe.basis.components, np.diag(1.0 / pipe.standardizer.std)
        dense = np.diag(phi.T @ a @ (12.0**2 * np.eye(40)) @ a @ phi)
        var = pipe.noise_variances(12.0, 0.03)
        assert var.size == pipe.basis.k + 1
        np.testing.assert_allclose(var[:-1], dense, rtol=1e-12, atol=1e-12)
        assert var[-1] == 0.03**2

    def test_field_noise_variances_match_dense_oracle(self):
        snaps = random_snapshots(self.MASK)
        pipe = FieldFeaturePipeline.fit(snaps, variance_threshold=0.999)
        ones = make_snapshot(*(np.ones(self.MASK.shape),) * 3, self.MASK)
        a = np.diag(flatten_field(ones, self.MASK, pipe.scale_e11, pipe.scale_e12))
        phi, p = pipe.basis.components, 3 * int(self.MASK.sum())
        dense = np.diag(phi.T @ a @ (2e-4**2 * np.eye(p)) @ a @ phi)
        var = pipe.noise_variances(2e-4)
        assert var.size == pipe.basis.k
        np.testing.assert_allclose(var, dense, rtol=1e-12, atol=1e-12)

    def test_fd_decode_reads_a_whole_score_row(self):
        curves = softening_curves()
        pipe = FdFeaturePipeline.fit(curves, n_stations=40, variance_threshold=0.999)
        for curve in curves[:4]:
            row = pipe.encode(curve)
            assert row[-1] == curve.failure_displacement
            without_df = pipe.standardizer.invert(pca_reconstruct_vector(pipe.basis, row[:-1]))
            np.testing.assert_array_equal(pipe.decode(row), without_df)

    def test_saved_pipelines_hold_only_what_they_cannot_derive(self, tmp_path):
        # basis.json keeps the singular values and the pipeline's own extras;
        # k, the feature and station counts and the retained variance come
        # back from the component matrix, the standardizer and those values.
        curves, snaps = softening_curves(), random_snapshots(self.MASK)
        fd = FdFeaturePipeline.fit(curves, n_stations=40, variance_threshold=0.999)
        field = FieldFeaturePipeline.fit(snaps, variance_threshold=0.999)
        for pipe, name, extras in (
            (fd, "fd", set()), (field, "field", {"scale_e11", "scale_e12", "eps_ref"}),
        ):
            pipe.save(tmp_path / name)
            header = json.loads((tmp_path / name / "basis.json").read_text())
            assert set(header) == {"singular_values"} | extras, name
        fd_back = FdFeaturePipeline.load(tmp_path / "fd")
        field_back = FieldFeaturePipeline.load(tmp_path / "field")
        assert fd_back.n_stations == fd.n_stations == 40
        for back, pipe in ((fd_back, fd), (field_back, field)):
            assert back.basis.k == pipe.basis.k
            assert back.basis.n_features == pipe.basis.n_features
            assert back.basis.retained_variance() == pipe.basis.retained_variance()
        for curve in curves:
            assert fd_back.encode(curve).tobytes() == fd.encode(curve).tobytes()
        for snap in snaps:
            assert field_back.encode(snap).tobytes() == field.encode(snap).tobytes()

    def test_score_names_are_the_reduce_headers(self, small_pipeline):
        config = small_pipeline["config"]
        fd_pipe, field_pipe = dataset.load_pipelines(config)
        for pipe, name in ((fd_pipe, "fd_scores.csv"), (field_pipe, "field_scores.csv")):
            _, _, scores, header = dataset.read_scores(config.out("scores", name))
            assert pipe.score_names == header
            assert scores.shape[1] == len(header)
        assert fd_pipe.score_names[-1] == "d_f"
        assert field_pipe.score_names == [f"beta{i + 1}" for i in range(field_pipe.basis.k)]
