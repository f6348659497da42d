import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtncal.errors import DomainError, NumericError, ParameterError, StabilityError
from gtncal.material import (
    BATCH_STEP_CAP,
    PARAM_NAMES,
    FixedGtnConstants,
    GtnParams,
    GtnPointBatch,
    VoceParams,
    effective_void_fraction,
    flow_stress_on_surface,
    gtn_yield,
    voce_flow_stress,
)

CONSTS = FixedGtnConstants()
VOCE = VoceParams()


class TestTypes:
    def test_fixed_constants_defaults(self):
        assert CONSTS.q1 == 1.5
        assert CONSTS.q2 == 1.0
        assert CONSTS.q3 == 2.25
        assert CONSTS.f0 == 0.001
        assert CONSTS.sn_ratio == pytest.approx(1.0 / 3.0)

    def test_q3_must_match_q1_squared(self):
        with pytest.raises(ParameterError):
            FixedGtnConstants(q1=1.5, q3=2.0)

    def test_params_reject_fc_above_ff(self):
        with pytest.raises(ParameterError):
            GtnParams(eps_n=0.3, f_n=0.03, f_c=0.3, f_f=0.2)

    def test_params_reject_nonpositive(self):
        with pytest.raises(ParameterError):
            GtnParams(eps_n=0.0, f_n=0.03, f_c=0.1, f_f=0.2)

    @pytest.mark.parametrize(
        "bad",
        [{"eps_n": math.nan}, {"f_n": math.inf}, {"f_c": -math.inf}, {"f_f": math.nan}],
        ids=["nan-eps_n", "inf-f_n", "-inf-f_c", "nan-f_f"],
    )
    def test_params_reject_nonfinite(self, bad):
        values = {"eps_n": 0.3, "f_n": 0.04, "f_c": 0.1, "f_f": 0.2, **bad}
        (name,) = bad
        with pytest.raises(ParameterError, match=f"'{name}' must be finite"):
            GtnParams(**values)


class TestVoce:
    def test_initial_yield_stress(self):
        assert voce_flow_stress(VOCE, 0.0) == pytest.approx(165.0, abs=0.0)

    def test_asymptote(self):
        assert voce_flow_stress(VOCE, 50.0) == pytest.approx(301.0, abs=1e-9)

    def test_value_at_02(self):
        # independent evaluation: 165 + 136*(1 - exp(-9.8*0.2))
        expected = 165.0 + 136.0 * (1.0 - math.exp(-1.96))
        assert voce_flow_stress(VOCE, 0.2) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(281.84, abs=0.005)

    def test_negative_strain_rejected(self):
        with pytest.raises(DomainError):
            voce_flow_stress(VOCE, -1e-6)

    @given(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert voce_flow_stress(VOCE, lo) <= voce_flow_stress(VOCE, hi) + 1e-12


class TestEffectiveVoidFraction:
    PARAMS = GtnParams(eps_n=0.3, f_n=0.03, f_c=0.1, f_f=0.25)

    def test_identity_branch(self):
        assert effective_void_fraction(CONSTS, self.PARAMS, 0.05) == 0.05

    def test_value_at_ff(self):
        assert effective_void_fraction(CONSTS, self.PARAMS, 0.25) == pytest.approx(
            2.0 / 3.0, abs=1e-15
        )

    def test_second_branch_value(self):
        # 0.1 + (1/1.5 - 0.1) * (0.175 - 0.1) / (0.25 - 0.1)
        expected = 0.1 + (1.0 / 1.5 - 0.1) * 0.5
        assert effective_void_fraction(CONSTS, self.PARAMS, 0.175) == pytest.approx(
            expected, rel=1e-14
        )
        assert expected == pytest.approx(0.38333, abs=5e-6)

    def test_rejects_out_of_range_f(self):
        with pytest.raises(DomainError):
            effective_void_fraction(CONSTS, self.PARAMS, 1.2)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.01, max_value=0.4),
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_continuity_at_fc(self, f_c, gap, q1):
        params = GtnParams(eps_n=0.3, f_n=0.03, f_c=f_c, f_f=f_c + gap)
        consts = FixedGtnConstants(q1=q1, q3=q1**2)
        below = effective_void_fraction(consts, params, f_c * (1.0 - 1e-12))
        at = effective_void_fraction(consts, params, f_c)
        assert at == pytest.approx(below, abs=1e-12)
        assert at == pytest.approx(f_c, abs=1e-12)


class TestYieldFunction:
    def test_reduces_to_von_mises(self):
        assert gtn_yield(CONSTS, 200.0, 50.0, 200.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_zero_stress_with_porosity(self):
        val = gtn_yield(CONSTS, 0.0, 0.0, 300.0, 0.1)
        assert val == pytest.approx(0.3 - 1.0 - 0.0225, abs=1e-14)
        assert val == pytest.approx(-0.7225)

    def test_pure_quadratic_term(self):
        assert gtn_yield(CONSTS, 100.0, 0.0, 200.0, 0.0) == pytest.approx(-0.75, abs=1e-14)

    def test_rejects_nonpositive_yield_stress(self):
        with pytest.raises(DomainError):
            gtn_yield(CONSTS, 100.0, 0.0, 0.0, 0.0)


class TestFlowStressSolve:
    def test_zero_porosity_recovers_matrix_stress(self):
        sy = np.array([200.0])
        s = flow_stress_on_surface(CONSTS, sy, np.array([0.0]), 1.0 / 3.0, start=sy)
        assert s[0] == pytest.approx(200.0, abs=1e-6)

    def test_surface_residual_small(self):
        rng = np.random.default_rng(0)
        sy = rng.uniform(150.0, 320.0, size=200)
        fs = rng.uniform(0.0, 0.6, size=200)
        s = flow_stress_on_surface(CONSTS, sy, fs, 0.8, start=sy)
        phi = gtn_yield(CONSTS, s, 0.8 * s, sy, fs)
        assert np.max(np.abs(phi)) < 1e-6

    def test_collapse_at_fstar_limit(self):
        sy = np.array([250.0])
        s = flow_stress_on_surface(CONSTS, sy, np.array([1.0 / 1.5]), 0.5, start=sy)
        assert s[0] == pytest.approx(0.0, abs=1e-2)


class TestIntegratePoint:
    """One material point, integrated as a size-1 batch that lives for the whole test."""

    PARAMS = GtnParams(eps_n=0.3, f_n=0.03, f_c=0.1, f_f=0.25)

    def point(self, triaxiality=1.0 / 3.0, **params):
        values = {name: np.array([params.get(name, getattr(self.PARAMS, name))])
                  for name in PARAM_NAMES}
        return GtnPointBatch((1,), CONSTS, values, VOCE, 70e3, triaxiality)

    def yield_residual(self, batch):
        sigma = float(batch.sigma[0])
        sy = voce_flow_stress(VOCE, float(batch.eps_p[0]))
        return gtn_yield(CONSTS, abs(sigma), batch.triaxiality * sigma, sy, float(batch.f_star[0]))

    def test_zero_increment_is_identity(self):
        batch = self.point()
        names = ("sigma", "eps_p", "f", "f_star")
        before = {name: getattr(batch, name).copy() for name in names}
        batch.step(np.zeros(1))
        for name in names:
            assert np.array_equal(getattr(batch, name), before[name]), name

    def test_elastic_step_keeps_internal_variables(self):
        batch = self.point()
        batch.step(np.array([1e-5]))
        assert batch.sigma[0] == 70e3 * 1e-5
        assert batch.eps_p[0] == 0.0
        assert batch.f[0] == CONSTS.f0

    @pytest.mark.parametrize(
        "d_eps, params, error",
        [
            (2.0 * BATCH_STEP_CAP, {}, StabilityError),
            (math.nan, {}, NumericError),
            (1e-5, {"f_c": 0.25}, ParameterError),
        ],
        ids=["step_above_cap", "nan_increment", "fc_not_below_ff"],
    )
    def test_invalid_input_raises(self, d_eps, params, error):
        with pytest.raises(error):
            self.point(**params).step(np.array([d_eps]))

    def test_monotonic_loading_damages_and_fails(self):
        # Reference integration to failure: f never decreases, f* follows
        # the scalar oracle exactly, failure is reached, and the yield
        # residual stays small during plastic flow.
        batch = self.point(triaxiality=0.9)
        prev_f = batch.f[0]
        worst_phi = 0.0
        for _ in range(60000):
            batch.step(np.array([1e-4]))
            assert batch.f[0] >= prev_f
            oracle = effective_void_fraction(CONSTS, self.PARAMS, batch.f)
            assert np.array_equal(batch.f_star, oracle)
            prev_f = batch.f[0]
            if batch.failed[0]:
                break
            if batch.eps_p[0] > 0.0:
                worst_phi = max(worst_phi, abs(self.yield_residual(batch)))
        assert batch.failed[0]
        assert worst_phi <= 1e-6

    def test_plastic_step_hits_yield_surface(self):
        batch = self.point(triaxiality=0.9)
        for _ in range(200):
            batch.step(np.array([1e-4]))
        assert batch.eps_p[0] > 0.0
        assert abs(self.yield_residual(batch)) <= 1e-6


class TestBatchStep:
    def test_masked_write_back_leaves_non_yielding_points(self):
        # Points 0-1 load and unload with ordinary parameters; points 2-3
        # fail early (f_f just above f0) and then stay failed.
        params = {
            "eps_n": np.full(4, 0.3),
            "f_n": np.full(4, 0.03),
            "f_c": np.array([0.1, 0.1, 0.0012, 0.0012]),
            "f_f": np.array([0.25, 0.25, 0.0015, 0.0015]),
        }
        batch = GtnPointBatch((4,), CONSTS, params, VOCE, 70e3, triaxiality=0.9)
        for _ in range(400):
            batch.step(np.full(4, 1e-4))
        assert np.all(batch.eps_p[:2] > 0.0) and not batch.failed[:2].any()
        assert batch.failed[2:].all()

        # Point 0 keeps loading (yields), point 1 unloads elastically, and
        # the failed points see a loading and an unloading increment.
        d_eps = np.array([1e-4, -1e-4, 1e-4, -1e-4])
        before = {
            name: getattr(batch, name).copy()
            for name in ("sigma", "eps_p", "f", "f_star", "_sigma_y", "_flow", "failed")
        }
        batch.step(d_eps)

        assert batch.eps_p[0] > before["eps_p"][0]
        idle = np.array([False, True, True, True])
        for name in ("eps_p", "f", "f_star", "_sigma_y", "_flow", "failed"):
            assert np.array_equal(getattr(batch, name)[idle], before[name][idle]), name
        assert batch.sigma[1] == before["sigma"][1] + 70e3 * d_eps[1]
        assert np.all(batch.sigma[2:] == 0.0)

    def test_take_runs_matches_a_batch_of_the_kept_runs(self):
        # Four runs of three cells, shaped as the simulator shapes them:
        # (run, 1) parameter columns and a per-cell triaxiality row.  Runs 1
        # and 3 fail early, so repacking to runs 0 and 2 drops failed rows.
        theta = np.array([
            [0.1, 0.05, 0.01, 0.15],
            [0.3, 0.03, 0.0012, 0.0015],
            [0.2, 0.04, 0.05, 0.2],
            [0.45, 0.01, 0.0013, 0.0016],
        ])
        triaxiality = np.array([1.0 / 3.0, 0.9, 1.2])
        rate = np.array([[1.9e-3, 1.5e-3, 1.2e-3]]) * np.array([[1.0], [0.8], [0.9], [0.7]])
        keep = np.array([0, 2])

        def columns(rows):
            return {name: theta[rows, j : j + 1] for j, name in enumerate(PARAM_NAMES)}

        full = GtnPointBatch((4, 3), CONSTS, columns(slice(None)), VOCE, 70e3, triaxiality)
        kept = GtnPointBatch((2, 3), CONSTS, columns(keep), VOCE, 70e3, triaxiality)
        for _ in range(150):
            full.step(rate)
            kept.step(rate[keep])
        assert full.failed[[1, 3]].all() and not full.failed[keep].any()
        full.take_runs(keep)
        for _ in range(300):
            full.step(rate[keep])
            kept.step(rate[keep])
        assert kept.failed.any()
        for name in ("sigma", "eps_p", "f", "f_star", "failed", "_sigma_y", "_flow",
                     "eps_n", "f_n", "f_c", "f_f", "s_n", "_fstar_slope"):
            a, b = getattr(full, name), getattr(kept, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_duplicated_points_follow_their_originals_bit_for_bit(self):
        # Points see the same arithmetic whatever else is in the batch, so a
        # batch that holds each point several times, shuffled, evolves every
        # copy exactly as a batch of the distinct points evolves the point.
        params = {
            "eps_n": np.array([0.1, 0.3, 0.2, 0.3, 0.45]),
            "f_n": np.array([0.05, 0.03, 0.04, 0.01, 0.03]),
            "f_c": np.array([0.01, 0.1, 0.0012, 0.05, 0.1]),
            "f_f": np.array([0.15, 0.25, 0.0015, 0.2, 0.3]),
        }
        triaxiality = np.array([0.9, 1.0, 0.9, 1.0 / 3.0, 1.2])
        rate = np.array([1.9e-3, 1.5e-3, 1e-3, 1.7e-3, 1.2e-3])
        gather = np.random.default_rng(0).permutation(np.repeat(np.arange(5), [2, 3, 2, 4, 3]))
        distinct = GtnPointBatch((5,), CONSTS, params, VOCE, 70e3, triaxiality)
        copies = GtnPointBatch(
            gather.shape, CONSTS, {k: v[gather] for k, v in params.items()}, VOCE, 70e3,
            triaxiality[gather],
        )
        names = ("sigma", "eps_p", "f", "f_star", "_sigma_y", "_flow", "failed")
        for k in range(600):
            # Load, with a short unloading-reloading cycle every 100 steps.
            d_eps = rate * (-1.0 if k % 100 >= 95 else 1.0)
            distinct.step(d_eps)
            copies.step(d_eps[gather])
            for name in names:
                a, b = getattr(distinct, name)[gather], getattr(copies, name)
                assert a.tobytes() == b.tobytes(), (k, name)
        assert np.all(distinct.eps_p > 0.0) and np.all(distinct.f > CONSTS.f0)
        assert distinct.failed.any() and not distinct.failed.all()

