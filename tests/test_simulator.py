import dataclasses
import math

import numpy as np
import pytest

from gtncal.errors import AlignmentError, ParameterError, SimulationIncompleteError
from gtncal.material import GtnParams
from gtncal.simulator import (
    CurveSegment,
    LoadingProgram,
    SimulatorSettings,
    build_templates,
    kirsch_stress_field,
    read_curve_csv,
    read_snapshot_csv,
    simulate_batch,
    simulate_specimen_full,
    write_curve_csv,
    write_snapshot_csv,
)

MID = GtnParams(0.3, 0.03, 0.08, 0.25)
FAST = GtnParams(0.1, 0.05, 0.01, 0.15)


@pytest.fixture(scope="module")
def mid_result():
    return simulate_specimen_full(MID, LoadingProgram(), SimulatorSettings())


class TestLoadingProgram:
    def test_defaults_satisfy_step_bound(self):
        prog = LoadingProgram()
        assert prog.nominal_strain_increment < 1e-4

    def test_oversized_time_step_rejected(self):
        with pytest.raises(ParameterError):
            LoadingProgram(time_step=0.5)

    def test_negative_field_rejected(self):
        with pytest.raises(ParameterError):
            LoadingProgram(hole_radius=-1.0)

    @pytest.mark.parametrize("name", ["max_displacement", "displacement_rate", "width"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_field_rejected(self, name, value):
        with pytest.raises(ParameterError, match=f"'{name}' must be finite"):
            LoadingProgram(**{name: value})


class TestSimulatorSettings:
    @pytest.mark.parametrize("name", ["plastic_gain", "kappa", "loc_gain", "triaxiality"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_field_rejected(self, name, value):
        with pytest.raises(ParameterError, match=f"'{name}' must be finite"):
            SimulatorSettings(**{name: value})


class TestCurveSegment:
    def test_rejects_nonmonotone_displacement(self):
        with pytest.raises(Exception):
            CurveSegment(np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0, 2.0]))

    def test_rejects_negative_force(self):
        with pytest.raises(Exception):
            CurveSegment(np.array([0.0, 1.0]), np.array([0.0, -1.0]))


class TestKirschField:
    def test_stress_concentration_at_net_section(self):
        x = np.array([[1.0, 2.0, 100.0]])
        y = np.zeros((1, 3))
        _, _, syy = kirsch_stress_field(x, y, 1.0)
        assert syy[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert syy[0, 1] == pytest.approx(1.0 + 0.5 / 4 + 1.5 / 16, abs=1e-12)
        assert syy[0, 2] == pytest.approx(1.0, abs=1e-3)

    def test_hole_pole_is_traction_free_with_transverse_compression(self):
        x = np.zeros((1, 1))
        y = np.array([[1.0]])
        sxx, _, syy = kirsch_stress_field(x, y, 1.0)
        assert syy[0, 0] == pytest.approx(0.0, abs=1e-12)  # radial = axial here
        assert sxx[0, 0] == pytest.approx(-1.0, abs=1e-12)  # hoop compression


class TestSimulateSpecimen:
    def test_determinism_bit_identical(self, mid_result):
        again = simulate_specimen_full(MID, LoadingProgram(), SimulatorSettings())
        assert np.array_equal(mid_result.curve.forces, again.curve.forces)
        assert np.array_equal(mid_result.curve.displacements, again.curve.displacements)
        assert np.array_equal(mid_result.snapshot.e22, again.snapshot.e22)

    def test_force_zero_at_zero_displacement(self, mid_result):
        assert mid_result.curve.displacements[0] == 0.0
        assert mid_result.curve.forces[0] == 0.0

    def test_curve_rises_peaks_softens(self, mid_result):
        forces = mid_result.curve.forces
        k_peak = int(np.argmax(forces))
        assert 0 < k_peak < len(forces) - 1
        assert forces[-1] < 0.985 * forces[k_peak]
        assert mid_result.peak_force == pytest.approx(forces[k_peak])

    def test_capture_ratio_near_target(self, mid_result):
        assert mid_result.capture_ratio == 0.98
        assert 0.96 <= mid_result.achieved_ratio <= 0.98

    def test_distinct_failure_displacements_at_corners(self):
        lower = GtnParams(0.1, 0.01, 0.01, 0.15)
        upper = GtnParams(0.5, 0.05, 0.15, 0.35)
        res = simulate_batch([lower, upper], LoadingProgram(), SimulatorSettings())
        assert not any(isinstance(r, SimulationIncompleteError) for r in res)
        assert res[0].curve.failure_displacement != res[1].curve.failure_displacement

    def test_batch_matches_single_run(self, mid_result):
        # With two or more runs the force block is F-ordered and its mean
        # adds the net cells one after another; a single run's row is
        # summed pairwise, so batched and single runs agree to round-off,
        # not bitwise.
        res = simulate_batch([FAST, MID], LoadingProgram(), SimulatorSettings())
        np.testing.assert_allclose(res[1].curve.forces, mid_result.curve.forces, rtol=1e-11)
        np.testing.assert_allclose(
            res[1].snapshot.e22, mid_result.snapshot.e22, rtol=1e-10, atol=1e-14
        )
        assert res[1].curve.failure_displacement == mid_result.curve.failure_displacement

    def test_cells_with_equal_drive_share_their_trajectory(self, mid_result):
        # A cell's material trajectory depends only on (t_sig, triaxiality):
        # cells sharing that pair bit for bit end with bit-equal stress and
        # void fraction, and their strains are one shared amplification
        # times their own template, so they agree wherever the templates do
        # up to sign.
        tpl = build_templates(LoadingProgram(), SimulatorSettings())
        m = tpl.mask
        keys = np.column_stack([tpl.t_sig[m], tpl.triaxiality[m]]).view(np.int64)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        rep = first[inverse.ravel()]
        assert np.count_nonzero(rep != np.arange(rep.size)) == 767

        def bits(values):
            return values.view(np.int64)

        for field in (mid_result.stress_field, mid_result.vvf_field):
            assert np.array_equal(bits(field[m]), bits(field[m][rep]))
        snap = mid_result.snapshot
        for template, strain in ((tpl.t_e11, snap.e11), (tpl.t_e12, snap.e12),
                                 (tpl.t_e22, snap.e22)):
            t, e = np.abs(template[m]), np.abs(strain[m])
            same = bits(t) == bits(t[rep])
            assert np.count_nonzero(same & (rep != np.arange(rep.size))) > 600
            assert np.array_equal(bits(e)[same], bits(e[rep])[same])

    def test_vvf_bounds_and_hot_spot_near_hole(self, mid_result):
        vvf = mid_result.vvf_field
        mask = mid_result.snapshot.mask
        assert np.all(vvf[mask] >= 0.001 - 1e-12)
        assert np.all(vvf[mask] <= MID.f_f + 1e-12)
        hot = np.unravel_index(np.argmax(np.where(mask, vvf, -1.0)), vvf.shape)
        r = np.hypot(mid_result.snapshot.x[hot], mid_result.snapshot.y[hot])
        assert r < 2.0  # within two hole radii

    def test_incomplete_when_displacement_too_small(self):
        prog = LoadingProgram(max_displacement=0.5)
        with pytest.raises(SimulationIncompleteError):
            simulate_specimen_full(MID, program=prog, settings=SimulatorSettings())

    def test_localization_grows_with_damage_feedback(self):
        # The kappa * f_star feedback is what couples nucleated damage into
        # strain localization: switching it on must sharpen the snapshot.
        def contrast(kappa):
            res = simulate_specimen_full(
                MID, program=LoadingProgram(), settings=SimulatorSettings(kappa=kappa)
            )
            e22 = res.snapshot.e22[res.snapshot.mask]
            return np.max(e22) / max(np.median(e22), 1e-12)

        c0, c2, c6 = contrast(0.0), contrast(2.0), contrast(6.0)
        assert c0 < c2 < c6


class TestGoldenCurve:
    """MID on the default grid and loading program, pinned to values recorded
    from the gather/scatter material step this kernel replaced."""

    PEAK_FORCE = 8251.907223164215
    FAILURE_DISPLACEMENT = 5.54296875
    N_POINTS = 1420
    EVERY_100TH_FORCE = (
        0.0, 6305.227893611195, 6651.229704232662, 6964.453842677425,
        7244.282176255828, 7490.295576039343, 7702.21251259695,
        7879.808292219542, 8022.852315299034, 8131.14045225192,
        8204.698456489701, 8244.08211674865, 8250.392703792153,
        8217.674695801794, 7933.140154957575,
    )
    SUM_E22 = 366.84900406506557
    SUM_STRESS = 667633.2836638137
    SUM_VVF = 9.16411916108217

    def test_curve_and_fields_match_recorded_values(self, mid_result):
        forces = mid_result.curve.forces
        assert forces.size == self.N_POINTS
        assert mid_result.curve.failure_displacement == pytest.approx(
            self.FAILURE_DISPLACEMENT, rel=1e-10
        )
        assert mid_result.peak_force == pytest.approx(self.PEAK_FORCE, rel=1e-10)
        np.testing.assert_allclose(forces[::100], self.EVERY_100TH_FORCE, rtol=1e-10)
        assert mid_result.snapshot.e22.sum() == pytest.approx(self.SUM_E22, rel=1e-10)
        assert mid_result.stress_field.sum() == pytest.approx(self.SUM_STRESS, rel=1e-10)
        assert mid_result.vvf_field.sum() == pytest.approx(self.SUM_VVF, rel=1e-10)


class TestSnapshotSymmetry:
    def test_mirror_symmetry_without_damage_feedback(self):
        settings = SimulatorSettings(kappa=0.0)
        res = simulate_specimen_full(MID, program=LoadingProgram(), settings=settings)
        e22 = res.snapshot.e22
        mask = res.snapshot.mask
        flipped = e22[:, ::-1]
        both = mask & mask[:, ::-1]
        assert np.max(np.abs(e22[both] - flipped[both])) < 1e-10

    def test_mask_matches_hole_geometry(self):
        prog = LoadingProgram()
        tpl = build_templates(prog, SimulatorSettings())
        r = np.hypot(tpl.x, tpl.y)
        assert np.array_equal(tpl.mask, r >= prog.hole_radius)


class TestStepRefinement:
    def test_peak_force_converges_under_halved_step(self):
        base = LoadingProgram()
        fine = LoadingProgram(time_step=base.time_step / 2.0)
        res_base = simulate_specimen_full(FAST, program=base, settings=SimulatorSettings())
        res_fine = simulate_specimen_full(FAST, program=fine, settings=SimulatorSettings())
        rel = abs(res_base.peak_force - res_fine.peak_force) / res_fine.peak_force
        assert rel < 0.005


class TestSerialization:
    def test_curve_roundtrip(self, mid_result, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, mid_result.curve)
        back = read_curve_csv(path)
        assert np.array_equal(back.forces, mid_result.curve.forces)
        assert back.failure_displacement == mid_result.curve.failure_displacement

    def test_snapshot_roundtrip(self, mid_result, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, mid_result.snapshot)
        back = read_snapshot_csv(path, build_templates(LoadingProgram(), SimulatorSettings()))
        m = mid_result.snapshot.mask
        assert np.array_equal(back.e12[m], mid_result.snapshot.e12[m])

    @pytest.mark.parametrize("fault", ["shuffled_rows", "shifted_grid"])
    def test_snapshot_off_reference_grid_rejected(self, mid_result, tmp_path, fault):
        snap = mid_result.snapshot
        path = tmp_path / "snap.csv"
        if fault == "shifted_grid":
            half_cell = 0.5 * (snap.x[0, 1] - snap.x[0, 0])
            write_snapshot_csv(path, dataclasses.replace(snap, x=snap.x + half_cell))
        else:
            write_snapshot_csv(path, snap)
            header, first, second, *rest = path.read_text().splitlines()
            path.write_text("\n".join([header, second, first, *rest]) + "\n")
        with pytest.raises(AlignmentError):
            read_snapshot_csv(path, build_templates(LoadingProgram(), SimulatorSettings()))
