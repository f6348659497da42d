import json
from pathlib import Path

import numpy as np
import pytest

from gtncal.errors import ArtifactError, DomainError, ParameterError
from gtncal.pipeline.config import ExperimentConfig
from gtncal.pipeline.design import lhs_design
from gtncal.pipeline.manifest import RunManifest, sha256_file
from gtncal.simulator import LoadingProgram, SimulatorSettings

DATA = Path(__file__).parent / "data"

TABLE_BOX = np.array([[0.1, 0.5], [0.01, 0.05], [0.01, 0.15], [0.15, 0.35]])
TABLE_BOX_JSON = dict(zip(("eps_n", "f_n", "f_c", "f_f"), TABLE_BOX.tolist()))


class TestLhsDesign:
    def test_one_point_per_stratum(self):
        box = np.array([[0.0, 1.0]] * 4)
        theta = lhs_design(4, box, seed=0)
        for j in range(4):
            strata = np.floor(theta[:, j] * 4).astype(int)
            assert sorted(strata) == [0, 1, 2, 3]

    def test_seeded_determinism(self):
        t1 = lhs_design(50, TABLE_BOX, seed=42)
        t2 = lhs_design(50, TABLE_BOX, seed=42)
        np.testing.assert_array_equal(t1, t2)

    def test_constraint_satisfied_after_redraw(self):
        theta = lhs_design(400, TABLE_BOX, seed=7)
        assert np.all(theta[:, 2] < theta[:, 3])
        for j in range(4):
            lo, hi = TABLE_BOX[j]
            strata = np.floor((theta[:, j] - lo) / (hi - lo) * 400).astype(int)
            assert sorted(strata) == list(range(400))

    def test_degenerate_box_rejected(self):
        bad = TABLE_BOX.copy()
        bad[1] = (0.02, 0.02)
        with pytest.raises(DomainError):
            lhs_design(10, bad, seed=0)

    def test_bounds_respected(self):
        theta = lhs_design(100, TABLE_BOX, seed=3)
        assert np.all(theta >= TABLE_BOX[:, 0])
        assert np.all(theta <= TABLE_BOX[:, 1])


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.design_size == 400
        assert cfg.train_fraction == 0.75
        assert cfg.noise.sigma_fd == 12.0
        assert cfg.noise.sigma_dic == pytest.approx(2e-4)
        assert cfg.tmcmc.particles == 2000
        assert cfg.tmcmc.runs == 8
        np.testing.assert_allclose(cfg.box_array(), TABLE_BOX)
        # f_c's box may end where f_f's begins; an overlap is refused at load.
        assert cfg.box["f_c"][1] == cfg.box["f_f"][0] == 0.15

    def test_json_roundtrip(self):
        cfg = ExperimentConfig(
            design_size=64,
            seed=7,
            simulator=SimulatorSettings(capture_ratio=0.95),
            loading=LoadingProgram(max_displacement=6.0, hole_radius=1.5),
        )
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_legacy_file_with_loading_keys_under_simulator_refused(self):
        # Written before the loading section existed: max_displacement and
        # time_step sit under "simulator", which takes neither.
        legacy = json.loads((DATA / "config_legacy.json").read_text())
        assert "max_displacement" in legacy["simulator"] and "loading" not in legacy
        with pytest.raises(ParameterError, match="'simulator'.*'max_displacement'"):
            ExperimentConfig.load(DATA / "config_legacy.json")

    @pytest.mark.parametrize(
        "raw, where",
        [
            ({"foo": 1}, "config"),
            ({"tmcmc": {"particle": 500}}, "'tmcmc'"),
            ({"simulator": 5}, "'simulator'"),
            ({"truth_theta": 3}, "'truth_theta'"),
            ({"box": 5}, "'box'"),
            ({"box": {"eps_n": [0.1, 0.5]}}, "'f_n'"),
            ({"box": {**TABLE_BOX_JSON, "eps_n": [0.1]}}, "'eps_n'"),
            ({"box": {**TABLE_BOX_JSON, "f_x": [0.1, 0.5]}}, "'f_x'"),
            ([], "config must be a JSON object"),
            ({"seed": "a"}, "'seed' must be an integer"),
            ({"seed": 1.5}, "'seed' must be an integer"),
            ({"design_size": "x"}, "'design_size' must be an integer"),
            ({"design_size": True}, "'design_size' must be an integer"),
            ({"train_fraction": "0.5"}, "'train_fraction' must be a number"),
            ({"output_dir": 3}, "'output_dir' must be a string"),
            ({"noise": {"sigma_fd": -1}}, "'sigma_fd' must be a number > 0"),
            ({"noise": {"sigma_fd": "a"}}, "'sigma_fd' must be a number > 0"),
            ({"noise": {"sigma_dic": 0}}, "'sigma_dic' must be a number > 0"),
            ({"noise": {"sigma_dic": True}}, "'sigma_dic' must be a number > 0"),
            ({"noise": {"sigma_df": 0.1}}, "'sigma_df' is unknown"),
            ({"n_stations": 1}, "'n_stations' must be at least 2"),
            ({"truth_theta": [0.9, 0.03, 0.09, 0.26]}, "'truth_theta': eps_n = 0.9 lies outside"),
            ({"truth_theta": [True, 0.03, 0.09, 0.26]}, "'truth_theta' must be a list of 4"),
            ({"tmcmc": {"particles": 400.5}}, "'particles' must be an integer"),
            ({"simulator": {"nx": 72.5}}, "'nx' must be an integer"),
            ({"simulator": {"nx": "a"}}, "'nx' must be an integer"),
            ({"informativeness_metric": "cov_determinant"}, "'informativeness_metric'"),
            ({"simulator": {"triaxiality": 0.3}}, "'triaxiality' must exceed 'far_triaxiality'"),
            ({"simulator": {"far_triaxiality": 1.0}}, "'triaxiality' must exceed 'far_triaxiality'"),
            ({"box": {**TABLE_BOX_JSON, "f_n": [0.05, 0.01]}}, "'f_n'"),
            ({"pca_threshold_fd": 0.0}, "'pca_threshold_fd'"),
            ({"pca_threshold_field": 1.5}, "'pca_threshold_field'"),
            ({"box": {**TABLE_BOX_JSON, "f_c": [0.05, 0.2]}}, "'box'"),
            ({"simulator": {"ny": 3}}, "'ny'"),
            ({"loading": {"thickness": 0.0}}, "'thickness'"),
            ({"simulator": {"loc_gain": -1.0}}, "'loc_gain'"),
            ({"loading": {"hole_radius": 7.0}}, "'hole_radius'"),
            ({"simulator": {"kappa": float("nan")}}, "'kappa' must be finite"),
            ({"simulator": {"elastic_modulus": float("nan")}}, "'elastic_modulus' must be finite"),
            ({"loading": {"max_displacement": float("inf")}}, "'max_displacement' must be finite"),
            ({"tmcmc": {"cov_target": float("inf")}}, "'cov_target' must be finite"),
            ({"noise": {"sigma_fd": float("inf")}}, "'sigma_fd' must be a number > 0 and finite"),
            ({"box": {**TABLE_BOX_JSON, "eps_n": [0.1, float("inf")]}}, "'eps_n'.*finite"),
            ({"simulator": {"kappa": -1.0}}, "'kappa'"),
            ({"simulator": {"elastic_modulus": 0.0}}, "'elastic_modulus'"),
            ({"simulator": {"poisson_ratio": 0.7}}, "'poisson_ratio'"),
            ({"tmcmc": {"max_stages": 0}}, "key 'max_stages' must be at least 1"),
            ({"tmcmc": {"mh_steps": -1}}, "key 'mh_steps' must be at least 0"),
            ({"tmcmc": {"kde_max_centers": 49}}, "key 'kde_max_centers' must be at least 50"),
        ],
    )
    def test_unknown_key_is_parameter_error(self, raw, where):
        with pytest.raises(ParameterError, match=where):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_section_validation_runs_on_load(self):
        with pytest.raises(ParameterError, match="'simulator'"):
            ExperimentConfig.from_json(json.dumps({"simulator": {"nx": 4}}))

    def test_validation(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(design_size=4)
        with pytest.raises(ParameterError):
            ExperimentConfig(train_fraction=1.5)
        with pytest.raises(ParameterError):
            ExperimentConfig(truth_theta=(0.3, 0.03, 0.3, 0.2))

    def test_override_dotted_keys(self):
        cfg = ExperimentConfig()
        out = cfg.override({"tmcmc.particles": 100, "seed": 1, "noise.sigma_fd": 6.0})
        assert out.tmcmc.particles == 100
        assert out.seed == 1
        assert out.noise.sigma_fd == 6.0

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig().override({"nope.bad": 1})

    def test_stage_seeds_stable_and_distinct(self):
        cfg = ExperimentConfig(seed=5)
        assert cfg.stage_seed("design") == cfg.stage_seed("design")
        assert cfg.stage_seed("design") != cfg.stage_seed("split")


class TestManifest:
    def test_roundtrip_and_verify(self, tmp_path):
        f = tmp_path / "data" / "artifact.csv"
        f.parent.mkdir()
        f.write_text("a,b\n1,2\n")
        manifest = RunManifest.create(tmp_path, "confighash")
        manifest.add("data/artifact.csv", stage="test")
        manifest.save()
        again = RunManifest.load(tmp_path)
        again.verify(["data/artifact.csv"])

    def test_tamper_detected(self, tmp_path):
        f = tmp_path / "data" / "artifact.csv"
        f.parent.mkdir()
        f.write_text("a,b\n1,2\n")
        manifest = RunManifest.create(tmp_path, "confighash")
        manifest.add("data/artifact.csv", stage="test")
        manifest.save()
        f.write_text("a,b\n1,3\n")
        with pytest.raises(ArtifactError):
            RunManifest.load(tmp_path).verify(["data/artifact.csv"])

    def test_missing_artifact_detected(self, tmp_path):
        manifest = RunManifest.create(tmp_path, "x")
        manifest.save()
        with pytest.raises(ArtifactError):
            RunManifest.load(tmp_path).verify(["nope"])

    def test_hash_is_content_based(self, tmp_path):
        f1 = tmp_path / "a.txt"
        f2 = tmp_path / "b.txt"
        f1.write_text("same")
        f2.write_text("same")
        assert sha256_file(f1) == sha256_file(f2)
