import argparse
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from gtncal.cli import EXIT_ARTIFACT, EXIT_GATE, EXIT_OK, EXIT_USAGE, build_parser, main
from gtncal.pipeline import inference
from gtncal.pipeline.config import ExperimentConfig
from gtncal.pipeline.manifest import sha256_file


@pytest.fixture()
def config_file(tmp_path):
    config = ExperimentConfig(
        output_dir=str(tmp_path / "run"),
        design_size=16,
        seed=99,
    )
    path = tmp_path / "config.json"
    config.save(path)
    return path, config


class TestCliBasics:
    def test_usage_error_without_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_order_token(self, config_file):
        path, _ = config_file
        assert main(["infer", "--config", str(path), "--order", "SIDEWAYS"]) == EXIT_USAGE

    def test_design_and_manifest(self, config_file, capsys):
        path, config = config_file
        assert main(["design", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "design written" in out
        assert config.out("design", "design.csv").exists()
        data = np.loadtxt(config.out("design", "design.csv"), delimiter=",", skiprows=1)
        assert data.shape == (16, 5)

    def test_unknown_posterior_is_usage_error_before_any_output(self, config_file, capsys):
        path, config = config_file
        assert main(["recover", "--config", str(path), "--posterior", "fd_only"]) == EXIT_USAGE
        assert "invalid choice: 'fd_only'" in capsys.readouterr().err
        assert not config.out().exists()

    def test_posterior_not_yet_sampled_is_artifact_error(self, config_file, capsys):
        path, config = config_file
        assert main(["design", "--config", str(path)]) == EXIT_OK
        assert main(["recover", "--config", str(path), "--posterior", "fd_dic"]) == EXIT_ARTIFACT
        assert "posteriors/fd_dic/summary.json" in capsys.readouterr().err
        assert not config.out("recovered").exists()

    def test_artifact_exit_code_on_missing_upstream(self, config_file):
        path, _ = config_file
        assert main(["simulate", "--config", str(path)]) == EXIT_ARTIFACT

    def test_seed_override_changes_design(self, config_file):
        path, config = config_file
        assert main(["design", "--config", str(path)]) == EXIT_OK
        first = config.out("design", "design.csv").read_bytes()
        alt = config.override({"output_dir": config.output_dir + "_b", "seed": 100})
        alt_path = config.out().parent / "alt.json"
        alt.save(alt_path)
        assert main(["design", "--config", str(alt_path)]) == EXIT_OK
        second = alt.out("design", "design.csv").read_bytes()
        assert first != second

    def test_set_override(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "design",
                "--output",
                str(out),
                "--set",
                "design_size=20",
                "--seed",
                "3",
            ]
        )
        assert code == EXIT_OK
        data = np.loadtxt(out / "design" / "design.csv", delimiter=",", skiprows=1)
        assert data.shape == (20, 5)

    def test_misspelled_config_key_is_usage_error(self, config_file):
        path, _ = config_file
        raw = json.loads(path.read_text())
        raw["tmcmc"]["particle"] = raw["tmcmc"].pop("particles")
        path.write_text(json.dumps(raw))
        assert main(["design", "--config", str(path)]) == EXIT_USAGE

    def test_malformed_config_section_is_usage_error(self, config_file):
        path, _ = config_file
        raw = json.loads(path.read_text())
        raw["simulator"] = 5
        path.write_text(json.dumps(raw))
        assert main(["design", "--config", str(path)]) == EXIT_USAGE

    def test_mistyped_config_scalar_is_usage_error(self, config_file):
        path, config = config_file
        raw = json.loads(path.read_text())
        raw["seed"] = "a"
        path.write_text(json.dumps(raw))
        assert main(["design", "--config", str(path)]) == EXIT_USAGE
        assert not config.out().exists()

    def test_bad_noise_level_is_usage_error(self, config_file):
        path, config = config_file
        raw = json.loads(path.read_text())
        raw["noise"]["sigma_fd"] = -1
        path.write_text(json.dumps(raw))
        assert main(["design", "--config", str(path)]) == EXIT_USAGE
        assert not config.out().exists()

    def test_invalid_override_is_usage_error_before_any_output(self, tmp_path):
        out = tmp_path / "o"
        assert main(["design", "--output", str(out), "--set", "simulator.nx=4"]) == EXIT_USAGE
        assert not out.exists()

    def test_triaxiality_without_band_is_usage_error_before_any_output(self, tmp_path):
        out = tmp_path / "o"
        argv = ["design", "--output", str(out), "--set", "simulator.triaxiality=0.3333333333333333"]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    def test_overlapping_box_is_usage_error_before_any_output(self, tmp_path):
        out = tmp_path / "o"
        argv = ["design", "--output", str(out), "--set", "box.f_c=[0.05,0.2]"]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "loading.max_displacement=Infinity",
        "simulator.kappa=NaN",
        "simulator.poisson_ratio=0.7",
        "box.eps_n=[0.1,Infinity]",
    ])
    def test_out_of_range_number_is_usage_error_before_any_output(self, tmp_path, capsys,
                                                                  override):
        out = tmp_path / "o"
        assert main(["design", "--output", str(out), "--set", override]) == EXIT_USAGE
        key = override.split("=")[0].split(".")[-1]
        assert f"'{key}'" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    def test_legacy_config_file_is_usage_error_before_any_output(self, tmp_path, capsys):
        legacy = Path(__file__).parent / "data" / "config_legacy.json"
        out = tmp_path / "o"
        assert main(["design", "--config", str(legacy), "--output", str(out)]) == EXIT_USAGE
        assert "'max_displacement'" in capsys.readouterr().err
        assert not out.exists()

    def test_override_through_a_scalar_is_usage_error_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["design", "--output", str(out), "--set", "seed.x=1"]) == EXIT_USAGE
        assert "'seed.x'" in capsys.readouterr().err
        assert not out.exists()


SUBCOMMANDS = sorted(
    next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
)
REQUIRED_ARGS = {"infer": ["--order", "FD_ONLY"], "recover": ["--posterior", "fd"]}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_jobs_only_where_read(command, tmp_path):
    """``--jobs`` parses only on the subcommands that fan out over workers;
    elsewhere it is a usage error before any output."""
    out = tmp_path / "o"
    argv = [command, "--output", str(out)] + REQUIRED_ARGS.get(command, [])
    build_parser().parse_args(argv)  # valid without --jobs
    if command in ("simulate", "train"):
        assert build_parser().parse_args(argv + ["--jobs", "2"]).jobs == 2
    else:
        assert main(argv + ["--jobs", "2"]) == EXIT_USAGE
        assert not out.exists()


class TestExternalObservation:
    def test_infer_on_observation_files(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        run = tmp_path / "run"
        shutil.copytree(config.out(), run,
                        ignore=shutil.ignore_patterns("sims", "posteriors", "observation"))
        obs_dir = tmp_path / "obs"
        inference.make_synthetic_observation(
            config, 7, inference.load_reduction(config), out_dir=obs_dir
        )
        base = ["infer", "--config", str(run / "config.json"), "--output", str(run),
                "--set", "tmcmc.runs=2", "--set", "tmcmc.particles=100",
                "--order", "DIC_ONLY", "--observation-curve", str(obs_dir / "curve.csv")]
        assert main(base) == EXIT_USAGE
        code = main([*base, "--observation-snapshot", str(obs_dir / "snapshot.csv")])
        assert code in (EXIT_OK, EXIT_GATE)
        summary_path = run / "posteriors" / "dic" / "summary.json"
        summary = json.loads(summary_path.read_text())
        assert summary["truth_theta"] is None
        assert summary["observation"] == {
            "source": "files",
            "curve_sha256": sha256_file(obs_dir / "curve.csv"),
            "snapshot_sha256": sha256_file(obs_dir / "snapshot.csv"),
        }
        assert not (run / "observation").exists()
