import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from gtncal import simulator
from gtncal.bayes.tmcmc import TmcmcConfig
from gtncal.errors import (
    ArtifactError,
    ConvergenceError,
    NumericError,
    SimulationIncompleteError,
)
from gtncal.features.curves import locate_yield_point, resample_segment
from gtncal.material import GtnParams
from gtncal.pipeline import dataset, inference, validate
from gtncal.pipeline.config import ExperimentConfig
from gtncal.pipeline.manifest import RunManifest, sha256_file
from gtncal.simulator import SimulatorSettings


#: The orders that write all four posteriors ``compare_orders`` reads.
STAGED_ORDERS = ("FD_DIC", "DIC_FD")


def run_orders(config, orders):
    for order in orders:
        try:
            inference.run_sequence(config, order)
        except ConvergenceError:
            pass  # artifacts persist; the comparison reads summaries


def ensure_final_posteriors(config):
    """Run each two-stage order whose posteriors are not yet in ``config``'s
    run; between them they write every order's final posterior."""
    run_orders(config, [
        order for order in STAGED_ORDERS
        if not config.out("posteriors", inference.posterior_name(inference.ORDERS[order]),
                          "summary.json").exists()
    ])


@pytest.fixture()
def snapshot_reads(monkeypatch):
    """Row ids of the snapshot files ``dataset`` reads, in read order."""
    read, rows = dataset.read_snapshot_csv, []

    def recording(path, ref):
        rows.append(int(path.stem.split("_")[1]))
        return read(path, ref)

    monkeypatch.setattr(dataset, "read_snapshot_csv", recording)
    return rows


class TestDatasetStages:
    def test_reduce_summary_reports_variance(self, small_pipeline):
        info = small_pipeline["reduce"]
        assert info["fd_retained_variance"] >= 0.99
        assert info["field_retained_variance"] >= 0.99
        assert info["k_fd"] >= 1
        assert info["k_field"] >= 1

    def test_exclusion_accounting_reconciles(self, small_pipeline):
        config = small_pipeline["config"]
        index = json.loads((config.out("sims") / "index.json").read_text())
        assert len(index["completed"]) + len(index["excluded"]) == index["total"]
        assert index["total"] == config.design_size

    def test_manifest_covers_all_stages(self, small_pipeline):
        config = small_pipeline["config"]
        manifest = RunManifest.load(config.out())
        manifest.verify()  # every artifact hash checks out
        stages = {entry["stage"] for entry in manifest.artifacts.values()}
        assert {"design", "simulate", "reduce", "train"} <= stages

    def test_score_tables_deterministic_on_rebuild(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        rebuilt = config.override({"output_dir": str(tmp_path / "again")})
        dataset.stage_design(rebuilt)
        dataset.stage_simulate(rebuilt, jobs=1)
        dataset.stage_reduce(rebuilt)
        for name in ("fd_scores.csv", "field_scores.csv"):
            a = (config.out("scores") / name).read_bytes()
            b = (rebuilt.out("scores") / name).read_bytes()
            assert a == b

    def test_tampered_artifact_blocks_downstream(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        copy = config.override({"output_dir": str(tmp_path / "tamper")})
        dataset.stage_design(copy)
        path = copy.out("design", "design.csv")
        path.write_text(path.read_text().replace("0.", "1.", 1))
        with pytest.raises(ArtifactError):
            dataset.stage_simulate(copy, jobs=1)

    def test_split_fractions(self, small_pipeline):
        config = small_pipeline["config"]
        _, splits, _, _ = dataset.read_scores(config.out("scores", "fd_scores.csv"))
        n_train = sum(s == "train" for s in splits)
        assert n_train == round(config.train_fraction * len(splits))

    def test_reduce_reads_each_run_once(self, small_pipeline, tmp_path, snapshot_reads):
        config = small_pipeline["config"]
        copy = config.override({"output_dir": str(tmp_path / "reduce")})
        for name in ("design", "sims"):
            shutil.copytree(config.out(name), copy.out(name))
        copy.save(copy.out("config.json"))
        manifest = RunManifest.create(copy.out(), copy.config_hash())
        for name in ("design", "sims"):
            manifest.add_tree(name, stage=name)
        manifest.save()

        dataset.stage_reduce(copy)
        completed = json.loads((copy.out("sims") / "index.json").read_text())["completed"]
        assert snapshot_reads == sorted(completed)
        for name in ("fd_scores.csv", "field_scores.csv"):
            assert copy.out("scores", name).read_bytes() == config.out("scores", name).read_bytes()

    def test_aborted_simulate_writes_no_run_files(self, tmp_path, monkeypatch):
        # Every 4th run incomplete is 25% > the 5% exclusion gate: the stage
        # raises before any curve or snapshot file reaches sims/.
        config = ExperimentConfig(
            output_dir=str(tmp_path / "run"),
            design_size=16,
            seed=1234,
            simulator=SimulatorSettings(nx=24, ny=12),
        )
        simulate = dataset.simulate_batch

        def every_fourth_fails(params, program, settings):
            results = simulate(params, program=program, settings=settings)
            return [SimulationIncompleteError("forced") if i % 4 == 3 else res
                    for i, res in enumerate(results)]

        monkeypatch.setattr(dataset, "simulate_batch", every_fourth_fails)
        dataset.stage_design(config)
        with pytest.raises(SimulationIncompleteError):
            dataset.stage_simulate(config, jobs=1)
        sims = config.out("sims")
        assert not list(sims.glob("curve_*.csv")) and not list(sims.glob("snapshot_*.csv"))

    def test_sims_layout(self, small_pipeline):
        config = small_pipeline["config"]
        sims = config.out("sims")
        index = json.loads((sims / "index.json").read_text())
        completed = index["completed"]
        assert completed
        expected = {"index.json"}
        for row in completed:
            expected |= {f"curve_{row:04d}.csv", f"snapshot_{row:04d}.csv"}
        assert {f.name for f in sims.iterdir()} == expected
        ratios = index["achieved_ratio"]
        assert len(ratios) == len(completed)
        assert all(0.0 < r <= config.simulator.capture_ratio for r in ratios)


class TestValidation:
    def test_report_schema_and_quality(self, small_pipeline):
        config = small_pipeline["config"]
        report = validate.validate_surrogates(config)
        assert set(report) >= {
            "curve_nmae_mean",
            "curve_nmae_p95",
            "curve_nmae_max",
            "field_nmae_mean",
            "n_test",
        }
        # Quality regime on the small dataset is looser than acceptance.
        assert report["curve_nmae_mean"] < 3.0
        assert all(v < 8.0 for v in report["field_nmae_mean"].values())
        assert (config.out("validation") / "curve_best_case.csv").exists()
        assert (config.out("validation") / "curve_worst_case.csv").exists()

    def test_report_stable_across_reruns(self, small_pipeline):
        config = small_pipeline["config"]
        r1 = validate.validate_surrogates(config)
        r2 = validate.validate_surrogates(config)
        assert r1 == r2

    def test_reads_only_held_out_runs(self, small_pipeline, snapshot_reads):
        config = small_pipeline["config"]
        rows, splits, _, _ = dataset.read_scores(config.out("scores", "fd_scores.csv"))
        train_rows = [int(r) for r, s in zip(rows, splits) if s == "train"]
        test_rows = [int(r) for r, s in zip(rows, splits) if s == "test"]
        # f_average as first defined: the mean resampled force over the
        # training curves.
        curves, _ = dataset._load_sims(config, train_rows)
        expected = np.mean(
            [resample_segment(c, locate_yield_point(c), config.n_stations).mean()
             for c in curves]
        )

        snapshot_reads.clear()
        report = validate.validate_surrogates(config)
        assert snapshot_reads == test_rows
        assert report["f_average"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_verifies_only_the_sims_it_reads(self, small_pipeline, monkeypatch):
        config = small_pipeline["config"]
        _, splits, _, _ = dataset.read_scores(config.out("scores", "fd_scores.csv"))
        hashed = []

        def recording(path):
            hashed.append(Path(path))
            return sha256_file(path)

        monkeypatch.setattr("gtncal.pipeline.manifest.sha256_file", recording)
        validate.validate_surrogates(config)
        n_sims = sum(path.parent == config.out("sims") for path in hashed)
        assert n_sims == 1 + 2 * splits.count("test")

    def test_tampered_held_out_curve_blocks_validation(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        copy = config.override({"output_dir": str(tmp_path / "tamper")})
        keep = shutil.ignore_patterns("posteriors", "observation", "recovered", "validation")
        shutil.copytree(config.out(), copy.out(), ignore=keep)
        rows, splits, _, _ = dataset.read_scores(copy.out("scores", "fd_scores.csv"))
        row = next(int(r) for r, s in zip(rows, splits) if s == "test")
        path = copy.out("sims", f"curve_{row:04d}.csv")
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace(",", ",1", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError):
            validate.validate_surrogates(copy)

    def test_stations_come_from_the_fd_pipeline(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        keep = shutil.ignore_patterns("posteriors", "observation", "recovered", "validation")
        reports = []
        for name, n_stations in (("same", config.n_stations), ("other", 100)):
            copy = config.override({"output_dir": str(tmp_path / name),
                                    "n_stations": n_stations})
            shutil.copytree(config.out(), copy.out(), ignore=keep)
            validate.validate_surrogates(copy)
            reports.append(copy.out("validation", "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestInference:
    def test_synthetic_observation_roundtrip(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        reduction = inference.load_reduction(config)
        obs = inference.make_synthetic_observation(config, 3, reduction, out_dir=tmp_path / "obs")
        loaded = inference.load_observation_files(
            config, reduction, tmp_path / "obs" / "curve.csv", tmp_path / "obs" / "snapshot.csv"
        )
        # The noisy snapshot itself is written at %.17g.
        np.testing.assert_array_equal(loaded.scores["DIC"], obs.scores["DIC"])
        # The curve file carries its own force noise, not the station-level
        # noise behind the synthetic FD scores.
        assert loaded.scores["FD"].shape == obs.scores["FD"].shape
        assert loaded.truth is None
        assert obs.source == {"source": "synthetic", "seed": 3}
        assert loaded.source == {
            "source": "files",
            "curve_sha256": sha256_file(tmp_path / "obs" / "curve.csv"),
            "snapshot_sha256": sha256_file(tmp_path / "obs" / "snapshot.csv"),
        }

    def test_fd_only_sequence_persists_artifacts(self, small_pipeline):
        config = small_pipeline["config"]
        try:
            inference.run_sequence(config, "FD_ONLY")
        except ConvergenceError:
            pass  # gate may fire at toy scale; artifacts persist either way
        out = config.out("posteriors", inference.posterior_name(["FD"]))
        assert (out / "samples.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["map"]) == {"eps_n", "f_n", "f_c", "f_f"}
        assert summary["observation"] == {
            "source": "synthetic", "seed": config.stage_seed("observation")
        }
        assert (out / "corner" / "hist_eps_n.csv").exists()
        assert (out / "corner" / "pair_f_c_f_f.csv").exists()
        manifest = RunManifest.load(config.out())
        for name in ("curve.csv", "snapshot.csv", "meta.json"):
            entry = manifest.artifacts[f"observation/synthetic/{name}"]
            assert entry["stage"] == "observe"
        manifest.verify_prefix("observation")

    def test_first_stage_persisted_before_second_runs(
        self, small_pipeline, tmp_path, monkeypatch
    ):
        config = small_pipeline["config"]
        copy = config.override({"output_dir": str(tmp_path / "run")})
        shutil.copytree(config.out(), copy.out(),
                        ignore=shutil.ignore_patterns("sims", "posteriors"))
        build = inference.build_likelihoods

        def failing_dic(*args):
            def dic(theta):
                raise NumericError("DIC likelihood failed")

            return {**build(*args), "DIC": dic}

        monkeypatch.setattr(inference, "build_likelihoods", failing_dic)
        with pytest.raises(NumericError):
            inference.run_sequence(copy, "FD_DIC")
        assert copy.out("posteriors", inference.posterior_name(["FD"]), "summary.json").exists()
        assert not copy.out("posteriors", inference.posterior_name(["FD", "DIC"])).exists()

    @pytest.mark.parametrize("order, unused", [("FD_ONLY", "field"), ("DIC_ONLY", "fd")])
    def test_order_reads_only_its_bundles(self, small_pipeline, tmp_path, order, unused):
        config = small_pipeline["config"]
        copy = config.override({"output_dir": str(tmp_path / "run")})
        shutil.copytree(config.out(), copy.out(),
                        ignore=shutil.ignore_patterns("sims", "posteriors"))
        shutil.rmtree(copy.out("bundles", unused))
        try:
            inference.run_sequence(copy, order)
        except ConvergenceError:
            pass
        name = inference.posterior_name(inference.ORDERS[order])
        assert copy.out("posteriors", name, "summary.json").exists()

    def test_unknown_order_rejected(self, small_pipeline):
        with pytest.raises(ValueError):
            inference.run_sequence(small_pipeline["config"], "BOGUS")

    def test_recover_fields_at_map(self, small_pipeline):
        config = small_pipeline["config"]
        fd = inference.posterior_name(["FD"])
        if not config.out("posteriors", fd, "summary.json").exists():
            try:
                inference.run_sequence(config, "FD_ONLY")
            except ConvergenceError:
                pass
        out = inference.recover_fields(config, fd)
        data = np.loadtxt(config.out("recovered", fd, "fields.csv"),
                          delimiter=",", skiprows=1)
        x, y, s22, vvf = data.T
        consts_f0 = 0.001
        assert np.all(vvf >= consts_f0 - 1e-12)
        assert np.all(vvf <= config.truth_theta[3] + 0.35)  # within box f_f ceiling
        hot = np.argmax(vvf)
        assert np.hypot(x[hot], y[hot]) < 2.0

        again = inference.recover_fields(config, fd)
        assert again["map_theta"] == out["map_theta"]

    def test_compare_orders_report(self, small_pipeline):
        config = small_pipeline["config"]
        run_orders(config, STAGED_ORDERS)
        report = inference.compare_orders(config)
        assert report["ranking"][0] in ("FD", "DIC")
        lines = (config.out("reports") / "order_comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "order,parameter,hpd_width,map"
        assert len(lines) == 1 + 8  # 4 parameters x 2 orders

    def test_compare_orders_rejects_tampered_summary(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        ensure_final_posteriors(config)
        copy = config.override({"output_dir": str(tmp_path / "run")})
        shutil.copytree(config.out(), copy.out(), ignore=shutil.ignore_patterns("sims"))
        path = copy.out("posteriors", inference.posterior_name(["FD", "DIC"]), "summary.json")
        summary = json.loads(path.read_text())
        summary["map"]["f_n"] *= 1.5
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ArtifactError, match="posteriors/fd_dic/summary.json"):
            inference.compare_orders(copy)

    def test_compare_orders_rejects_mixed_observations(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        ensure_final_posteriors(config)
        copy = config.override({"output_dir": str(tmp_path / "run"),
                                "tmcmc.runs": 2, "tmcmc.particles": 100})
        shutil.copytree(config.out(), copy.out(), ignore=shutil.ignore_patterns("sims"))
        obs_dir = tmp_path / "obs"
        inference.make_synthetic_observation(
            config, 7, inference.load_reduction(config), out_dir=obs_dir
        )
        try:
            files = (obs_dir / "curve.csv", obs_dir / "snapshot.csv")
            inference.run_sequence(copy, "DIC_ONLY", observation_files=files)
        except ConvergenceError:
            pass
        with pytest.raises(ArtifactError, match="^dic and fd_dic "):
            inference.compare_orders(copy)

    @pytest.mark.parametrize("order, single", [("FD_DIC", "FD_ONLY"), ("DIC_FD", "DIC_ONLY")])
    def test_single_order_rewrites_the_first_posterior_bit_for_bit(
        self, small_pipeline, tmp_path, order, single
    ):
        config = small_pipeline["config"]
        copy = config.override({"output_dir": str(tmp_path / "run"),
                                "tmcmc.runs": 2, "tmcmc.particles": 100})
        shutil.copytree(config.out(), copy.out(),
                        ignore=shutil.ignore_patterns("sims", "posteriors"))
        first = copy.out("posteriors", inference.posterior_name(inference.ORDERS[single]))
        digests = []
        for run in (order, single):
            shutil.rmtree(first, ignore_errors=True)  # the second run writes it anew
            try:
                inference.run_sequence(copy, run)
            except ConvergenceError:
                pass
            digests.append({str(f.relative_to(first)): sha256_file(f)
                            for f in first.rglob("*") if f.is_file()})
        assert {"samples.csv", "summary.json"} <= set(digests[0])
        assert digests[0] == digests[1]

    def test_truth_is_simulated_once_per_process(self, small_pipeline, tmp_path, monkeypatch):
        """A second synthetic run on the same truth, loading and simulator
        reuses the first one's noise-free truth run, read-only, and writes
        the same bytes; another truth or simulator key simulates again, and
        ``simulate_specimen_full`` itself never reuses a run."""
        config = small_pipeline["config"]
        simulate, runs = simulator.simulate_batch, []

        def counting(*args):
            runs.append(args)
            return simulate(*args)

        monkeypatch.setattr(simulator, "simulate_batch", counting)
        inference._truth_run.cache_clear()
        digests = []
        for side in ("cold", "warm"):
            copy = config.override({"output_dir": str(tmp_path / side),
                                    "tmcmc.runs": 2, "tmcmc.particles": 100})
            shutil.copytree(config.out(), copy.out(), ignore=shutil.ignore_patterns(
                "sims", "posteriors", "observation"))
            try:
                inference.run_sequence(copy, "FD_ONLY")
            except ConvergenceError:
                pass
            digests.append({str(f.relative_to(copy.out())): sha256_file(f)
                            for prefix in ("observation", "posteriors")
                            for f in copy.out(prefix).rglob("*") if f.is_file()})
        assert len(runs) == 1
        assert "observation/synthetic/curve.csv" in digests[0]
        assert "posteriors/fd/samples.csv" in digests[0]
        assert digests[0] == digests[1]

        reduction = inference.load_reduction(config)
        for change in ({"truth_theta": [0.31, 0.030, 0.09, 0.26]}, {"simulator.kappa": 2.1}):
            inference.make_synthetic_observation(config.override(change), 3, reduction, None)
        assert len(runs) == 3
        (params,), _, _ = runs[1]
        _, _, settings = runs[2]
        assert params.eps_n == 0.31 and settings.kappa == 2.1

        shared = inference._truth_run(
            tuple(config.truth_theta), config.loading, config.simulator)
        snap = shared.snapshot
        assert len(runs) == 4
        for arr in (shared.curve.displacements, shared.curve.forces, snap.x, snap.y, snap.mask,
                    snap.e11, snap.e12, snap.e22, shared.stress_field, shared.vvf_field):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = arr

        params = GtnParams.from_array(np.asarray(config.truth_theta))
        for _ in range(2):
            simulator.simulate_specimen_full(params, config.loading, config.simulator)
        assert len(runs) == 6

    def test_compare_orders_needs_only_the_two_stage_orders(self, small_pipeline, tmp_path):
        config = small_pipeline["config"]
        copy = config.override({"output_dir": str(tmp_path / "run"),
                                "tmcmc.runs": 2, "tmcmc.particles": 100})
        shutil.copytree(config.out(), copy.out(),
                        ignore=shutil.ignore_patterns("sims", "posteriors", "reports"))
        run_orders(copy, STAGED_ORDERS)
        report = inference.compare_orders(copy)
        assert set(report["hpd_widths"]) == {"fd", "dic", "fd_dic", "dic_fd"}
        assert report["ranking"] in (["FD", "DIC"], ["DIC", "FD"])


def test_whole_chain_is_reproducible(tmp_path, monkeypatch):
    """The chain from build to recovered fields, run twice from two working
    directories, writes the same bytes to every file, manifest included.
    ``output_dir`` is relative because ``config.json`` stores it."""
    config = ExperimentConfig(
        output_dir="run",
        design_size=16,
        seed=1234,
        simulator=SimulatorSettings(nx=24, ny=12),
        tmcmc=TmcmcConfig(runs=2, particles=100),
    )
    digests = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        dataset.build_dataset(config)
        run_orders(config, STAGED_ORDERS)
        validate.validate_surrogates(config)
        inference.compare_orders(config)
        for modalities in inference.ORDERS.values():
            inference.recover_fields(config, inference.posterior_name(modalities))
        files = sorted(f for f in Path("run").rglob("*") if f.is_file())
        digests.append({str(f): sha256_file(f) for f in files})
    assert len(digests[0]) > 100
    assert digests[0] == digests[1]
    # Each artifact is named by its path: the manifest names every file in
    # the run directory but its own two.
    manifest = RunManifest.load("run")
    names = {str(f.relative_to("run")) for f in map(Path, digests[1])}
    assert set(manifest.artifacts) == names - {"manifest.json", "config.json"}
    manifest.verify()


def test_jobs_change_only_wall_time(tmp_path, monkeypatch):
    """``build_dataset`` on two worker processes writes the same bytes to
    every file as on one."""
    config = ExperimentConfig(
        output_dir="run",
        design_size=16,
        seed=1234,
        simulator=SimulatorSettings(nx=24, ny=12),
    )
    digests = []
    for jobs in (1, 2):
        (tmp_path / str(jobs)).mkdir()
        monkeypatch.chdir(tmp_path / str(jobs))
        dataset.build_dataset(config, jobs=jobs)
        files = sorted(f for f in Path("run").rglob("*") if f.is_file())
        digests.append({str(f): sha256_file(f) for f in files})
    assert len(digests[0]) > 50
    assert digests[0] == digests[1]
