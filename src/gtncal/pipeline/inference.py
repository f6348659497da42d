"""Inference stages: synthetic observations, update sequences, field
recovery at the MAP, and the order-sensitivity comparison."""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..bayes.diagnostics import HPD_COVERAGE
from ..bayes.likelihood import ScoreLogLikelihood
from ..bayes.priors import UniformBoxPrior
from ..bayes.sequential import update_chain
from ..bayes.tmcmc import RHAT_GATE, PosteriorSampleSet
from ..errors import ArtifactError, ConvergenceError
from ..features.pipelines import FdFeaturePipeline, FieldFeaturePipeline
from ..formats import FLOAT, read_json, write_csv, write_json
from ..material import PARAM_NAMES, GtnParams
from ..simulator import (
    CurveSegment,
    LoadingProgram,
    SimulationResult,
    SimulatorSettings,
    build_templates,
    read_curve_csv,
    read_snapshot_csv,
    simulate_specimen_full,
    write_curve_csv,
    write_sidecar_json,
    write_snapshot_csv,
)
from .config import ExperimentConfig
from .dataset import load_bundles, load_pipelines, read_scores
from .manifest import RunManifest, sha256_file

#: Each update order's modalities, first update to last.  The posterior
#: after each prefix goes to ``posteriors/`` under ``posterior_name``, so
#: ``FD_ONLY`` writes ``FD_DIC``'s first posterior and ``DIC_ONLY``
#: ``DIC_FD``'s.
ORDERS = {
    "FD_DIC": ("FD", "DIC"),
    "DIC_FD": ("DIC", "FD"),
    "FD_ONLY": ("FD",),
    "DIC_ONLY": ("DIC",),
}
#: The directory under ``bundles/`` that holds each modality's GPs.
_BUNDLE_DIRS = {"FD": "fd", "DIC": "field"}
#: Bins per axis of the corner histograms.
_CORNER_BINS = 60


def posterior_name(modalities: Sequence[str]) -> str:
    """The name of the posterior after updating on ``modalities`` in turn,
    e.g. ``fd_dic``; every order that starts with them writes it."""
    return "_".join(m.lower() for m in modalities)


@dataclass
class Observation:
    """Observed scores keyed by modality ("FD", "DIC").  ``source`` names
    where they came from and is written to each posterior's
    ``summary.json`` as ``observation``; ``truth`` is the parameter vector
    of a synthetic observation and None for an external one."""

    scores: dict[str, np.ndarray]
    source: dict
    truth: np.ndarray | None = None


@dataclass(frozen=True)
class Reduction:
    """What inference reads from a built dataset's reduce stage: the two
    feature pipelines (``features/``), the d_f noise sd, 1% of the d_f
    spread in ``scores/fd_scores.csv``, and each modality's score noise
    variances at the configured noise levels, keyed like
    ``Observation.scores``."""

    fd_pipe: FdFeaturePipeline
    field_pipe: FieldFeaturePipeline
    sigma_df: float
    noise_variances: dict[str, np.ndarray]


def load_reduction(config: ExperimentConfig) -> Reduction:
    """Verify and load the reduce-stage artifacts inference needs."""
    fd_pipe, field_pipe = load_pipelines(config)
    RunManifest.load(config.out()).verify(["scores/fd_scores.csv"])
    _, _, fd_scores, _ = read_scores(config.out("scores", "fd_scores.csv"))
    df = fd_scores[:, fd_pipe.score_names.index("d_f")]
    sigma_df = 0.01 * float(df.max() - df.min())
    noise_variances = {
        "FD": fd_pipe.noise_variances(config.noise.sigma_fd, sigma_df),
        "DIC": field_pipe.noise_variances(config.noise.sigma_dic),
    }
    return Reduction(fd_pipe, field_pipe, sigma_df, noise_variances)


@functools.lru_cache(maxsize=1)
def _truth_run(
    theta: tuple[float, ...], program: LoadingProgram, settings: SimulatorSettings
) -> SimulationResult:
    """The noise-free run at ``theta``, simulated once per process for the
    last (theta, loading, simulator) asked for.  Every observation drawn
    from it shares this one result, so each of its arrays is read-only."""
    result = simulate_specimen_full(GtnParams.from_array(np.asarray(theta)), program, settings)
    snap = result.snapshot
    for arr in (result.curve.displacements, result.curve.forces, snap.x, snap.y, snap.mask,
                snap.e11, snap.e12, snap.e22, result.stress_field, result.vvf_field):
        arr.flags.writeable = False
    return result


def make_synthetic_observation(
    config: ExperimentConfig,
    seed: int,
    reduction: Reduction,
    out_dir: Path | None,
) -> Observation:
    """Add measurement noise at the configured levels to the noise-free
    truth run; ``reduction`` (from ``load_reduction``) encodes the noisy
    observation into scores.

    The truth run depends only on ``truth_theta``, ``loading`` and
    ``simulator``, so a process simulates it once and later calls with the
    same three share it, read-only; only the noise is drawn again, from
    ``seed``.

    Noise enters exactly where the likelihood models it: iid force noise on
    the resampled stations (after Point Y segmentation of the clean curve),
    d_f noise on the appended failure displacement, and iid strain noise on
    every snapshot cell.

    With ``out_dir``, three files are written there.  ``snapshot.csv`` is
    the noisy snapshot and encodes to exactly the returned field scores.
    ``curve.csv`` carries its own force noise on the raw samples and ends at
    the noise-free d_f, so its FD scores differ from the returned ones.
    ``meta.json`` records the truth run and ``noisy_d_f``, the d_f behind
    the returned FD scores.
    """
    rng = np.random.default_rng(seed)
    result = _truth_run(tuple(config.truth_theta), config.loading, config.simulator)
    curve, snap = result.curve, result.snapshot
    fd_pipe, field_pipe = reduction.fd_pipe, reduction.field_pipe

    stations = fd_pipe.stations(curve)
    noisy_stations = stations + rng.normal(0.0, config.noise.sigma_fd, size=stations.shape)
    noisy_df = curve.failure_displacement + float(rng.normal(0.0, reduction.sigma_df))
    fd_scores = fd_pipe.encode_stations(noisy_stations, noisy_df)

    s = config.noise.sigma_dic
    noisy_snap = replace(
        snap,
        e11=snap.e11 + rng.normal(0.0, s, size=snap.e11.shape),
        e12=snap.e12 + rng.normal(0.0, s, size=snap.e12.shape),
        e22=snap.e22 + rng.normal(0.0, s, size=snap.e22.shape),
    )
    field_scores = field_pipe.encode(noisy_snap)

    if out_dir is not None:
        noisy_forces = np.maximum(
            curve.forces + rng.normal(0.0, config.noise.sigma_fd, size=curve.forces.shape), 0.0
        )
        noisy_forces[0] = 0.0
        out_dir.mkdir(parents=True, exist_ok=True)
        write_curve_csv(out_dir / "curve.csv", CurveSegment(curve.displacements, noisy_forces))
        write_snapshot_csv(out_dir / "snapshot.csv", noisy_snap)
        write_sidecar_json(
            out_dir / "meta.json",
            result,
            extra={"observation_seed": seed, "noisy_d_f": noisy_df,
                   "truth_theta": list(config.truth_theta)},
        )
    source = {"source": "synthetic", "seed": seed}
    scores = {"FD": fd_scores, "DIC": field_scores}
    return Observation(scores, source, truth=np.asarray(config.truth_theta))


def load_observation_files(
    config: ExperimentConfig,
    reduction: Reduction,
    curve_path: str | Path,
    snapshot_path: str | Path,
) -> Observation:
    """Read an external curve and snapshot and encode them with the
    pipelines in ``reduction``; the source names the two files' sha256."""
    curve = read_curve_csv(curve_path)
    snapshot = read_snapshot_csv(snapshot_path, build_templates(config.loading, config.simulator))
    source = {"source": "files", "curve_sha256": sha256_file(curve_path),
              "snapshot_sha256": sha256_file(snapshot_path)}
    scores = {"FD": reduction.fd_pipe.encode(curve), "DIC": reduction.field_pipe.encode(snapshot)}
    return Observation(scores, source)


def build_likelihoods(
    config: ExperimentConfig, obs: Observation, reduction: Reduction, modalities: Sequence[str]
) -> dict:
    """The score likelihoods of ``obs`` for each of ``modalities`` ("FD",
    "DIC"), keyed by modality, with the noise variances of ``reduction``;
    only those modalities' bundles are verified and loaded."""
    bundles = load_bundles(config, [_BUNDLE_DIRS[m] for m in modalities])
    return {
        m: ScoreLogLikelihood(obs.scores[m], bundle, reduction.noise_variances[m])
        for m, bundle in zip(modalities, bundles)
    }


def run_sequence(
    config: ExperimentConfig,
    order: str,
    observation_files: tuple[str | Path, str | Path] | None = None,
    seed: int | None = None,
    persist: bool = True,
) -> dict[str, PosteriorSampleSet]:
    """Execute one update chain and persist posterior artifacts.

    The observation is the synthetic one at the ``observation`` stage seed,
    written to ``observation/synthetic/`` and registered in the manifest, or
    the (curve CSV, snapshot CSV) pair ``observation_files`` encoded with
    the dataset's feature pipelines.  The synthetic one adds fresh noise to
    a noise-free truth run that the process simulates once and shares,
    read-only, between calls (``make_synthetic_observation``).  Each
    ``summary.json`` records which one under ``observation``.  Returns the
    posteriors keyed by ``posterior_name``.  Raises ConvergenceError after
    persisting artifacts when any split R-hat reaches ``RHAT_GATE`` (1.05,
    from ``bayes.tmcmc``).

    The default seed is the stage seed of the first modality, and stage i
    samples with the i-th seed spawned from it, which does not depend on
    the number of stages: every order with the same first modality writes
    the same bytes for its first posterior.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {tuple(ORDERS)}")
    modalities = ORDERS[order]
    seed = config.stage_seed(f"infer-{modalities[0]}") if seed is None else seed
    reduction = load_reduction(config)
    if observation_files is None:
        obs_dir = config.out("observation", "synthetic") if persist else None
        obs = make_synthetic_observation(
            config, config.stage_seed("observation"), reduction, out_dir=obs_dir
        )
        if persist:
            manifest = RunManifest.load(config.out())
            manifest.add_tree("observation/synthetic", stage="observe")
            manifest.save()
    else:
        obs = load_observation_files(config, reduction, *observation_files)
    likelihoods = build_likelihoods(config, obs, reduction, modalities)
    chain = update_chain(
        UniformBoxPrior(config.box_array()),
        [likelihoods[modality] for modality in modalities],
        config.tmcmc,
        seed,
    )
    posteriors: dict[str, PosteriorSampleSet] = {}
    for n, post in enumerate(chain, start=1):
        name = posterior_name(modalities[:n])
        posteriors[name] = post
        if persist:
            _persist_posterior(config, name, post, obs)
    gate_failures = [name for name, p in posteriors.items() if not p.passes_gate()]
    if gate_failures:
        raise ConvergenceError(
            f"split R-hat gate (>= {RHAT_GATE}) failed for stage(s): "
            f"{', '.join(gate_failures)}"
        )
    return posteriors


def _persist_posterior(
    config: ExperimentConfig, name: str, post: PosteriorSampleSet, obs: Observation
) -> None:
    out = config.out("posteriors", name)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "samples.csv",
        np.column_stack([post.samples, post.chain_ids, post.log_posterior]),
        header=",".join(PARAM_NAMES) + ",chain_id,log_posterior",
        fmt=[FLOAT] * 4 + ["%d", FLOAT],
    )
    summary = {
        "map": {n: float(v) for n, v in zip(PARAM_NAMES, post.map_point)},
        "map_log_posterior": post.map_log_posterior,
        "hpd": {n: [float(a), float(b)] for n, (a, b) in zip(PARAM_NAMES, post.hpd)},
        "hpd_coverage": HPD_COVERAGE,
        "rhat": {n: float(v) for n, v in zip(PARAM_NAMES, post.rhat)},
        "ess": {n: float(v) for n, v in zip(PARAM_NAMES, post.ess)},
        "gamma_ladders": post.gamma_ladders,
        "seed": post.seed,
        "n_samples": int(post.samples.shape[0]),
        "truth_theta": None if obs.truth is None else [float(v) for v in obs.truth],
        "observation": obs.source,
        "passes_gate": post.passes_gate(),
    }
    write_json(out / "summary.json", summary)
    _write_corner_data(out / "corner", post)
    manifest = RunManifest.load(config.out())
    manifest.add_tree(f"posteriors/{name}", stage="infer")
    manifest.save()


def _write_corner_data(out: Path, post: PosteriorSampleSet) -> None:
    """1D histograms and pairwise 2D bin counts for external corner plots."""
    out.mkdir(parents=True, exist_ok=True)
    s = post.samples
    for j, name in enumerate(PARAM_NAMES):
        counts, edges = np.histogram(s[:, j], bins=_CORNER_BINS)
        write_csv(
            out / f"hist_{name}.csv",
            np.column_stack([edges[:-1], edges[1:], counts]),
            header="bin_low,bin_high,count",
            fmt=[FLOAT, FLOAT, "%d"],
        )
    for i in range(len(PARAM_NAMES)):
        for j in range(i + 1, len(PARAM_NAMES)):
            counts, xe, ye = np.histogram2d(s[:, i], s[:, j], bins=_CORNER_BINS)
            write_csv(
                out / f"pair_{PARAM_NAMES[i]}_{PARAM_NAMES[j]}.csv",
                counts,
                header=(
                    f"# x={PARAM_NAMES[i]} rows [{xe[0]:.6g},{xe[-1]:.6g}] "
                    f"y={PARAM_NAMES[j]} cols [{ye[0]:.6g},{ye[-1]:.6g}]"
                ),
                fmt="%d",
            )


def recover_fields(config: ExperimentConfig, name: str) -> dict:
    """Rerun the simulator at the MAP of posterior ``name`` (a
    ``posterior_name``) and export state fields."""
    manifest = RunManifest.load(config.out())
    summary_name = f"posteriors/{name}/summary.json"
    manifest.verify([summary_name])
    summary = read_json(config.out(summary_name))
    theta = np.array([summary["map"][n] for n in PARAM_NAMES])
    result = simulate_specimen_full(
        GtnParams.from_array(theta),
        program=config.loading,
        settings=config.simulator,
    )
    out = config.out("recovered", name)
    out.mkdir(parents=True, exist_ok=True)
    data = result.snapshot.masked_rows(result.stress_field, result.vvf_field)
    write_csv(out / "fields.csv", data, header="x,y,s22,vvf")
    write_sidecar_json(out / "meta.json", result, extra={"posterior": name})
    manifest.add_tree(f"recovered/{name}", stage="recover")
    manifest.save()
    return {
        "map_theta": theta.tolist(),
        "vvf_max": float(data[:, 3].max()),
        "fields": str(out / "fields.csv"),
    }


def _hpd_widths_from_summary(summary: dict) -> dict[str, float]:
    return {n: summary["hpd"][n][1] - summary["hpd"][n][0] for n in PARAM_NAMES}


def compare_orders(config: ExperimentConfig) -> dict:
    """Order-sensitivity report from persisted posterior summaries: each
    order's final posterior, keyed by ``posterior_name``, which ``FD_DIC``
    and ``DIC_FD`` write between them.  Raises ArtifactError when the
    summaries do not record the same ``observation``."""
    manifest = RunManifest.load(config.out())
    summaries = {}
    for key in map(posterior_name, ORDERS.values()):
        name = f"posteriors/{key}/summary.json"
        manifest.verify([name])
        summaries[key] = read_json(config.out(name))
    observed = {key: summary["observation"] for key, summary in summaries.items()}
    first, *rest = observed
    differ = [key for key in rest if observed[key] != observed[first]]
    if differ:
        raise ArtifactError(
            f"{', '.join(differ)} and {first} come from different observations: "
            + "; ".join(f"{key} {observed[key]}" for key in (first, *differ))
        )
    widths = {key: _hpd_widths_from_summary(summary) for key, summary in summaries.items()}
    info_fd, info_dic = (float(np.prod(list(widths[k].values()))) for k in ("fd", "dic"))
    ranking = ["FD", "DIC"] if info_fd <= info_dic else ["DIC", "FD"]

    report_dir = config.out("reports")
    report_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        report_dir / "order_comparison.csv",
        np.array([[key, n, widths[key][n], summaries[key]["map"][n]]
                  for key in ("fd_dic", "dic_fd") for n in PARAM_NAMES], dtype=object),
        header="order,parameter,hpd_width,map",
        fmt=["%s", "%s", FLOAT, FLOAT],
    )
    report = {
        "metric": "hpd_width_product",
        "informativeness": {"FD": info_fd, "DIC": info_dic},
        "ranking": ranking,
        "hpd_widths": widths,
        "map": {key: summaries[key]["map"] for key in summaries},
    }
    write_json(report_dir / "order_comparison.json", report)
    manifest.add_tree("reports", stage="compare")
    manifest.save()
    return report
