"""Which public calls the traced run wraps, and the per-layer metrics it
derives from their spans and counts.

Layers are gtncal's modules: material, simulator, features, emulator, bayes
and pipeline (dataset, inference, manifest).
"""

from __future__ import annotations

import os

import numpy as np

import gtncal.bayes.diagnostics as diagnostics
import gtncal.bayes.likelihood as likelihood
import gtncal.bayes.priors as priors
import gtncal.bayes.tmcmc as tmcmc
import gtncal.emulator.bundle as bundle
import gtncal.emulator.gp as gp
import gtncal.features.pipelines as pipelines
import gtncal.material as material
import gtncal.pipeline.dataset as dataset
import gtncal.pipeline.inference as inference
import gtncal.pipeline.manifest as manifest
import gtncal.simulator as simulator

from tracing import Tracer


def _rows(theta) -> int:
    return int(np.atleast_2d(theta).shape[0])


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls (and a few private pipeline steps that
    hold real work) in spans with work counters."""
    t = tracer

    # material
    t.install_method(
        material.GtnPointBatch, "step", "material.step",
        lambda a, k, r: {"material.step.point_updates": a[0].sigma.size},
    )
    t.install_function(
        material, "flow_stress_on_surface", "material.flow_stress",
        lambda a, k, r: {"material.flow_stress.points": int(np.size(a[1]))},
    )

    # simulator
    def count_sim(a, k, results):
        done = sum(1 for res in results if isinstance(res, simulator.SimulationResult))
        return {"simulator.runs": len(a[0]), "simulator.completed": done}

    t.install_function(simulator, "simulate_batch", "simulator.simulate_batch", count_sim)
    t.install_function(simulator, "build_templates", "simulator.build_templates")
    for fn in ("read_curve_csv", "read_snapshot_csv", "write_curve_csv",
               "write_snapshot_csv", "write_sidecar_json"):
        t.install_function(simulator, fn, f"simulator.io.{fn}")

    # features
    for cls in (pipelines.FdFeaturePipeline, pipelines.FieldFeaturePipeline):
        t.install_method(cls, "fit", "features.fit")
        t.install_method(cls, "encode", "features.encode")
        t.install_method(cls, "save", "features.save")
        t.install_method(cls, "load", "features.load")

    # emulator
    t.install_function(bundle, "train_bundle", "emulator.train_bundle")
    t.install_function(gp, "optimize_hyperparams", "emulator.optimize")

    def count_lml(a, k, r):
        tracer.note_max("emulator.lml.n", int(np.size(a[1])))
        return {}

    t.install_function(gp, "log_marginal_likelihood", "emulator.lml", count_lml)
    t.install_method(gp.TrainedGp, "from_hyperparams", "emulator.from_hyperparams")

    def count_predict(a, k, r):
        rows = _rows(a[1])
        return {"emulator.predict.rows": rows,
                "emulator.predict.row_outputs": rows * a[0].n_outputs}

    t.install_method(bundle.SurrogateBundle, "predict", "emulator.predict", count_predict)
    t.install_function(bundle, "save_bundle", "emulator.save_bundle")
    t.install_function(bundle, "load_bundle", "emulator.load_bundle")

    # bayes
    def count_kde(a, k, r):
        rows = _rows(a[1])
        return {"bayes.kde.rows": rows,
                "bayes.kde.row_centers": rows * a[0].centers_z.shape[0]}

    t.install_method(priors.KdePrior, "log_density", "bayes.kde", count_kde)
    t.install_method(priors.KdePrior, "sample", "bayes.kde_sample")
    t.install_method(priors.UniformBoxPrior, "log_density", "bayes.uniform_prior")
    t.install_method(priors.UniformBoxPrior, "sample", "bayes.uniform_sample")
    t.install_function(priors, "fit_kde_prior", "bayes.fit_kde")
    t.install_method(
        likelihood.ScoreLogLikelihood, "__call__", "bayes.loglike",
        lambda a, k, r: {"bayes.loglike.rows": _rows(a[1])},
    )
    t.install_function(
        tmcmc, "tmcmc_sample", "bayes.tmcmc",
        lambda a, k, r: {"bayes.tmcmc.stages": sum(len(l) - 1 for l in r.gamma_ladders)},
    )
    for fn in ("split_rhat", "effective_sample_size", "map_and_hpd"):
        t.install_function(diagnostics, fn, "bayes.diagnostics")

    # pipeline
    t.install_function(dataset, "build_dataset", "pipeline.build_dataset")
    for stage in ("design", "simulate", "reduce", "train"):
        t.install_function(dataset, f"stage_{stage}", f"pipeline.stage.{stage}")
    t.install_function(dataset, "read_scores", "pipeline.io.read_scores")
    t.install_function(dataset, "_load_sims", "pipeline.load_sims")
    t.install_function(inference, "run_sequence", "pipeline.run_sequence")
    t.install_function(inference, "make_synthetic_observation", "pipeline.observation")
    t.install_function(inference, "_persist_posterior", "pipeline.persist_posterior")
    t.install_function(inference, "_write_corner_data", "pipeline.corner_data")
    t.install_function(
        manifest, "sha256_file", "pipeline.manifest.hash",
        lambda a, k, r: {"pipeline.manifest.bytes_hashed": os.path.getsize(a[0])},
    )
    t.install_attribute(np, "loadtxt", "pipeline.io.loadtxt")
    t.install_attribute(np, "savetxt", "pipeline.io.savetxt")


def _per(numer: float, denom: float, scale: float = 1.0) -> float:
    return scale * numer / denom if denom else 0.0


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced iteration."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return s.get(name, {}).get("total_s", 0.0)

    runs = c["simulator.runs"]
    out = {
        "material.step.calls": calls("material.step"),
        "material.step.self_s": self_s("material.step"),
        "material.step.point_updates": c["material.step.point_updates"],
        "material.flow_stress.calls": calls("material.flow_stress"),
        "material.flow_stress.self_s": self_s("material.flow_stress"),
        "material.flow_stress.points": c["material.flow_stress.points"],
        "material.ns_per_point_update": _per(
            self_s("material.step") + self_s("material.flow_stress"),
            c["material.step.point_updates"], 1e9,
        ),
        "simulator.simulate_batch.calls": calls("simulator.simulate_batch"),
        "simulator.simulate_batch.self_s": self_s("simulator.simulate_batch"),
        "simulator.runs": runs,
        "simulator.completed_fraction": _per(c["simulator.completed"], runs),
        "emulator.lml.calls": calls("emulator.lml"),
        "emulator.lml.self_s": self_s("emulator.lml"),
        "emulator.lml.ms_per_call": _per(self_s("emulator.lml"), calls("emulator.lml"), 1e3),
        "emulator.lml.n": tracer.maxima.get("emulator.lml.n", 0),
        "emulator.optimize.self_s": self_s("emulator.optimize"),
        "emulator.train_bundle.total_s": total_s("emulator.train_bundle"),
        "emulator.failed_starts": c["emulator.lml.errors.NumericError"],
        "emulator.predict.calls": calls("emulator.predict"),
        "emulator.predict.rows": c["emulator.predict.rows"],
        "emulator.predict.self_s": self_s("emulator.predict"),
        "emulator.predict.us_per_row_output": _per(
            self_s("emulator.predict"), c["emulator.predict.row_outputs"], 1e6
        ),
        "bayes.kde.calls": calls("bayes.kde"),
        "bayes.kde.rows": c["bayes.kde.rows"],
        "bayes.kde.self_s": self_s("bayes.kde"),
        "bayes.kde.ns_per_row_center": _per(
            self_s("bayes.kde"), c["bayes.kde.row_centers"], 1e9
        ),
        "bayes.fit_kde.self_s": self_s("bayes.fit_kde"),
        "bayes.tmcmc.calls": calls("bayes.tmcmc"),
        "bayes.tmcmc.self_s": self_s("bayes.tmcmc"),
        "bayes.tmcmc.stages": c["bayes.tmcmc.stages"],
        "bayes.loglike.calls": calls("bayes.loglike"),
        "bayes.loglike.rows": c["bayes.loglike.rows"],
        "bayes.loglike.self_s": self_s("bayes.loglike"),
        "features.fit.self_s": self_s("features.fit"),
        "features.encode.calls": calls("features.encode"),
        "features.encode.self_s": self_s("features.encode"),
        "pipeline.stage.design_s": total_s("pipeline.stage.design"),
        "pipeline.stage.simulate_s": total_s("pipeline.stage.simulate"),
        "pipeline.stage.reduce_s": total_s("pipeline.stage.reduce"),
        "pipeline.stage.train_s": total_s("pipeline.stage.train"),
        "pipeline.observation_s": total_s("pipeline.observation"),
        "pipeline.manifest.hash_calls": calls("pipeline.manifest.hash"),
        "pipeline.manifest.hash_s": self_s("pipeline.manifest.hash"),
        "pipeline.manifest.bytes_hashed": c["pipeline.manifest.bytes_hashed"],
        "pipeline.io.csv_read_s": self_s("pipeline.io.loadtxt")
        + self_s("pipeline.io.read_scores"),
    }
    out["trace.layer_coverage"] = _per(tracer.layer_self_time(), tracer.top_level_wall())
    out["trace.spans"] = len(tracer.spans)
    out["trace.span_cost_s"] = len(tracer.spans) * tracer.span_cost()
    out["trace.timed_s"] = tracer.top_level_wall()
    return out


def _unit(name: str) -> str:
    for suffix, unit in (
        ("_s", "s"), (".ns_per_point_update", "ns"), (".ns_per_row_center", "ns"),
        (".ms_per_call", "ms"), (".us_per_row_output", "us"), ("bytes_hashed", "bytes"),
        ("bytes_written", "bytes"), ("_fraction", "ratio"), ("_coverage", "ratio"),
        ("rhat_max", "ratio"), ("ess_min", "samples"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


#: Every per-layer metric name, in report order, with its unit.
NAMES = (
    "material.step.calls", "material.step.self_s", "material.step.point_updates",
    "material.flow_stress.calls", "material.flow_stress.self_s",
    "material.flow_stress.points", "material.ns_per_point_update",
    "simulator.simulate_batch.calls", "simulator.simulate_batch.self_s",
    "simulator.runs", "simulator.completed_fraction",
    "emulator.lml.calls", "emulator.lml.self_s", "emulator.lml.ms_per_call",
    "emulator.lml.n", "emulator.optimize.self_s", "emulator.train_bundle.total_s",
    "emulator.failed_starts", "emulator.predict.calls", "emulator.predict.rows",
    "emulator.predict.self_s", "emulator.predict.us_per_row_output",
    "bayes.kde.calls", "bayes.kde.rows", "bayes.kde.self_s", "bayes.kde.ns_per_row_center",
    "bayes.fit_kde.self_s", "bayes.tmcmc.calls", "bayes.tmcmc.self_s", "bayes.tmcmc.stages",
    "bayes.loglike.calls", "bayes.loglike.rows", "bayes.loglike.self_s",
    "bayes.rhat_max", "bayes.ess_min", "bayes.truth_covered",
    "features.fit.self_s", "features.encode.calls", "features.encode.self_s",
    "features.k_fd", "features.k_field",
    "pipeline.stage.design_s", "pipeline.stage.simulate_s", "pipeline.stage.reduce_s",
    "pipeline.stage.train_s", "pipeline.observation_s", "pipeline.manifest.hash_calls",
    "pipeline.manifest.hash_s", "pipeline.manifest.bytes_hashed",
    "pipeline.io.bytes_written", "pipeline.io.files_written", "pipeline.io.csv_read_s",
    "trace.overhead_s", "trace.span_cost_s", "trace.layer_coverage", "trace.spans",
    "trace.timed_s",
    "process.cpu_s",
)
UNITS = {name: _unit(name) for name in NAMES}
