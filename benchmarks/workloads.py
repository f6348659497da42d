"""The benchmark workloads.

Every workload is a closed loop through the calibration chain's three
public entry points, one call after another in one process with
``jobs=1``:

1. ``build_dataset`` into an empty directory (design -> simulate -> reduce
   -> train)  -> ``build_s``;
2. ``train_bundle("FIELD", ...)`` on 150 training rows of the prepared
   default-size dataset, one call per output  -> ``train_s``;
3. ``run_sequence`` on a working copy of the prepared dataset, with
   ``persist=True``  -> ``posterior_s`` and ``ess_per_s``.

Every end-to-end metric is reported on every workload, so both workloads
run all three steps; they differ in the size of the build and of the
inference, so that a different layer leads in each.  On a shared 2-vCPU
virtual machine the same call ran up to 2x slower from one second to the
next, so every step is several seconds of calls spread over the whole
iteration (see ``schedule``).  Configs are set only through
``ExperimentConfig.override`` with dotted keys.  Each call is followed by
its correctness check; a call that raises or fails its check fails the
iteration.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gtncal import emulator
from gtncal.bayes.priors import constraint_ok
from gtncal.pipeline import dataset, inference
from gtncal.pipeline.config import ExperimentConfig
from gtncal.pipeline.manifest import RunManifest

import prepared

#: Seed of every input that does not come from the run's seed.
FIXED_SEED = 0

#: Held-out NRMSE bound of one FIELD output trained on 150 rows (see
#: ``heldout_nrmse``): the worst value recorded when this benchmark was
#: written, 0.2209, plus 25%.
NRMSE_BOUND = 0.28


@dataclass(frozen=True)
class Build:
    overrides: dict  # ExperimentConfig overrides for build_dataset
    repeats: int = 1


@dataclass(frozen=True)
class Train:
    rows: int  # first ``rows`` training rows of the prepared dataset
    outputs: int  # FIELD columns from ``first`` on; one call per column
    first: int = 0


@dataclass(frozen=True)
class Infer:
    order: str
    overrides: dict  # ExperimentConfig overrides for run_sequence
    repeats: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Build
    train: Train
    infer: Infer
    seeded: tuple[str, ...] = ()  # steps whose inputs come from the run's seed


TRAIN = Train(rows=150, outputs=3)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dataset",
            "build_dataset at 32 runs on the default grid: simulator and material "
            "lead; n=150 GP training and FD-only inference on n=300 GPs follow",
            # A seeded 32-run design can exclude more than 5% of its runs
            # (2 of 32 at seed 2), which aborts build_dataset by design, so
            # the design is fixed.
            build=Build({"design_size": 32}),
            train=TRAIN,
            infer=Infer("FD_ONLY", {"tmcmc.runs": 2, "tmcmc.particles": 500}, repeats=3),
        ),
        Workload(
            "calibrate",
            "FD->DIC run_sequence at 4 x 1000 on n=300 GPs: GP predict and the KDE "
            "prior lead; n=150 GP training and a small 24 x 12 grid build follow",
            build=Build({"design_size": 16, "simulator.nx": 24, "simulator.ny": 12}, repeats=3),
            train=TRAIN,
            infer=Infer("FD_DIC", {"tmcmc.runs": 4, "tmcmc.particles": 1000}),
            seeded=("infer",),
        ),
    )
}


class CheckFailed(Exception):
    """A call's output failed its correctness check."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Inputs:
    """What set-up prepares: the verified prepared dataset, its FIELD score
    table and a scratch directory."""

    root: Path
    work: Path
    theta: np.ndarray
    rows: np.ndarray
    is_train: np.ndarray
    scores: np.ndarray
    names: list[str]
    box: np.ndarray


def set_up(root: Path, work: Path) -> Inputs:
    """Verify the prepared dataset and load the training inputs."""
    prepared.verify_prepared(root)
    config = ExperimentConfig().override({"output_dir": str(root)})
    rows, splits, scores, names = dataset.read_scores(config.out("scores", "field_scores.csv"))
    work.mkdir(parents=True, exist_ok=True)
    return Inputs(
        root=root,
        work=work,
        theta=dataset.load_design(config),
        rows=rows,
        is_train=np.array([s == "train" for s in splits]),
        scores=scores,
        names=names,
        box=config.box_array(),
    )


@contextlib.contextmanager
def timed(tracer, out: dict):
    """Time one call in CPU seconds of this process (``out["cpu"]``) and in
    wall seconds (``out["wall"]``).  The tracer, if any, records spans only
    inside it, so the correctness checks stay out of the per-layer figures.

    The metrics use CPU seconds: every call runs in this one process with
    jobs=1 and BLAS pinned to one thread, so CPU time is the wall time the
    call takes without the hypervisor steal of a shared host.
    """
    if tracer is not None:
        tracer.active = True
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        yield
    finally:
        out["cpu"] = time.process_time() - c0
        out["wall"] = time.perf_counter() - w0
        if tracer is not None:
            tracer.active = False


# -- step 1: build_dataset ----------------------------------------------------


def run_build(inputs: Inputs, step: Build, seed: int, tracer) -> tuple[dict, dict]:
    out = inputs.work / "build"
    if out.exists():
        shutil.rmtree(out)
    config = ExperimentConfig().override(
        {**step.overrides, "output_dir": str(out), "seed": seed}
    )
    clock = {}
    with timed(tracer, clock):
        info = dataset.build_dataset(config, jobs=1)
    facts = check_build(config, info)
    shutil.rmtree(out)
    return clock, facts


def check_build(config: ExperimentConfig, info: dict) -> dict:
    RunManifest.load(config.out()).verify()
    for name in ("fd_scores.csv", "field_scores.csv"):
        _, _, table, _ = dataset.read_scores(config.out("scores", name))
        _check(bool(np.all(np.isfinite(table))), f"non-finite values in {name}")
    _check(info["k_fd"] >= 1 and info["k_field"] >= 1, "empty PCA basis")
    index = json.loads(config.out("sims", "index.json").read_text())
    excluded = len(index["excluded"]) / index["total"]
    _check(excluded <= 0.05, f"{excluded:.1%} of simulations excluded")
    files = [f for f in config.out().rglob("*") if f.is_file()]
    return {
        "k_fd": info["k_fd"],
        "k_field": info["k_field"],
        "excluded_fraction": excluded,
        "bytes_written": sum(f.stat().st_size for f in files),
        "files_written": len(files),
    }


# -- step 2: train_bundle -----------------------------------------------------


def _columns(step: Train) -> slice:
    return slice(step.first, step.first + step.outputs)


def run_train(inputs: Inputs, step: Train, seed: int, tracer) -> tuple[dict, dict]:
    cols = _columns(step)
    train_rows = inputs.rows[inputs.is_train][: step.rows]
    clock = {}
    with timed(tracer, clock):
        bundle = emulator.train_bundle(
            "FIELD",
            inputs.theta[train_rows],
            inputs.scores[inputs.is_train][: step.rows, cols],
            inputs.box,
            inputs.names[cols],
            bounds=emulator.HyperparamBounds(),
            # train_bundle seeds output j with seed + 1000 j; this keeps a
            # one-output call identical to that output of a wider call.
            seed=seed + 1000 * step.first,
            train_indices=train_rows,
            test_indices=inputs.rows[~inputs.is_train],
            jobs=1,
        )
    return clock, check_train(inputs, bundle, cols)


def heldout_nrmse(inputs: Inputs, bundle, cols: slice) -> float:
    """Worst over outputs of the held-out RMSE over the output's standard
    deviation across the whole dataset."""
    test = ~inputs.is_train
    mean, _ = bundle.predict(inputs.theta[inputs.rows[test]])
    rmse = np.sqrt(np.mean((mean - inputs.scores[test][:, cols]) ** 2, axis=0))
    return float(np.max(rmse / inputs.scores[:, cols].std(axis=0)))


def check_train(inputs: Inputs, bundle, cols: slice) -> dict:
    for gp in bundle.gps:
        h = gp.hyperparams
        values = [h.signal_variance, h.noise_variance, *h.length_scales]
        _check(all(math.isfinite(v) for v in values), "non-finite GP hyperparameters")
    nrmse = heldout_nrmse(inputs, bundle, cols)
    _check(nrmse < NRMSE_BOUND, f"held-out NRMSE {nrmse:.4f} >= bound {NRMSE_BOUND}")
    return {"nrmse": nrmse}


# -- step 3: run_sequence -----------------------------------------------------


def run_infer(inputs: Inputs, step: Infer, seed: int, tracer) -> tuple[dict, dict]:
    copy = prepared.working_copy(inputs.root, inputs.work / "infer")
    config = ExperimentConfig().override({**step.overrides, "output_dir": str(copy)})
    clock = {}
    with timed(tracer, clock):
        posteriors = inference.run_sequence(config, step.order, seed=seed, persist=True)
    facts = check_infer(config, posteriors)
    shutil.rmtree(copy)
    return clock, facts


def check_infer(config: ExperimentConfig, posteriors: dict) -> dict:
    final = list(posteriors.values())[-1]
    expected = config.tmcmc.runs * config.tmcmc.particles
    box = config.box_array()
    for label, post in posteriors.items():
        _check(post.passes_gate(), f"R-hat gate failed for {label}")
        s = post.samples
        _check(s.shape[0] == expected, f"{label}: {s.shape[0]} samples, expected {expected}")
        inside = np.all((s >= box[:, 0]) & (s <= box[:, 1]), axis=1) & constraint_ok(s)
        _check(bool(inside.all()), f"{label}: samples outside the box or with f_c >= f_f")
    truth = np.asarray(config.truth_theta)
    covered = bool(np.all((truth >= final.hpd[:, 0]) & (truth <= final.hpd[:, 1])))
    written = [f for f in config.out("posteriors").rglob("*") if f.is_file()]
    written += [f for f in config.out("observation").rglob("*") if f.is_file()]
    return {
        "ess_min": float(final.ess.min()),
        "rhat_max": float(max(p.rhat.max() for p in posteriors.values())),
        "stages": sum(len(l) - 1 for p in posteriors.values() for l in p.gamma_ladders),
        "truth_covered": covered,
        "bytes_written": sum(f.stat().st_size for f in written),
        "files_written": len(written),
    }


# -- one iteration ------------------------------------------------------------

_RUNNERS = {"build": run_build, "train": run_train, "infer": run_infer}


def calls(workload: Workload, seed: int) -> dict[str, list]:
    """Per step, the (step, seed) calls of one iteration.  The build and
    inference calls are repeats; the train calls are one output each."""
    step_seed = {
        name: seed if name in workload.seeded else FIXED_SEED
        for name in ("build", "train", "infer")
    }
    t = workload.train
    return {
        "build": [(workload.build, step_seed["build"])] * workload.build.repeats,
        "train": [
            (replace(t, first=t.first + j, outputs=1), step_seed["train"])
            for j in range(t.outputs)
        ],
        "infer": [(workload.infer, step_seed["infer"])] * workload.infer.repeats,
    }


def schedule(workload: Workload, seed: int) -> list[tuple[str, object, int]]:
    """(step name, step, seed) calls of one iteration, each step's calls
    spread evenly over the iteration so that every step samples the host's
    drifting speed at several moments."""
    placed = []
    for order, (name, step_calls) in enumerate(calls(workload, seed).items()):
        n = len(step_calls)
        for k, (step, s) in enumerate(step_calls):
            placed.append(((k + 0.5) / n, order, name, step, s))
    return [(name, step, s) for _, _, name, step, s in sorted(placed, key=lambda p: p[:2])]


def run_iteration(workload: Workload, inputs: Inputs, seed: int, tracer=None) -> dict:
    """One pass through the chain; returns call times and checked facts.

    ``build_s`` and ``posterior_s`` are the median CPU seconds of their
    repeats, ``train_s`` the CPU seconds of all its one-output calls (the
    cost of the three-output bundle); see ``timed``.
    """
    out = {"seed": seed}
    for name in ("build", "train", "infer"):
        out[f"{name}_times"], out[f"{name}_wall"], out[name] = [], [], []
    for name, step, s in schedule(workload, seed):
        clock, facts = _RUNNERS[name](inputs, step, s, tracer)
        out[f"{name}_times"].append(clock["cpu"])
        out[f"{name}_wall"].append(clock["wall"])
        out[name].append(facts)
    out["build_s"] = statistics.median(out["build_times"])
    out["train_s"] = sum(out["train_times"])
    out["posterior_s"] = statistics.median(out["infer_times"])
    out["ess_per_s"] = statistics.median(
        f["ess_min"] / t for f, t in zip(out["infer"], out["infer_times"])
    )
    out["timed_s"] = sum(out["build_times"]) + out["train_s"] + sum(out["infer_times"])
    return out
