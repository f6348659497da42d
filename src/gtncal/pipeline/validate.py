"""Surrogate validation on the held-out split.

Reports the per-curve NMAE distribution and the per-component field NMAE
table, and exports best/worst-case reconstructions as plot-ready CSV.
"""

from __future__ import annotations

import numpy as np

from ..features.curves import curve_nmae
from ..features.fields import COMPONENTS, field_nmae
from ..formats import FLOAT, write_csv, write_json
from .config import ExperimentConfig
from .dataset import _load_sims, load_bundles, load_design, load_pipelines, read_scores
from .manifest import RunManifest


def validate_surrogates(config: ExperimentConfig) -> dict:
    """Score the surrogates on the held-out rows and write ``validation/``.

    Curve NMAE is normalized by ``f_average``, the ensemble-average force of
    the training split: the mean over stations of the FD standardizer's
    per-station mean, which was fitted on the training curves resampled
    after Point Y, whose station count the held-out curves share, whatever
    ``config.n_stations`` now says.  Only the held-out rows' simulations are
    read, and of ``sims/`` only those files and ``index.json`` are verified.
    """
    manifest = RunManifest.load(config.out())
    manifest.verify_prefix("scores")
    fd_pipe, field_pipe = load_pipelines(config)
    fd_bundle, field_bundle = load_bundles(config, ("fd", "field"))
    theta = load_design(config)

    rows, splits, _, _ = read_scores(config.out("scores", "fd_scores.csv"))
    test_rows = [int(r) for r, s in zip(rows, splits) if s == "test"]
    manifest.verify(["sims/index.json"] + [
        f"sims/{kind}_{row:04d}.csv" for row in test_rows for kind in ("curve", "snapshot")
    ])
    curves_test, snaps_test = _load_sims(config, test_rows)
    f_average = float(np.mean(fd_pipe.standardizer.mean))

    fd_mean, _ = fd_bundle.predict(theta[test_rows])
    curve_errors = []
    truths, preds = [], []
    for curve, pred_scores in zip(curves_test, fd_mean):
        truth = fd_pipe.stations(curve)
        pred = fd_pipe.decode(pred_scores)
        curve_errors.append(curve_nmae(truth, pred, f_average))
        truths.append(truth)
        preds.append(pred)
    curve_errors = np.asarray(curve_errors)

    field_mean, _ = field_bundle.predict(theta[test_rows])
    comp_errors = {name: [] for name in COMPONENTS}
    for snap, pred_scores in zip(snaps_test, field_mean):
        pred = field_pipe.decode(pred_scores)
        errs = field_nmae(snap, pred, field_pipe.mask, field_pipe.eps_ref)
        for name in COMPONENTS:
            comp_errors[name].append(errs[name])
    comp_errors = {k: np.asarray(v) for k, v in comp_errors.items()}

    val_dir = config.out("validation")
    val_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        val_dir / "curve_nmae.csv",
        np.column_stack([test_rows, curve_errors]),
        header="row_id,nmae_percent",
        fmt=["%d", FLOAT],
    )
    write_csv(
        val_dir / "field_nmae.csv",
        np.column_stack([test_rows] + [comp_errors[n] for n in COMPONENTS]),
        header="row_id," + ",".join(f"nmae_{n}" for n in COMPONENTS),
        fmt=["%d"] + [FLOAT] * 3,
    )
    for label, idx in (("best", int(np.argmin(curve_errors))),
                       ("worst", int(np.argmax(curve_errors)))):
        stations = np.linspace(0.0, 1.0, fd_pipe.n_stations)
        write_csv(
            val_dir / f"curve_{label}_case.csv",
            np.column_stack([stations, truths[idx], preds[idx]]),
            header="station,truth,prediction",
        )

    report = {
        "f_average": f_average,
        "curve_nmae_mean": float(curve_errors.mean()),
        "curve_nmae_p95": float(np.percentile(curve_errors, 95)),
        "curve_nmae_max": float(curve_errors.max()),
        "field_nmae_mean": {k: float(v.mean()) for k, v in comp_errors.items()},
        "field_nmae_max": {k: float(v.max()) for k, v in comp_errors.items()},
        "n_test": len(test_rows),
        "best_row": int(test_rows[int(np.argmin(curve_errors))]),
        "worst_row": int(test_rows[int(np.argmax(curve_errors))]),
    }
    write_json(val_dir / "report.json", report)
    manifest.add_tree("validation", stage="validate")
    manifest.save()
    return report
