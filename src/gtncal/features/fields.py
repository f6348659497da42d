"""Strain-snapshot flattening and per-component error metrics.

Snapshots are flattened to [s11 * e11_cells, s12 * e12_cells, e22_cells] in
row-major cell order, with the shear and transverse components scaled so no
single component dominates the PCA variance.  The scaling factors are
computed from each training set (``field_scaling_factors``); for comparison,
a comparable FE-based dataset in the literature used 1.87 for e11 and 2.79
for e12.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlignmentError, CurveFormatError
from ..simulator import StrainSnapshot

COMPONENTS = ("e11", "e12", "e22")


def _masked_components(snap: StrainSnapshot, mask: np.ndarray) -> list[np.ndarray]:
    if snap.mask.shape != mask.shape or not np.array_equal(snap.mask, mask):
        raise AlignmentError("snapshot mask does not match the dataset mask")
    m = mask.ravel()
    return [getattr(snap, name).ravel()[m] for name in COMPONENTS]


def flatten_field(
    snap: StrainSnapshot, mask: np.ndarray, scale_e11: float, scale_e12: float
) -> np.ndarray:
    """Concatenate masked cells as (scaled e11, scaled e12, e22)."""
    e11, e12, e22 = _masked_components(snap, mask)
    return np.concatenate([scale_e11 * e11, scale_e12 * e12, e22])


def flatten_scale(mask: np.ndarray, scale_e11: float, scale_e12: float) -> np.ndarray:
    """The diagonal of the linear map flatten_field applies to the masked
    cells: (scale_e11, scale_e12, 1) per component block."""
    p = int(mask.sum())
    return np.concatenate([np.full(p, scale_e11), np.full(p, scale_e12), np.ones(p)])


def unflatten_field(
    vec: np.ndarray, mask: np.ndarray, scale_e11: float, scale_e12: float
) -> dict[str, np.ndarray]:
    """Invert flatten_field back to per-component masked-cell vectors."""
    vec = np.asarray(vec, dtype=float)
    p = int(mask.sum())
    if vec.size != 3 * p:
        raise AlignmentError(f"vector length {vec.size} does not match 3 x {p} masked cells")
    return {
        "e11": vec[:p] / scale_e11,
        "e12": vec[p : 2 * p] / scale_e12,
        "e22": vec[2 * p :].copy(),
    }


def field_scaling_factors(
    snapshots: list[StrainSnapshot], mask: np.ndarray
) -> tuple[float, float]:
    """Variance-balancing factors so each scaled component carries the same
    total variance as e22 across the training set."""
    stacks = {name: [] for name in COMPONENTS}
    for snap in snapshots:
        for name, vals in zip(COMPONENTS, _masked_components(snap, mask)):
            stacks[name].append(vals)
    var = {
        name: float(np.sum(np.var(np.stack(rows), axis=0))) for name, rows in stacks.items()
    }
    if var["e11"] <= 0.0 or var["e12"] <= 0.0:
        raise CurveFormatError("strain components have zero variance across the training set")
    return (
        float(np.sqrt(var["e22"] / var["e11"])),
        float(np.sqrt(var["e22"] / var["e12"])),
    )


def field_reference_magnitudes(
    snapshots: list[StrainSnapshot], mask: np.ndarray
) -> dict[str, float]:
    """Per-component normalization: mean absolute strain over the training set."""
    out = {}
    acc = {name: 0.0 for name in COMPONENTS}
    for snap in snapshots:
        for name, vals in zip(COMPONENTS, _masked_components(snap, mask)):
            acc[name] += float(np.mean(np.abs(vals)))
    for name in COMPONENTS:
        out[name] = acc[name] / len(snapshots)
    return out


def field_nmae(
    truth: StrainSnapshot,
    pred: dict[str, np.ndarray],
    mask: np.ndarray,
    eps_ref: dict[str, float],
) -> dict[str, float]:
    """Per-component spatial MAE of a decoded prediction (``unflatten_field``
    layout) against a snapshot, normalized by the training reference, in %."""
    out = {}
    for name, tv in zip(COMPONENTS, _masked_components(truth, mask)):
        pv = pred[name]
        if tv.shape != pv.shape:
            raise AlignmentError(f"component {name} shapes differ")
        if eps_ref[name] <= 0.0:
            raise CurveFormatError(f"eps_ref[{name}] must be positive")
        out[name] = 100.0 * float(np.mean(np.abs(tv - pv))) / eps_ref[name]
    return out
