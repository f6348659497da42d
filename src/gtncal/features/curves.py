"""Curve segmentation and resampling.

The damage-relevant portion of a force-displacement curve starts at the
plasticity-onset point (Point Y), where the curve crosses a line through the
origin with 95% of the initial elastic slope, and ends at failure.  That
segment is mapped onto a unit displacement axis and resampled at uniformly
spaced stations so curves with different failure displacements share one
feature vector layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CurveFormatError, NoYieldError, SegmentationError
from ..simulator import CurveSegment

#: Slope-ratio criterion for Point Y.
SLOPE_RATIO = 0.95

#: Elastic-slope fit window: samples with force below this fraction of the
#: peak force.  For the holed-specimen geometry the net section starts
#: yielding near 0.4 * Fmax, so this window is comfortably elastic while
#: keeping enough samples for a stable fit under measurement noise.
SLOPE_WINDOW_FRACTION = 0.25

_MIN_WINDOW_POINTS = 4
_R2_MIN = 0.999


@dataclass(frozen=True)
class YieldPoint:
    """Plasticity-onset point of a curve."""

    d_y: float
    f_y: float


def _fit_elastic_slope(curve: CurveSegment) -> float:
    fmax = float(np.max(curve.forces))
    in_window = curve.forces <= SLOPE_WINDOW_FRACTION * fmax
    # The window is the initial contiguous run of low-force samples.
    stop = int(np.argmin(in_window)) if not in_window.all() else len(curve)
    d = curve.displacements[:stop]
    f = curve.forces[:stop]
    keep = d > 0.0
    d, f = d[keep], f[keep]
    if d.size < _MIN_WINDOW_POINTS:
        raise CurveFormatError(
            f"only {d.size} samples in the elastic fit window; need >= {_MIN_WINDOW_POINTS}"
        )
    slope = float(d @ f) / float(d @ d)
    resid = f - slope * d
    ss_tot = float(np.sum((f - f.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - float(resid @ resid) / ss_tot
        if r2 < _R2_MIN:
            raise CurveFormatError(
                f"initial segment not linear enough (R^2 = {r2:.5f} < {_R2_MIN})"
            )
    return slope


def locate_yield_point(curve: CurveSegment) -> YieldPoint:
    """Find Point Y: the first crossing of F(d) below SLOPE_RATIO * k * d.

    The elastic slope k is fit through the origin on the initial low-force
    window; the crossing is located by linear interpolation between the
    bracketing samples.
    """
    if len(curve) < 10:
        raise CurveFormatError("need at least 10 curve samples")
    slope = _fit_elastic_slope(curve)
    d = curve.displacements
    f = curve.forces
    gap = f - SLOPE_RATIO * slope * d
    below = np.flatnonzero((gap < 0.0) & (d > 0.0))
    if below.size == 0:
        raise NoYieldError("curve never deviates from the initial linear response")
    j = int(below[0])
    if j == 0:
        raise NoYieldError("curve is below the reduced-slope line from the start")
    # Linear interpolation of the sign change of gap on [d_{j-1}, d_j].
    t = gap[j - 1] / (gap[j - 1] - gap[j])
    d_y = float(d[j - 1] + t * (d[j] - d[j - 1]))
    f_y = float(f[j - 1] + t * (f[j] - f[j - 1]))
    return YieldPoint(d_y=d_y, f_y=f_y)


def resample_segment(curve: CurveSegment, yp: YieldPoint, n: int) -> np.ndarray:
    """Force values at n equally spaced stations on the mapped (0, 1) axis.

    Station t corresponds to displacement d_Y + t * (d_f - d_Y); forces are
    linearly interpolated, with the endpoints hitting F(d_Y) and F(d_f).
    """
    d_f = curve.failure_displacement
    if yp.d_y >= d_f:
        raise SegmentationError(f"d_Y = {yp.d_y} must lie below d_f = {d_f}")
    if n < 2:
        raise SegmentationError("need at least 2 stations")
    stations = yp.d_y + np.linspace(0.0, 1.0, n) * (d_f - yp.d_y)
    forces = np.interp(stations, curve.displacements, curve.forces)
    forces[0] = yp.f_y
    return forces


def curve_nmae(truth: np.ndarray, pred: np.ndarray, f_average: float) -> float:
    """Mean absolute force error normalized by the ensemble-average force, in %."""
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.shape != pred.shape:
        raise CurveFormatError("force vectors must have equal length")
    if f_average <= 0.0:
        raise CurveFormatError("f_average must be positive")
    return 100.0 * float(np.mean(np.abs(truth - pred))) / float(f_average)
