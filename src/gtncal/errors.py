"""Exception hierarchy shared across the package, and the finiteness check
the runtime dataclasses share."""

import math
import numbers


class CalibrationError(Exception):
    """Base class for all errors raised by gtncal."""


class DomainError(CalibrationError, ValueError):
    """A scalar argument is outside the mathematical domain of an operation."""


class ParameterError(CalibrationError, ValueError):
    """A parameter set violates its invariants (e.g. f_c >= f_f)."""


class StabilityError(CalibrationError):
    """An explicit integration step exceeds its stability bound."""


class NumericError(CalibrationError):
    """A computation produced non-finite values or failed numerically."""


class SimulationIncompleteError(CalibrationError):
    """The specimen simulation ended without failure or post-peak softening."""


class CurveFormatError(CalibrationError, ValueError):
    """A force-displacement curve violates its format contract."""


class NoYieldError(CalibrationError):
    """A curve never deviates from its initial linear response."""


class SegmentationError(CalibrationError, ValueError):
    """Curve segmentation bounds are inconsistent (d_Y >= d_f)."""


class AlignmentError(CalibrationError, ValueError):
    """Field masks or feature dimensions do not line up across a dataset."""


class OptimizationError(CalibrationError):
    """Hyperparameter optimization failed on every start."""


class ConvergenceError(CalibrationError):
    """Sampler diagnostics failed the convergence gate."""


class InsufficientDataError(CalibrationError, ValueError):
    """Too few samples or points for a statistically meaningful operation."""


class ArtifactError(CalibrationError):
    """A pipeline artifact is missing or its content hash does not match."""


def require_finite(**values: float) -> None:
    """Raise a ParameterError that names the first of ``values`` that is NaN
    or infinite; each keyword is the name of the field it checks.  Integers
    are finite and skipped (``math.isfinite`` overflows on huge ones)."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise ParameterError(f"key {name!r} must be finite, not {value!r}")
