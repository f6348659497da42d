"""GTN damage-model calibration: reduced-order simulation, PCA feature
reduction, GP surrogates, and sequential Bayesian updating."""

__version__ = "0.1.0"
