"""Single-output GP regression with ARD kernels for PC-score emulation."""

from .kernel import ArdHyperparams, HyperparamBounds, kernel_cross, kernel_matrix
from .gp import TrainedGp, log_marginal_likelihood, optimize_hyperparams
from .bundle import SurrogateBundle, train_bundle

__all__ = [
    "ArdHyperparams",
    "HyperparamBounds",
    "kernel_matrix",
    "kernel_cross",
    "TrainedGp",
    "log_marginal_likelihood",
    "optimize_hyperparams",
    "SurrogateBundle",
    "train_bundle",
]
