"""Single-output GP regression with ARD kernels for PC-score emulation."""

# benchmarks/workloads.py imports these two from the package; every other
# name is imported from its defining module.
from .bundle import train_bundle
from .kernel import HyperparamBounds

__all__ = ["train_bundle", "HyperparamBounds"]
