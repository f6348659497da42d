"""Latin hypercube design over the parameter box."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ParameterError


def lhs_design(n: int, box: np.ndarray, seed: int) -> np.ndarray:
    """Stratified design: one point per equal-width stratum per dimension.

    The design does not truncate f_c < f_f: a config's box orders every f_c
    at or below every f_f (``ExperimentConfig``).
    """
    if n < 2:
        raise ParameterError("design needs at least 2 points")
    box = np.asarray(box, dtype=float)
    if np.any(box[:, 0] >= box[:, 1]):
        raise DomainError("degenerate box: lower bound not below upper bound")
    d = box.shape[0]
    rng = np.random.default_rng(seed)
    strata = np.column_stack([rng.permutation(n) for _ in range(d)]).astype(float)
    u = rng.uniform(size=(n, d))
    unit = (strata + u) / n
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])
