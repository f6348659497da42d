"""Experiment configuration: one JSON file drives every pipeline stage."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import typing
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..bayes.tmcmc import TmcmcConfig
from ..errors import ParameterError
from ..formats import json_text
from ..material import PARAM_NAMES
from ..simulator import LoadingProgram, SimulatorSettings

#: Calibrated-parameter box used for design generation and priors.
DEFAULT_BOX = {
    "eps_n": (0.1, 0.5),
    "f_n": (0.01, 0.05),
    "f_c": (0.01, 0.15),
    "f_f": (0.15, 0.35),
}


@dataclass(frozen=True)
class NoiseConfig:
    sigma_fd: float = 12.0  # N, iid on resampled forces
    sigma_dic: float = 2.0e-4  # strain, iid on snapshot cells
    sigma_df: float | None = None  # mm; None = 1% of the d_f range of all runs in fd_scores.csv

    def __post_init__(self) -> None:
        for name in ("sigma_fd", "sigma_dic", "sigma_df"):
            value = getattr(self, name)
            if value is None and name == "sigma_df":
                continue
            if not (_finite(value) and value > 0):
                raise ParameterError(
                    f"key {name!r} must be a number > 0 and finite, not {value!r}"
                )


@dataclass(frozen=True)
class ExperimentConfig:
    output_dir: str = "runs/default"
    seed: int = 20240821
    design_size: int = 400
    train_fraction: float = 0.75
    pca_threshold_fd: float = 0.9999
    pca_threshold_field: float = 0.9999
    n_stations: int = 200
    box: dict = field(default_factory=lambda: dict(DEFAULT_BOX))
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    simulator: SimulatorSettings = field(default_factory=SimulatorSettings)
    loading: LoadingProgram = field(default_factory=LoadingProgram)
    tmcmc: TmcmcConfig = field(default_factory=TmcmcConfig)
    truth_theta: tuple[float, float, float, float] = (0.30, 0.030, 0.09, 0.26)

    def __post_init__(self) -> None:
        if self.design_size < 16:
            raise ParameterError("design_size must be at least 16")
        if self.n_stations < 2:
            raise ParameterError(f"key 'n_stations' must be at least 2, not {self.n_stations}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ParameterError("train_fraction must lie in (0, 1)")
        for name in ("pca_threshold_fd", "pca_threshold_field"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ParameterError(f"key {name!r} must lie in (0, 1]")
        if sorted(self.box) != sorted(PARAM_NAMES):
            raise ParameterError(
                f"box must have the keys {list(PARAM_NAMES)}, not {sorted(self.box)}"
            )
        for name, (lo, hi) in self.box.items():
            if not lo < hi:
                raise ParameterError(f"box entry {name!r}: lower bound {lo} must lie below {hi}")
        # GTN coalescence precedes failure: every f_c of the box lies at or
        # below every f_f, so no sampler or design has to truncate f_c < f_f.
        if not self.box["f_c"][1] <= self.box["f_f"][0]:
            raise ParameterError(
                f"key 'box': f_c upper bound {self.box['f_c'][1]} must not exceed "
                f"f_f lower bound {self.box['f_f'][0]}"
            )
        box = self.box_array()
        t = self.truth_theta
        if not (len(t) == 4 and t[2] < t[3]):
            raise ParameterError("truth_theta must be 4 values with f_c < f_f")
        for name, value, (lo, hi) in zip(PARAM_NAMES, t, box):
            if not lo <= value <= hi:
                raise ParameterError(
                    f"key 'truth_theta': {name} = {value} lies outside its box [{lo}, {hi}]"
                )

    def box_array(self) -> np.ndarray:
        return np.array([self.box[name] for name in PARAM_NAMES], dtype=float)

    def out(self, *parts: str) -> Path:
        return Path(self.output_dir).joinpath(*parts)

    def stage_seed(self, stage: str) -> int:
        """Stable per-stage seed derived from the master seed."""
        return int(
            np.random.SeedSequence([self.seed, zlib.crc32(stage.encode())]).generate_state(1)[0]
        )

    def to_json(self) -> str:
        return json_text(asdict(self))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        return cls._from_dict(raw)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text())

    @classmethod
    def _from_dict(cls, raw: object) -> "ExperimentConfig":
        kwargs = dict(_mapping(raw, "config"))
        for name in (*_SECTIONS, "box"):
            if name in kwargs:
                _mapping(kwargs[name], f"config section {name!r}")
        for name, section in _SECTIONS.items():
            if name in kwargs:
                kwargs[name] = _build(section, kwargs[name], f"config section {name!r}")
        if "box" in kwargs:
            kwargs["box"] = {
                k: _numbers(v, 2, f"config box entry {k!r}") for k, v in kwargs["box"].items()
            }
        if "truth_theta" in kwargs:
            kwargs["truth_theta"] = _numbers(kwargs["truth_theta"], 4, "config key 'truth_theta'")
        return _build(cls, kwargs, "config")

    def override(self, dotted: dict[str, object]) -> "ExperimentConfig":
        """Apply 'a.b=value' style overrides (CLI flags)."""
        raw = json.loads(self.to_json())
        for key, value in dotted.items():
            parts = key.split(".")
            node = raw
            for p in parts[:-1]:
                if not isinstance(node.get(p), dict):
                    raise ParameterError(f"{p!r} in {key!r} is not a config section")
                node = node[p]
            if parts[-1] not in node:
                raise ParameterError(f"unknown config key {key!r}")
            node[parts[-1]] = value
        return self._from_dict(raw)


#: Scalar field types and the values each accepts (bool never does).
_SCALAR_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}

#: The dataclass behind each nested config section.
_SECTIONS = {
    "noise": NoiseConfig,
    "simulator": SimulatorSettings,
    "loading": LoadingProgram,
    "tmcmc": TmcmcConfig,
}


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParameterError(f"{where} must be a JSON object, not {type(value).__name__}")
    return value


def _finite(value) -> bool:
    """A real number that is not a bool, NaN or infinite."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) < math.inf


def _numbers(value, n: int, where: str) -> tuple:
    """``value`` as a tuple of ``n`` numbers; anything else raises a
    ParameterError that names ``where``."""
    if not (
        isinstance(value, (list, tuple))
        and len(value) == n
        and all(_finite(v) for v in value)
    ):
        raise ParameterError(f"{where} must be a list of {n} finite numbers, not {value!r}")
    return tuple(value)


def _build(cls, values: dict, where: str):
    """``cls(**values)``; an unknown key, a value of the wrong type or a
    failed field check raises a ParameterError that names ``where``."""
    # NoiseConfig checks its own fields, against a stricter rule (> 0).
    hints = typing.get_type_hints(cls) if cls is not NoiseConfig else {}
    for name, value in values.items():
        if hints.get(name) in _SCALAR_KINDS:
            accepted, what = _SCALAR_KINDS[hints[name]]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ParameterError(f"{where}: key {name!r} must be {what}, not {value!r}")
    try:
        return cls(**values)
    except (TypeError, ParameterError) as exc:
        raise ParameterError(f"{where}: {exc}") from exc
