"""The benchmark's traced run wraps gtncal functions by name: every name it
installs must still exist, and uninstalling must restore the originals."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # layers.py imports its tracer as the top-level module ``tracing``.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_layers_install_and_uninstall(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    layers = _load("layers", monkeypatch)
    loadtxt = np.loadtxt
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        assert np.loadtxt is not loadtxt
    finally:
        tracer.uninstall()
    assert np.loadtxt is loadtxt
