"""The artifact text format: how every CSV table and JSON document a run
writes is spelled, and how each is read back.

Tables are comma-separated with an optional one-line header and no comment
prefix.  Floats are written at 17 significant digits (``FLOAT``), which
round-trips every double exactly, so a stage that reads a posterior, a PCA
basis or a GP bundle back gets the very numbers the earlier stage computed.
JSON is canonical: indent 2, sorted keys and a trailing newline, so two runs
of one config write byte-identical files and content hashes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: The format of every float in a table.
FLOAT = "%.17g"


def json_text(payload) -> str:
    """``payload`` as canonical JSON text."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json_text(payload))


def read_json(path: str | Path):
    return json.loads(Path(path).read_text())


def write_csv(path: str | Path, rows, header: str = "", fmt=FLOAT) -> None:
    """Write the 2-D ``rows`` with ``fmt`` (one format, or one per column)
    under ``header`` when it is not empty.  Rows that mix ints, strings and
    floats are written from an object array."""
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header=header, comments="")


def read_csv(path: str | Path, skip_header: bool = False, dtype=float) -> np.ndarray:
    """The table at ``path`` as a 2-D array, without its header line when
    ``skip_header``; with ``dtype=str`` every cell stays text."""
    return np.loadtxt(path, delimiter=",", skiprows=int(skip_header), ndmin=2, dtype=dtype)
