"""Run-directory equivalence check for changes that must not change results.

    python tools/equivalence.py run SRC OUT   # build the chain into OUT
    python tools/equivalence.py diff A B      # compare two OUT directories

``run`` imports ``gtncal`` from SRC (a checkout's ``src/`` directory), with
BLAS pinned to one thread, and writes into OUT, which must not exist:

- ``run/``: a 48-run dataset at seed 1234 on the default grid, then
  ``validate_surrogates``, the orders ``FD_DIC`` and ``DIC_FD`` at 4 x 400
  T-MCMC with 1000 bridge centers, which write every order's final
  posterior (``FD_ONLY`` and ``DIC_ONLY`` would rewrite ``fd`` and ``dic``
  with the same bytes), ``compare_orders`` and ``recover_fields`` for the
  four final posteriors, ``fd_dic``, ``dic_fd``, ``fd`` and ``dic``;
- ``external/``: a copy of ``run/`` in which ``gtncal infer --order FD_DIC``
  reads ``run/observation/synthetic/{curve,snapshot}.csv`` as external
  observation files.

Run it once with the parent's ``src/`` and once with the change's, then
``diff`` the two OUT directories.  ``diff`` lists the files found on one
side only and the files whose bytes differ; for a differing CSV column or
JSON leaf it prints the largest relative difference, |a - b| / max(|a|, |b|),
and a JSON key found on one side only it names once, at its shallowest path.
It exits 0 only when the two directories hold the same files with the same
bytes, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- run ----------------------------------------------------------------------


def run_chain(src: Path, out: Path) -> None:
    for var in BLAS_THREAD_VARS:  # before numpy first loads
        os.environ[var] = "1"
    sys.path.insert(0, str(src.resolve()))
    from gtncal.bayes.tmcmc import TmcmcConfig
    from gtncal.cli import EXIT_GATE, EXIT_OK, main
    from gtncal.errors import ConvergenceError
    from gtncal.pipeline import dataset, inference, validate
    from gtncal.pipeline.config import ExperimentConfig

    out.mkdir(parents=True)
    os.chdir(out)
    # A relative output_dir keeps config.json equal across OUT directories.
    config = ExperimentConfig(
        output_dir="run",
        design_size=48,
        seed=1234,
        tmcmc=TmcmcConfig(particles=400, runs=4, kde_max_centers=1000),
    )
    dataset.build_dataset(config)
    validate.validate_surrogates(config)
    for order in ("FD_DIC", "DIC_FD"):
        try:
            inference.run_sequence(config, order)
        except ConvergenceError:
            pass  # artifacts persist; the comparison reads them
    inference.compare_orders(config)
    for modalities in inference.ORDERS.values():
        inference.recover_fields(config, inference.posterior_name(modalities))

    shutil.copytree("run", "external")
    code = main([
        "infer", "--config", "external/config.json", "--output", "external",
        "--order", "FD_DIC",
        "--observation-curve", "run/observation/synthetic/curve.csv",
        "--observation-snapshot", "run/observation/synthetic/snapshot.csv",
    ])
    if code not in (EXIT_OK, EXIT_GATE):
        raise SystemExit(f"gtncal infer on the observation files exited {code}")


# -- diff ---------------------------------------------------------------------


def relative_difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def csv_differences(a: Path, b: Path) -> list[str]:
    """Per column, the largest relative difference between two CSV files;
    columns take their names from a non-numeric first row."""
    rows_a = list(csv.reader(a.read_text().splitlines()))
    rows_b = list(csv.reader(b.read_text().splitlines()))
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a)} rows against {len(rows_b)}"]
    names = {}
    if rows_a and any(_number(cell) is None for cell in rows_a[0]):
        names = dict(enumerate(rows_a[0]))
    worst: dict[int, float] = {}
    notes = []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            notes.append(f"row {i}: {len(ra)} cells against {len(rb)}")
            continue
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            if ca == cb:
                continue
            x, y = _number(ca), _number(cb)
            if x is None or y is None:
                notes.append(f"row {i} column {names.get(j, j)}: {ca!r} against {cb!r}")
            else:
                worst[j] = max(worst.get(j, 0.0), relative_difference(x, y))
    notes += [
        f"column {names.get(j, j)}: max relative difference {d:.3g}"
        for j, d in sorted(worst.items())
    ]
    return notes


def _json_notes(a, b, path: str):
    """What differs between two JSON values at ``path``: a key or list item
    on one side only, once at its own path, or a differing leaf."""
    if (type(a), type(b)) in ((dict, dict), (list, list)):
        items_a = a if isinstance(a, dict) else dict(enumerate(a))
        items_b = b if isinstance(b, dict) else dict(enumerate(b))
        for key in sorted(items_a.keys() | items_b.keys()):
            sub = f"{path}[{key}]" if isinstance(a, list) else f"{path}.{key}" if path else key
            if key not in items_b:
                yield f"{sub}: only in A"
            elif key not in items_a:
                yield f"{sub}: only in B"
            else:
                yield from _json_notes(items_a[key], items_b[key], sub)
    elif a != b:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numbers:
            yield f"{path}: relative difference {relative_difference(a, b):.3g}"
        else:
            yield f"{path}: {a!r} against {b!r}"


def json_differences(a: Path, b: Path) -> list[str]:
    """Per differing JSON leaf, its value or for two numbers their relative
    difference; a key present on one side only is named once, at its
    shallowest path."""
    return list(_json_notes(json.loads(a.read_text()), json.loads(b.read_text()), ""))


def diff_dirs(a: Path, b: Path) -> list[str]:
    """One line per file found on one side only or differing, followed by
    indented lines on what differs; empty when the directories match."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = [f"only in A: {p}" for p in sorted(files_a - files_b)]
    lines += [f"only in B: {p}" for p in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        fa, fb = a / rel, b / rel
        if fa.read_bytes() == fb.read_bytes():
            continue
        lines.append(f"differs: {rel}")
        compare = {".json": json_differences, ".csv": csv_differences}.get(rel.suffix)
        if compare is not None:
            lines += [f"  {note}" for note in compare(fa, fb)]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="build the chain into OUT with gtncal from SRC")
    p.add_argument("src", type=Path)
    p.add_argument("out", type=Path)
    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.out.exists():
            parser.error(f"{args.out} exists; give a fresh directory")
        run_chain(args.src, args.out.resolve())
        return 0
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    lines = diff_dirs(args.a, args.b)
    n = sum(1 for p in args.a.rglob("*") if p.is_file())
    print("\n".join(lines) if lines else f"identical: {n} files")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
