"""Command-line pipeline driver.

Subcommands mirror the pipeline stages:

    design    generate the LHS parameter design
    simulate  run the reduced-order simulator over the design
    reduce    fit feature pipelines and write score tables
    train     train the GP surrogate bundles
    validate  surrogate accuracy report on the held-out split
    infer     posterior sampling for one update sequence
    recover   rerun the simulator at a posterior MAP and export fields
    compare   order-sensitivity report from persisted posteriors

Each posterior is named by the modalities it has seen, in order: ``fd``,
``fd_dic``, ``dic`` and ``dic_fd``.  ``infer --order FD_DIC`` writes ``fd``
and ``fd_dic``, and ``infer --order DIC_FD`` writes ``dic`` and ``dic_fd``,
which is all ``compare`` reads; ``FD_ONLY`` and ``DIC_ONLY`` write the same
bytes as those orders' first updates.

Only ``simulate`` and ``train`` take ``--jobs``, the number of worker
processes they fan out over.

Exit codes: 0 success, 2 usage error, 3 convergence-gate failure,
4 artifact/hash mismatch, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ArtifactError,
    CalibrationError,
    ConvergenceError,
    NumericError,
    OptimizationError,
    ParameterError,
    SimulationIncompleteError,
    StabilityError,
)
from .pipeline.config import ExperimentConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GATE = 3
EXIT_ARTIFACT = 4
EXIT_NUMERIC = 5


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ParameterError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.load(args.config)
    else:
        config = ExperimentConfig()
    overrides: dict[str, object] = {}
    for item in args.set or []:
        key, value = _parse_override(item)
        overrides[key] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.output is not None:
        overrides["output_dir"] = args.output
    if overrides:
        config = config.override(overrides)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a config JSON file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--output", help="output directory (else the config's)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="dotted config override, e.g. --set tmcmc.particles=500",
    )


def build_parser() -> argparse.ArgumentParser:
    from .pipeline.inference import ORDERS, posterior_name

    parser = argparse.ArgumentParser(prog="gtncal", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("design", "generate the LHS design"),
        ("simulate", "run the specimen simulator over the design"),
        ("reduce", "fit feature pipelines and score tables"),
        ("train", "train GP surrogate bundles"),
        ("validate", "surrogate validation report"),
        ("compare", "order-sensitivity report"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("simulate", "train"):  # the stages that fan out
            p.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = sub.add_parser("infer", help="posterior sampling for one sequence")
    _add_common(p)
    p.add_argument("--order", required=True, choices=list(ORDERS))
    p.add_argument("--observation-curve", help="external curve CSV")
    p.add_argument("--observation-snapshot", help="external snapshot CSV")

    p = sub.add_parser("recover", help="MAP rerun and state-field export")
    _add_common(p)
    p.add_argument("--posterior", required=True,
                   choices=[posterior_name(m) for m in ORDERS.values()],
                   help="posterior to recover from")
    return parser


def _run(args: argparse.Namespace) -> int:
    from .pipeline import dataset, inference, validate

    config = _load_config(args)
    if args.command == "design":
        path = dataset.stage_design(config)
        print(f"design written: {path}")
    elif args.command == "simulate":
        index = dataset.stage_simulate(config, jobs=args.jobs)
        print(
            f"simulated {len(index['completed'])} of {index['total']} rows "
            f"({len(index['excluded'])} excluded)"
        )
    elif args.command == "reduce":
        info = dataset.stage_reduce(config)
        print(
            f"k_FD={info['k_fd']} ({100 * info['fd_retained_variance']:.2f}% variance), "
            f"k_FIELD={info['k_field']} ({100 * info['field_retained_variance']:.2f}% variance)"
        )
    elif args.command == "train":
        out = dataset.stage_train(config, jobs=args.jobs)
        for modality, detail in out.items():
            print(f"{modality}: {len(detail['outputs'])} GPs on {detail['n_train']} rows")
    elif args.command == "validate":
        report = validate.validate_surrogates(config)
        print(f"curve NMAE mean {report['curve_nmae_mean']:.3f}%")
        for name, value in report["field_nmae_mean"].items():
            print(f"field NMAE mean {name}: {value:.3f}%")
    elif args.command == "infer":
        files = None
        if args.observation_curve or args.observation_snapshot:
            if not (args.observation_curve and args.observation_snapshot):
                raise ParameterError(
                    "external observations need both --observation-curve and "
                    "--observation-snapshot"
                )
            files = (args.observation_curve, args.observation_snapshot)
        posteriors = inference.run_sequence(config, args.order, files)
        for label, post in posteriors.items():
            print(f"{label}: max R-hat {post.rhat.max():.4f}, min ESS {post.ess.min():.0f}")
    elif args.command == "recover":
        out = inference.recover_fields(config, args.posterior)
        print(f"recovered fields at MAP {out['map_theta']}: {out['fields']}")
    elif args.command == "compare":
        report = inference.compare_orders(config)
        print(f"informativeness ranking: {' > '.join(report['ranking'])}")
    else:  # pragma: no cover - argparse enforces choices
        raise ParameterError(f"unknown command {args.command!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_GATE
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except (NumericError, StabilityError, OptimizationError, SimulationIncompleteError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParameterError, CalibrationError, ValueError, KeyError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
