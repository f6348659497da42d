"""gtncal benchmark: the calibration chain end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload {dataset,calibrate} \\
        --seed N --seconds S --trace {0,1}

The first run in a checkout builds the prepared dataset (``prepared.py``,
about four minutes on two cores); later runs reuse it.  ``--trace 0``
runs chain iterations (``workloads.py``) untraced until the next one would
end after ``--seconds`` seconds, at least one, and reports the end-to-end
metrics as medians over iterations.  ``--trace 1`` runs one iteration with
every layer's public calls wrapped in spans (``layers.py``) and reports the
per-layer metrics.  Times are CPU seconds of the benchmark's own process
(see ``workloads.timed``).  The last line of standard output is one JSON
object; the full record (environment, every iteration, the spans) goes to
``benchmarks/out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("dataset", "calibrate")
#: Extra fresh-process set-ups per run; setup_s is the median with this one.
SETUP_SAMPLES = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def fail(message: str, code: int = 2) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(code)


def bootstrap() -> None:
    """Pin BLAS threads before numpy loads, and import gtncal from src/."""
    if not (REPO_ROOT / "src" / "gtncal" / "__init__.py").is_file():
        fail(f"no gtncal sources under {REPO_ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import environment

    environment.pin_blas_threads()


def setup_samples(workload: str) -> list[float]:
    """Set-up CPU seconds of fresh processes, from their start to their
    first timed call."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-only"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()

    import prepared
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = BENCH_DIR / ".work" / str(os.getpid())
    cpu0 = time.process_time()
    root, prep_info, built = prepared.ensure_prepared()
    # A one-off build of the prepared dataset is information, not set-up.
    build_cpu = time.process_time() - cpu0 if built else 0.0
    try:
        inputs = workloads.set_up(root, work)
        # CPU seconds of this process from its start, like the timed steps.
        setup_s = time.process_time() - build_cpu
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, inputs, setup_s, prep_info)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, inputs, setup_s: float, prep_info: dict) -> int:
    import environment
    import prepared
    import workloads

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment.record(REPO_ROOT, prepared.source_key()),
        "prepared_dataset": prep_info,
        "fixed_seed": workloads.FIXED_SEED,
        "iterations": [],
        "failures": [],
    }
    if args.trace:
        metrics, units = measure_traced(args, workload, inputs, record)
    else:
        record["setup_samples_s"] = [setup_s] + setup_samples(args.workload)
        metrics, units = measure_untraced(args, workload, inputs, record)
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2, default=float) + "\n")
    if not metrics:
        fail("every iteration failed; no metrics", code=1)
    env = record["environment"]
    print(
        f"{args.workload} seed {args.seed}: {len(record['iterations'])} iteration(s); "
        f"nproc {env['nproc']}, {env['cpu_model']}, numpy {env['numpy']}, "
        f"BLAS {env['blas']['name']} {env['blas']['version']} pinned to "
        f"{env['blas_threads']['OPENBLAS_NUM_THREADS']} thread(s), source {env['source_key']}"
    )
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    result = {
        "correct": not record["failures"],
        "attempted": len(record["iterations"]) + len(record["failures"]),
        "failed": len(record["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_counted(record: dict, workload, inputs, seed: int, tracer=None) -> dict | None:
    """One iteration; a failure is recorded and counted, not raised."""
    import workloads

    try:
        it = workloads.run_iteration(workload, inputs, seed, tracer=tracer)
    except Exception:  # noqa: BLE001 - a failed iteration is counted, not fatal
        record["failures"].append(traceback.format_exc())
        print(record["failures"][-1], file=sys.stderr)
        return None
    record["iterations"].append(it)
    return it


def measure_untraced(args, workload, inputs, record) -> tuple[dict, dict]:
    """Iterations on seeds derived from --seed until the next one would end
    after --seconds (at least one)."""
    import spec

    t0 = time.perf_counter()
    longest, attempted = 0.0, 0
    while attempted == 0 or time.perf_counter() - t0 + longest <= args.seconds:
        t_it = time.perf_counter()
        run_counted(record, workload, inputs, args.seed * 1000 + attempted)
        attempted += 1
        longest = max(longest, time.perf_counter() - t_it)
    iterations = record["iterations"]
    if not iterations:
        return {}, {}

    def med(key):
        return statistics.median(it[key] for it in iterations)

    metrics = {
        "build_s": med("build_s"),
        "train_s": med("train_s"),
        "posterior_s": med("posterior_s"),
        "ess_per_s": med("ess_per_s"),
        "setup_s": statistics.median(record["setup_samples_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, spec.E2E_UNITS


def untraced_reference(workload: str) -> list[float]:
    """Timed seconds of the untraced iterations recorded so far for this
    workload in this checkout."""
    timed = []
    for path in OUT_DIR.glob(f"{workload}-seed*-trace0.json"):
        timed += [it["timed_s"] for it in json.loads(path.read_text())["iterations"]]
    return timed


def measure_traced(args, workload, inputs, record) -> tuple[dict, dict]:
    """One iteration with every layer's public calls wrapped in spans.

    trace.overhead_s is its timed seconds minus the median of the untraced
    iterations recorded for this workload (one is run here first if there
    are none yet).
    """
    import layers
    from tracing import Tracer

    seed = args.seed * 1000
    reference = untraced_reference(args.workload)
    if not reference:
        it = run_counted(record, workload, inputs, seed)
        reference = [it["timed_s"]] if it else []
    tracer = Tracer()
    layers.install(tracer)
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    try:
        traced = run_counted(record, workload, inputs, seed, tracer=tracer)
    finally:
        tracer.uninstall()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    if traced is None:
        return {}, {}
    record["traced_seed"] = seed

    metrics = layers.metrics(tracer)
    steps = traced["build"] + traced["infer"]
    metrics.update(
        {
            "features.k_fd": traced["build"][0]["k_fd"],
            "features.k_field": traced["build"][0]["k_field"],
            "pipeline.io.bytes_written": sum(f["bytes_written"] for f in steps),
            "pipeline.io.files_written": sum(f["files_written"] for f in steps),
            "bayes.rhat_max": max(f["rhat_max"] for f in traced["infer"]),
            "bayes.ess_min": min(f["ess_min"] for f in traced["infer"]),
            "bayes.truth_covered": float(all(f["truth_covered"] for f in traced["infer"])),
            "trace.overhead_s": traced["timed_s"] - statistics.median(reference)
            if reference else 0.0,
            "process.cpu_s": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
        }
    )
    return {name: metrics[name] for name in layers.NAMES}, layers.UNITS


if __name__ == "__main__":
    sys.exit(main())
