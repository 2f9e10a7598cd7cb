"""The repository benchmark: one command, four workloads.

Run one workload (what an automated harness does, once per run)::

    python3 bench/run.py --workload batch_paper --seed 20221025 --seconds 10 --trace 0

or all four, each in its own fresh subprocess::

    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from the root of a checkout: it measures the code under
``src/`` next to this directory and needs nothing installed.  With
``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the loop once untraced and once
traced and reports the per-layer metrics, and writes a Chrome
trace-event file to ``.bench_work/trace-<workload>.json`` (open it in
Perfetto).  Every line before the last is for people; the last line is
one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit status is 0 only when every operation and every correctness
check passed.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def _import_program():
    """Import the benchmark modules against this checkout's ``src/``.

    Returns the workloads module, or ``None`` with a message on stderr
    when the checkout has no program to measure.
    """
    src = ROOT / "src"
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as error:
        print(f"error: cannot import the program from {src}: {error}", file=sys.stderr)
        return None
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return None
    from bench import workloads

    return workloads


def run_one(args: argparse.Namespace, spec: dict) -> int:
    workloads = _import_program()
    if workloads is None:
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    outcome = workloads.execute(
        workloads.Run(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
            workdir=str(ROOT / ".bench_work"),
        )
    )
    if set(outcome.metrics) != set(units):
        missing = sorted(set(units) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    for line in outcome.info:
        print(line)
    for name in units:
        print(f"{name} {outcome.metrics[name]:.6g} {units[name]}")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if not outcome.failures else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own subprocess; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if completed.returncode != 0 or result is None:
            status = 1
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="SIFT repository benchmark")
    parser.add_argument("--workload", choices=[entry["name"] for entry in spec["workloads"]],
                        help="run one workload in this process (default: all, one "
                        "subprocess each)")
    parser.add_argument("--seed", type=int, default=20221025, help="world seed")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="4 geographies x 4 weeks, for tests")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
