"""Repeated benchmark runs: parent/change pairs, spread checks, baselines.

The first three subcommands run ``bench/run.py`` as a subprocess once
per measurement, on every workload::

    # 10 alternating parent/change pairs, one row per workload
    python3 bench/compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT [--seed 7]

    # run-to-run spread over seeds 1..10, against each metric's bound
    python3 bench/compare.py spread

    # the committed baseline: 5 untraced runs + 1 traced run per workload
    python3 bench/compare.py baseline

    # the reference fingerprints the correctness gates compare against
    python3 bench/compare.py reference

``pairs`` applies the rule of the choosing-metrics guide: a gain counts
when the change wins at least 9 of every 10 pairs (ties count for
neither side) and the medians differ by more than the parent's
interquartile range; any other metric may not get worse than its
``BENCHMARK.json`` bound, and is *unresolved* when the parent's own
spread is wider than that bound (unless every change run beats every
parent run).  It also compares the share of failed operations.  Each
checkout is measured with its own ``bench/run.py``; a change that
claims a gain must not edit the benchmark, so both are the same code.
Development runs use the default world seed; ``--seed 7`` is the
held-out seed a claim must also hold on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE_FILE = ROOT / "bench" / "baseline.json"
DEFAULT_SEED = 20221025
#: World seed kept out of development, for claims.
HELD_OUT_SEED = 7
PAIRS = 10
SPREAD_RUNS = 10
BASELINE_RUNS = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(root: Path, workload: str, seed: int, trace: int, seconds: int) -> dict:
    """One benchmark run in *root*; its final JSON result."""
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root} {workload}: no output\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = completed.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def values_of(results: list[dict], metric: str) -> list[float]:
    return [result["metrics"][metric]["value"] for result in results]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Gain, regression, unresolved or no change, per the guide's rules."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    improvement = sign * (c_median - p_median)
    if wins >= 0.9 * len(parent) and improvement > p_q3 - p_q1:
        return f"gain ({wins}/{len(parent)} wins)"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_median and (p_q3 - p_q1) / abs(p_median) > bound and not all_better:
        return "unresolved (parent spread exceeds bound)"
    if p_median and -improvement > bound * abs(p_median):
        return f"REGRESSION (worse by more than {bound:.0%})"
    return "no change"


def failed_share(results: list[dict]) -> float:
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted if attempted else 0.0


def workload_names(spec: dict) -> list[str]:
    return [entry["name"] for entry in spec["workloads"]]


def cmd_pairs(args: argparse.Namespace, spec: dict) -> int:
    parent_root, change_root = Path(args.parent).resolve(), Path(args.change).resolve()
    status = 0
    for workload in workload_names(spec):
        parent, change = [], []
        for index in range(PAIRS):
            sides = [(parent_root, parent), (change_root, change)]
            if index % 2:
                sides.reverse()  # alternate which side runs first
            for root, results in sides:
                results.append(run_once(root, workload, args.seed, 0, spec["run_seconds"]))
        print(f"== {workload}: {PAIRS} pairs, seed {args.seed}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = values_of(parent, name), values_of(change, name)
            pq, cq = quartiles(p), quartiles(c)
            outcome = verdict(p, c, metric["better"], metric["bound"])
            if outcome.startswith("REGRESSION"):
                status = 1
            print(f"{name:15} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}  {outcome}")
        p_failed, c_failed = failed_share(parent), failed_share(change)
        flag = "  MORE FAILURES" if c_failed > p_failed else ""
        if flag:
            status = 1
        print(f"{'ops_failed':15} parent {p_failed:.4%}  change {c_failed:.4%}{flag}")
    return status


def cmd_spread(args: argparse.Namespace, spec: dict) -> int:
    """Interquartile range over seeds 1..10, as a share of the median."""
    status = 0
    for workload in workload_names(spec):
        results = [
            run_once(ROOT, workload, seed, 0, spec["run_seconds"])
            for seed in range(1, SPREAD_RUNS + 1)
        ]
        print(f"== {workload}: seeds 1..{SPREAD_RUNS}, "
              f"failed {sum(r['failed'] for r in results)}")
        for metric in spec["end_to_end"]:
            q1, median, q3 = quartiles(values_of(results, metric["name"]))
            spread = (q3 - q1) / median if median else float("inf")
            if spread > metric["bound"] and metric["name"] != "setup_s":
                status = 1
            print(f"{metric['name']:15} median {median:.6g} {metric['unit']:6} "
                  f"spread {spread:.2%} (bound {metric['bound']:.0%})")
    return status


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "store_semantics": "tmpfs, emulated inside the checkout (bench/workloads.py TmpfsOs)",
    }


def cmd_baseline(args: argparse.Namespace, spec: dict) -> int:
    """Measure every workload and write ``bench/baseline.json``."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench import layers, workloads

    seconds = spec["run_seconds"]
    baseline = {
        "seed": DEFAULT_SEED,
        "seconds": seconds,
        "machine": machine(),
        "shape": {
            "geos": len(workloads.FULL.geos),
            "stream_geos": len(workloads.FULL.stream_geos),
            "batch_window": [workloads.FULL.batch_start.isoformat(),
                             workloads.FULL.batch_end.isoformat()],
            "stream_window": [workloads.FULL.batch_start.isoformat(),
                              workloads.FULL.stream_end.isoformat()],
            "background_scale": workloads.SCALE,
            "stream_rounds": workloads.STREAM_ROUNDS,
            "studies": workloads.FULL.studies,
            "requests": workloads.FULL.requests,
            "warmup_requests": workloads.FULL.warmup_requests,
        },
        "layer_targets": {
            name: [{"metric": metric, "workload": workload} for metric, workload in targets]
            for name, targets in layers.TARGETS.items()
        },
        "workloads": {},
    }
    for workload in workload_names(spec):
        untraced = [run_once(ROOT, workload, DEFAULT_SEED, 0, seconds)
                    for _ in range(BASELINE_RUNS)]
        traced = run_once(ROOT, workload, DEFAULT_SEED, 1, seconds)
        summary = {}
        for metric in spec["end_to_end"]:
            values = values_of(untraced, metric["name"])
            q1, median, q3 = quartiles(values)
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "runs": values}
        baseline["workloads"][workload] = {
            "failed": sum(r["failed"] for r in untraced) + traced["failed"],
            "end_to_end": summary,
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        }
        print(f"{workload}: {json.dumps(summary)}")
    BASELINE_FILE.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {BASELINE_FILE}")
    return 0


def cmd_reference(args: argparse.Namespace, spec: dict) -> int:
    """Recompute ``bench/reference.json`` for both shapes and both seeds."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench import workloads

    references = {}
    for shape in (workloads.FULL, workloads.SMOKE):
        by_kind = references.setdefault(shape.name, {"batch": {}, "stream": {}})
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            found = workloads.reference_fingerprints(shape, seed)
            by_kind["batch"][str(seed)] = found["batch"]
            by_kind["stream"][str(seed)] = found["stream"]
            print(f"{shape.name} seed {seed}: batch {found['batch']}, "
                  f"final stream {found['stream'][-1]}")
    path = ROOT / "bench" / "reference.json"
    path.write_text(json.dumps(references, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs", help="alternating parent/change pairs")
    pairs.add_argument("parent")
    pairs.add_argument("change")
    pairs.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"world seed ({HELD_OUT_SEED} is held out for claims)")
    sub.add_parser("spread", help="spread over seeds 1..10")
    sub.add_parser("baseline", help="write bench/baseline.json")
    sub.add_parser("reference", help="recompute bench/reference.json")
    args = parser.parse_args(argv)
    commands = {
        "pairs": cmd_pairs,
        "spread": cmd_spread,
        "baseline": cmd_baseline,
        "reference": cmd_reference,
    }
    return commands[args.command](args, load_spec())


if __name__ == "__main__":
    sys.exit(main())
