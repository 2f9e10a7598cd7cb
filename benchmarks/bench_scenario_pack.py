"""Scenario-pack quality: per-family scoring of generated worlds.

The scenario foundry (DESIGN.md §11) compiles nine frozen
:class:`~repro.world.foundry.ScenarioSpec` families — cascading CDN
waves, BGP-leak partial reachability, slow brownouts, sharp outages,
correlated power+network events, non-US diurnal structure, night-trough
onsets, flapping recurrence, and DST-spanning windows — into ground
truth the unmodified pipeline must recover.  This bench runs the
pipeline over every family and writes ``BENCH_scenarios.json`` (layout
in :mod:`benchmarks.perf`): per family, spike precision, recall (all and
strong impacts), mean detection delay, and grouped-outage F1 against
the generated truth.

``--check`` enforces the per-family floors below.  Every metric is a
property of a seeded scenario — never of the machine — so the floors
are portable across CI hardware by construction, and they hold at both
smoke and full scale.

The JSON slots: ``baseline`` holds the flat per-family metrics (note
``*_delay_h`` improves *downward*), ``scores`` the full per-family
scorecards including spike and impact counts.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenario_pack.py
        [--smoke]   # halved window and occurrence counts (CI job)
        [--check]   # fail when any family drops below its floors
        [--write]   # persist BENCH_scenarios.json even for smoke
"""

from __future__ import annotations

import argparse
import sys

from repro.world.foundry import PACK_SEED, scenario_pack, score_pack_family

try:  # runnable both as a script and under the benchmarks package
    from perf import write_bench
except ImportError:  # pragma: no cover
    from benchmarks.perf import write_bench

BENCH_NAME = "scenarios"

#: Per-family floors for ``--check``.  ``recall_strong`` is the headline guarantee: no unambiguously
#: detectable (intensity >= 5) ground-truth impact may be lost.
#: Precision floors are calibrated per family because the families
#: deliberately span different privacy-blip regimes (a JP/GB-scale
#: geography runs at the paper's ~1.3 spikes/state/day, so most spikes
#: are blips by design); delay ceilings catch detection drifting late.
FAMILY_FLOORS: dict[str, dict[str, float]] = {
    "cascading_cdn": {
        "recall_strong": 1.0, "precision": 0.12,
        "max_delay_h": 1.0, "grouped_f1": 0.5,
    },
    "bgp_leak": {
        "recall_strong": 1.0, "precision": 0.12,
        "max_delay_h": 1.0, "grouped_f1": 0.6,
    },
    "slow_brownout": {
        # Brownout intensities sit below the strong threshold on
        # purpose; recall over *all* impacts is the meaningful bar, and
        # the long delay ceiling reflects the slow interest ramp.
        "recall": 1.0, "precision": 0.08, "max_delay_h": 8.0,
    },
    "sharp_outage": {
        "recall_strong": 1.0, "precision": 0.35, "max_delay_h": 0.5,
    },
    "correlated_power_network": {
        "recall_strong": 1.0, "precision": 0.10, "max_delay_h": 1.0,
    },
    "offshore_diurnal": {
        "recall_strong": 1.0, "precision": 0.005, "max_delay_h": 1.0,
    },
    "night_trough": {
        "recall_strong": 1.0, "precision": 0.04, "max_delay_h": 1.0,
    },
    "flapping": {
        "recall_strong": 1.0, "precision": 0.25, "max_delay_h": 3.0,
    },
    "dst_spanning": {
        "recall_strong": 1.0, "precision": 0.03, "max_delay_h": 1.0,
    },
}


def family_metrics(score) -> dict:
    """One family's scorecard as the flat metrics the floors read."""
    spikes = score.spikes
    outages = score.outages
    return {
        "precision": round(spikes.precision, 4),
        "recall": round(spikes.recall, 4),
        "recall_strong": round(spikes.recall_strong, 4),
        "delay_h": round(spikes.mean_detection_delay_hours, 4),
        "grouped_f1": round(outages.f1, 4),
        "spikes": spikes.total_spikes,
        "impacts": spikes.total_impacts,
    }


def run_bench(smoke: bool) -> dict[str, dict]:
    """Score every family; returns ``{family: metrics}``."""
    return {
        name: family_metrics(score_pack_family(spec, PACK_SEED))
        for name, spec in scenario_pack(smoke=smoke).items()
    }


def flatten(per_family: dict[str, dict]) -> dict:
    """Per-family metrics as flat ``write_bench`` keys."""
    flat: dict = {}
    for family, metrics in per_family.items():
        for key in ("precision", "recall", "recall_strong", "delay_h", "grouped_f1"):
            flat[f"{family}_{key}"] = metrics[key]
    return flat


def check_floors(results: dict[str, dict]) -> int:
    """Apply the per-family floors; return a process exit code."""
    failed = False
    for family, floors in FAMILY_FLOORS.items():
        metrics = results[family]
        for key, bound in floors.items():
            if key == "max_delay_h":
                value, ok = metrics["delay_h"], metrics["delay_h"] <= bound
                bar = f"ceiling {bound:g}"
            else:
                value, ok = metrics[key], metrics[key] >= bound
                bar = f"floor {bound:g}"
            failed = failed or not ok
            verdict = "ok" if ok else "REGRESSION"
            print(f"check: {family} {key} {value:.3f} ({bar}) -> {verdict}")
    return 1 if failed else 0


def print_results(results: dict[str, dict]) -> None:
    for family, metrics in results.items():
        line = ", ".join(f"{key}={value}" for key, value in metrics.items())
        print(f"{family}: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="halved pack scale (CI job)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when any family drops below its floors",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="persist results even for a smoke run (CI artifact upload)",
    )
    args = parser.parse_args(argv)

    results = run_bench(smoke=args.smoke)
    print_results(results)
    exit_code = check_floors(results) if args.check else 0

    # Smoke runs only persist on request: the committed numbers come
    # from the full pack, but CI uploads its fresh measurements.
    if args.write or not args.smoke:
        pack = scenario_pack(smoke=args.smoke)
        extra = {
            "smoke": args.smoke,
            "scores": results,
            "workload": {
                "pack_seed": PACK_SEED,
                "families": {
                    name: {
                        "window": [
                            spec.start.isoformat(),
                            spec.end.isoformat(),
                        ],
                        "geos": list(spec.geos),
                        "events": len(spec.compile(PACK_SEED).events),
                        "impacts": spec.compile(PACK_SEED).total_impacts,
                    }
                    for name, spec in pack.items()
                },
            },
        }
        write_bench(BENCH_NAME, flatten(results), as_baseline=True, extra=extra)
        print(f"wrote BENCH_{BENCH_NAME}.json")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
