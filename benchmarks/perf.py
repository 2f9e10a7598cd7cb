"""Shared BENCH_*.json output for the ground-truth benchmarks.

Every figure/table benchmark prints human-readable tables; this module
is the machine-readable side.  The scenario-pack and resilience benches
persist their scores with :func:`write_bench`, so successive changes
accumulate a trajectory in the committed ``BENCH_*.json`` files instead
of anecdotes in commit messages.  Timing lives in the repository
benchmark (``bench/``), not here.

The JSON layout is shared by every such bench:

```
{
  "benchmark": "<name>",
  "updated_utc": "...",
  "machine": {...},            # where the numbers were taken
  "baseline": {...metrics...}, # pre-change numbers recorded in the PR
                               # that introduced the bench
  "current": {...metrics...},  # latest numbers on this code
  "speedup": {...}             # current / baseline, per metric
}
```
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any

#: Repository root (BENCH_*.json live next to README.md).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_path(name: str) -> str:
    """Path of the committed machine-readable result file."""
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


def machine_info() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def read_bench(name: str) -> dict[str, Any] | None:
    """Load the committed results for *name*, or None when absent."""
    path = bench_path(name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_bench(
    name: str,
    metrics: dict[str, Any],
    *,
    as_baseline: bool = False,
    extra: dict[str, Any] | None = None,
    workload_shape: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Merge *metrics* into ``BENCH_<name>.json`` and return the payload.

    With ``as_baseline`` the metrics land in the ``baseline`` slot (the
    pre-change numbers a PR measures before optimizing); otherwise they
    become ``current`` and per-metric speedups against the stored
    baseline are recomputed.

    ``workload_shape`` records what was measured (e.g. ``{"geos": 51,
    "weeks": 104, "terms": 1}``) alongside the slot it belongs to.
    When the baseline and current shapes are both recorded and differ,
    the speedup section is **omitted** with an explanatory note — a
    12-geo baseline against a 51-geo current is not a speedup, and a
    silent ratio would read like one.
    """
    payload = read_bench(name) or {"benchmark": name}
    payload["updated_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    payload["machine"] = machine_info()
    if extra:
        payload.update(extra)
    if as_baseline:
        payload["baseline"] = metrics
        if workload_shape is not None:
            payload["baseline_shape"] = workload_shape
    else:
        payload["current"] = metrics
        if workload_shape is not None:
            payload["current_shape"] = workload_shape
        baseline = payload.get("baseline")
        baseline_shape = payload.get("baseline_shape")
        current_shape = payload.get("current_shape")
        shapes_differ = (
            baseline_shape is not None
            and current_shape is not None
            and baseline_shape != current_shape
        )
        if baseline and shapes_differ:
            payload.pop("speedup", None)
            payload["speedup_note"] = (
                "baseline and current were measured on different workload "
                f"shapes ({baseline_shape} vs {current_shape}); "
                "per-metric speedups omitted"
            )
        elif baseline:
            payload.pop("speedup_note", None)
            # Rates improve upward, durations (``*_s``) downward; report
            # both as "how many times faster".
            payload["speedup"] = {
                key: round(
                    baseline[key] / value if key.endswith("_s") else value / baseline[key],
                    2,
                )
                for key, value in metrics.items()
                if isinstance(value, (int, float))
                and isinstance(baseline.get(key), (int, float))
                and baseline[key]
                and value
            }
    with open(bench_path(name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
