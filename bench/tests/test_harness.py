"""Tests of the benchmark harness itself: ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench import compare, layers, workloads
from bench.tracer import Span, Tracer, ledger, root_time

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_declared_metrics(workload, trace):
    completed = _run_cli(
        ROOT, "--workload", workload, "--smoke", "--seconds", "0.2", "--trace", trace
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run_cli(tmp_path, "--workload", "batch_paper", "--seconds", "1")
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def _span(layer, start, end, parent=None, tid=1):
    span = Span(layer, "x", start, parent, tid)
    span.end = end
    return span


def test_self_time_subtracts_direct_children_per_thread():
    # Thread 1: runtime [0,10] > collection [1,4] > world [2,3];
    #           runtime > collection [5,9].
    # Thread 2: web [0,6] > world [1,5].
    runtime = _span("runtime", 0, 10)
    first = _span("collection", 1, 4, runtime)
    nested = _span("world", 2, 3, first)
    second = _span("collection", 5, 9, runtime)
    web = _span("web", 0, 6, tid=2)
    world = _span("world", 1, 5, web, tid=2)
    rows = ledger([nested, first, second, runtime, world, web])
    self_s = {layer: row["self_s"] for (layer, _), row in rows.items()}
    assert self_s == {"runtime": 3, "collection": 6, "world": 5, "web": 2}
    assert rows[("collection", "x")]["calls"] == 2
    assert rows[("world", "x")]["total_s"] == 5
    assert root_time([runtime, first, web], tid=1) == 10
    assert root_time([runtime, first, web], tid=2) == 6


def test_span_parents_never_cross_threads():
    tracer = Tracer()
    outer_open, inner_done = threading.Event(), threading.Event()

    def other_thread():
        outer_open.wait(5)
        with tracer.span("web", "handle"):
            with tracer.span("web", "render"):
                pass
        inner_done.set()

    worker = threading.Thread(target=other_thread)
    worker.start()
    with tracer.span("http", "request"):
        outer_open.set()
        inner_done.wait(5)
    worker.join(5)
    assert not worker.is_alive()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["handle"].parent is None
    assert by_name["render"].parent is by_name["handle"]
    assert by_name["request"].tid != by_name["handle"].tid
    rows = ledger(tracer.spans)
    handle = rows[("web", "handle")]
    assert handle["self_s"] == pytest.approx(
        handle["total_s"] - rows[("web", "render")]["total_s"]
    )


def test_chrome_trace_is_loadable(tmp_path):
    tracer = Tracer()
    with tracer.span("runtime", "run_study"):
        with tracer.span("world", "term_volume"):
            pass
    path = tmp_path / "trace.json"
    tracer.chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [event["name"] for event in events] == ["world.term_volume", "runtime.run_study"]
    assert events[0]["args"]["parent"] == 1 and events[1]["args"]["parent"] is None
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def test_planted_wrong_reference_fails_the_run(tmp_path):
    run = workloads.Run(
        "batch_paper", smoke=True, seconds=0.01, workdir=str(tmp_path),
        references={"smoke": {"batch": {str(workloads.DEFAULT_SEED): "0" * 16}}},
    )
    outcome = workloads.execute(run)
    assert any("reference" in failure for failure in outcome.failures)
    run.references = {}
    assert workloads.execute(run).failures == []


def _patch_targets() -> dict:
    targets = {}
    for _, _, owner_path, attribute in layers.ENTRY_POINTS:
        owner = layers.resolve(owner_path)
        targets[(owner_path, attribute)] = (owner, vars(owner).get(attribute))
    for name in workloads.TmpfsOs.MODULES:
        module = sys.modules[name]
        targets[(name, "os")] = (module, module.os)
    return targets


@pytest.mark.parametrize("workload", ["batch_parallel", "stream_watch"])
def test_traced_run_restores_every_patched_attribute(tmp_path, workload):
    before = _patch_targets()
    outcome = workloads.execute(
        workloads.Run(workload, smoke=True, trace=True, seconds=0.01, workdir=str(tmp_path))
    )
    assert outcome.failures == []
    assert outcome.metrics["trace.spans_per_op"] > 0
    for key, (owner, original) in before.items():
        attribute = key[1]
        assert vars(owner).get(attribute) is original, key


def test_traced_serve_run_traces_measured_requests_only(tmp_path):
    # Warm-up requests belong to set-up: each measured request is one
    # client span around one server-side handle span, and nothing else.
    outcome = workloads.execute(
        workloads.Run("serve_http", smoke=True, trace=True, seconds=2, workdir=str(tmp_path))
    )
    assert outcome.failures == []
    assert outcome.metrics["trace.spans_per_op"] == 2
    assert outcome.metrics["web.handle_share"] + outcome.metrics["http.self_share"] <= 101


@pytest.mark.parametrize(("samples", "percent"), [(3, 50), (45, 75), (153, 90), (5670, 90)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, percent):
    assert workloads.tail_percent(samples) == percent


@pytest.mark.parametrize(
    ("parent", "change", "better", "expected"),
    [
        ([10.0] * 9 + [10.1], [9.0] * 10, "lower", "gain"),
        ([10.0] * 10, [12.0] * 10, "lower", "REGRESSION"),
        ([5.0, 15.0] * 5, [10.0] * 10, "lower", "unresolved"),
        ([10.0] * 10, [10.05, 9.95] * 5, "higher", "no change"),
    ],
)
def test_compare_verdict_rules(parent, change, better, expected):
    assert compare.verdict(parent, change, better, bound=0.1).startswith(expected)
