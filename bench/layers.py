"""Which entry point belongs to which layer, and the per-layer ledger.

The layers are the ``src/repro`` packages.  :data:`ENTRY_POINTS` names,
for each, the public calls the tracer wraps; :func:`instrument` wraps
them all and :func:`layer_metrics` turns the recorded spans plus the
counters the workloads read from public stats objects into the
``per_layer`` metrics declared in ``BENCHMARK.json``.

Time metrics are *shares*: a layer's self seconds as a percentage of
the traced loop's wall time on the benchmark's main thread.  Work done
on other threads (the study executor's pool, the HTTP server) counts
too, so shares can add up to more than 100 when threads overlap.
"""

from __future__ import annotations

import importlib
from collections import Counter
from collections.abc import Mapping

from bench.tracer import Tracer, ledger, root_time

#: (layer, span name, "module" or "module:Class", attribute).
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("world", "scenario", "repro.world.scenarios:Scenario", "build"),
    ("world", "term_volume", "repro.world.population:SearchPopulation", "term_volume"),
    ("world", "total_volume", "repro.world.population:SearchPopulation", "total_volume"),
    ("world", "volumes_matrix", "repro.world.population:SearchPopulation", "volumes_matrix"),
    ("world", "term_window_sums", "repro.world.population:SearchPopulation", "term_window_sums"),
    ("world", "total_window_sum", "repro.world.population:SearchPopulation", "total_window_sum"),
    ("trends", "fetch", "repro.trends.service:TrendsService", "fetch"),
    ("trends", "client", "repro.trends.client:TrendsClient", "interest_over_time"),
    ("collection", "fetch", "repro.collection.scheduler:CollectionManager", "interest_over_time"),
    ("collection", "db_load", "repro.collection.database:CollectionDatabase", "load_frame"),
    ("collection", "db_store", "repro.collection.database:CollectionDatabase", "store_frame"),
    ("collection", "db_store", "repro.collection.database:CollectionDatabase", "store_frames"),
    ("reconstruct", "average", "repro.core.reconstruct.base:Averager", "average"),
    ("reconstruct", "fold", "repro.core.reconstruct.averagers:RunningMeanAccumulator", "fold"),
    ("reconstruct", "to_responses", "repro.core.reconstruct.averagers:RunningMeanAccumulator", "to_responses"),
    ("reconstruct", "feed", "repro.core.reconstruct.stitchers:_ChainStitcher", "feed"),
    ("reconstruct", "finalize", "repro.core.reconstruct.stitchers:_ChainStitcher", "finalize"),
    ("detection", "detect_spikes", "repro.core.reconstruct.base", "detect_spikes"),
    ("detection", "tail_update", "repro.streaming.detector:TailDetector", "update"),
    ("context", "annotate_all", "repro.core.context:SpikeAnnotator", "annotate_all"),
    ("area", "group_outages", "repro.core.pipeline", "group_outages"),
    ("area", "group_outages", "repro.streaming.daemon", "group_outages"),
    ("runtime", "run_study", "repro.core.pipeline:Sift", "run_study"),
    ("runtime", "geo", "repro.core.pipeline:Sift", "_analyze_or_resume"),
    ("runtime", "wait", "repro.runtime.executor:ThreadPoolStudyExecutor", "map"),
    ("store", "save_state", "repro.store.columnar:ColumnarStore", "save_state"),
    ("store", "save_annotated", "repro.store.columnar:ColumnarStore", "save_annotated"),
    ("store", "record_summary", "repro.store.columnar:ColumnarStore", "record_summary"),
    ("store", "save_stream", "repro.store.columnar:ColumnarStore", "save_stream"),
    ("streaming", "tick", "repro.streaming.daemon:StudyDaemon", "tick"),
    ("streaming", "ingest", "repro.streaming.daemon:GeoStream", "ingest"),
    ("web", "handle", "repro.web.app:SiftWebApp", "handle_request"),
    ("web", "install_delta", "repro.web.app:SiftWebApp", "install_delta"),
    ("web", "install_study", "repro.web.app:SiftWebApp", "install_study"),
)

#: Per-layer metric -> the (end-to-end metric, workload) pairs it
#: should move.  Written down before measuring, as the choosing-metrics
#: guide asks.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "world.self_share": (("latency_p50_ms", "stream_watch"),),
    "world.tensor_miss_ratio": (("latency_p50_ms", "stream_watch"),),
    "trends.self_share": (("latency_p50_ms", "batch_paper"),),
    "collection.self_share": (("latency_p50_ms", "batch_paper"),),
    "collection.db_load_share": (("latency_p50_ms", "batch_paper"),),
    "collection.db_store_share": (("latency_p50_ms", "batch_paper"),),
    "reconstruct.self_share": (
        ("latency_p50_ms", "batch_paper"), ("latency_p50_ms", "stream_watch"),
    ),
    "detection.self_share": (
        ("latency_p50_ms", "batch_paper"), ("latency_p50_ms", "stream_watch"),
    ),
    "context.self_share": (("latency_p50_ms", "batch_paper"),),
    "area.self_share": (("latency_p50_ms", "stream_watch"),),
    "runtime.wait_share": (("latency_p50_ms", "batch_parallel"),),
    "runtime.parallel_efficiency": (("latency_p50_ms", "batch_parallel"),),
    "store.self_share": (
        ("latency_p50_ms", "batch_parallel"), ("durable_p50_ms", "stream_watch"),
    ),
    "streaming.ingest_share": (("latency_p50_ms", "stream_watch"),),
    "streaming.other_share": (("latency_p50_ms", "stream_watch"),),
    "web.install_delta_share": (("latency_p50_ms", "stream_watch"),),
    "web.handle_share": (("step_tail_ms", "stream_watch"), ("latency_p50_ms", "serve_http")),
    "web.cache_hit_ratio": (("step_tail_ms", "stream_watch"), ("latency_p50_ms", "serve_http")),
    "http.self_share": (("work_per_s", "serve_http"),),
}


def resolve(owner_path: str) -> object:
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def instrument(tracer: Tracer) -> None:
    """Wrap every entry point; undo with ``tracer.restore()``."""
    for layer, name, owner_path, attribute in ENTRY_POINTS:
        tracer.wrap(resolve(owner_path), attribute, layer, name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    main_tid: int,
    wall: float,
    untraced_wall: float,
    ops: int,
    counters: Mapping[str, float],
) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced loop.

    *wall* is the traced loop's duration on thread *main_tid*,
    *untraced_wall* the same number of *ops* run without the tracer;
    *counters* holds the counts the workload read from public stats
    (missing keys count as zero).
    """
    rows = ledger(tracer.spans)

    def self_s(layer: str, *names: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(
            row["self_s"]
            for (row_layer, row_name), row in rows.items()
            if row_layer == layer
            and (not names or row_name in names)
            and row_name not in exclude
        )

    def total_s(layer: str, name: str) -> float:
        row = rows.get((layer, name))
        return row["total_s"] if row else 0.0

    def calls(layer: str) -> int:
        return sum(
            row["calls"] for (row_layer, _), row in rows.items() if row_layer == layer
        )

    def share(seconds: float) -> float:
        return 100.0 * _ratio(seconds, wall)

    def per_op(count: float) -> float:
        return _ratio(count, ops)

    count = Counter(counters)
    # The HTTP client's request spans cover the server thread's handling
    # of the same request; what is left is socket and http.server time.
    http_self = max(0.0, self_s("http") - total_s("web", "handle"))
    return {
        "world.self_share": share(self_s("world")),
        "world.calls_per_op": per_op(calls("world")),
        "world.tensor_misses_per_op": per_op(count["world_misses"]),
        "world.tensor_miss_ratio": _ratio(
            count["world_misses"], count["world_hits"] + count["world_misses"]
        ),
        "trends.self_share": share(self_s("trends")),
        "trends.frames_per_op": per_op(count["frames_served"]),
        "trends.rising_per_op": per_op(count["rising_computed"]),
        "collection.self_share": share(
            self_s("collection", exclude=("db_load", "db_store"))
        ),
        "collection.db_load_share": share(self_s("collection", "db_load")),
        "collection.db_store_share": share(self_s("collection", "db_store")),
        "collection.cache_hit_ratio": _ratio(
            count["crawl_cached"], count["crawl_requested"]
        ),
        "collection.retries_per_op": per_op(count["crawl_retries"]),
        "reconstruct.self_share": share(self_s("reconstruct")),
        "reconstruct.rounds_mean": _ratio(count["rounds_sum"], count["rounds_n"]),
        "detection.self_share": share(self_s("detection")),
        "detection.calls_per_op": per_op(calls("detection")),
        "context.self_share": share(self_s("context")),
        "context.rising_cache_hit_ratio": _ratio(
            count["rising_hits"], count["rising_hits"] + count["rising_misses"]
        ),
        "area.self_share": share(self_s("area")),
        "runtime.self_share": share(self_s("runtime", exclude=("wait",))),
        "runtime.wait_share": share(self_s("runtime", "wait")),
        "runtime.stage_share": share(count["stage_s"]),
        "runtime.geo_busy_share": share(count["geo_busy_s"]),
        "runtime.parallel_efficiency": _ratio(
            count["geo_busy_s"], count["worker_s"]
        ),
        "store.self_share": share(self_s("store")),
        "store.bytes_per_op": per_op(count["fsync_bytes"]),
        "store.fsyncs_per_op": per_op(count["fsyncs"]),
        "streaming.ingest_share": share(self_s("streaming", "ingest")),
        "streaming.other_share": share(self_s("streaming", exclude=("ingest",))),
        "web.handle_share": share(self_s("web", "handle")),
        "web.install_delta_share": share(self_s("web", "install_delta")),
        "web.cache_hit_ratio": _ratio(
            count["web_hits"], count["web_hits"] + count["web_misses"]
        ),
        "web.invalidated_per_tick": _ratio(count["invalidated"], count["ticks"]),
        "http.self_share": share(http_self),
        "trace.unattributed_share": share(max(0.0, wall - root_time(tracer.spans, main_tid))),
        "trace.overhead": _ratio(wall, untraced_wall) - 1.0 if untraced_wall else 0.0,
        "trace.spans_per_op": per_op(len(tracer.spans)),
    }


def layer_table(tracer: Tracer) -> list[str]:
    """Human-readable per-(layer, name) rows, largest self time first."""
    rows = sorted(
        ledger(tracer.spans).items(), key=lambda item: -item[1]["self_s"]
    )
    lines = [f"{'layer.name':32} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for (layer, name), row in rows:
        lines.append(
            f"{layer + '.' + name:32} {row['calls']:>9d} "
            f"{row['total_s']:>10.3f} {row['self_s']:>10.3f}"
        )
    return lines
