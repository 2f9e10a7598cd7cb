"""Process shards: picklable per-geography workers + partition merging.

The process executor cannot ship the pipeline's inline closures across
a process boundary, so the per-geography collect → stitch → average →
detect stage lives here as a **top-level picklable function**
(:func:`run_shard`) over a **picklable task record**
(:class:`ShardTask`).  A worker process rebuilds the whole seeded
deployment from the :class:`~repro.runtime.study.RuntimeConfig` — the
simulated world, the Trends service, the fetcher fleet — and analyzes
its slice of the geographies exactly as a serial run would.  Every
frame is deterministic per ``(request, sample_round)`` and every fault
per request identity, so a shard's results are byte-identical to the
same geographies analyzed serially.

Durability is partitioned the same way: a shard caches its frames in
its own sqlite file (``<db>.shard<k>``, seeded with the parent's cached
frames of its geographies) when the parent database is a file, and
checkpoints into its own columnar partition
(``<store>/.shard-<k>``) when the study checkpoints, and the parent
merges the partitions into the main database and store **in shard
order** once every worker returned — an interrupt can never leave a
half-merged study, and the merged frames and checkpoints are exactly
what a serial run would have written.

Structured progress events cross the process boundary through a
manager queue: workers put :class:`~repro.core.progress.ProgressEvent`
dataclasses (plain picklable records), the parent drains them into the
study's listener as they arrive, and each shard signs off with a
:class:`~repro.core.progress.ShardStats` carrying its wall-clock and
peak RSS.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import multiprocessing
import os
import threading
import time
from datetime import datetime
from typing import TYPE_CHECKING

from repro.core.progress import CrawlStats, ShardStats, peak_rss_kb
from repro.timeutil import TimeWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collection.database import CollectionDatabase
    from repro.core.pipeline import Sift, StateResult
    from repro.runtime.executor import ProcessPoolStudyExecutor
    from repro.runtime.study import RuntimeConfig
    from repro.store import ColumnarStore

#: Events with no study-wide meaning are still forwarded verbatim; the
#: queue sentinel ends the parent's drain loop.
_SENTINEL = None


def process_context() -> multiprocessing.context.BaseContext:
    """The cheapest available start method (fork on POSIX, else spawn).

    Determinism never depends on the start method — workers rebuild
    their deployment from the pickled config either way — only startup
    latency does.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """Everything one worker process needs, picklable end to end.

    ``config`` is the parent's runtime config already rewritten for the
    shard: the shard's private database/store partitions and serial
    execution.
    """

    shard: int
    config: "RuntimeConfig"
    geos: tuple[str, ...]
    #: Global study indices of ``geos`` (for GeoStarted/GeoFinished).
    indices: tuple[int, ...]
    total: int
    window_start: datetime
    window_end: datetime
    worker_count: int


def run_shard(
    task: ShardTask, queue=None
) -> list[tuple[int, str, "StateResult", bool]]:
    """Analyze one shard's geographies inside a worker process.

    Returns ``(global_index, geo, result, from_checkpoint)`` tuples in
    shard order.  Progress events are forwarded through *queue* when
    one is given (a picklable manager-queue proxy).
    """
    from repro.runtime.study import StudyRuntime

    started = time.perf_counter()
    listener = queue.put if queue is not None else None
    window = TimeWindow(task.window_start, task.window_end)
    outcomes: list[tuple[int, str, StateResult, bool]] = []
    with StudyRuntime(task.config, progress=listener) as runtime:
        sift = runtime.sift
        for index, geo in zip(task.indices, task.geos):
            result, from_checkpoint = sift._analyze_or_resume(
                geo, window, index=index, total=task.total
            )
            outcomes.append((index, geo, result, from_checkpoint))
        if queue is not None:
            report = runtime.report()
            queue.put(
                CrawlStats(
                    requested=report.requested,
                    fetched=report.fetched,
                    served_from_cache=report.served_from_cache,
                    retries=report.retries,
                    elapsed_seconds=report.elapsed_seconds,
                    frames_per_second=report.frames_per_second,
                    dead_lettered=report.dead_lettered,
                )
            )
            queue.put(
                ShardStats(
                    shard=task.shard,
                    executor="process",
                    worker_count=task.worker_count,
                    geo_count=len(task.geos),
                    elapsed_seconds=time.perf_counter() - started,
                    peak_rss_kb=peak_rss_kb(),
                )
            )
    return outcomes


# -- partition naming ---------------------------------------------------------


def database_partition(path: str, shard: int) -> str:
    """Private sqlite file of one shard (sibling of the parent db)."""
    return f"{path}.shard{shard}"


def store_partition(root: str, shard: int) -> str:
    """Private columnar directory of one shard (inside the store root)."""
    return os.path.join(root, f".shard-{shard}")


def remove_database_partition(path: str) -> None:
    """Delete a shard's sqlite partition including WAL side files."""
    for suffix in ("", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path + suffix)


def _shard_config(config: "RuntimeConfig", shard: int) -> "RuntimeConfig":
    """The parent config rewritten for one worker process."""
    database = (
        database_partition(config.database, shard)
        if config.database != ":memory:"
        else ":memory:"
    )
    store = (
        store_partition(config.store, shard)
        if config.store is not None and config.checkpoint
        else None
    )
    return dataclasses.replace(
        config, database=database, store=store, max_workers=1, executor="serial"
    )


# -- the sharded study driver -------------------------------------------------


def run_sharded_study(
    executor: "ProcessPoolStudyExecutor",
    sift: "Sift",
    geos: tuple[str, ...],
    window: TimeWindow,
    *,
    config: "RuntimeConfig",
    database: "CollectionDatabase | None",
    store: "ColumnarStore | None",
) -> list[tuple["StateResult", bool]]:
    """The per-geography stage of ``run_study``, sharded by geography.

    See :class:`repro.runtime.executor.ProcessPoolStudyExecutor` for
    the contract; this function is the implementation (kept here so the
    executor module stays import-light).
    """
    total = len(geos)
    outcomes: list = [None] * total

    # 1. Parent-side resume: geographies already in the parent
    #    checkpoint never reach a worker, whatever executor wrote them —
    #    zero-refetch resume across executor switches.
    remaining: list[tuple[int, str]] = []
    for index, geo in enumerate(geos):
        restored = sift._resume_from_checkpoint(geo, window, index, total)
        if restored is not None:
            outcomes[index] = (restored, True)
        else:
            remaining.append((index, geo))
    if not remaining:
        return outcomes

    workers = min(executor.max_workers, len(remaining))
    frame_partitions = database is not None and config.database != ":memory:"

    # Worker crawl accounting never reaches the parent's collection
    # layer; capture the forwarded CrawlStats (one per shard) so
    # StudyRuntime.report covers the whole study under any executor.
    def emit(event) -> None:
        if isinstance(event, CrawlStats):
            executor.worker_crawl.append(event)
        sift._emit(event)

    # 2. Deal remaining geographies round-robin into `workers` shards
    #    (global order is preserved within each shard).
    tasks = []
    for shard in range(workers):
        slice_ = remaining[shard::workers]
        tasks.append(
            ShardTask(
                shard=shard,
                config=_shard_config(config, shard),
                geos=tuple(geo for _, geo in slice_),
                indices=tuple(index for index, _ in slice_),
                total=total,
                window_start=window.start,
                window_end=window.end,
                worker_count=workers,
            )
        )

    if frame_partitions:
        # Each shard starts from the parent's cached frames, so a rerun
        # on a database file fetches nothing under any executor.
        for task in tasks:
            database.seed_partition(task.config.database, task.geos)

    if workers == 1:
        # One shard is just a serial run in-process: skip the pool (and
        # its pickling) but keep the identical code path per geography.
        shard_results = [_run_shard_inline(tasks[0], emit)]
    else:
        shard_results = _run_shards_pooled(tasks, emit, workers)

    # 3. Merge every shard partition into the parent stores, in shard
    #    order, then drop the partitions.  Merging precedes annotation
    #    (run_study overwrites spikes with annotated versions later).
    for task in tasks:
        if frame_partitions:
            database.merge_partition(task.config.database)
            remove_database_partition(task.config.database)
        if store is not None and task.config.store is not None:
            store.merge_partition(task.config.store)

    # 4. Reassemble in input-geography order.
    for shard_outcome in shard_results:
        for index, _geo, result, from_checkpoint in shard_outcome:
            outcomes[index] = (result, from_checkpoint)
    return outcomes


def _run_shard_inline(task: ShardTask, emit):
    """Run one shard on the calling thread, events straight to *emit*."""

    class _DirectQueue:
        @staticmethod
        def put(event) -> None:
            emit(event)

    return run_shard(task, _DirectQueue())


def _run_shards_pooled(tasks: list[ShardTask], emit, workers: int):
    """Run shards in worker processes, draining events as they arrive."""
    with multiprocessing.Manager() as manager:
        queue = manager.Queue()
        context = process_context()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            # Submit before starting the drain thread: with the fork
            # start method, forking under extra threads is fragile.
            futures = [pool.submit(run_shard, task, queue) for task in tasks]
            drain = threading.Thread(
                target=_drain_events, args=(queue, emit), daemon=True
            )
            drain.start()
            try:
                # Shard order, re-raising the first failure.
                return [future.result() for future in futures]
            finally:
                queue.put(_SENTINEL)
                drain.join(timeout=30)


def _drain_events(queue, emit) -> None:
    while True:
        event = queue.get()
        if event is _SENTINEL:
            return
        emit(event)
