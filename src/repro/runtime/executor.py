"""Study executors: the strategy for *where* per-geography work runs.

The paper's study is embarrassingly parallel — each geography's
collect → stitch → average → detect chain is independent until area
grouping — so the study driver delegates the per-geography stage to a
pluggable :class:`StudyExecutor`.  Three implementations ship:

* :class:`SerialExecutor` — the classic single-threaded walk;
* :class:`ThreadPoolStudyExecutor` — a bounded thread pool (one GIL,
  good for the I/O-ish crawl, ~1× on the CPU-bound stages);
* :class:`ProcessPoolStudyExecutor` — geography-sharded worker
  *processes*, each rebuilding the seeded deployment and analyzing its
  shard with no shared interpreter (see :mod:`repro.runtime.shard`).

All of them return results **in input order**, whatever order the work
completes in, so a seeded study produces byte-identical results
regardless of worker count or executor kind (the frames themselves are
deterministic per ``(request, sample_round)``; only wall-clock
interleaving varies).

Executor choice threads through :class:`repro.runtime.RuntimeConfig`
(``executor="auto"|"serial"|"thread"|"process"``), the CLI
(``--executor``), and ``/api/runtime``.
"""

from __future__ import annotations

import concurrent.futures
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, TypeVar

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.collection.database import CollectionDatabase
    from repro.core.pipeline import Sift, StateResult
    from repro.timeutil import TimeWindow

T = TypeVar("T")
R = TypeVar("R")

#: Executor kinds accepted by :func:`make_executor` (and the CLI).
EXECUTOR_KINDS: tuple[str, ...] = ("auto", "serial", "thread", "process")


def _check_workers(max_workers: int) -> None:
    """Refuse worker counts below one, for every executor kind."""
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be positive: {max_workers}")


class StudyExecutor:
    """Maps a function over work items, preserving input order."""

    #: Registry-style name surfaced by the CLI and ``/api/runtime``.
    kind: str = "serial"

    #: Upper bound on concurrently-running items (1 = serial).
    max_workers: int = 1

    #: True when the executor drives the whole per-geography stage
    #: itself (sharded across processes) instead of mapping a closure.
    shards_study: bool = False

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        raise NotImplementedError


class SerialExecutor(StudyExecutor):
    """One item at a time, on the calling thread."""

    kind = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadPoolStudyExecutor(StudyExecutor):
    """A bounded thread pool; results still come back in input order."""

    kind = "thread"

    def __init__(self, max_workers: int) -> None:
        _check_workers(max_workers)
        self.max_workers = max_workers

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        work = list(items)
        if len(work) <= 1 or self.max_workers == 1:
            return [fn(item) for item in work]
        workers = min(self.max_workers, len(work))
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="sift-geo"
        ) as pool:
            # Executor.map preserves input order and re-raises the first
            # failure, which is exactly the deterministic contract.
            return list(pool.map(fn, work))


class ProcessPoolStudyExecutor(StudyExecutor):
    """Geography-sharded worker processes with deterministic reassembly.

    The per-geography stage cannot ship closures across a process
    boundary, so this executor does not run ``Sift``'s inline lambda:
    the study driver detects ``shards_study`` and hands the whole stage
    to :meth:`run_sharded_study`, which

    1. serves already-checkpointed geographies from the **parent**
       checkpoint first (zero-refetch resume works across executor
       switches),
    2. deals the remaining geographies round-robin into
       ``max_workers`` shards and runs each shard in its own process
       via the picklable :func:`repro.runtime.shard.run_shard`,
    3. forwards the workers' structured progress events to the parent
       listener through a manager queue as they happen,
    4. gives each shard a private frame-cache partition
       (``<db>.shard<k>``, when the database is a file) and checkpoint
       partition (``<store>/.shard-<k>``, when the study checkpoints)
       and merges them into the parent stores **in shard order** on
       finalize, and
    5. reassembles results in input-geography order.

    Every per-geography result is fully determined by the (seeded)
    runtime configuration, so the study is byte-identical to a serial
    run at any worker count.

    The executor must be bound to a runtime via :meth:`configure`
    before it can shard a study (``StudyRuntime`` does this); the plain
    :meth:`map` works standalone for picklable top-level functions.
    """

    kind = "process"
    shards_study = True

    def __init__(self, max_workers: int) -> None:
        _check_workers(max_workers)
        self.max_workers = max_workers
        self._config = None  # RuntimeConfig template for shard workers
        self._database: CollectionDatabase | None = None
        self._store = None  # parent ColumnarStore, when configured
        #: CrawlStats forwarded by worker processes, accumulated across
        #: runs; the parent's collection layer never sees the workers'
        #: crawls, so ``StudyRuntime.report`` folds these in to keep
        #: lifetime accounting executor-independent.
        self.worker_crawl: list = []

    def configure(self, config, database=None, store=None) -> None:
        """Bind the runtime pieces shard workers are rebuilt from."""
        self._config = config
        self._database = database
        self._store = store

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Order-preserving map over worker processes.

        ``fn`` must be picklable (a top-level function); this is the
        generic contract shared with the other executors, not the study
        fast path (see :meth:`run_sharded_study`).
        """
        from repro.runtime.shard import process_context

        work = list(items)
        if len(work) <= 1 or self.max_workers == 1:
            return [fn(item) for item in work]
        workers = min(self.max_workers, len(work))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=process_context()
        ) as pool:
            return list(pool.map(fn, work))

    def run_sharded_study(
        self,
        sift: "Sift",
        geos: tuple[str, ...],
        window: "TimeWindow",
    ) -> list[tuple["StateResult", bool]]:
        """Run the per-geography stage of a study, sharded by geography."""
        if self._config is None:
            raise ConfigurationError(
                "ProcessPoolStudyExecutor is not bound to a runtime; "
                "construct it through StudyRuntime (or call configure())"
            )
        from repro.runtime.shard import run_sharded_study

        return run_sharded_study(
            self, sift, geos, window,
            config=self._config,
            database=self._database,
            store=self._store,
        )


def make_executor(max_workers: int, kind: str = "auto") -> StudyExecutor:
    """Build the executor for a worker count and kind.

    ``kind="auto"`` is serial for one worker and a thread pool
    otherwise.  Worker counts below one raise for every kind.
    """
    _check_workers(max_workers)
    if kind not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor kind {kind!r}; choose from {EXECUTOR_KINDS}"
        )
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadPoolStudyExecutor(max_workers)
    if kind == "process":
        return ProcessPoolStudyExecutor(max_workers)
    # auto: serial unless parallelism was asked for
    if max_workers == 1:
        return SerialExecutor()
    return ThreadPoolStudyExecutor(max_workers)
