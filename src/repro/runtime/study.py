"""The study runtime: one factory wiring the whole deployment.

Every front end used to repeat the same assembly — build a world
scenario, wrap it in a search population, stand up the simulated
Trends service, build the fetcher fleet and database, hand the manager
to :class:`repro.core.pipeline.Sift`.  :meth:`StudyRuntime.build` is
that wiring, once, with the execution knobs on top:

* ``max_workers`` — per-geography parallelism (serial by default;
  results are byte-identical at any worker count for a fixed seed);
* ``database`` — ``":memory:"`` or a file path for the crawl frame
  cache; a rerun on the same file re-analyzes from cached frames
  without fetching any;
* ``store`` — a :class:`repro.store.ColumnarStore` directory that
  checkpoints each finished geography, so an interrupted study
  **resumes** its analysis without recrawling;
* ``checkpoint`` — turn the store's per-geography checkpoints off when
  a run must not reuse earlier results;
* ``progress`` — a structured-event listener
  (:mod:`repro.core.progress`) consumed by the CLI, the web interface,
  and the benchmarks.

A hand-built :class:`repro.world.Scenario` (or population) can be
injected for testbed experiments; the study window then defaults to
the scenario's.
"""

from __future__ import annotations

import dataclasses
from datetime import datetime
from types import TracebackType

from repro.collection.database import CollectionDatabase
from repro.collection.scheduler import CollectionManager, CrawlReport
from repro.core.pipeline import Sift, SiftConfig, StateResult, StudyResult
from repro.core.progress import ProgressListener
from repro.errors import ConfigurationError
from repro.runtime.executor import StudyExecutor, make_executor
from repro.store import ColumnarStore
from repro.streaming.config import StreamConfig
from repro.timeutil import TimeWindow, utc
from repro.trends.faults import (
    PROFILES,
    FaultPlan,
    FaultProfile,
    FaultReport,
    FaultyTrendsService,
)
from repro.trends.ratelimit import RateLimitConfig, SimulatedClock
from repro.trends.service import TrendsConfig, TrendsService
from repro.world.population import SearchPopulation
from repro.world.scenarios import Scenario, ScenarioConfig
from repro.world.states import STATES

#: The paper's study window: 1 Jan 2020 - 31 Dec 2021.
STUDY_START: datetime = utc(2020, 1, 1)
STUDY_END: datetime = utc(2022, 1, 1)

#: All 51 Trends geographies of the study (50 states + DC).
ALL_GEOS: tuple[str, ...] = tuple(state.geo for state in STATES)


@dataclasses.dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Parameters of a simulated deployment plus its execution policy."""

    background_scale: float = 0.15
    seed: int = 20221025
    fetcher_count: int = 4
    #: Generous limits keep simulated crawls fast; tighten them to study
    #: the scheduler under pressure (see the collection tests).
    requests_per_second: float = 50.0
    burst: int = 500
    sift: SiftConfig = dataclasses.field(default_factory=SiftConfig)
    start: datetime = STUDY_START
    end: datetime = STUDY_END
    #: Workers analyzing geographies concurrently (1 = serial study).
    max_workers: int = 1
    #: Where those workers run: ``"auto"`` (serial for one worker, a
    #: thread pool otherwise), ``"serial"``, ``"thread"``, or
    #: ``"process"`` (geography-sharded worker processes).  Results are
    #: byte-identical across kinds and worker counts for a fixed seed.
    executor: str = "auto"
    #: ``":memory:"`` or a sqlite file path for the crawl frame cache
    #: (a file keeps crawled frames across runs).
    database: str = ":memory:"
    #: Optional columnar store directory (:class:`repro.store.ColumnarStore`),
    #: the study checkpoint: per-geography results land there
    #: (memory-mapped ``.npy`` columns + manifest), a rerun resumes
    #: from it, and the serving layer can load the finished study
    #: zero-copy.
    store: str | None = None
    #: Checkpoint per-geography results into ``store`` and resume
    #: completed geographies from it (no effect without a store).
    checkpoint: bool = True
    #: Chaos: a profile name from :data:`repro.trends.faults.PROFILES`
    #: (or a :class:`FaultProfile`) to inject into the Trends service;
    #: ``None`` runs fault-free.
    faults: str | FaultProfile | None = None
    #: Seed of the fault plan; ``(faults, fault_seed)`` fully determines
    #: every injected fault, so any chaos run can be replayed exactly.
    fault_seed: int = 7
    #: Streaming knobs for :meth:`StudyRuntime.stream_daemon` (``sift
    #: watch``); ignored by batch studies.
    stream: StreamConfig = dataclasses.field(default_factory=StreamConfig)


class StudyRuntime:
    """A fully-wired SIFT deployment: world, service, crawler, pipeline."""

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        progress: ProgressListener | None = None,
        scenario: Scenario | None = None,
        population: SearchPopulation | None = None,
    ) -> None:
        self.config = config or RuntimeConfig()
        config = self.config
        self.scenario = scenario or Scenario.build(
            ScenarioConfig(
                start=config.start,
                end=config.end,
                seed=config.seed,
                background_scale=config.background_scale,
            )
        )
        self.population = population or SearchPopulation(
            self.scenario, noise_seed=config.seed + 1
        )
        self.clock = SimulatedClock()
        self.service = TrendsService(
            self.population,
            TrendsConfig(
                rate_limit=RateLimitConfig(
                    burst=config.burst,
                    refill_per_second=config.requests_per_second,
                ),
            ),
            clock=self.clock,
        )
        service = self.service
        if config.faults is not None:
            profile = config.faults
            if isinstance(profile, str):
                if profile not in PROFILES:
                    raise ConfigurationError(
                        f"unknown fault profile {profile!r}; "
                        f"choose from {sorted(PROFILES)}"
                    )
                profile = PROFILES[profile]
            service = FaultyTrendsService(
                self.service,
                FaultPlan(profile, config.fault_seed),
                sleep=self.clock.sleep,
            )
        self.database = CollectionDatabase(config.database)
        self.manager = CollectionManager(
            service,
            sleep=self.clock.sleep,
            fetcher_count=config.fetcher_count,
            database=self.database,
            clock=self.clock,
        )
        self.executor: StudyExecutor = make_executor(
            config.max_workers, config.executor
        )
        self.store: ColumnarStore | None = (
            ColumnarStore(config.store, term=config.sift.term)
            if config.store is not None
            else None
        )
        self.checkpoint = self.store if config.checkpoint else None
        if self.executor.shards_study:
            # Process executors rebuild workers from the config and
            # merge shard partitions into these parent stores.
            self.executor.configure(
                config, database=self.database, store=self.store
            )
        self.sift = Sift(
            self.manager,
            config.sift,
            progress=progress,
            executor=self.executor,
            checkpoint=self.checkpoint,
        )

    @classmethod
    def build(
        cls,
        background_scale: float = 0.15,
        seed: int = 20221025,
        fetcher_count: int = 4,
        max_workers: int = 1,
        executor: str = "auto",
        database: str = ":memory:",
        store: str | None = None,
        checkpoint: bool = True,
        sift: SiftConfig | None = None,
        start: datetime | None = None,
        end: datetime | None = None,
        requests_per_second: float = 50.0,
        burst: int = 500,
        progress: ProgressListener | None = None,
        scenario: Scenario | None = None,
        population: SearchPopulation | None = None,
        faults: str | FaultProfile | None = None,
        fault_seed: int = 7,
        stream: StreamConfig | None = None,
    ) -> "StudyRuntime":
        """Assemble a deployment with sensible defaults.

        When a prebuilt *scenario* (or *population*) is injected, the
        study window defaults to the scenario's own window.
        """
        if population is not None and scenario is None:
            scenario = population.scenario
        if scenario is not None:
            start = start or scenario.window.start
            end = end or scenario.window.end
        return cls(
            RuntimeConfig(
                background_scale=background_scale,
                seed=seed,
                fetcher_count=fetcher_count,
                requests_per_second=requests_per_second,
                burst=burst,
                sift=sift or SiftConfig(),
                start=start or STUDY_START,
                end=end or STUDY_END,
                max_workers=max_workers,
                executor=executor,
                database=database,
                store=store,
                checkpoint=checkpoint,
                faults=faults,
                fault_seed=fault_seed,
                stream=stream or StreamConfig(),
            ),
            progress=progress,
            scenario=scenario,
            population=population,
        )

    # -- running ---------------------------------------------------------------

    @property
    def window(self) -> TimeWindow:
        return TimeWindow(self.config.start, self.config.end)

    @property
    def executor_kind(self) -> str:
        """The resolved executor kind (``"auto"`` never leaks out)."""
        return self.executor.kind

    def execution_info(self) -> dict:
        """The execution policy, as ``/api/runtime`` reports it."""
        return {
            "executor": self.executor.kind,
            "max_workers": self.executor.max_workers,
            "database": self.config.database,
            "store": self.config.store,
            "checkpoint": self.config.checkpoint,
        }

    def run_study(
        self,
        geos: tuple[str, ...] | list[str] | None = None,
        window: TimeWindow | None = None,
    ) -> StudyResult:
        """Run the full SIFT study (defaults: all geos, full window)."""
        study = self.sift.run_study(
            tuple(geos) if geos is not None else ALL_GEOS,
            window or self.window,
        )
        if self.store is not None:
            # Stamp study-wide results so the store alone can serve the
            # finished study (QueryIndex.from_store) with the original
            # fingerprint.
            self.store.record_summary(study)
        return study

    def stream_daemon(
        self,
        geos: tuple[str, ...] | list[str] | None = None,
        app=None,
        stream: StreamConfig | None = None,
    ):
        """An incremental :class:`repro.streaming.StudyDaemon` over this
        runtime's pipeline (defaults: all geos, ``config.stream``).

        The daemon shares the runtime's collection layer (crawl cache,
        fault plan, fetcher fleet) and checkpoints stream state into the
        runtime's columnar store when one is configured, so a killed
        watcher resumes mid-stream with zero refetch.  Pass a
        :class:`repro.web.app.SiftWebApp` as *app* to receive delta
        snapshot installs on every tick.
        """
        from repro.streaming.daemon import StudyDaemon  # deferred: heavy

        return StudyDaemon(
            self,
            tuple(geos) if geos is not None else ALL_GEOS,
            stream=stream,
            app=app,
        )

    def supervise(
        self,
        geos: tuple[str, ...] | list[str] | None = None,
        *,
        config=None,
        stream: StreamConfig | None = None,
        app=None,
        chaos=None,
    ):
        """A self-healing :class:`repro.streaming.DaemonSupervisor` over
        this runtime's stream daemon (defaults: all geos).

        The supervisor verifies the columnar store on every (re)spawn —
        quarantining damaged geo partitions and re-crawling just those
        geos — runs each tick under a virtual-time watchdog, restarts
        failed ticks from the last checkpoint with seeded-jitter
        backoff, and exposes its ``healthy → degraded → halted`` state
        for the web layer's ``/healthz`` / ``/readyz`` probes.  *config*
        is a :class:`repro.streaming.SupervisorConfig`; *chaos* a
        :class:`repro.streaming.ProcessChaos` for seeded soak testing.
        """
        from repro.streaming.supervisor import DaemonSupervisor  # deferred

        return DaemonSupervisor(
            self,
            tuple(geos) if geos is not None else ALL_GEOS,
            config=config,
            stream=stream,
            app=app,
            chaos=chaos,
        )

    def analyze_state(self, geo: str, window: TimeWindow | None = None) -> StateResult:
        """Single-geography pipeline run over the study window."""
        return self.sift.analyze_state(geo, window or self.window)

    def report(self) -> CrawlReport:
        """Lifetime crawl accounting for this runtime's collection layer.

        Under the process executor the crawl happens inside worker
        processes, invisible to the parent's collection layer; their
        forwarded per-shard :class:`~repro.core.progress.CrawlStats`
        are folded in so the report covers the whole study regardless
        of executor.  ``elapsed_seconds`` sums per-process crawl time
        (shards overlap in wall-clock), and ``per_fetcher`` stays
        parent-side — worker fleets are private to their processes.
        """
        report = self.manager.report()
        worker_crawl = getattr(self.executor, "worker_crawl", None)
        if not worker_crawl:
            return report
        return dataclasses.replace(
            report,
            requested=report.requested + sum(s.requested for s in worker_crawl),
            fetched=report.fetched + sum(s.fetched for s in worker_crawl),
            served_from_cache=report.served_from_cache
            + sum(s.served_from_cache for s in worker_crawl),
            retries=report.retries + sum(s.retries for s in worker_crawl),
            elapsed_seconds=report.elapsed_seconds
            + sum(s.elapsed_seconds for s in worker_crawl),
            dead_lettered=report.dead_lettered
            + sum(s.dead_lettered for s in worker_crawl),
        )

    def serve_web(
        self,
        study: StudyResult,
        host: str = "127.0.0.1",
        port: int = 0,
        progress_log=None,
        **options,
    ):
        """Expose a finished study over HTTP with this runtime's
        telemetry (crawl report, fault report) wired into
        ``/api/runtime``.  Keyword *options* pass through to
        :func:`repro.web.serve` (``cache_size``, ``caching``,
        ``preload``, ``progress``); returns ``(server, thread)``.
        """
        from repro.web import serve  # deferred: keeps runtime import light

        return serve(
            study,
            host=host,
            port=port,
            progress_log=progress_log,
            crawl_report=self.report(),
            fault_report=self.fault_report(),
            execution=self.execution_info(),
            **options,
        )

    def fault_report(self) -> FaultReport | None:
        """Chaos accounting (``None`` when no faults were configured)."""
        return self.manager.fault_report()

    def completed_geos(self, window: TimeWindow | None = None) -> tuple[str, ...]:
        """Geographies already checkpointed for the study window."""
        if self.checkpoint is None:
            return ()
        return self.checkpoint.completed_geos(window or self.window)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self.database.close()

    def __enter__(self) -> "StudyRuntime":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
