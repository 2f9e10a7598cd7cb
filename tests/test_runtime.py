"""Tests for the runtime layer: executors, checkpoints, parallel studies.

The contract under test is the one the paper's deployment needs:

* a seeded study is identical serial or parallel (determinism);
* the collection layer crawls each frame exactly once, however many
  workers race for it (politeness under rate limiting);
* a study checkpointed into a columnar store survives interrupts and
  resumes completed geographies without recrawling a single frame
  (durability), while a file-backed database alone caches frames, so
  a rerun re-analyzes without fetching any.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.collection import CollectionDatabase, CollectionManager, WorkItem
from repro.core import ContextConfig, RisingCache, SiftConfig
from repro.core.progress import (
    CacheStats,
    CheckpointHit,
    CrawlStats,
    GeoFinished,
    GeoStarted,
    ProgressLog,
    StudyFinished,
    StudyStarted,
    text_listener,
)
from repro.errors import CheckpointMismatchError, ConfigurationError, DatabaseError
from repro.runtime import (
    ProcessPoolStudyExecutor,
    SerialExecutor,
    StudyRuntime,
    ThreadPoolStudyExecutor,
    make_executor,
)
from repro.timeutil import TimeWindow, utc, weekly_frames
from repro.trends.ratelimit import RateLimitConfig, SimulatedClock
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse
from repro.trends.service import TrendsConfig, TrendsService
from repro.world.population import SearchPopulation
from repro.world.scenarios import Scenario, ScenarioConfig

from tests.conftest import MINI_GEOS, WINDOW_END, WINDOW_START


def build_runtime(**kwargs) -> StudyRuntime:
    """A compact deployment over the shared test window."""
    kwargs.setdefault("background_scale", 0.3)
    kwargs.setdefault("start", WINDOW_START)
    kwargs.setdefault("end", WINDOW_END)
    return StudyRuntime.build(**kwargs)


def spike_dicts(study) -> list[dict]:
    return [spike.to_dict() for spike in study.spikes]


class TestExecutors:
    def test_make_executor_serial_for_one(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(4), ThreadPoolStudyExecutor)

    def test_thread_pool_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ThreadPoolStudyExecutor(0)

    def test_negative_workers_raise_everywhere(self):
        # Zero and negative counts must never degrade silently to a
        # serial (or one-worker) run.
        for workers in (0, -3):
            for kind in ("auto", "serial", "thread", "process"):
                with pytest.raises(ConfigurationError):
                    make_executor(workers, kind)
            with pytest.raises(ConfigurationError):
                ThreadPoolStudyExecutor(workers)
            with pytest.raises(ConfigurationError):
                ProcessPoolStudyExecutor(workers)

    def test_explicit_kinds_map_to_executors(self):
        assert isinstance(make_executor(4, "serial"), SerialExecutor)
        assert isinstance(make_executor(4, "thread"), ThreadPoolStudyExecutor)
        assert isinstance(make_executor(4, "process"), ProcessPoolStudyExecutor)
        assert make_executor(4, "process").max_workers == 4
        with pytest.raises(ConfigurationError):
            make_executor(4, "fibers")

    def test_unbound_process_executor_refuses_to_shard(self):
        executor = ProcessPoolStudyExecutor(2)
        assert executor.shards_study
        with pytest.raises(ConfigurationError, match="not bound"):
            executor.run_sharded_study(
                None, ("US-TX",), TimeWindow(WINDOW_START, WINDOW_END)
            )

    def test_map_preserves_input_order(self):
        barrier = threading.Barrier(4)

        def slow_identity(item: int) -> int:
            barrier.wait(timeout=5)  # force genuine concurrency
            return item

        result = ThreadPoolStudyExecutor(4).map(slow_identity, [3, 1, 4, 1])
        assert result == [3, 1, 4, 1]

    def test_map_propagates_failures(self):
        def explode(item: int) -> int:
            raise ValueError(f"boom {item}")

        with pytest.raises(ValueError, match="boom"):
            ThreadPoolStudyExecutor(2).map(explode, [1, 2, 3])


class TestParallelDeterminism:
    def test_parallel_study_equals_serial_spike_for_spike(self):
        serial = build_runtime(max_workers=1).run_study(geos=MINI_GEOS)
        parallel = build_runtime(max_workers=4).run_study(geos=MINI_GEOS)

        assert spike_dicts(parallel) == spike_dicts(serial)
        assert parallel.heavy_hitters == serial.heavy_hitters
        assert parallel.suggestion_stats == serial.suggestion_stats
        assert [o.label for o in parallel.outages] == [
            o.label for o in serial.outages
        ]
        for geo in MINI_GEOS:
            assert np.array_equal(
                parallel.states[geo].timeline.values,
                serial.states[geo].timeline.values,
            )

    def test_heavy_hitters_is_sorted_tuple_even_without_seeds(self):
        config = SiftConfig(context=ContextConfig(seed_heavy_hitters=frozenset()))
        study = build_runtime(sift=config).run_study(geos=("US-WY",))
        assert isinstance(study.heavy_hitters, tuple)
        assert list(study.heavy_hitters) == sorted(study.heavy_hitters)


def build_collection(fetchers: int = 4):
    """A bare service + manager over a tiny quiet world."""
    scenario = Scenario.build(
        ScenarioConfig(
            start=utc(2021, 1, 1), end=utc(2021, 3, 1), background_scale=0.0
        )
    )
    clock = SimulatedClock()
    service = TrendsService(
        SearchPopulation(scenario),
        TrendsConfig(
            rate_limit=RateLimitConfig(burst=10_000, refill_per_second=1000)
        ),
        clock=clock,
    )
    manager = CollectionManager(service, sleep=clock.sleep, fetcher_count=fetchers)
    return service, manager


def build_workload(weeks_until=utc(2021, 2, 26)) -> list[WorkItem]:
    window = TimeWindow(utc(2021, 1, 1), weeks_until)
    return [
        WorkItem("Internet outage", geo, frame, include_rising=False)
        for geo in ("US-TX", "US-CA", "US-NY")
        for frame in weekly_frames(window)
    ]


class TestExactlyOnceCrawling:
    def test_parallel_execute_crawls_each_frame_once(self):
        service, manager = build_collection(fetchers=8)
        workload = build_workload()
        report = manager.prefetch(workload * 3, max_workers=8)

        assert service.stats.frames_served == len(workload)
        assert report.fetched == len(workload)
        assert report.served_from_cache == 2 * len(workload)
        assert report.requested == 3 * len(workload)

    def test_concurrent_fetch_one_is_single_flighted(self):
        service, manager = build_collection(fetchers=4)
        item = build_workload()[0]
        responses = []
        errors = []

        def hit() -> None:
            try:
                responses.append(
                    manager.interest_over_time(
                        item.term, item.geo, item.window, sample_round=0,
                        include_rising=False,
                    )
                )
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)

        assert not errors
        assert len(responses) == 8
        assert service.stats.frames_served == 1
        first = responses[0]
        assert all(np.array_equal(r.values, first.values) for r in responses)

    def test_wall_clock_throughput_reported(self):
        _, manager = build_collection()
        report = manager.prefetch(build_workload(), max_workers=4)
        assert report.elapsed_seconds > 0.0
        assert report.frames_per_second > 0.0
        lifetime = manager.report()
        assert lifetime.fetched == report.fetched


class TestDatabaseConcurrency:
    @staticmethod
    def make_response(geo: str, week: TimeWindow, sample_round: int):
        request = TimeFrameRequest("Internet outage", geo, week)
        values = np.zeros(week.hours, dtype=np.int16)
        values[week.hours // 2] = 100
        return TimeFrameResponse(
            request=request,
            values=values,
            rising=(RisingTerm("power outage", 120),),
            sample_round=sample_round,
        )

    def test_file_database_survives_concurrent_writers(self, tmp_path):
        database = CollectionDatabase(str(tmp_path / "frames.db"))
        weeks = weekly_frames(TimeWindow(utc(2021, 1, 1), utc(2021, 2, 26)))
        geos = ("US-TX", "US-CA", "US-NY", "US-FL")
        errors = []

        def writer(geo: str, rounds: int) -> None:
            try:
                for sample_round in range(rounds):
                    for week in weeks:
                        database.store_frame(
                            self.make_response(geo, week, sample_round),
                            fetched_by=f"writer-{geo}",
                        )
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        # Two threads per geo: concurrent writers of the same rows must
        # serialize onto WAL instead of colliding.
        threads = [
            threading.Thread(target=writer, args=(geo, 2))
            for geo in geos
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert not errors
        # INSERT OR REPLACE keys on (term, geo, window, round): duplicate
        # writers collapse onto one row per distinct frame.
        assert database.frame_count() == len(geos) * len(weeks) * 2
        loaded = database.load_frame(
            "Internet outage", "US-TX", weeks[0], sample_round=1
        )
        assert loaded is not None
        assert loaded.values.max() == 100
        database.close()

    def test_memory_database_shared_across_threads(self):
        database = CollectionDatabase()
        week = weekly_frames(TimeWindow(utc(2021, 1, 1), utc(2021, 1, 15)))[0]

        def write() -> None:
            database.store_frame(
                self.make_response("US-TX", week, 0), fetched_by="writer"
            )

        thread = threading.Thread(target=write)
        thread.start()
        thread.join(timeout=10)
        assert database.frame_count() == 1


class _InterruptAfter:
    """A progress listener that kills the study after N finished geos."""

    def __init__(self, geo_limit: int) -> None:
        self.geo_limit = geo_limit
        self.finished: list[str] = []

    def __call__(self, event) -> None:
        if isinstance(event, GeoFinished):
            self.finished.append(event.geo)
            if len(self.finished) >= self.geo_limit:
                raise KeyboardInterrupt("simulated operator interrupt")


class TestResume:
    #: Annotation disabled: the resumed run must need *zero* requests
    #: for completed geographies, daily rising frames included.
    config = SiftConfig(annotate=False)

    def test_interrupted_study_resumes_without_recrawling(self, tmp_path):
        store = str(tmp_path / "store")
        interrupter = _InterruptAfter(geo_limit=2)
        first = build_runtime(store=store, sift=self.config, progress=interrupter)
        with pytest.raises(KeyboardInterrupt):
            first.run_study(geos=MINI_GEOS)
        first.close()
        completed = tuple(interrupter.finished)
        assert len(completed) == 2

        resumed_runtime = build_runtime(store=store, sift=self.config)
        study = resumed_runtime.run_study(geos=MINI_GEOS)

        assert study.resumed_geos == completed
        # The completed geographies never touched the service again.
        for geo in completed:
            assert resumed_runtime.service.stats.frames_by_geo[geo] == 0
        report = resumed_runtime.report()
        assert report.fetched > 0  # the remaining geographies did crawl

        fresh = build_runtime(sift=self.config).run_study(geos=MINI_GEOS)
        assert spike_dicts(study) == spike_dicts(fresh)
        for geo in MINI_GEOS:
            assert np.array_equal(
                study.states[geo].timeline.values,
                fresh.states[geo].timeline.values,
            )

    def test_second_run_resumes_every_geo_with_zero_fetches(self, tmp_path):
        store = str(tmp_path / "store")
        build_runtime(store=store, sift=self.config).run_study(geos=MINI_GEOS)

        rerun = build_runtime(store=store, sift=self.config)
        study = rerun.run_study(geos=MINI_GEOS)

        assert study.resumed_geos == MINI_GEOS
        assert rerun.service.stats.frames_served == 0
        assert rerun.report().fetched == 0
        assert rerun.completed_geos() == tuple(sorted(MINI_GEOS))

    def test_checkpoint_ignores_mismatched_window(self, tmp_path):
        store = str(tmp_path / "store")
        build_runtime(store=store, sift=self.config).run_study(geos=("US-WY",))

        other = build_runtime(
            store=store,
            sift=self.config,
            end=utc(2021, 2, 1),  # different study window, same store
        )
        study = other.run_study(geos=("US-WY",))
        # The stale checkpoint is ignored (the geography re-analyzes),
        # and the result carries the new window.
        assert study.resumed_geos == ()
        assert other.report().requested > 0
        assert study.window.end == utc(2021, 2, 1)

    def test_database_rerun_reanalyzes_from_frame_cache(self, tmp_path):
        # Without a store the database only caches frames: a rerun
        # fetches nothing, resumes nothing, and re-analyzes to the
        # fresh study's fingerprint (annotation's daily frames included),
        # also when process shards crawl into their own partitions.
        db_path = str(tmp_path / "frames.db")
        first = build_runtime(database=db_path)
        fresh = first.run_study(geos=MINI_GEOS)
        assert first.report().fetched > 0
        first.close()

        for executor in ("serial", "process"):
            rerun = build_runtime(
                database=db_path, max_workers=2, executor=executor
            )
            study = rerun.run_study(geos=MINI_GEOS)
            assert rerun.report().fetched == 0
            assert study.resumed_geos == ()
            assert study.fingerprint() == fresh.fingerprint()
            rerun.close()

    def test_memory_runtime_does_not_resume_across_instances(self):
        first = build_runtime(sift=self.config)
        first.run_study(geos=("US-WY",))
        second = build_runtime(sift=self.config)
        study = second.run_study(geos=("US-WY",))
        assert study.resumed_geos == ()


class TestCheckpointBackends:
    """Resume refuses a reconstruction-backend mismatch (DESIGN.md §9).

    A window mismatch re-analyzes silently; a backend mismatch raises,
    because mixing timelines stitched under different calibration
    semantics would silently corrupt the study.
    """

    config = SiftConfig(annotate=False)

    def test_mismatched_averager_is_refused(self, tmp_path):
        store = str(tmp_path / "store")
        build_runtime(
            store=store,
            sift=SiftConfig(annotate=False, averager="noise_aware"),
        ).run_study(geos=("US-WY",))

        other = build_runtime(store=store, sift=self.config)
        with pytest.raises(CheckpointMismatchError, match="noise_aware"):
            other.run_study(geos=("US-WY",))

    def test_matching_alternate_backend_resumes(self, tmp_path):
        store = str(tmp_path / "store")
        alternate = SiftConfig(
            annotate=False, stitcher="calibrated", averager="noise_aware"
        )
        build_runtime(store=store, sift=alternate).run_study(geos=("US-WY",))

        rerun = build_runtime(store=store, sift=alternate)
        study = rerun.run_study(geos=("US-WY",))
        assert study.resumed_geos == ("US-WY",)
        assert rerun.report().fetched == 0
        restored = study.states["US-WY"].averaging
        assert restored.stitcher == "calibrated"
        assert restored.averager == "noise_aware"


class TestRisingCache:
    def test_lru_eviction_respects_capacity(self):
        cache = RisingCache(capacity=2)
        day = utc(2021, 1, 1)
        cache.put(("US-TX", day), ())
        cache.put(("US-CA", day), ())
        assert cache.get(("US-TX", day)) is not None  # refresh TX
        cache.put(("US-NY", day), ())  # evicts CA, the LRU entry
        assert len(cache) == 2
        assert cache.get(("US-CA", day)) is None
        assert cache.get(("US-TX", day)) is not None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RisingCache(capacity=0)

    def test_stats_event_reports_hits_and_misses(self):
        cache = RisingCache(capacity=8)
        day = utc(2021, 1, 1)
        cache.get(("US-TX", day))
        cache.put(("US-TX", day), ())
        cache.get(("US-TX", day))
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)


class TestProgressEvents:
    def test_study_emits_structured_sequence(self):
        log = ProgressLog()
        runtime = build_runtime(progress=log)
        runtime.run_study(geos=("US-WY", "US-OK"))

        events = log.events()
        assert isinstance(events[0], StudyStarted)
        assert isinstance(events[-1], StudyFinished)
        started = [e.geo for e in log.of_type(GeoStarted)]
        finished = [e.geo for e in log.of_type(GeoFinished)]
        assert sorted(started) == ["US-OK", "US-WY"]
        assert sorted(finished) == ["US-OK", "US-WY"]
        crawl = log.of_type(CrawlStats)
        assert len(crawl) == 1
        assert crawl[0].fetched > 0
        assert crawl[0].frames_per_second > 0
        assert log.of_type(CacheStats)[0].misses > 0

    def test_resume_emits_checkpoint_hits(self, tmp_path):
        store = str(tmp_path / "store")
        config = SiftConfig(annotate=False)
        build_runtime(store=store, sift=config).run_study(geos=("US-WY",))

        log = ProgressLog()
        rerun = build_runtime(store=store, sift=config, progress=log)
        rerun.run_study(geos=("US-WY",))

        hits = log.of_type(CheckpointHit)
        assert [hit.geo for hit in hits] == ["US-WY"]
        finished = log.of_type(GeoFinished)
        assert finished[0].from_checkpoint is True

    def test_event_dicts_are_json_safe(self):
        event = StudyStarted(
            geos=("US-TX",), window=TimeWindow(utc(2021, 1, 1), utc(2021, 2, 1))
        )
        payload = event.to_dict()
        assert payload["type"] == "StudyStarted"
        assert payload["geos"] == ["US-TX"]
        assert payload["window"]["start"] == "2021-01-01T00:00:00+00:00"
        assert "1 geographies" in payload["message"]

    def test_text_listener_renders_lines(self):
        lines: list[str] = []
        listener = text_listener(lines.append)
        listener(GeoStarted(geo="US-TX", index=0, total=4))
        assert lines == ["analyzing US-TX (1/4)"]


class TestStudyRuntimeWiring:
    def test_build_wires_shared_database(self, tmp_path):
        runtime = build_runtime()
        assert runtime.manager.database is runtime.database
        assert runtime.sift.checkpoint is runtime.checkpoint
        assert runtime.checkpoint is None  # the database only caches frames
        stored = build_runtime(store=str(tmp_path / "store"))
        assert stored.sift.checkpoint is stored.checkpoint
        assert stored.checkpoint is stored.store

    def test_checkpoint_disabled(self):
        runtime = build_runtime(checkpoint=False)
        assert runtime.checkpoint is None
        assert runtime.completed_geos() == ()

    def test_context_manager_closes_database(self, tmp_path):
        with build_runtime(database=str(tmp_path / "study.db")) as runtime:
            runtime.analyze_state("US-WY")
        with pytest.raises(DatabaseError):
            runtime.database.frame_count()

    def test_scenario_injection_defaults_window(self):
        scenario = Scenario.build(
            ScenarioConfig(
                start=utc(2021, 4, 1), end=utc(2021, 5, 1), background_scale=0.0
            )
        )
        runtime = StudyRuntime.build(scenario=scenario)
        assert runtime.window == scenario.window
        assert runtime.scenario is scenario


class TestResumeUnderFaults:
    """Checkpoint durability composes with chaos (the fault injector).

    An interrupted chaos run must resume exactly like a fault-free one:
    completed geographies never touch the service again, and because the
    fault schedule is keyed by request identity (not arrival order), the
    resumed study lands on the same spikes as an uninterrupted run under
    the same ``(profile, seed)``.
    """

    config = SiftConfig(annotate=False)
    chaos = dict(faults="transient", fault_seed=11)

    def test_interrupted_chaos_run_resumes_without_refetching(self, tmp_path):
        store = str(tmp_path / "store")
        interrupter = _InterruptAfter(geo_limit=2)
        first = build_runtime(
            store=store, sift=self.config, progress=interrupter, **self.chaos
        )
        with pytest.raises(KeyboardInterrupt):
            first.run_study(geos=MINI_GEOS)
        assert first.fault_report().total_injected > 0  # chaos fired pre-interrupt
        first.close()
        completed = tuple(interrupter.finished)
        assert len(completed) == 2

        resumed = build_runtime(store=store, sift=self.config, **self.chaos)
        study = resumed.run_study(geos=MINI_GEOS)
        assert study.resumed_geos == completed
        # Zero refetches: the checkpointed geographies are served from
        # the store, faults and all.
        for geo in completed:
            assert resumed.service.stats.frames_by_geo[geo] == 0
        assert resumed.report().fetched > 0  # the rest did crawl
        assert resumed.fault_report().dead_letters == 0

        fresh = build_runtime(sift=self.config, **self.chaos)
        uninterrupted = fresh.run_study(geos=MINI_GEOS)
        assert spike_dicts(study) == spike_dicts(uninterrupted)
        for geo in MINI_GEOS:
            assert np.array_equal(
                study.states[geo].timeline.values,
                uninterrupted.states[geo].timeline.values,
            )
