"""Tests for the process-sharded study executor.

The contract: a study run on geography-sharded worker processes is
**byte-identical** to the same study run serially or on threads, at any
worker count; shard partitions merge deterministically into the parent
frame cache and study store; resume works across executor switches
with zero refetches; and the workers' structured progress (including
per-shard wall-clock and peak RSS) reaches the parent listener.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3

import pytest

from repro.core import SiftConfig
from repro.core.progress import GeoFinished, ProgressLog, ShardStats
from repro.runtime import StudyRuntime
from repro.runtime.shard import database_partition, store_partition
from repro.store import MANIFEST

from tests.conftest import MINI_GEOS, WINDOW_END, WINDOW_START


def build_runtime(**kwargs) -> StudyRuntime:
    kwargs.setdefault("background_scale", 0.3)
    kwargs.setdefault("start", WINDOW_START)
    kwargs.setdefault("end", WINDOW_END)
    return StudyRuntime.build(**kwargs)


def spike_dicts(study) -> list[dict]:
    return [spike.to_dict() for spike in study.spikes]


class TestProcessDeterminism:
    @pytest.fixture(scope="class")
    def serial_study(self):
        return build_runtime(max_workers=1).run_study(geos=MINI_GEOS)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_study_identical_to_serial(self, serial_study, workers):
        study = build_runtime(
            max_workers=workers, executor="process"
        ).run_study(geos=MINI_GEOS)
        assert study.fingerprint() == serial_study.fingerprint()
        assert spike_dicts(study) == spike_dicts(serial_study)
        for geo in MINI_GEOS:
            assert (
                study.states[geo].timeline.values.tobytes()
                == serial_study.states[geo].timeline.values.tobytes()
            )

    def test_thread_study_identical_to_process(self, serial_study):
        threaded = build_runtime(
            max_workers=2, executor="thread"
        ).run_study(geos=MINI_GEOS)
        sharded = build_runtime(
            max_workers=2, executor="process"
        ).run_study(geos=MINI_GEOS)
        assert (
            threaded.fingerprint()
            == sharded.fingerprint()
            == serial_study.fingerprint()
        )
        assert threaded.heavy_hitters == sharded.heavy_hitters
        assert threaded.suggestion_stats == sharded.suggestion_stats


def _store_files(root: str) -> dict[str, bytes]:
    """Every file under a store directory, by relative path."""
    files = {}
    for directory, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def _frame_rows(path: str) -> list[tuple]:
    """A frame cache's rows, minus which fetcher unit crawled each."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT term, geo, start, end, sample_round, values_json, "
            "rising_json FROM frames ORDER BY term, geo, start, end, "
            "sample_round"
        ).fetchall()


class TestShardPartitions:
    config = SiftConfig(annotate=False)

    def test_partitions_merge_into_main_database(self, tmp_path):
        db = str(tmp_path / "study.sqlite3")
        store = str(tmp_path / "store")
        runtime = build_runtime(
            max_workers=2, executor="process", database=db, store=store,
            sift=self.config,
        )
        study = runtime.run_study(geos=MINI_GEOS)
        assert len(study.states) == len(MINI_GEOS)
        # The workers' crawl accounting reaches the parent report.
        assert runtime.report().fetched > 0
        # Every crawled frame landed in the *main* database and every
        # geography's checkpoint in the *main* store...
        serial = build_runtime(sift=self.config)
        serial.run_study(geos=MINI_GEOS)
        assert runtime.database.frame_count() == serial.database.frame_count()
        assert runtime.store.geos() == tuple(sorted(MINI_GEOS))
        runtime.close()
        # ...and the shard partitions are gone.
        for shard in range(2):
            assert not os.path.exists(database_partition(db, shard))
            assert not os.path.exists(store_partition(store, shard))
        leftovers = [
            name
            for directory in (tmp_path, store)
            for name in os.listdir(directory)
            if ".shard" in name
        ]
        assert leftovers == []

    def test_merged_database_equals_serial_database(self, tmp_path):
        """The merged frame cache and study store hold what a serial
        run writes: the same frames, and a byte-identical manifest and
        columns."""
        serial = build_runtime(
            database=str(tmp_path / "serial.sqlite3"),
            store=str(tmp_path / "serial"),
            sift=self.config,
        )
        serial.run_study(geos=MINI_GEOS)
        serial.close()
        sharded = build_runtime(
            max_workers=4, executor="process",
            database=str(tmp_path / "sharded.sqlite3"),
            store=str(tmp_path / "sharded"),
            sift=self.config,
        )
        sharded.run_study(geos=MINI_GEOS)
        sharded.close()
        assert _frame_rows(str(tmp_path / "sharded.sqlite3")) == _frame_rows(
            str(tmp_path / "serial.sqlite3")
        )
        serial_files = _store_files(str(tmp_path / "serial"))
        assert MANIFEST in serial_files
        assert _store_files(str(tmp_path / "sharded")) == serial_files


class TestResumeAcrossExecutors:
    config = SiftConfig(annotate=False)

    def test_zero_refetch_resume_after_executor_switch(self, tmp_path):
        store = str(tmp_path / "store")
        first = build_runtime(store=store, sift=self.config)
        fresh = first.run_study(geos=MINI_GEOS)
        assert first.report().requested > 0
        first.close()

        for executor in ("thread", "process"):
            resumed = build_runtime(
                max_workers=2, executor=executor, store=store, sift=self.config
            )
            study = resumed.run_study(geos=MINI_GEOS)
            assert resumed.report().requested == 0
            assert study.resumed_geos == MINI_GEOS
            for geo in MINI_GEOS:
                assert (
                    study.states[geo].timeline.values.tobytes()
                    == fresh.states[geo].timeline.values.tobytes()
                )
            resumed.close()

    def test_partial_checkpoint_only_crawls_missing_geos(self, tmp_path):
        store = str(tmp_path / "store")
        first = build_runtime(store=store, sift=self.config)
        first.run_study(geos=MINI_GEOS[:2])
        first.close()

        log = ProgressLog()
        second = build_runtime(
            max_workers=2, executor="process", store=store,
            sift=self.config, progress=log,
        )
        study = second.run_study(geos=MINI_GEOS)
        assert study.resumed_geos == MINI_GEOS[:2]
        # The crawl happened inside the worker processes; their
        # accounting arrives as forwarded CrawlStats events AND is
        # folded into the parent's lifetime report.
        from repro.core.progress import CrawlStats

        worker_requested = sum(
            event.requested for event in log.of_type(CrawlStats)
        )
        assert worker_requested > 0
        assert second.report().requested == worker_requested
        assert set(study.states) == set(MINI_GEOS)
        second.close()


class TestShardProgress:
    def test_worker_events_reach_the_parent_listener(self):
        log = ProgressLog()
        runtime = build_runtime(
            max_workers=2, executor="process", progress=log,
            sift=SiftConfig(annotate=False),
        )
        runtime.run_study(geos=MINI_GEOS)
        finished = {event.geo for event in log.of_type(GeoFinished)}
        assert finished == set(MINI_GEOS)
        shards = log.of_type(ShardStats)
        assert {event.shard for event in shards} == {0, 1}
        for event in shards:
            assert event.executor == "process"
            assert event.worker_count == 2
            assert event.elapsed_seconds > 0
            # RSS comes from resource.getrusage; non-negative always,
            # positive wherever the resource module exists.
            assert event.peak_rss_kb >= 0

    def test_serial_run_reports_its_own_shard_stats(self):
        log = ProgressLog()
        runtime = build_runtime(progress=log, sift=SiftConfig(annotate=False))
        runtime.run_study(geos=MINI_GEOS[:2])
        shards = log.of_type(ShardStats)
        assert len(shards) == 1
        assert shards[0].executor == "serial"
        assert shards[0].geo_count == 2


class TestExecutionTelemetry:
    def test_api_runtime_reports_execution_and_shards(self):
        from repro.web import SiftWebApp
        import json

        log = ProgressLog()
        runtime = build_runtime(
            max_workers=2, executor="process", progress=log,
            sift=SiftConfig(annotate=False),
        )
        study = runtime.run_study(geos=MINI_GEOS)
        app = SiftWebApp(
            study, progress_log=log, execution=runtime.execution_info()
        )
        status, _type, body = app.handle_path("/api/runtime")
        assert status == 200
        execution = json.loads(body)["execution"]
        assert execution["executor"] == "process"
        assert execution["max_workers"] == 2
        shard_rows = execution["shards"]
        assert {row["shard"] for row in shard_rows} == {0, 1}
        assert all(row["peak_rss_kb"] >= 0 for row in shard_rows)
