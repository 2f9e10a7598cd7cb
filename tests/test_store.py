"""Tests for the partitioned columnar series store.

The store is the study checkpoint; the contract: a checkpoint
roundtrips exactly, a window mismatch re-analyzes while a backend
mismatch refuses, a stored study reloads with its original
fingerprint, and the serving layer loads it **zero-copy** through
memory-mapped ``.npy`` columns.  Resume through a runtime is covered
in ``test_runtime.py`` and ``test_process_runtime.py``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import SiftConfig
from repro.errors import CheckpointMismatchError, DatabaseError
from repro.runtime import StudyRuntime
from repro.store import MANIFEST, ColumnarStore
from repro.timeutil import TimeWindow, utc

from tests.conftest import MINI_GEOS, WINDOW_END, WINDOW_START

WINDOW = TimeWindow(WINDOW_START, WINDOW_END)
NO_ANNOTATE = SiftConfig(annotate=False)


def build_runtime(**kwargs) -> StudyRuntime:
    kwargs.setdefault("background_scale", 0.3)
    kwargs.setdefault("start", WINDOW_START)
    kwargs.setdefault("end", WINDOW_END)
    return StudyRuntime.build(**kwargs)


@pytest.fixture
def store_dir(tmp_path) -> str:
    return str(tmp_path / "store")


class TestCheckpointRoundtrip:
    def test_save_load_roundtrip(self, store_dir, tx_result):
        store = ColumnarStore(store_dir)
        store.save_state(tx_result, WINDOW)
        loaded = store.load_state("US-TX", WINDOW)
        assert loaded is not None
        assert np.array_equal(loaded.timeline.values, tx_result.timeline.values)
        assert [s.to_dict() for s in loaded.spikes] == [
            s.to_dict() for s in tx_result.spikes
        ]
        assert loaded.averaging.rounds_used == tx_result.averaging.rounds_used
        assert (
            loaded.averaging.stitch_report.to_dict()
            == tx_result.averaging.stitch_report.to_dict()
        )

    def test_loaded_series_is_memory_mapped(self, store_dir, tx_result):
        store = ColumnarStore(store_dir)
        store.save_state(tx_result, WINDOW)
        loaded = store.load_state("US-TX", WINDOW)
        assert isinstance(loaded.timeline.values, np.memmap)

    def test_window_mismatch_returns_none(self, store_dir, tx_result):
        store = ColumnarStore(store_dir)
        store.save_state(tx_result, WINDOW)
        other = TimeWindow(utc(2020, 1, 1), utc(2020, 3, 1))
        assert store.load_state("US-TX", other) is None
        assert store.completed_geos(other) == ()
        assert store.completed_geos(WINDOW) == ("US-TX",)

    def test_backend_mismatch_is_refused(self, store_dir, tx_result):
        ColumnarStore(store_dir).save_state(tx_result, WINDOW)
        mismatched = ColumnarStore(store_dir, stitcher="calibrated")
        with pytest.raises(CheckpointMismatchError, match="stitcher"):
            mismatched.load_state("US-TX", WINDOW)

    def test_unknown_geo_is_none(self, store_dir):
        assert ColumnarStore(store_dir).load_state("US-XX", WINDOW) is None

    def test_foreign_manifest_is_refused(self, store_dir):
        store = ColumnarStore(store_dir)
        with open(os.path.join(store_dir, MANIFEST), "w") as handle:
            json.dump({"format": "something-else/9"}, handle)
        with pytest.raises(DatabaseError, match="manifest"):
            store.load_state("US-TX", WINDOW)


class TestStudyPersistence:
    def test_store_serves_the_study_with_original_fingerprint(self, tmp_path):
        store_dir = str(tmp_path / "store")
        runtime = build_runtime(
            store=store_dir, max_workers=2, executor="process"
        )
        study = runtime.run_study(geos=MINI_GEOS)
        runtime.close()

        loaded = ColumnarStore(store_dir).load_study()
        assert loaded.fingerprint() == study.fingerprint()
        assert loaded.heavy_hitters == study.heavy_hitters
        assert loaded.suggestion_stats == study.suggestion_stats
        assert [o.label for o in loaded.outages] == [
            o.label for o in study.outages
        ]

    def test_save_annotated_overwrites_manifest_spikes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        runtime = build_runtime(store=store_dir)  # annotation on
        study = runtime.run_study(geos=("US-TX",))
        runtime.close()
        loaded = ColumnarStore(store_dir).load_state("US-TX", WINDOW)
        annotated = [s.to_dict() for s in study.spikes.in_state("US-TX")]
        assert [s.to_dict() for s in loaded.spikes] == annotated

    def test_empty_store_refuses_to_load_a_study(self, tmp_path):
        with pytest.raises(DatabaseError, match="no geographies"):
            ColumnarStore(str(tmp_path / "empty")).load_study()


class TestZeroCopyServing:
    def test_query_index_from_store_serves_identical_payloads(self, tmp_path):
        from repro.web.index import QueryIndex

        store_dir = str(tmp_path / "store")
        runtime = build_runtime(
            store=store_dir, max_workers=2, executor="process"
        )
        study = runtime.run_study(geos=MINI_GEOS)
        runtime.close()

        live = QueryIndex(study)
        stored = QueryIndex.from_store(ColumnarStore(store_dir))
        assert stored.fingerprint == live.fingerprint
        for geo in MINI_GEOS:
            hours = live.column(geo).hours
            assert stored.timeline_payload(geo, 0, hours) == (
                live.timeline_payload(geo, 0, hours)
            )
            cut = live.spike_table(geo).cut(1)
            assert stored.spikes_payload(geo, cut) == live.spikes_payload(geo, cut)
        assert stored.summary_payload() == live.summary_payload()

    def test_from_store_columns_alias_the_mmap(self, tmp_path):
        from repro.web.index import QueryIndex

        store_dir = str(tmp_path / "store")
        runtime = build_runtime(store=store_dir, sift=NO_ANNOTATE)
        runtime.run_study(geos=("US-TX",))
        runtime.close()

        index = QueryIndex.from_store(ColumnarStore(store_dir))
        # GeoColumn must not have copied the memory-mapped series.
        assert isinstance(index.column("US-TX")._values, np.memmap)
