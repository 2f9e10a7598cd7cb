"""Partitioned columnar study store: per-geo ``.npy`` columns + manifest.

Series stored as JSON text would make every load a
parse-and-materialize of every value, with the web index copying the
floats again.  At the target scale (51 geographies × 2 years × the
full term catalog) that materialization is the dominant load cost, so
this store keeps each geography's hourly series as a raw little-endian
``.npy`` column file that :func:`numpy.load` can **memory-map
zero-copy**, plus one small JSON manifest holding everything else
(study window, reconstruction backend, averaging diagnostics, spikes):

```
<root>/
  manifest.json          # format, term, per-geo entries, study summary
  series/
    US-TX.npy            # float64 hourly column, mmap-loadable
    US-CA.npy
    ...
```

The store implements the study-checkpoint protocol
(:class:`repro.core.pipeline.StudyCheckpoint`) and is the only study
checkpoint: a runtime checkpoints into it (``RuntimeConfig.store``),
resumes from it with zero refetches, and hands it to the serving layer
where :class:`repro.web.index.QueryIndex` builds its read artifacts
over the memory-mapped columns without materializing the raw series.

Each geography's manifest entry is stamped with the study window and
the reconstruction backend that built it: a window mismatch means the
geography re-analyzes, a backend mismatch refuses loudly
(:class:`repro.errors.CheckpointMismatchError`), because silently
mixing timelines produced under different calibration semantics would
corrupt the study.

Process-sharded studies write one private partition per shard
(``<root>/.shard-<k>``) and the parent merges them deterministically —
shard order, geo-sorted manifest — via :meth:`merge_partition`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import threading
from datetime import datetime

import numpy as np

from repro.core.area import AreaConfig, group_outages
from repro.core.averaging import AveragingResult
from repro.core.pipeline import StateResult, StudyCheckpoint, StudyResult
from repro.core.reconstruct import DEFAULT_AVERAGER, DEFAULT_STITCHER
from repro.core.series import HourlyTimeline
from repro.core.spikes import Spike, SpikeSet
from repro.core.stitching import StitchReport
from repro.errors import CheckpointMismatchError, DatabaseError
from repro.store.integrity import (
    PartitionDamage,
    StoreVerification,
    digest_file,
    fsync_directory,
)
from repro.timeutil import TimeWindow

FORMAT = "sift-columnar/1"
MANIFEST = "manifest.json"
SERIES_DIR = "series"


def _state_meta(result: StateResult, window: TimeWindow) -> dict:
    """The JSON-safe metadata stamped on a stored per-geography result."""
    averaging = result.averaging
    return {
        "window_start": window.start.isoformat(),
        "window_end": window.end.isoformat(),
        "rounds_used": averaging.rounds_used,
        "converged": averaging.converged,
        "similarity_history": list(averaging.similarity_history),
        "stitcher": averaging.stitcher,
        "averager": averaging.averager,
        "stitch_report": averaging.stitch_report.to_dict(),
    }


def _window_matches(meta: dict, window: TimeWindow) -> bool:
    """Whether a stored result belongs to *window* (else: re-analyze)."""
    return (
        meta.get("window_start") == window.start.isoformat()
        and meta.get("window_end") == window.end.isoformat()
    )


class ColumnarStore(StudyCheckpoint):
    """A directory of memory-mapped per-geo series + a JSON manifest."""

    def __init__(
        self,
        root: str,
        term: str = "Internet outage",
        stitcher: str = DEFAULT_STITCHER,
        averager: str = DEFAULT_AVERAGER,
        mmap: bool = True,
    ) -> None:
        self.root = root
        self.term = term
        self.stitcher = stitcher
        self.averager = averager
        #: ``False`` loads materialized copies (for callers that must
        #: outlive the store directory); the default maps pages lazily.
        self.mmap = mmap
        self._lock = threading.Lock()
        os.makedirs(os.path.join(root, SERIES_DIR), exist_ok=True)
        #: ``*.tmp`` leftovers from interrupted writes, removed on open
        #: before they can ever be mistaken for partitions.
        self.swept = self.sweep_tmp()

    # -- manifest ------------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST)

    def _read_manifest(self) -> dict:
        path = self._manifest_path()
        if not os.path.exists(path):
            return {"format": FORMAT, "term": self.term, "geos": {}}
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != FORMAT:
            raise DatabaseError(
                f"{path} is not a {FORMAT} manifest "
                f"(found {manifest.get('format')!r})"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        """Durable atomic replace: tmp → fsync → rename → dir fsync.

        A reader never sees a half-written manifest, and a crash at any
        point leaves either the old manifest or the new one on disk —
        never a torn blend, never a rename rolled back by a power cut.
        """
        path = self._manifest_path()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(self.root)

    def _column_path(self, geo: str) -> str:
        return os.path.join(self.root, SERIES_DIR, f"{geo}.npy")

    def _write_npy(self, path: str, values: np.ndarray) -> tuple[str, int]:
        """Durably write one ``.npy`` column; return (digest, bytes).

        The digest is taken over the fsynced tmp bytes *before* the
        rename, so the manifest entry that follows describes exactly
        the bytes that became the partition.
        """
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            np.save(handle, np.ascontiguousarray(values, dtype=np.float64))
            handle.flush()
            os.fsync(handle.fileno())
        checksum, size = digest_file(tmp)
        os.replace(tmp, path)
        fsync_directory(os.path.dirname(path))
        return checksum, size

    def _write_column(self, geo: str, values: np.ndarray) -> tuple[str, int]:
        return self._write_npy(self._column_path(geo), values)

    def _load_column(self, geo: str) -> np.ndarray:
        return np.load(
            self._column_path(geo), mmap_mode="r" if self.mmap else None
        )

    # -- the StudyCheckpoint protocol ----------------------------------------

    def save_state(self, result: StateResult, window: TimeWindow) -> None:
        """Persist one geography: column file first, then the manifest.

        The manifest entry doubles as the completion marker, so an
        interrupt between the two writes can never leave a checkpoint
        that looks complete.
        """
        with self._lock:
            digest, nbytes = self._write_column(result.geo, result.timeline.values)
            manifest = self._read_manifest()
            manifest["geos"][result.geo] = {
                "file": f"{SERIES_DIR}/{result.geo}.npy",
                "start": result.timeline.start.isoformat(),
                "hours": len(result.timeline),
                "dtype": "float64",
                "digest": digest,
                "bytes": nbytes,
                "meta": _state_meta(result, window),
                "spikes": [spike.to_dict() for spike in result.spikes],
            }
            self._write_manifest(manifest)

    def load_state(self, geo: str, window: TimeWindow) -> StateResult | None:
        entry = self._read_manifest()["geos"].get(geo)
        if entry is None:
            return None
        meta = entry["meta"]
        if not _window_matches(meta, window):
            return None
        stored = (meta["stitcher"], meta["averager"])
        if stored != (self.stitcher, self.averager):
            raise CheckpointMismatchError(
                f"checkpoint for {geo!r} was built with "
                f"stitcher={stored[0]!r}/averager={stored[1]!r} "
                f"but this study is configured with "
                f"stitcher={self.stitcher!r}/averager={self.averager!r}; "
                f"rerun with the stored backend or use a fresh store"
            )
        timeline = HourlyTimeline(
            term=self.term,
            geo=geo,
            start=datetime.fromisoformat(entry["start"]),
            values=self._load_column(geo),
        )
        spikes = SpikeSet([Spike.from_dict(row) for row in entry["spikes"]])
        averaging = AveragingResult(
            timeline=timeline,
            spikes=spikes,
            rounds_used=meta["rounds_used"],
            converged=meta["converged"],
            similarity_history=tuple(meta["similarity_history"]),
            stitch_report=StitchReport.from_dict(meta["stitch_report"]),
            responses=(),
            stitcher=self.stitcher,
            averager=self.averager,
        )
        return StateResult(
            geo=geo, timeline=timeline, spikes=spikes, averaging=averaging
        )

    def save_annotated(self, spikes: SpikeSet) -> None:
        """Overwrite stored spikes with their final annotated versions."""
        with self._lock:
            manifest = self._read_manifest()
            by_geo: dict[str, list[dict]] = {}
            for spike in spikes:
                by_geo.setdefault(spike.geo, []).append(spike.to_dict())
            for geo, rows in by_geo.items():
                entry = manifest["geos"].get(geo)
                if entry is not None:
                    entry["spikes"] = rows
            self._write_manifest(manifest)

    def completed_geos(self, window: TimeWindow) -> tuple[str, ...]:
        """Geographies checkpointed for *window* (sorted, manifest-only)."""
        manifest = self._read_manifest()
        return tuple(
            geo
            for geo in sorted(manifest["geos"])
            if _window_matches(manifest["geos"][geo]["meta"], window)
        )

    # -- study-level summary --------------------------------------------------

    def record_summary(self, study: StudyResult) -> None:
        """Stamp study-wide results the per-geo entries cannot carry.

        With a summary recorded, :meth:`load_study` reproduces the
        original :class:`StudyResult` fingerprint exactly (annotated
        spikes, heavy hitters, resumed geographies and all).
        """
        with self._lock:
            manifest = self._read_manifest()
            manifest["study"] = {
                "window_start": study.window.start.isoformat(),
                "window_end": study.window.end.isoformat(),
                "heavy_hitters": list(study.heavy_hitters),
                "suggestion_stats": list(study.suggestion_stats),
                "resumed_geos": list(study.resumed_geos),
            }
            self._write_manifest(manifest)

    def load_study(
        self, window: TimeWindow | None = None, area: AreaConfig | None = None
    ) -> StudyResult:
        """Rebuild a full :class:`StudyResult` over memory-mapped columns.

        Outage grouping re-runs over the stored spikes (it is a pure
        deterministic function of them); timelines stay memory-mapped,
        so the load materializes no series values.
        """
        manifest = self._read_manifest()
        if not manifest["geos"]:
            raise DatabaseError(f"columnar store {self.root} holds no geographies")
        summary = manifest.get("study", {})
        if window is None:
            if "window_start" in summary:
                window = TimeWindow(
                    datetime.fromisoformat(summary["window_start"]),
                    datetime.fromisoformat(summary["window_end"]),
                )
            else:
                first = next(iter(sorted(manifest["geos"])))
                meta = manifest["geos"][first]["meta"]
                window = TimeWindow(
                    datetime.fromisoformat(meta["window_start"]),
                    datetime.fromisoformat(meta["window_end"]),
                )
        states: dict[str, StateResult] = {}
        all_spikes = []
        for geo in sorted(manifest["geos"]):
            result = self.load_state(geo, window)
            if result is None:
                raise DatabaseError(
                    f"geography {geo} in {self.root} does not cover "
                    f"{window.start.isoformat()}..{window.end.isoformat()}"
                )
            states[geo] = result
            all_spikes.extend(result.spikes)
        spike_set = SpikeSet(all_spikes)
        outages = group_outages(spike_set, area or AreaConfig())
        return StudyResult(
            window=window,
            spikes=spike_set,
            outages=outages,
            states=states,
            heavy_hitters=tuple(summary.get("heavy_hitters", ())),
            suggestion_stats=tuple(summary.get("suggestion_stats", (0, 0))),
            resumed_geos=tuple(summary.get("resumed_geos", ())),
        )

    # -- streaming checkpoints -------------------------------------------------

    def _stream_column_path(self, geo: str) -> str:
        return os.path.join(self.root, SERIES_DIR, f"{geo}.stream.npy")

    def save_stream(self, state: dict, columns: dict[str, np.ndarray]) -> None:
        """Persist a mid-stream daemon checkpoint: raw columns + state.

        The raw (pre-renormalization) stitched series land as
        ``series/<geo>.stream.npy`` side files; the JSON-safe *state*
        dict (stitcher export, claimed spike bounds, tick watermark)
        goes under the manifest's ``stream`` key.  Columns are written
        before the manifest, so — exactly like :meth:`save_state` — an
        interrupt can never leave a stream entry pointing at a missing
        or stale column.
        """
        with self._lock:
            manifest = self._read_manifest()
            stream_columns = dict(manifest.get("stream_columns", {}))
            for geo in sorted(columns):
                digest, nbytes = self._write_npy(
                    self._stream_column_path(geo), columns[geo]
                )
                stream_columns[geo] = {
                    "file": f"{SERIES_DIR}/{geo}.stream.npy",
                    "digest": digest,
                    "bytes": nbytes,
                }
            # Entries for geos absent from the new state are stale
            # (e.g. a narrowed stream): drop them with their state.
            stream_columns = {
                geo: info
                for geo, info in stream_columns.items()
                if geo in state.get("geos", {})
            }
            manifest["stream"] = state
            manifest["stream_columns"] = stream_columns
            self._write_manifest(manifest)

    def load_stream(self) -> dict | None:
        """The last streamed checkpoint state, or ``None`` when fresh."""
        return self._read_manifest().get("stream")

    def load_stream_column(self, geo: str) -> np.ndarray:
        """A materialized copy of one mid-stream raw series.

        Always a private in-memory array (never a memory map): the
        resumed stitcher takes ownership and keeps appending to it
        long after the store may have rewritten the side file.
        """
        values = np.load(self._stream_column_path(geo))
        return np.ascontiguousarray(values, dtype=np.float64)

    def clear_stream(self) -> None:
        """Drop the stream checkpoint (a finished stream needs none)."""
        with self._lock:
            manifest = self._read_manifest()
            dropped = manifest.pop("stream", None) is not None
            dropped |= manifest.pop("stream_columns", None) is not None
            if dropped:
                self._write_manifest(manifest)
            stream_dir = os.path.join(self.root, SERIES_DIR)
            for name in os.listdir(stream_dir):
                if name.endswith(".stream.npy"):
                    os.remove(os.path.join(stream_dir, name))

    # -- integrity -------------------------------------------------------------

    def sweep_tmp(self) -> tuple[str, ...]:
        """Remove stale ``*.tmp`` files left behind by interrupted writes.

        Runs on open (crash recovery is the *normal* startup path, not
        an exceptional one): a tmp file that never reached its rename
        holds torn bytes and must not survive to confuse anything that
        globs the series directory.  Returns the store-relative paths
        removed.
        """
        swept: list[str] = []
        for directory in (self.root, os.path.join(self.root, SERIES_DIR)):
            if not os.path.isdir(directory):
                continue
            removed = False
            for name in sorted(os.listdir(directory)):
                if name.endswith(".tmp"):
                    os.remove(os.path.join(directory, name))
                    swept.append(
                        os.path.relpath(os.path.join(directory, name), self.root)
                    )
                    removed = True
            if removed:
                fsync_directory(directory)
        return tuple(swept)

    def _check_file(
        self,
        geo: str,
        relfile: str,
        entry: dict,
        damage: list[PartitionDamage],
    ) -> bool:
        """Hash one manifest-tracked file; append damage. True if hashed."""
        path = os.path.join(self.root, relfile)
        if not os.path.exists(path):
            damage.append(
                PartitionDamage(geo, relfile, "missing", "file absent on disk")
            )
            return False
        expected_digest = entry.get("digest")
        expected_bytes = entry.get("bytes")
        if expected_digest is None:  # legacy digest-less entry
            return False
        actual_digest, actual_bytes = digest_file(path)
        if expected_bytes is not None and actual_bytes != expected_bytes:
            kind = "truncated" if actual_bytes < expected_bytes else "digest-mismatch"
            damage.append(
                PartitionDamage(
                    geo,
                    relfile,
                    kind,
                    f"{actual_bytes} bytes on disk, manifest says "
                    f"{expected_bytes}",
                )
            )
        elif actual_digest != expected_digest:
            damage.append(
                PartitionDamage(
                    geo,
                    relfile,
                    "digest-mismatch",
                    "content hash does not match manifest",
                )
            )
        return True

    def verify(self, quarantine: bool = False) -> StoreVerification:
        """Re-hash every manifest-tracked column against its digest.

        Detects truncation, bit flips, and orphaned manifest entries
        (files missing on disk).  Entries written before digests
        existed are skipped — they cannot be verified, only trusted.

        With ``quarantine=True``, every damaged geography's files
        (study column *and* stream side file — a resume needs the pair
        consistent, so one bad half condemns both) are renamed to
        ``*.quarantine`` and the geography is stripped from the
        manifest and the stream checkpoint state; the stream state
        additionally records ``quarantined: {geo: kinds}`` so a
        resuming daemon knows those geographies were lost to damage —
        not dropped from the configuration — and re-crawls exactly
        them.  Everything undamaged remains servable untouched.
        """
        with self._lock:
            manifest = self._read_manifest()
            stream_columns = manifest.get("stream_columns", {})
            damage: list[PartitionDamage] = []
            checked = 0
            all_geos = sorted(set(manifest["geos"]) | set(stream_columns))
            for geo in all_geos:
                entry = manifest["geos"].get(geo)
                if entry is not None:
                    checked += self._check_file(geo, entry["file"], entry, damage)
                stream_entry = stream_columns.get(geo)
                if stream_entry is not None:
                    checked += self._check_file(
                        geo, stream_entry["file"], stream_entry, damage
                    )
            damaged_geos = sorted({item.geo for item in damage})
            intact = tuple(geo for geo in all_geos if geo not in damaged_geos)
            quarantined: list[str] = []
            if quarantine and damaged_geos:
                moved: set[str] = set()
                stream_state = manifest.get("stream")
                for geo in damaged_geos:
                    for relfile in (
                        f"{SERIES_DIR}/{geo}.npy",
                        f"{SERIES_DIR}/{geo}.stream.npy",
                    ):
                        path = os.path.join(self.root, relfile)
                        if os.path.exists(path):
                            os.replace(path, path + ".quarantine")
                            moved.add(relfile)
                    manifest["geos"].pop(geo, None)
                    stream_columns.pop(geo, None)
                    if stream_state is not None:
                        stream_state.get("geos", {}).pop(geo, None)
                        stream_state.setdefault("quarantined", {})[geo] = (
                            "; ".join(
                                sorted(
                                    {
                                        item.kind
                                        for item in damage
                                        if item.geo == geo
                                    }
                                )
                            )
                        )
                    quarantined.append(geo)
                fsync_directory(os.path.join(self.root, SERIES_DIR))
                self._write_manifest(manifest)
                damage = [
                    dataclasses.replace(
                        item, quarantined_to=item.file + ".quarantine"
                    )
                    if item.file in moved
                    else item
                    for item in damage
                ]
            return StoreVerification(
                checked=checked,
                intact=intact,
                damage=tuple(damage),
                quarantined=tuple(quarantined),
            )

    # -- shard partitions ------------------------------------------------------

    def merge_partition(self, root: str) -> None:
        """Absorb a shard partition: move its columns, merge its manifest.

        Partitions shard by geography so the merge is conflict-free;
        entries land geo-sorted in the rewritten manifest (dict order
        is insertion order, and the manifest is dumped with sorted
        keys anyway), making the merged store independent of shard
        completion order.  The partition directory is removed.
        """
        partition_manifest_path = os.path.join(root, MANIFEST)
        if not os.path.exists(partition_manifest_path):
            shutil.rmtree(root, ignore_errors=True)
            return  # a shard that resumed everything writes nothing
        with self._lock:
            with open(partition_manifest_path, encoding="utf-8") as handle:
                partition = json.load(handle)
            manifest = self._read_manifest()
            for geo in sorted(partition["geos"]):
                entry = partition["geos"][geo]
                os.replace(
                    os.path.join(root, entry["file"]),
                    self._column_path(geo),
                )
                entry["file"] = f"{SERIES_DIR}/{geo}.npy"
                manifest["geos"][geo] = entry
            fsync_directory(os.path.join(self.root, SERIES_DIR))
            self._write_manifest(manifest)
            shutil.rmtree(root, ignore_errors=True)

    # -- introspection ---------------------------------------------------------

    def geos(self) -> tuple[str, ...]:
        return tuple(sorted(self._read_manifest()["geos"]))

    def __len__(self) -> int:
        return len(self._read_manifest()["geos"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarStore({self.root!r}, term={self.term!r}, geos={len(self)})"
