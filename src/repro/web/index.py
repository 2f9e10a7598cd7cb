"""Columnar read-index over a finished study: the serving hot path.

Every ``/api/*`` request used to re-walk the study's Python object
graph — slicing :class:`~repro.core.series.HourlyTimeline` (a numpy
copy plus a per-value ``round`` loop), re-filtering
:class:`~repro.core.spikes.SpikeSet` through Python predicates, and
recomputing ``Outage.annotations`` (a counting sort) on every hit.
Outage results are read-mostly snapshots — Trinocular- and IODA-style
dashboards have the same shape — so :class:`QueryIndex` materializes
the query-shaped artifacts once per snapshot:

* per-geo value columns with prefix sums (window sums, means and
  non-zero counts in O(1)) and block maxima (window peaks in O(n/B));
* vectorized display rounding (one ``np.round`` per response window
  instead of a per-value Python ``round`` loop), with the rounded
  payloads held by the response cache;
* spike tables in peak order with a duration-sorted permutation: a
  ``min_hours`` filter is one ``searchsorted`` plus an index gather;
* outage rows pre-rendered to JSON-safe dicts with a footprint-sorted
  permutation for ``min_states`` cuts (the merged-annotation ranking
  runs once per snapshot, not once per request);
* a study-wide summary reusing the analysis layer's grouping stats
  (``footprint_cdf``, ``duration_cdf``, ``yearly_counts``) so the web
  tier and the report tables cannot drift apart.

Filters are canonicalized to *cut positions*: ``min_hours=7`` and
``min_hours=9`` selecting the same spikes map to the same cut, so the
response cache collapses equivalent queries into one entry.

The index never copies a timeline it is given: a column keeps a
reference to the study's value array (already contiguous float64), so
a study loaded from the columnar store (:meth:`QueryIndex.from_store`)
serves straight off the memory-mapped ``.npy`` files — the derived
prefix/block artifacts are small, and the raw series pages in lazily.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from repro.analysis.area_stats import footprint_cdf, mean_footprint
from repro.analysis.impact import duration_cdf, yearly_counts
from repro.core.area import Outage
from repro.core.pipeline import StudyResult
from repro.core.series import HourlyTimeline
from repro.core.spikes import SpikeSet
from repro.timeutil import TimeWindow, ensure_grid, hour_at, hour_index

#: Block size of the range-maximum index.  A window peak scans at most
#: ``2 * _BLOCK`` raw values plus ``hours / _BLOCK`` block maxima.
_BLOCK = 128


class GeoColumn:
    """Columnar artifacts for one geography's timeline."""

    __slots__ = (
        "geo",
        "term",
        "start",
        "hours",
        "_values",
        "_prefix",
        "_nonzero",
        "_block_max",
        "_buf",
        "_pbuf",
        "_nbuf",
        "_bbuf",
    )

    def __init__(self, timeline: HourlyTimeline) -> None:
        self.geo = timeline.geo
        self.term = timeline.term
        self.start = timeline.start
        values = timeline.values
        if values.dtype != np.float64 or not values.flags["C_CONTIGUOUS"]:
            values = np.ascontiguousarray(values, dtype=np.float64)
        # Zero-copy for the common case: study timelines (and the
        # columnar store's memory-mapped columns) are already
        # contiguous float64, so the column aliases them directly.
        self._values = values
        self.hours = int(values.size)
        self._prefix = np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))
        self._nonzero = np.concatenate(
            ([0], np.cumsum(values > 0, dtype=np.int64))
        )
        # Block maxima without materializing a padded copy of the
        # series: full blocks reduce through a reshaped view, the
        # ragged tail separately.
        full = self.hours // _BLOCK
        tail = self.hours - full * _BLOCK
        block_max = np.zeros(full + (1 if tail else 0), dtype=np.float64)
        if full:
            block_max[:full] = (
                values[: full * _BLOCK].reshape(full, _BLOCK).max(axis=1)
            )
        if tail:
            block_max[full] = values[full * _BLOCK :].max()
        self._block_max = block_max
        # Growth buffers materialize lazily on the first append; until
        # then the column stays a zero-copy alias of the study arrays.
        self._buf: np.ndarray | None = None
        self._pbuf: np.ndarray | None = None
        self._nbuf: np.ndarray | None = None
        self._bbuf: np.ndarray | None = None

    # -- streaming delta installs --------------------------------------------

    def _ensure_capacity(self, new_hours: int) -> None:
        if self._buf is not None and self._buf.size >= new_hours:
            return
        capacity = max(2 * new_hours, 1024)
        blocks = capacity // _BLOCK + 1
        buf = np.empty(capacity, dtype=np.float64)
        pbuf = np.empty(capacity + 1, dtype=np.float64)
        nbuf = np.empty(capacity + 1, dtype=np.int64)
        bbuf = np.zeros(blocks, dtype=np.float64)
        buf[: self.hours] = self._values
        pbuf[: self.hours + 1] = self._prefix
        nbuf[: self.hours + 1] = self._nonzero
        bbuf[: self._block_max.size] = self._block_max
        self._buf, self._pbuf, self._nbuf, self._bbuf = buf, pbuf, nbuf, bbuf
        self._values = buf[: self.hours]
        self._prefix = pbuf[: self.hours + 1]
        self._nonzero = nbuf[: self.hours + 1]

    def append(self, tail: np.ndarray) -> None:
        """Extend the column in place with newly streamed hours.

        Valid only while every already-indexed hour keeps its value —
        the caller (``QueryIndex.apply_delta``) rebuilds the column
        instead when the renormalization scale moved.  Prefix sums and non-zero counts extend
        from their last entry; block maxima **recompute** the formerly
        partial last block over its full current extent before
        appending the new full blocks — appending alone would freeze a
        stale partial maximum and hide any taller spike landing inside
        that block's remainder.

        Amortized O(tail): backing buffers grow by doubling.
        """
        tail = np.ascontiguousarray(tail, dtype=np.float64)
        if tail.size == 0:
            return
        old = self.hours
        new = old + int(tail.size)
        self._ensure_capacity(new)
        self._buf[old:new] = tail
        self._values = self._buf[:new]
        self._pbuf[old + 1 : new + 1] = self._pbuf[old] + np.cumsum(
            tail, dtype=np.float64
        )
        self._prefix = self._pbuf[: new + 1]
        self._nbuf[old + 1 : new + 1] = self._nbuf[old] + np.cumsum(
            tail > 0, dtype=np.int64
        )
        self._nonzero = self._nbuf[: new + 1]
        first = old // _BLOCK
        blocks = (new + _BLOCK - 1) // _BLOCK
        for block in range(first, blocks):
            lo = block * _BLOCK
            self._bbuf[block] = self._values[lo : min(lo + _BLOCK, new)].max()
        self._block_max = self._bbuf[:blocks]
        self.hours = new

    def locate(self, window: TimeWindow) -> tuple[int, int]:
        """(lo, hi) hour offsets of *window*; raises for out-of-range."""
        lo = hour_index(self.start, window.start)
        hi = lo + window.hours
        if lo < 0 or hi > self.hours:
            raise ValueError(
                f"window {window.start.isoformat()}..{window.end.isoformat()} "
                f"outside timeline ({self.hours} hours from "
                f"{self.start.isoformat()})"
            )
        return lo, hi

    # -- O(1) / O(n/B) window aggregates ------------------------------------

    def window_sum(self, lo: int, hi: int) -> float:
        return float(self._prefix[hi] - self._prefix[lo])

    def window_mean(self, lo: int, hi: int) -> float:
        if hi <= lo:
            return 0.0
        return self.window_sum(lo, hi) / (hi - lo)

    def window_nonzero(self, lo: int, hi: int) -> int:
        return int(self._nonzero[hi] - self._nonzero[lo])

    def window_peak(self, lo: int, hi: int) -> float:
        if hi <= lo:
            return 0.0
        first, last = lo // _BLOCK, (hi - 1) // _BLOCK
        if first == last:
            return float(self._values[lo:hi].max())
        peak = max(
            float(self._values[lo : (first + 1) * _BLOCK].max()),
            float(self._values[last * _BLOCK : hi].max()),
        )
        if last > first + 1:
            peak = max(peak, float(self._block_max[first + 1 : last].max()))
        return peak

    def rounded_slice(self, lo: int, hi: int) -> list[float]:
        """Display-rounded values for one response window.

        Vectorized and computed per request window (then held by the
        response cache) instead of materializing a rounded copy of the
        whole study up front — the big-study index would otherwise pay
        a Python-object list per geography before serving anything.
        """
        return np.round(self._values[lo:hi], 3).tolist()


class SpikeTable:
    """Per-geo spike rows in peak order, plus a duration permutation.

    Pass the geography's previous table as *prev* when re-rendering
    after a streamed tick: rows for spikes the tick did not touch are
    reused from the old table instead of re-rendered (the ISO-8601
    timestamps dominate the cost of a row).  The reuse key omits
    ``magnitude_rank`` on purpose — a new spike inserting mid-rank
    shifts every rank below it, and patching the rank into a copied row
    is far cheaper than rebuilding the row.  Reused rows are shared
    with the previous table, which is safe because serving treats rows
    as immutable once rendered.
    """

    __slots__ = ("geo", "rows", "_sorted_durations", "_by_duration", "_row_cache")

    def __init__(
        self, geo: str, spikes: SpikeSet, prev: "SpikeTable | None" = None
    ) -> None:
        self.geo = geo
        ordered = tuple(spikes)  # SpikeSet iterates in (peak, geo) order
        cache = prev._row_cache if prev is not None else {}
        self._row_cache: dict[tuple, tuple[dict, int]] = {}
        rows: list[dict] = []
        durations = np.empty(len(ordered), dtype=np.int64)
        for index, spike in enumerate(ordered):
            # Bounds + magnitude + annotations identify a spike within
            # one geography's study (a geo cannot grow two spikes with
            # identical bounds); rank is patched separately.
            key = (
                spike.start,
                spike.peak,
                spike.end,
                spike.magnitude,
                spike.annotations,
            )
            hit = cache.get(key)
            if hit is None:
                row = spike.to_dict()
                duration = spike.duration_hours
            else:
                row, duration = hit
                if row["magnitude_rank"] != spike.magnitude_rank:
                    row = {**row, "magnitude_rank": spike.magnitude_rank}
            self._row_cache[key] = (row, duration)
            rows.append(row)
            durations[index] = duration
        self.rows = tuple(rows)
        self._by_duration = np.argsort(-durations, kind="stable")
        self._sorted_durations = np.sort(durations)

    def cut(self, min_hours: int) -> int:
        """How many spikes survive ``duration >= min_hours``.

        The cut *is* the canonical cache key for the filter: every
        ``min_hours`` selecting the same spikes yields the same cut.
        """
        kept = self._sorted_durations.size - int(
            np.searchsorted(self._sorted_durations, min_hours, side="left")
        )
        return int(kept)

    def select(self, cut: int) -> list[dict]:
        """The *cut* longest spikes, restored to peak order."""
        if cut >= len(self.rows):
            return list(self.rows)
        picked = np.sort(self._by_duration[:cut])
        return [self.rows[index] for index in picked]


class OutageTable:
    """Pre-rendered outage rows with a footprint permutation.

    Like :class:`SpikeTable`, pass the previous table as *prev* when
    re-rendering after a streamed tick.  An outage row depends only on
    its member spikes' geography, bounds and annotations — not their
    magnitudes or ranks — so the reuse key ignores those: a tick that
    merely re-ranked a geography's spikes reuses every outage row.
    """

    __slots__ = ("rows", "_sorted_footprints", "_by_footprint", "_row_cache")

    def __init__(
        self, outages: list[Outage], prev: "OutageTable | None" = None
    ) -> None:
        # Rendering here runs the merged-annotation counting sort once
        # per snapshot instead of once per request.
        cache = prev._row_cache if prev is not None else {}
        self._row_cache: dict[tuple, dict] = {}
        rows: list[dict] = []
        for outage in outages:
            key = tuple(
                (spike.geo, spike.start, spike.end, spike.annotations)
                for spike in outage.spikes
            )
            row = cache.get(key)
            if row is None:
                row = {
                    "label": outage.label,
                    "states": sorted(outage.states),
                    "footprint": outage.footprint,
                    "max_duration_hours": outage.max_duration_hours,
                    "annotations": list(outage.annotations[:3]),
                }
            self._row_cache[key] = row
            rows.append(row)
        self.rows = tuple(rows)
        footprints = np.array(
            [row["footprint"] for row in self.rows], dtype=np.int64
        )
        self._by_footprint = np.argsort(-footprints, kind="stable")
        self._sorted_footprints = np.sort(footprints)

    def cut(self, min_states: int) -> int:
        kept = self._sorted_footprints.size - int(
            np.searchsorted(self._sorted_footprints, min_states, side="left")
        )
        return int(kept)

    def select(self, cut: int) -> list[dict]:
        """The *cut* widest outages, restored to chronological order."""
        if cut >= len(self.rows):
            return list(self.rows)
        picked = np.sort(self._by_footprint[:cut])
        return [self.rows[index] for index in picked]


class QueryIndex:
    """Read-optimized artifacts for one :class:`StudyResult` snapshot."""

    def __init__(self, study: StudyResult) -> None:
        self.study = study
        self.fingerprint = study.fingerprint()
        self.geos: tuple[str, ...] = tuple(sorted(study.states))
        self._columns = {
            geo: GeoColumn(result.timeline)
            for geo, result in study.states.items()
        }
        self._spikes = {
            geo: SpikeTable(geo, study.spikes.in_state(geo))
            for geo in study.states
        }
        self.outages = OutageTable(study.outages)

    def apply_delta(self, study: StudyResult, delta) -> int:
        """Install a streamed tick by mutation instead of rebuilding.

        *delta* is a :class:`repro.streaming.delta.StudyDelta`.  Per
        geography: append the new hours to the existing column, rebuild
        the column only when the renormalization scale moved
        (``GeoDelta.scale_changed``), and re-render the spike table only
        when the spike set changed.  Outage rows are study-wide, so
        they re-render whenever any geography's spikes changed — and
        only then (a pure-growth tick reuses them verbatim).  Returns
        the number of columns rebuilt.

        The caller must invalidate cached responses itself (see
        ``SiftWebApp.install_delta``): entries whose window stays below
        a geography's ``old_hours`` remain byte-valid by construction.
        """
        self.study = study
        self.fingerprint = study.fingerprint()
        self.geos = tuple(sorted(study.states))
        rebuilt = 0
        changed_geos = set()
        for geo, geo_delta in delta.geos.items():
            result = study.states[geo]
            column = self._columns.get(geo)
            if column is None or geo_delta.scale_changed:
                self._columns[geo] = GeoColumn(result.timeline)
                rebuilt += 1
            elif geo_delta.new_hours > geo_delta.old_hours:
                column.append(result.timeline.values[geo_delta.old_hours :])
            if geo_delta.spikes_changed or geo not in self._spikes:
                changed_geos.add(geo)
        if changed_geos:
            # One pass over the study-wide set (which carries the
            # annotations when enabled) instead of a full in_state scan
            # per changed geography; SpikeSet order is (peak, geo), so
            # each partition arrives already in per-geo peak order.
            by_geo: dict[str, list] = {geo: [] for geo in changed_geos}
            for spike in study.spikes:
                bucket = by_geo.get(spike.geo)
                if bucket is not None:
                    bucket.append(spike)
            for geo, spikes in by_geo.items():
                self._spikes[geo] = SpikeTable(
                    geo, spikes, prev=self._spikes.get(geo)
                )
        if any(geo_delta.spikes_changed for geo_delta in delta.geos.values()):
            self.outages = OutageTable(study.outages, prev=self.outages)
        return rebuilt

    @classmethod
    def from_store(cls, store) -> "QueryIndex":
        """Index a study straight from a columnar store.

        The store's columns stay memory-mapped end to end: the loaded
        timelines alias the ``.npy`` files and :class:`GeoColumn` never
        copies them, so serving a big study costs the derived artifacts
        only — raw series pages fault in on demand.
        """
        return cls(store.load_study())

    # -- lookups -------------------------------------------------------------

    def column(self, geo: str) -> GeoColumn:
        column = self._columns.get(geo)
        if column is None:
            raise ValueError(f"geography not in study: {geo}")
        return column

    def spike_table(self, geo: str) -> SpikeTable:
        table = self._spikes.get(geo)
        if table is None:
            raise ValueError(f"geography not in study: {geo}")
        return table

    # -- payload builders ----------------------------------------------------

    def timeline_payload(self, geo: str, lo: int, hi: int) -> dict:
        column = self.column(geo)
        return {
            "geo": column.geo,
            "term": column.term,
            "start": hour_at(column.start, lo).isoformat(),
            "hours": hi - lo,
            "mean": round(column.window_mean(lo, hi), 3),
            "peak": round(column.window_peak(lo, hi), 3),
            "nonzero_hours": column.window_nonzero(lo, hi),
            "values": column.rounded_slice(lo, hi),
        }

    def spikes_payload(self, geo: str, cut: int) -> dict:
        table = self.spike_table(geo)
        return {"geo": geo, "count": cut, "spikes": table.select(cut)}

    def outages_payload(self, cut: int) -> dict:
        return {"count": cut, "outages": self.outages.select(cut)}

    def summary_payload(self) -> dict:
        """Study-wide headline stats (reuses the analysis layer)."""
        study = self.study
        durations = duration_cdf(study.spikes)
        footprints = footprint_cdf(study.outages)
        return {
            "fingerprint": self.fingerprint,
            "window": {
                "start": study.window.start.isoformat(),
                "end": study.window.end.isoformat(),
            },
            "geo_count": len(self.geos),
            "spike_count": study.spike_count,
            "outage_count": len(study.outages),
            "yearly_spikes": {
                str(year): count
                for year, count in yearly_counts(study.spikes).items()
            },
            "spikes_at_least_3h": round(durations.fraction_at_least(3), 4),
            "outages_at_least_10_states": round(
                footprints.fraction_at_least(10), 4
            ),
            "mean_footprint": round(mean_footprint(study.outages), 3),
            "heavy_hitters": list(study.heavy_hitters),
        }


def parse_window_param(iso: str) -> datetime:
    """Parse a ``start``/``end`` query value (naive ISO means UTC)."""
    return ensure_grid(
        datetime.fromisoformat(iso).replace(tzinfo=timezone.utc)
    )
