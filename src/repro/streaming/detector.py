"""Incremental prominence-walk detection over a growing series.

The batch detector (:mod:`repro.core.detection`) walks the whole study
every time.  Streaming ingest appends a tail per tick, so the
:class:`TailDetector` exploits a structural property of the walk:
neither :func:`walk_forward` nor :func:`walk_backward` ever crosses a
zero hour, and claims are created by walks, so **no spike and no claim
spans a zero**.  Privacy-threshold zeros therefore cut the series into
independent detection segments, and global detection equals per-segment
detection (a stable descending argsort restricted to a segment keeps
the same visit order the global pass would use within it).

Per tick the detector:

* records which of the newly appended hours are zero (an append-only
  sorted list — the stitcher only appends, and rescaling by positive
  stitch ratios never creates or destroys zeros in hours already seen);
* finds the start of the zero-delimited segment containing the first
  *dirty* hour (``OverlapRatioStitcher.dirty_from``) by bisection;
* discards every remembered spike at or after that segment start and
  re-walks only ``values[region_start:]``.

Frozen spikes before the region are never re-walked, so the cost per
tick is O(tail + last segment), not O(study).

Detection runs on the **raw** stitched series, not the renormalized
one: with ``min_peak == 0`` and quantization off the walk is scale
invariant, so the bounds match what batch detection finds on the
renormalized timeline — magnitudes and ranks are attached later from
the renormalized values.  The daemon enforces that configuration.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, insort

import numpy as np

from repro.core.detection import DetectionConfig, SpikeBounds, detect_bounds


@dataclasses.dataclass(frozen=True, slots=True)
class DetectionDelta:
    """What one incremental update changed."""

    #: First hour index that was re-walked this update.
    region_start: int
    #: Bounds present now that were absent before the update.
    added: tuple[SpikeBounds, ...]
    #: Bounds discarded by the re-walk and not re-found identically.
    removed: tuple[SpikeBounds, ...]

    @property
    def changed(self) -> bool:
        return bool(self.added or self.removed)


class TailDetector:
    """Carries claimed-block state across ticks; re-walks only the tail."""

    def __init__(self, config: DetectionConfig | None = None) -> None:
        self.config = config or DetectionConfig()
        #: Current spike bounds, sorted by start index.
        self.bounds: list[SpikeBounds] = []
        self._zeros: list[int] = []  # sorted indices of zero-valued hours
        self._scanned = 0  # hours whose zero-ness has been recorded

    def update(self, values: np.ndarray, dirty_from: int) -> DetectionDelta:
        """Fold the current raw series after a feed; return the delta.

        *dirty_from* is the stitcher's bound on the first hour the feed
        may have rewritten; hours before it are trusted unchanged.
        """
        size = int(values.size)
        previously_scanned = self._scanned
        dirty = max(0, min(int(dirty_from), size))
        if dirty >= size and previously_scanned == size:
            # Nothing appended and nothing rewritten (a fully-contained
            # frame was skipped by the stitcher).
            return DetectionDelta(region_start=size, added=(), removed=())
        if size > previously_scanned:
            fresh = np.flatnonzero(values[previously_scanned:size] == 0)
            for index in fresh:
                insort(self._zeros, int(index) + previously_scanned)
            self._scanned = size
        dirty = min(dirty, previously_scanned)
        # Start of the zero-delimited segment containing the first
        # dirty hour: one past the largest zero strictly below it.
        position = bisect_left(self._zeros, dirty)
        region_start = self._zeros[position - 1] + 1 if position else 0
        kept: list[SpikeBounds] = []
        dropped: list[SpikeBounds] = []
        for bound in self.bounds:
            (kept if bound.start < region_start else dropped).append(bound)
        rewalked = [
            SpikeBounds(
                start=bound.start + region_start,
                peak=bound.peak + region_start,
                end=bound.end + region_start,
            )
            for bound in detect_bounds(values[region_start:], self.config)
        ]
        self.bounds = kept + sorted(rewalked, key=lambda bound: bound.start)
        dropped_set = set(dropped)
        rewalked_set = set(rewalked)
        return DetectionDelta(
            region_start=region_start,
            added=tuple(
                sorted(rewalked_set - dropped_set, key=lambda bound: bound.start)
            ),
            removed=tuple(
                sorted(dropped_set - rewalked_set, key=lambda bound: bound.start)
            ),
        )

    def restore(self, bounds: list[SpikeBounds], values: np.ndarray) -> None:
        """Rehydrate from checkpointed bounds plus the saved raw series."""
        self.bounds = sorted(bounds, key=lambda bound: bound.start)
        self._zeros = [int(i) for i in np.flatnonzero(values == 0)]
        self._scanned = int(values.size)
