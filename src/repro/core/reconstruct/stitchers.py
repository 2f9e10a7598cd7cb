"""The incremental overlap-ratio stitcher (paper §3.2).

:class:`OverlapRatioStitcher` reproduces
:func:`repro.core.stitching.stitch_frames` operation-for-operation: the
ratio is the smoothed quotient of the overlap *sums*, the overlap hours
keep the earlier frame's rendition, and the rescaled remainder of the
new frame is appended.  Seeded studies built through it are
byte-identical to the original batch loop.

Each ``feed`` touches only the tail of the series (the new frame's
overlap), so cost per frame is bounded by the frame length — the
incremental contract streaming callers rely on.
"""

from __future__ import annotations

from datetime import datetime
from typing import Any

import numpy as np

from repro.core.series import HourlyTimeline
from repro.core.stitching import StitchReport, estimate_ratio
from repro.errors import StitchingError
from repro.timeutil import hour_index
from repro.trends.records import TimeFrameResponse


class OverlapRatioStitcher:
    """Incremental frame-to-timeline reconstruction.

    One instance stitches one (term, geo) series: frames arrive in
    start order through :meth:`feed`, each extending the series in a
    bounded tail recompute, and :meth:`finalize` materializes the
    current timeline without consuming the instance — feeding more
    frames after a finalize is legal, so a streaming caller can
    snapshot mid-crawl.
    """

    def __init__(self) -> None:
        self._term: str | None = None
        self._geo: str | None = None
        self._origin: datetime | None = None
        self._previous_start: datetime | None = None
        self._series: np.ndarray | None = None
        self._frames = 0
        self._ratios: list[float] = []
        self._carried = 0
        self._carried_positions: list[int] = []
        self._last_ratio = 1.0

    def feed(self, frame: TimeFrameResponse) -> None:
        """Extend the series with the next frame (sorted by start)."""
        if self._series is None:
            self._term = frame.request.term
            self._geo = frame.request.geo
            self._origin = frame.window.start
            self._previous_start = frame.window.start
            self._series = frame.values.astype(np.float64)
            self._frames = 1
            return
        if frame.request.term != self._term or frame.request.geo != self._geo:
            raise StitchingError(
                "cannot stitch frames of different terms or geographies"
            )
        offset = hour_index(self._origin, frame.window.start)
        if offset < 0 or offset > self._series.size:
            raise StitchingError(
                f"frame starting {frame.window.start} is not contiguous "
                f"with the series built so far"
            )
        overlap = self._series.size - offset
        if overlap <= 0:
            raise StitchingError(
                f"frames {self._previous_start} and {frame.window.start} "
                f"do not overlap"
            )
        self._frames += 1
        self._previous_start = frame.window.start
        if overlap >= frame.values.size:
            # Frame fully contained in what we already have; skip it.
            # The repeated ratio is a placeholder, not an estimate.
            self._carried_positions.append(len(self._ratios))
            self._ratios.append(self._last_ratio)
            return
        current_values = frame.values.astype(np.float64)
        ratio = estimate_ratio(self._series[offset:], current_values[:overlap])
        if ratio is None:
            ratio = 1.0  # both renditions silent: neutral scale
            self._carried += 1
            self._carried_positions.append(len(self._ratios))
        else:
            self._last_ratio = ratio
        self._ratios.append(ratio)
        self._series = np.concatenate(
            [self._series, current_values[overlap:] * ratio]
        )

    def finalize(
        self, renormalize: bool = True
    ) -> tuple[HourlyTimeline, StitchReport]:
        """Current stitched timeline plus diagnostics (non-destructive)."""
        if self._series is None:
            raise StitchingError("no frames to stitch")
        timeline = HourlyTimeline(
            term=self._term, geo=self._geo, start=self._origin, values=self._series
        )
        if renormalize:
            timeline = timeline.renormalized()
        report = StitchReport(
            frames=self._frames,
            carried_ratios=self._carried,
            ratios=tuple(self._ratios),
            carried_positions=tuple(self._carried_positions),
        )
        return timeline, report

    # -- streaming checkpoint support -------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """JSON-safe scalar state (the series is persisted separately)."""
        if self._series is None:
            raise StitchingError("no frames fed; nothing to export")
        return {
            "term": self._term,
            "geo": self._geo,
            "origin": self._origin.isoformat(),
            "previous_start": self._previous_start.isoformat(),
            "frames": self._frames,
            "ratios": list(self._ratios),
            "carried": self._carried,
            "carried_positions": list(self._carried_positions),
            "last_ratio": self._last_ratio,
        }

    def restore_state(self, state: dict[str, Any], series: np.ndarray) -> None:
        """Rehydrate from :meth:`export_state` plus the saved raw series."""
        if self._series is not None:
            raise StitchingError("cannot restore into a stitcher already fed")
        self._term = state["term"]
        self._geo = state["geo"]
        self._origin = datetime.fromisoformat(state["origin"])
        self._previous_start = datetime.fromisoformat(state["previous_start"])
        self._series = np.ascontiguousarray(series, dtype=np.float64)
        self._frames = int(state["frames"])
        self._ratios = [float(r) for r in state["ratios"]]
        self._carried = int(state["carried"])
        self._carried_positions = [int(p) for p in state["carried_positions"]]
        self._last_ratio = float(state["last_ratio"])


#: The repository benchmark's tracer (``bench/layers.py``) wraps
#: ``feed``/``finalize`` by this path; the alias keeps it resolving to
#: the class that runs.
_ChainStitcher = OverlapRatioStitcher
