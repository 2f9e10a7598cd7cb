"""Continuous hourly time series: the object SIFT's stages pass around.

A :class:`HourlyTimeline` is a calibrated, real-valued series of search
interest for one (term, geo) pair over an arbitrary span — the output
of stitching and averaging, the input of spike detection.  Values are
floats because stitching rescales frames by fractional ratios; the
globally renormalized series maps its maximum to 100.0 like the
service's per-frame indexing does.
"""

from __future__ import annotations

import dataclasses
from datetime import datetime

import numpy as np

from repro.errors import DetectionError
from repro.timeutil import TimeWindow, hour_at, hour_index


@dataclasses.dataclass(frozen=True)
class HourlyTimeline:
    """A continuous, hour-resolution interest series for (term, geo)."""

    term: str
    geo: str
    start: datetime
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.values.size == 0:
            raise DetectionError("timeline values must be a non-empty 1-D array")
        if not np.isfinite(self.values).all():
            raise DetectionError("timeline values must be finite")
        if (self.values < 0).any():
            raise DetectionError("timeline values must be non-negative")

    # -- geometry -------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def window(self) -> TimeWindow:
        return TimeWindow(self.start, hour_at(self.start, len(self)))

    @property
    def end(self) -> datetime:
        return hour_at(self.start, len(self))

    def time_at(self, index: int) -> datetime:
        if not 0 <= index < len(self):
            raise IndexError(f"hour index {index} out of range 0..{len(self) - 1}")
        return hour_at(self.start, index)

    def index_of(self, moment: datetime) -> int:
        index = hour_index(self.start, moment)
        if not 0 <= index < len(self):
            raise IndexError(f"{moment} outside timeline {self.start}..{self.end}")
        return index

    # -- transformations -------------------------------------------------------

    def slice(self, window: TimeWindow) -> "HourlyTimeline":
        """The sub-timeline covering *window* (must lie inside)."""
        lo = self.index_of(window.start)
        hi = lo + window.hours
        if hi > len(self):
            raise IndexError(f"window {window} extends past timeline end")
        return HourlyTimeline(
            term=self.term,
            geo=self.geo,
            start=window.start,
            values=self.values[lo:hi].copy(),
        )

    def renormalized(self, top: float = 100.0) -> "HourlyTimeline":
        """Globally rescale so the series maximum equals *top*.

        This is SIFT's final renormalization step (paper §3.2): after
        stitching, the series is indexed 0-100 on a *global* scale so
        spike magnitudes become comparable within the geography.
        """
        peak = float(self.values.max())
        values = self.values * (top / peak) if peak > 0 else self.values.copy()
        return HourlyTimeline(self.term, self.geo, self.start, values)

    # -- summaries ---------------------------------------------------------------

    @property
    def peak_value(self) -> float:
        return float(self.values.max())

    @property
    def nonzero_hours(self) -> int:
        return int((self.values > 0).sum())

    def describe(self) -> str:
        return (
            f"<{self.term}> in {self.geo}: {len(self)} hours from "
            f"{self.start:%Y-%m-%d %H:%M}, peak {self.peak_value:.1f}, "
            f"{self.nonzero_hours} non-zero hours"
        )
