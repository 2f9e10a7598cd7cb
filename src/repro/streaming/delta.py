"""What one streaming tick changed, per geography and study-wide.

The serving layer consumes these to perform delta snapshot installs:
append the new hours to each geography's column, rebuild only what the
tick actually touched, and drop only the cache entries whose window
reaches into the appended range (see ``QueryIndex.apply_delta``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.spikes import Spike
    from repro.timeutil import TimeWindow


@dataclasses.dataclass(frozen=True, slots=True)
class GeoDelta:
    """One geography's change across a tick."""

    geo: str
    #: Series length before / after the tick's feed.
    old_hours: int
    new_hours: int
    #: The raw series maximum moved, so the renormalization factor — and
    #: with it every previously served value — changed.  Otherwise the
    #: hours before ``old_hours`` are unchanged (the stitcher only
    #: appends), so the served column can extend in place.
    scale_changed: bool
    #: The spike set changed (bounds added/removed, or rescaled).
    spikes_changed: bool
    #: Spikes newly surfaced by this tick, ready to announce.
    published: tuple["Spike", ...] = ()


@dataclasses.dataclass(frozen=True, slots=True)
class StudyDelta:
    """The study-wide change of one tick."""

    tick: int
    frame: "TimeWindow"
    geos: dict[str, GeoDelta]

    @property
    def published(self) -> tuple["Spike", ...]:
        return tuple(
            spike for delta in self.geos.values() for spike in delta.published
        )

    @property
    def appended_hours(self) -> int:
        return sum(d.new_hours - d.old_hours for d in self.geos.values())
