"""Spike detection via the paper's topographic-prominence walk.

Classic changepoint detectors need a known event distribution, which
Internet outages lack, so SIFT characterizes spikes geometrically
(paper §3.3): starting from the highest remaining peak,

* walk **forward** block by block until the current block drops below
  half the previous block's value, or to zero — that block ends the
  spike;
* walk **backward** from the peak until a zero block or the endpoint of
  an already-extracted spike — that bounds the spike's start.

Extracted blocks are claimed so successive peaks of the same surge are
not recounted as separate spikes; detection repeats with the next
highest unclaimed peak until no strictly-positive peak remains.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.series import HourlyTimeline
from repro.core.spikes import Spike
from repro.errors import DetectionError


@dataclasses.dataclass(frozen=True, slots=True)
class DetectionConfig:
    """Tunables of the prominence walk."""

    #: A block ends the spike when it falls below this fraction of the
    #: previous block (the paper uses one half).
    half_ratio: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.half_ratio < 1.0:
            raise DetectionError(f"half_ratio must be in (0, 1): {self.half_ratio}")


@dataclasses.dataclass(frozen=True, slots=True)
class SpikeBounds:
    """Index-space result of one walk: ``start <= peak <= end``."""

    start: int
    peak: int
    end: int

    @property
    def duration_hours(self) -> int:
        """Blocks of user interest, inclusive of both endpoints."""
        return self.end - self.start + 1


def walk_forward(values: np.ndarray, peak: int, claimed: np.ndarray, half_ratio: float) -> int:
    """Forward walk from *peak*: last block still part of the spike.

    The walk includes every block while interest decays gently (ratio
    above *half_ratio*); the paper's "point" where a block falls below
    half of its predecessor marks the ending — that block *belongs* to
    the spike, as does the rest of the free-fall while each block keeps
    dropping below half again.  Claiming the whole cliff matters:
    otherwise the residue of a sharp spike would be re-counted as a
    separate (phantom) spike on the next detector iteration.
    """
    end = peak
    while end + 1 < values.size and not claimed[end + 1]:
        following = values[end + 1]
        if following <= 0:
            return end
        if following < half_ratio * values[end]:
            # The ending point: consume the remainder of the cliff.
            end += 1
            while (
                end + 1 < values.size
                and not claimed[end + 1]
                and 0 < values[end + 1] < half_ratio * values[end]
            ):
                end += 1
            return end
        end += 1
    return end


def walk_backward(values: np.ndarray, peak: int, claimed: np.ndarray) -> int:
    """Backward walk from *peak*: first block of the spike."""
    start = peak
    while start - 1 >= 0 and not claimed[start - 1]:
        if values[start - 1] <= 0:
            break
        start -= 1
    return start


def detect_bounds(
    values: np.ndarray, config: DetectionConfig | None = None
) -> list[SpikeBounds]:
    """All spike bounds in *values*, in descending peak order."""
    config = config or DetectionConfig()
    if values.ndim != 1:
        raise DetectionError("detection expects a 1-D series")
    if values.size == 0:
        return []
    if not np.isfinite(values).all():
        raise DetectionError("series contains non-finite values")
    claimed = np.zeros(values.size, dtype=bool)
    working = values.astype(np.float64).copy()
    spikes: list[SpikeBounds] = []
    # Values never change during extraction, so the candidate peaks can
    # be visited in one pre-sorted pass (ties broken by earliest index,
    # matching repeated argmax) instead of re-scanning the whole series
    # for every spike.
    order = np.argsort(-working, kind="stable")
    for peak in order:
        peak = int(peak)
        if claimed[peak]:
            continue
        # Every strictly-positive peak is a spike, as in the paper; a
        # zero floor keeps the walk scale-invariant under stitching-ratio
        # noise.
        if working[peak] <= 0:
            break
        end = walk_forward(working, peak, claimed, config.half_ratio)
        start = walk_backward(working, peak, claimed)
        claimed[start : end + 1] = True
        spikes.append(SpikeBounds(start=start, peak=peak, end=end))
    return spikes


def detect_spikes(
    timeline: HourlyTimeline, config: DetectionConfig | None = None
) -> list[Spike]:
    """Detect spikes on a timeline and attach wall-clock metadata.

    Spikes come back ordered by magnitude (highest first); the
    ``magnitude_rank`` field is 1-based within this timeline, matching
    the paper's "2nd out of 3" style reporting.
    """
    bounds = detect_bounds(timeline.values, config)
    spikes = []
    for rank, bound in enumerate(bounds, start=1):
        spikes.append(
            Spike(
                term=timeline.term,
                geo=timeline.geo,
                start=timeline.time_at(bound.start),
                peak=timeline.time_at(bound.peak),
                end=timeline.time_at(bound.end),
                magnitude=float(timeline.values[bound.peak]),
                magnitude_rank=rank,
            )
        )
    return spikes
