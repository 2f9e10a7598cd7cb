"""Stitching piecewise-normalized frames into one continuous series.

Google Trends indexes every frame against its own maximum (paper §2),
so two frames of the same signal live on unrelated scales.  SIFT's
reconstruction (paper §3.2) exploits the deliberate *overlap* between
consecutive weekly frames: the shared hours appear in both frames, so
the ratio between the two renditions recovers the relative scale.  Each
next frame is rescaled by that ratio and appended; a final global
renormalization maps the continuous series back onto 0-100.

Practical wrinkles handled here that the paper glosses over:

* an overlap can be all-zero on one side (privacy rounding) — the
  stitcher then carries the last trustworthy ratio forward and records
  the fact in :class:`StitchReport`;
* sampling noise makes per-hour ratios jumpy — the estimate uses the
  sums over the overlap, which is the least-squares scale through the
  origin weighted by the signal itself.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.series import HourlyTimeline
from repro.errors import StitchingError
from repro.timeutil import hour_index
from repro.trends.records import TimeFrameResponse


@dataclasses.dataclass(frozen=True, slots=True)
class StitchReport:
    """Diagnostics from one stitching run."""

    frames: int
    carried_ratios: int  # overlaps where the ratio had to be carried forward
    ratios: tuple[float, ...]  # scale applied to each appended frame
    #: Indices into ``ratios`` that are *not* fresh estimates: silent
    #: overlaps that fell back to the neutral ratio, and contained
    #: frames that repeated the last trusted ratio.  These mark where
    #: the calibration chain lost trust.
    carried_positions: tuple[int, ...] = ()

    @property
    def ratio_spread(self) -> float:
        """Max/min freshly-estimated ratio — a calibration-drift indicator.

        Carried positions are excluded: a carried ratio repeats a stale
        (or neutral) value, so counting it would mask real drift — a
        chain whose every estimate is 4.0 but with one silent-overlap
        1.0 fallback would report a spurious spread of 4.
        """
        if not self.ratios:
            return 1.0
        carried = set(self.carried_positions)
        positive = [
            ratio
            for position, ratio in enumerate(self.ratios)
            if ratio > 0 and position not in carried
        ]
        if not positive:
            return 1.0
        return max(positive) / min(positive)

    def to_dict(self) -> dict:
        """JSON-ready form (checkpoint metadata, ``/api/runtime``)."""
        return {
            "frames": self.frames,
            "carried_ratios": self.carried_ratios,
            "ratios": list(self.ratios),
            "carried_positions": list(self.carried_positions),
            "ratio_spread": self.ratio_spread,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StitchReport":
        """Rebuild a report persisted with :meth:`to_dict`."""
        return cls(
            frames=int(payload.get("frames", 0)),
            carried_ratios=int(payload.get("carried_ratios", 0)),
            ratios=tuple(float(ratio) for ratio in payload.get("ratios", ())),
            carried_positions=tuple(
                int(position) for position in payload.get("carried_positions", ())
            ),
        )


#: Additive smoothing on overlap sums: bounds the ratio noise injected
#: by near-empty overlaps (one stray privacy-threshold blip would
#: otherwise swing the chain by an order of magnitude).
_RATIO_SMOOTHING = 1.0

#: Sanity bounds on a single inter-frame ratio.  Real consecutive GT
#: frames of the same signal never differ by more than the dynamic
#: range of the index itself.
_RATIO_CLAMP = 100.0


def estimate_ratio(
    previous_overlap: np.ndarray, next_overlap: np.ndarray
) -> float | None:
    """Scale ratio mapping *next_overlap* onto *previous_overlap*.

    The estimate is the smoothed quotient of the overlap sums — the
    signal-weighted least-squares scale through the origin, with
    additive smoothing so near-empty overlaps cannot inject wild
    ratios, clamped to a sane dynamic range.

    Returns ``None`` when the overlap carries no signal on either side;
    two all-zero renditions say nothing about relative scale, and the
    caller should fall back to the neutral ratio 1 (both frames are
    indexed against their own maxima, so "same scale" is the unbiased
    default — carrying a previous, signal-derived ratio forward would
    compound drift through quiet regions).
    """
    if previous_overlap.shape != next_overlap.shape:
        raise StitchingError(
            f"overlap shapes differ: {previous_overlap.shape} vs {next_overlap.shape}"
        )
    if previous_overlap.size == 0:
        raise StitchingError("empty overlap between consecutive frames")
    next_sum = float(next_overlap.sum())
    previous_sum = float(previous_overlap.sum())
    if next_sum <= 0 and previous_sum <= 0:
        return None
    ratio = (previous_sum + _RATIO_SMOOTHING) / (next_sum + _RATIO_SMOOTHING)
    return float(np.clip(ratio, 1.0 / _RATIO_CLAMP, _RATIO_CLAMP))


def stitch_frames(
    responses: list[TimeFrameResponse] | tuple[TimeFrameResponse, ...],
    renormalize: bool = True,
) -> tuple[HourlyTimeline, StitchReport]:
    """Reconstruct a continuous timeline from overlapping frame responses.

    Frames must be sorted by start time, pairwise overlapping, and all
    for the same (term, geo).  Returns the stitched (and by default
    globally renormalized) timeline plus stitching diagnostics.

    The batch form of the incremental stitcher — a thin wrapper
    feeding every frame through a fresh
    :class:`repro.core.reconstruct.OverlapRatioStitcher`.
    """
    # Deferred: the stitchers module imports this one for StitchReport
    # and estimate_ratio.
    from repro.core.reconstruct.stitchers import OverlapRatioStitcher

    if not responses:
        raise StitchingError("no frames to stitch")
    stitcher = OverlapRatioStitcher()
    for response in responses:
        stitcher.feed(response)
    return stitcher.finalize(renormalize=renormalize)


def naive_concatenation(
    responses: list[TimeFrameResponse] | tuple[TimeFrameResponse, ...],
) -> HourlyTimeline:
    """Concatenate frames *without* overlap rescaling (ablation baseline).

    This is what a crawler that ignores piecewise normalization would
    produce; the stitching ablation benchmark contrasts it with
    :func:`stitch_frames` against ground truth.
    """
    if not responses:
        raise StitchingError("no frames to concatenate")
    origin = responses[0].window.start
    pieces = [responses[0].values.astype(np.float64)]
    size = responses[0].values.size
    for current in responses[1:]:
        offset = hour_index(origin, current.window.start)
        overlap = size - offset
        if overlap < 0:
            raise StitchingError("frames are not contiguous")
        pieces.append(current.values[overlap:].astype(np.float64))
        size += current.values.size - overlap
    return HourlyTimeline(
        term=responses[0].request.term,
        geo=responses[0].request.geo,
        start=origin,
        values=np.concatenate(pieces),
    )
