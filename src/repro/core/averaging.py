"""Iterative re-fetch averaging (paper §3.2, "Random sampling").

Every Trends response is computed from an independent random sample, so
a single crawl carries sampling error that can create or destroy small
spikes.  SIFT's mitigation: fetch the same frames again, average the
frame values position-wise, re-detect, and stop once the detected spike
set stops changing between rounds.  The paper reports this converging
after about six rounds; the convergence criterion here is a Jaccard
similarity threshold between consecutive rounds' spike sets, with the
round budget and threshold configurable.

The averaging happens *per frame, on the indexed values* — before
stitching — because frames from different rounds share the same
piecewise scale (their own maximum), whereas stitched series from
different rounds may not.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.core.detection import DetectionConfig
from repro.core.series import HourlyTimeline
from repro.core.spikes import SpikeSet
from repro.core.stitching import StitchReport
from repro.errors import ConvergenceError
from repro.trends.records import TimeFrameRequest, TimeFrameResponse


@dataclasses.dataclass(frozen=True, slots=True)
class MissingFrame:
    """A frame the crawl could not deliver for one sample round.

    The collection layer dead-letters frames that exhaust every fetcher
    (see DESIGN.md §7); the pipeline substitutes this record so the
    averaging loop can keep folding the rounds that *did* arrive.
    """

    request: TimeFrameRequest
    sample_round: int
    error: str = ""


#: A round of frame entries, one per weekly frame, in order; frames the
#: crawl gave up on arrive as :class:`MissingFrame` placeholders.
FrameFetcher = Callable[[int], "list[TimeFrameResponse | MissingFrame]"]


@dataclasses.dataclass(frozen=True, slots=True)
class AveragingConfig:
    """Convergence policy for iterative re-fetch averaging."""

    max_rounds: int = 6
    min_rounds: int = 3
    #: Consecutive rounds whose spike sets reach this match similarity
    #: are considered converged.
    similarity_threshold: float = 0.93
    #: Peak-time slack when matching spikes between rounds: sampling
    #: noise jitters a peak by an hour without making it a new spike.
    tolerance_hours: int = 2
    #: Quantize the stitched series onto the integer 0..100 *global*
    #: index before detection.  Off by default: global quantization
    #: couples detection to stitching-ratio noise (a region whose chain
    #: of ratios drifted low would round to zero wholesale).  Frames are
    #: always re-quantized to integers individually, which is where the
    #: privacy-rounding zeros live.  The ablation benchmark exercises
    #: the ``True`` setting.
    quantize: bool = False
    #: Raise :class:`ConvergenceError` when the budget runs out without
    #: convergence instead of returning the best effort.
    strict: bool = False
    #: Largest tolerated fraction of missing frames in any single round
    #: before the run is declared unsalvageable.  Below the bound the
    #: loop degrades gracefully: each frame folds only the rounds that
    #: actually arrived, and a frame no round delivered becomes zeros.
    max_missing_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.min_rounds < 1 or self.max_rounds < self.min_rounds:
            raise ConvergenceError(
                f"invalid round budget: min={self.min_rounds} max={self.max_rounds}"
            )
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ConvergenceError(
                f"similarity_threshold must be in (0, 1]: {self.similarity_threshold}"
            )
        if not 0.0 <= self.max_missing_fraction < 1.0:
            raise ConvergenceError(
                f"max_missing_fraction must be in [0, 1): "
                f"{self.max_missing_fraction}"
            )


@dataclasses.dataclass(frozen=True)
class AveragingResult:
    """Output of one averaging run for one geography."""

    timeline: HourlyTimeline  # stitched from the final averaged frames
    spikes: SpikeSet
    rounds_used: int
    converged: bool
    similarity_history: tuple[float, ...]  # between consecutive rounds
    stitch_report: StitchReport
    responses: tuple[TimeFrameResponse, ...]  # final averaged frames
    #: Every frame-fetch the crawl dropped across all rounds (empty in
    #: a healthy run; bounded by ``max_missing_fraction`` per round).
    missing_frames: tuple[MissingFrame, ...] = ()


def average_until_convergence(
    fetch_round: FrameFetcher,
    config: AveragingConfig | None = None,
    detection: DetectionConfig | None = None,
) -> AveragingResult:
    """Run the fetch-average-detect loop until the spike set stabilizes.

    ``fetch_round(k)`` must return the full ordered list of weekly frame
    responses for sample round *k*; the function handles averaging,
    stitching, detection, and the convergence decision.

    Running-mean merging over overlap-ratio stitching, exactly the
    paper's §3.2; the loop itself lives on
    :class:`repro.core.reconstruct.base.Averager`.
    """
    # Deferred: the reconstruct package imports this module for the
    # config/result records.
    from repro.core.reconstruct.base import Averager

    return Averager().average(fetch_round, config=config, detection=detection)
