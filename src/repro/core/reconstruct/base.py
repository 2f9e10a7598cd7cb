"""The fetch-average-detect convergence loop (paper §3.2).

Each sample round's frames fold into per-frame running means
(:class:`~repro.core.reconstruct.averagers.RunningMeanAccumulator`),
the merged frames stitch onto one scale through a fresh
:class:`~repro.core.reconstruct.stitchers.OverlapRatioStitcher`, and
detection runs on the result; the loop stops once consecutive rounds'
spike sets match.
"""

from __future__ import annotations

from repro.core.averaging import (
    AveragingConfig,
    AveragingResult,
    FrameFetcher,
    MissingFrame,
)
from repro.core.detection import DetectionConfig, detect_spikes
from repro.core.reconstruct.averagers import RunningMeanAccumulator
from repro.core.reconstruct.stitchers import OverlapRatioStitcher
from repro.core.spikes import SpikeSet
from repro.errors import CollectionError, ConvergenceError


class Averager:
    """The fetch-round convergence loop.

    Stateless across calls — per-geography state lives in the
    accumulator each :meth:`average` call creates — so one instance is
    safely shared by concurrent worker threads.
    """

    def average(
        self,
        fetch_round: FrameFetcher,
        config: AveragingConfig | None = None,
        detection: DetectionConfig | None = None,
    ) -> AveragingResult:
        """Run the fetch-average-detect loop until the spike set stabilizes.

        ``fetch_round(k)`` must return the full ordered list of weekly
        frame responses for sample round *k*; the loop folds each round
        into running means, stitches the merged frames, detects spikes,
        and stops once consecutive rounds' spike sets match.
        """
        config = config or AveragingConfig()
        running: RunningMeanAccumulator | None = None
        previous_spikes: SpikeSet | None = None
        history: list[float] = []
        missing: list[MissingFrame] = []
        result: AveragingResult | None = None
        for round_index in range(config.max_rounds):
            entries = fetch_round(round_index)
            if not entries:
                raise ConvergenceError("fetch_round returned no frames")
            dropped = [
                entry for entry in entries if isinstance(entry, MissingFrame)
            ]
            if len(dropped) > config.max_missing_fraction * len(entries):
                raise CollectionError(
                    f"round {round_index} lost {len(dropped)}/{len(entries)} "
                    f"frames; exceeds max_missing_fraction="
                    f"{config.max_missing_fraction}"
                )
            missing.extend(dropped)
            if running is None:
                running = RunningMeanAccumulator(entries)
            running.fold(entries)
            averaged_responses = running.to_responses()
            stitcher = OverlapRatioStitcher()
            for response in averaged_responses:
                stitcher.feed(response)
            timeline, report = stitcher.finalize()
            spikes = SpikeSet(detect_spikes(timeline, detection))
            converged = False
            if previous_spikes is not None:
                similarity = spikes.weighted_match_similarity(
                    previous_spikes, config.tolerance_hours
                )
                history.append(similarity)
                converged = (
                    round_index + 1 >= config.min_rounds
                    and similarity >= config.similarity_threshold
                )
            previous_spikes = spikes
            result = AveragingResult(
                timeline=timeline,
                spikes=spikes,
                rounds_used=round_index + 1,
                converged=converged,
                similarity_history=tuple(history),
                stitch_report=report,
                responses=tuple(averaged_responses),
                missing_frames=tuple(missing),
            )
            if converged:
                return result
        assert result is not None  # max_rounds >= 1 guarantees one iteration
        return result
