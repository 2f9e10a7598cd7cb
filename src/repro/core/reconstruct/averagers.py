"""Round merging: per-frame flat running means (paper §3.2).

The convergence loop lives on :class:`repro.core.reconstruct.base.Averager`;
:class:`RunningMeanAccumulator` is the per-geography state it folds
sample rounds into — bit-identical to the historical
``average_until_convergence`` means.
"""

from __future__ import annotations

import numpy as np

from repro.core.averaging import MissingFrame
from repro.errors import ConvergenceError
from repro.trends.records import TimeFrameResponse


def _reindex(values: np.ndarray) -> np.ndarray:
    """Merged floats back onto the integer 0..100 response contract."""
    peak = values.max()
    if peak > 0:
        return np.round(100.0 * values / peak).astype(np.int16)
    return np.zeros(values.shape, dtype=np.int16)


def _rebuild(
    values: np.ndarray,
    template: TimeFrameResponse | None,
    request,
) -> TimeFrameResponse:
    """Wrap merged values into a response record for stitching."""
    return TimeFrameResponse(
        request=template.request if template is not None else request,
        values=_reindex(values),
        rising=template.rising if template is not None else (),
        sample_round=template.sample_round if template is not None else 0,
    )


class RunningMeanAccumulator:
    """Per-frame incremental means with per-frame fold counts.

    A missing frame simply does not fold, so its mean keeps averaging
    over the rounds that did arrive — when nothing is missing,
    ``counts[i] == rounds_done`` everywhere and the fold is exactly the
    classic ``mean + (fresh - mean) / (rounds_done + 1)``.
    """

    def __init__(self, entries: list) -> None:
        self.means = [
            np.zeros(entry.request.window.hours, dtype=np.float64)
            for entry in entries
        ]
        self.counts = [0] * len(entries)
        #: First real response seen per position: carries the request,
        #: rising terms and sample round for the rebuilt frames.
        self.templates: list[TimeFrameResponse | None] = [None] * len(entries)
        self.requests = [entry.request for entry in entries]

    def fold(self, entries: list) -> None:
        """Merge one round of frame entries (``MissingFrame`` tolerated)."""
        if len(entries) != len(self.means):
            raise ConvergenceError(
                f"round returned {len(entries)} frames, "
                f"expected {len(self.means)}"
            )
        for index, entry in enumerate(entries):
            if isinstance(entry, MissingFrame):
                continue
            fresh = entry.values.astype(np.float64)
            if fresh.shape != self.means[index].shape:
                raise ConvergenceError("frame shapes changed between rounds")
            if self.templates[index] is None:
                self.templates[index] = entry
            self.means[index] = self.means[index] + (
                fresh - self.means[index]
            ) / (self.counts[index] + 1)
            self.counts[index] += 1

    def to_responses(self) -> list[TimeFrameResponse]:
        """Current merged frames, re-indexed onto the 0..100 contract."""
        # A frame no round delivered stays all-zero.
        return [
            _rebuild(values, self.templates[index], self.requests[index])
            for index, values in enumerate(self.means)
        ]
