"""Ablation: overlap stitching vs naive concatenation (paper §3.2).

GT indexes every frame against its own maximum, so naive concatenation
destroys relative spike magnitudes across frames.  This ablation plants
two spikes with a known 3:1 magnitude ratio several weeks apart and
measures how well overlap-ratio stitching and naive concatenation
recover it.
"""

import numpy as np

from repro.analysis import paper_vs_measured
from repro.core.stitching import naive_concatenation, stitch_frames
from repro.timeutil import TimeWindow, utc, weekly_frames
from repro.trends.records import TimeFrameRequest, TimeFrameResponse
from repro.trends.sampling import index_frame

SMALL_AT = 200
BIG_AT = 1200
TRUE_RATIO = 3.0


def synthetic_frames():
    rng = np.random.default_rng(42)
    hours = 1500
    signal = np.where(rng.random(hours) < 0.35, rng.integers(3, 9, hours), 0).astype(
        float
    )
    signal[SMALL_AT] = 50.0
    signal[BIG_AT] = 50.0 * TRUE_RATIO
    frames = []
    for piece in weekly_frames(TimeWindow(utc(2021, 1, 1), utc(2021, 3, 4, 12))):
        lo = int((piece.start - utc(2021, 1, 1)).total_seconds() // 3600)
        hi = lo + piece.hours
        request = TimeFrameRequest(term="Internet outage", geo="US-TX", window=piece)
        frames.append(
            TimeFrameResponse(
                request=request,
                values=index_frame(signal[lo:hi]),
                rising=(),
                sample_round=0,
            )
        )
    return frames


def test_stitching_vs_naive(benchmark, emit):
    frames = synthetic_frames()
    stitched, report = benchmark(stitch_frames, frames)
    naive = naive_concatenation(frames)

    stitched_ratio = stitched.values[BIG_AT] / stitched.values[SMALL_AT]
    naive_ratio = naive.values[BIG_AT] / naive.values[SMALL_AT]
    emit(
        paper_vs_measured(
            [
                ("true magnitude ratio", TRUE_RATIO, "-"),
                ("stitched estimate", "~3", f"{stitched_ratio:.2f}"),
                ("naive estimate", "~1 (broken)", f"{naive_ratio:.2f}"),
                ("frames", len(frames), report.frames),
                ("carried (silent) overlaps", "few", report.carried_ratios),
                ("ratio spread (live ratios)", "-", f"{report.ratio_spread:.2f}"),
            ],
            title="Ablation: overlap-ratio stitching vs naive concatenation",
        ),
    )
    assert abs(stitched_ratio - TRUE_RATIO) < abs(naive_ratio - TRUE_RATIO)
    assert stitched_ratio > 1.8
    assert naive_ratio < 1.5
