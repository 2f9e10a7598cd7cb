"""Tests for the reconstruction stage (stitching + round averaging).

Four contracts are guarded here:

* **bit-identity** — the reconstruction is the original pipeline, byte
  for byte: a frozen copy of the original batch stitching loop lives in
  this file and every stitcher output is compared against it;
* **the incremental contract** — ``feed()``-ing frames one at a time
  equals batch stitching of the same prefix, and every feed only
  appends (hypothesis-checked), which is what lets the streaming
  daemon stitch frames as they arrive;
* **diagnostics** — carried positions mark exactly the non-estimated
  ratios and are excluded from ``ratio_spread``;
* **quality floors** — spike precision and strong-impact recall on the
  canonical two-month workload, scored against ground truth.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.scoring import score_spikes
from repro.core.averaging import AveragingConfig, average_until_convergence
from repro.core.pipeline import SiftConfig
from repro.core.reconstruct import Averager, OverlapRatioStitcher
from repro.core.series import HourlyTimeline
from repro.core.stitching import StitchReport, estimate_ratio, stitch_frames
from repro.errors import StitchingError
from repro.runtime import StudyRuntime
from repro.timeutil import TimeWindow, hour_index, utc
from repro.trends.records import TimeFrameRequest, TimeFrameResponse
from repro.trends.sampling import index_frame

# --------------------------------------------------------------------------
# Frame helpers (mirrors test_core_stitching)
# --------------------------------------------------------------------------


def _hours(count: int) -> timedelta:
    return timedelta(hours=count)


def frame(start, values, geo="US-TX", term="Internet outage"):
    values = np.asarray(values)
    window = TimeWindow(start, start + _hours(len(values)))
    request = TimeFrameRequest(term=term, geo=geo, window=window)
    return TimeFrameResponse(
        request=request, values=index_frame(values), rising=(), sample_round=0
    )


def make_signal(hours: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    signal = np.where(rng.random(hours) < 0.3, rng.integers(3, 8, hours), 0).astype(
        float
    )
    signal[hours // 4] = 60.0
    signal[hours // 2] = 120.0
    return signal


def split_into_frames(signal: np.ndarray, frame_hours: int, overlap: int):
    start = utc(2021, 1, 1)
    frames = []
    position = 0
    while position + frame_hours < signal.size:
        frames.append(
            frame(start + _hours(position), signal[position : position + frame_hours])
        )
        position += frame_hours - overlap
    frames.append(
        frame(start + _hours(signal.size - frame_hours), signal[-frame_hours:])
    )
    return frames


#: Random sparse signals split into weekly frames with a day's overlap.
signals = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=200, max_value=500),
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


def _legacy_stitch_frames(responses, renormalize=True):
    """Frozen copy of the pre-strategy batch loop (bit-identity oracle).

    Verbatim from ``repro.core.stitching.stitch_frames`` before the
    strategy refactor; do not modify — the default backend must keep
    matching it byte for byte.
    """
    if not responses:
        raise StitchingError("no frames to stitch")
    first = responses[0]
    term = first.request.term
    geo = first.request.geo
    for response in responses[1:]:
        if response.request.term != term or response.request.geo != geo:
            raise StitchingError(
                "cannot stitch frames of different terms or geographies"
            )
    series = responses[0].values.astype(np.float64)
    origin = first.window.start
    ratios = []
    carried = 0
    last_ratio = 1.0
    for previous, current in zip(responses, responses[1:]):
        offset = hour_index(origin, current.window.start)
        if offset < 0 or offset > series.size:
            raise StitchingError("not contiguous")
        overlap = series.size - offset
        if overlap <= 0:
            raise StitchingError("no overlap")
        if overlap >= current.values.size:
            ratios.append(last_ratio)
            continue
        current_values = current.values.astype(np.float64)
        ratio = estimate_ratio(series[offset:], current_values[:overlap])
        if ratio is None:
            ratio = 1.0
            carried += 1
        else:
            last_ratio = ratio
        ratios.append(ratio)
        series = np.concatenate([series, current_values[overlap:] * ratio])
    timeline = HourlyTimeline(term=term, geo=geo, start=origin, values=series)
    if renormalize:
        timeline = timeline.renormalized()
    return timeline, (len(responses), carried, tuple(ratios))


# --------------------------------------------------------------------------
# Bit-identity with the original batch loop
# --------------------------------------------------------------------------


class TestDefaultBackendBitIdentity:
    def test_stitch_frames_matches_frozen_legacy_loop(self):
        frames = split_into_frames(make_signal(600, seed=3), 168, 48)
        timeline, report = stitch_frames(frames)
        legacy_timeline, (frames_n, carried, ratios) = _legacy_stitch_frames(frames)
        assert timeline.values.tobytes() == legacy_timeline.values.tobytes()
        assert (report.frames, report.carried_ratios, report.ratios) == (
            frames_n,
            carried,
            ratios,
        )

    @given(signal=signals)
    @settings(max_examples=30, deadline=None)
    def test_legacy_identity_holds_for_arbitrary_signals(self, signal):
        frames = split_into_frames(signal, 168, 24)
        timeline, report = stitch_frames(frames)
        legacy_timeline, (_, carried, ratios) = _legacy_stitch_frames(frames)
        assert timeline.values.tobytes() == legacy_timeline.values.tobytes()
        assert report.ratios == ratios
        assert report.carried_ratios == carried

    def test_mean_averager_is_average_until_convergence(self):
        truth = np.zeros(300)
        truth[40] = 30.0
        truth[140] = 80.0

        def fetch_round(round_index):
            rng = np.random.default_rng(100 + round_index)
            sampled = np.maximum(truth + rng.normal(0, 6.0, truth.size), 0)
            sampled[truth == 0] = 0.0
            return split_into_frames(sampled, 168, 24)

        config = AveragingConfig(min_rounds=2, max_rounds=5)
        legacy = average_until_convergence(fetch_round, config)
        strategic = Averager().average(fetch_round, config)
        assert (
            legacy.timeline.values.tobytes() == strategic.timeline.values.tobytes()
        )
        assert legacy.rounds_used == strategic.rounds_used
        assert legacy.similarity_history == strategic.similarity_history
        assert [s.to_dict() for s in legacy.spikes] == [
            s.to_dict() for s in strategic.spikes
        ]


# --------------------------------------------------------------------------
# The incremental feed()/finalize() contract
# --------------------------------------------------------------------------


class TestIncrementalContract:
    @given(signal=signals)
    @settings(max_examples=15, deadline=None)
    def test_incremental_equals_batch_at_every_prefix(self, signal):
        """finalize() after k feeds == a fresh stitcher fed the k-prefix."""
        frames = split_into_frames(signal, 168, 24)
        incremental = OverlapRatioStitcher()
        for count, response in enumerate(frames, start=1):
            incremental.feed(response)
            batch = OverlapRatioStitcher()
            for prefix_response in frames[:count]:
                batch.feed(prefix_response)
            live_timeline, live_report = incremental.finalize()
            batch_timeline, batch_report = batch.finalize()
            assert (
                live_timeline.values.tobytes() == batch_timeline.values.tobytes()
            )
            assert live_report == batch_report

    @given(signal=signals)
    @settings(max_examples=15, deadline=None)
    def test_order_deterministic(self, signal):
        """Two instances fed the same frames agree byte for byte, and
        finalize() is repeatable (non-destructive)."""
        frames = split_into_frames(signal, 168, 24)
        first, second = OverlapRatioStitcher(), OverlapRatioStitcher()
        for response in frames:
            first.feed(response)
            second.feed(response)
        timeline_a, report_a = first.finalize()
        timeline_b, report_b = second.finalize()
        assert timeline_a.values.tobytes() == timeline_b.values.tobytes()
        assert report_a == report_b
        again, report_again = first.finalize()
        assert again.values.tobytes() == timeline_a.values.tobytes()
        assert report_again == report_a

    @given(signal=signals, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_feed_after_the_first_only_appends(self, signal, data):
        """``dirty_from`` is the series length before each feed after
        the first, for fully contained frames too: no feed rewrites an
        hour the series already had."""
        frames = split_into_frames(signal, 168, 24)
        stitcher = OverlapRatioStitcher()
        stitcher.feed(frames[0])
        assert stitcher.dirty_from == 0
        for response in frames[1:]:
            feeds = [response]
            size = len(stitcher.finalize(renormalize=False)[0])
            if data.draw(st.booleans(), label="contained frame first"):
                lo = data.draw(st.integers(0, size - 1), label="lo")
                hi = data.draw(st.integers(lo + 1, min(size, lo + 168)), label="hi")
                feeds.insert(0, frame(utc(2021, 1, 1) + _hours(lo), signal[lo:hi]))
            for fed in feeds:
                before = stitcher.finalize(renormalize=False)[0].values.copy()
                stitcher.feed(fed)
                assert stitcher.dirty_from == before.size
                after = stitcher.finalize(renormalize=False)[0].values
                assert after[: before.size].tobytes() == before.tobytes()

    def test_finalize_without_frames_raises(self):
        with pytest.raises(StitchingError):
            OverlapRatioStitcher().finalize()

    def test_mixed_geo_rejected(self):
        stitcher = OverlapRatioStitcher()
        stitcher.feed(frame(utc(2021, 1, 1), make_signal(168)))
        with pytest.raises(StitchingError):
            stitcher.feed(frame(utc(2021, 1, 7), make_signal(168), geo="US-CA"))

    def test_disjoint_frames_rejected(self):
        stitcher = OverlapRatioStitcher()
        stitcher.feed(frame(utc(2021, 1, 1), make_signal(168)))
        with pytest.raises(StitchingError):
            stitcher.feed(frame(utc(2021, 2, 1), make_signal(168)))

    def test_recovers_relative_spike_heights(self):
        """Stitching's actual job: the 120-spike reads about twice the
        60-spike across frame boundaries."""
        signal = make_signal(600)
        frames = split_into_frames(signal, 168, 48)
        stitcher = OverlapRatioStitcher()
        for response in frames:
            stitcher.feed(response)
        timeline, report = stitcher.finalize()
        measured = timeline.values[300] / timeline.values[150]
        assert measured == pytest.approx(2.0, rel=0.35)
        assert report.frames == len(frames)


# --------------------------------------------------------------------------
# StitchReport diagnostics (carried positions vs ratio_spread)
# --------------------------------------------------------------------------


class TestStitchReportDiagnostics:
    def test_carried_positions_mark_silent_overlaps(self):
        loud = np.zeros(168)
        loud[10] = 40.0
        quiet = np.zeros(168)
        frames = [
            frame(utc(2021, 1, 1), loud),  # signal in frame 1
            frame(utc(2021, 1, 7), quiet),  # silent overlap with frame 1? no:
        ]
        # frame 1's tail (the overlap) is zero and frame 2 is zero, so
        # the ratio is carried.
        timeline, report = stitch_frames(frames)
        assert report.carried_ratios == 1
        assert report.carried_positions == (0,)
        assert report.ratios == (1.0,)

    def test_ratio_spread_excludes_carried(self):
        report = StitchReport(
            frames=4,
            carried_ratios=1,
            ratios=(4.0, 1.0, 5.0),
            carried_positions=(1,),
        )
        assert report.ratio_spread == pytest.approx(5.0 / 4.0)
        # The pre-fix spread would have been 5.0 (masking drift).

    def test_all_carried_spread_is_neutral(self):
        report = StitchReport(
            frames=2, carried_ratios=1, ratios=(1.0,), carried_positions=(0,)
        )
        assert report.ratio_spread == 1.0

    def test_roundtrip_through_dict(self):
        report = StitchReport(
            frames=3,
            carried_ratios=1,
            ratios=(2.0, 1.0),
            carried_positions=(1,),
        )
        payload = report.to_dict()
        assert payload["ratio_spread"] == report.ratio_spread
        assert StitchReport.from_dict(payload) == report

    def test_contained_frame_repeat_is_carried_position(self):
        signal = make_signal(200)
        outer = frame(utc(2021, 1, 1), signal[:168])
        inner = frame(utc(2021, 1, 2), signal[24:96])  # fully contained
        _, report = stitch_frames([outer, inner])
        assert report.carried_positions == (0,)
        assert report.carried_ratios == 0  # count semantics unchanged


# --------------------------------------------------------------------------
# Through the pipeline
# --------------------------------------------------------------------------


class TestPipelineIntegration:
    def test_default_backend_study_is_byte_identical_at_any_worker_count(
        self, small_population
    ):
        """A study reconstructs byte for byte the same, serial or not."""
        config = AveragingConfig(min_rounds=2, max_rounds=3)
        geos = ("US-TX", "US-WY")

        def run(workers: int):
            runtime = StudyRuntime.build(
                population=small_population,
                sift=SiftConfig(averaging=config, annotate=False),
                max_workers=workers,
                checkpoint=False,
            )
            return runtime.run_study(geos=geos)

        reference = run(workers=1)
        study = run(workers=3)
        assert study.fingerprint() == reference.fingerprint()
        for geo in geos:
            assert (
                study.states[geo].timeline.values.tobytes()
                == reference.states[geo].timeline.values.tobytes()
            )


# --------------------------------------------------------------------------
# Quality floors on the canonical workload
# --------------------------------------------------------------------------

#: Two months around the Texas winter storm, eight geographies, at the
#: Trends service's default sample rate.
FLOOR_GEOS = (
    "US-TX", "US-CA", "US-NY", "US-FL", "US-AZ", "US-HI", "US-AK", "US-CO",
)
PRECISION_FLOOR = 0.60
RECALL5_FLOOR = 0.30


class TestQualityFloors:
    def test_canonical_workload_meets_spike_quality_floors(self):
        """Spike precision and strong-impact (intensity >= 5) recall
        against ground truth; seeded-scenario properties, so the floors
        hold on any machine."""
        with StudyRuntime.build(
            background_scale=0.3,
            start=utc(2021, 1, 1),
            end=utc(2021, 3, 1),
            sample_rate=0.03,
            sift=SiftConfig(
                annotate=False, averaging=AveragingConfig(max_rounds=8)
            ),
        ) as runtime:
            study = runtime.run_study(geos=FLOOR_GEOS)
            quality = score_spikes(study.spikes, runtime.scenario)
        assert quality.precision >= PRECISION_FLOOR
        assert quality.recall_strong >= RECALL5_FLOOR
