"""Property-based tests (hypothesis) on core invariants."""

from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.detection import detect_bounds
from repro.core.nlp import phrase_similarity, tokenize
from repro.core.spikes import Spike, SpikeSet
from repro.core.stitching import estimate_ratio, stitch_frames
from repro.errors import (
    CircuitOpenError,
    ErrorClass,
    FrameCrawlError,
    FrameDeadLettered,
    RateLimitError,
    ReproError,
    TransientServiceError,
    classify_error_type,
)
from repro.timeutil import TimeWindow, utc, weekly_frames
from repro.trends.client import RetryPolicy
from repro.trends.ratelimit import RateLimitConfig, SimulatedClock, TokenBucketLimiter
from repro.trends.records import TimeFrameRequest, TimeFrameResponse
from repro.trends.sampling import index_frame, privacy_round

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

series_values = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=300),
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)

count_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=200),
    elements=st.integers(min_value=0, max_value=10_000),
)


# --------------------------------------------------------------------------
# Indexing / privacy invariants
# --------------------------------------------------------------------------


class TestSamplingProperties:
    @given(counts=count_arrays)
    def test_index_frame_bounds(self, counts):
        values = index_frame(counts)
        assert values.min() >= 0
        assert values.max() <= 100

    @given(counts=count_arrays)
    def test_index_frame_max_is_100_when_signal(self, counts):
        values = index_frame(counts)
        if counts.max() > 0:
            assert values.max() == 100
        else:
            assert values.max() == 0

    @given(counts=count_arrays)
    def test_index_frame_monotone(self, counts):
        """Indexing preserves the ordering of data points."""
        values = index_frame(counts)
        order_before = np.argsort(counts, kind="stable")
        assert (np.diff(values[order_before]) >= 0).all()

    @given(counts=count_arrays, threshold=st.integers(min_value=0, max_value=50))
    def test_privacy_round_idempotent(self, counts, threshold):
        once = privacy_round(counts, threshold)
        twice = privacy_round(once, threshold)
        np.testing.assert_array_equal(once, twice)

    @given(counts=count_arrays, threshold=st.integers(min_value=0, max_value=50))
    def test_privacy_round_only_zeroes(self, counts, threshold):
        rounded = privacy_round(counts, threshold)
        changed = rounded != counts
        assert (rounded[changed] == 0).all()
        assert (rounded[~changed] == counts[~changed]).all()


# --------------------------------------------------------------------------
# Detection invariants
# --------------------------------------------------------------------------


class TestDetectionProperties:
    @given(values=series_values)
    def test_bounds_ordered_and_in_range(self, values):
        for bound in detect_bounds(values):
            assert 0 <= bound.start <= bound.peak <= bound.end < values.size

    @given(values=series_values)
    def test_spikes_pairwise_disjoint(self, values):
        claimed = np.zeros(values.size, dtype=bool)
        for bound in detect_bounds(values):
            assert not claimed[bound.start : bound.end + 1].any()
            claimed[bound.start : bound.end + 1] = True

    @given(values=series_values)
    def test_peak_is_block_maximum(self, values):
        for bound in detect_bounds(values):
            block = values[bound.start : bound.end + 1]
            assert values[bound.peak] == block.max()

    @given(values=series_values)
    def test_magnitudes_descending(self, values):
        peaks = [values[b.peak] for b in detect_bounds(values)]
        assert peaks == sorted(peaks, reverse=True)

    @given(values=series_values)
    def test_every_positive_hour_claimed_by_default(self, values):
        """Every strictly-positive block belongs to exactly one spike
        (nothing positive is left over)."""
        claimed = np.zeros(values.size, dtype=bool)
        for bound in detect_bounds(values):
            claimed[bound.start : bound.end + 1] = True
        assert claimed[values > 0].all()

    @given(values=series_values, scale=st.floats(min_value=0.01, max_value=100.0))
    def test_scale_invariance(self, values, scale):
        """Detection must not depend on the global scale (the stitched
        series' absolute units are arbitrary)."""
        # Keep positives representable after scaling (denormals would
        # underflow to zero, changing the signal itself).
        values = np.where(values > 0, np.maximum(values, 1e-3), 0.0)
        original = detect_bounds(values)
        scaled = detect_bounds(values * scale)
        assert [(b.start, b.peak, b.end) for b in original] == [
            (b.start, b.peak, b.end) for b in scaled
        ]

    @given(values=series_values)
    def test_durations_positive(self, values):
        for bound in detect_bounds(values):
            assert bound.duration_hours >= 1


# --------------------------------------------------------------------------
# Stitching invariants
# --------------------------------------------------------------------------


def _frames_from_signal(signal: np.ndarray, frame_hours: int = 72, overlap: int = 24):
    start = utc(2021, 1, 1)
    responses = []
    position = 0
    step = frame_hours - overlap
    while position + frame_hours <= signal.size:
        window = TimeWindow(
            start + timedelta(hours=position),
            start + timedelta(hours=position + frame_hours),
        )
        request = TimeFrameRequest(term="Internet outage", geo="US-TX", window=window)
        responses.append(
            TimeFrameResponse(
                request=request,
                values=index_frame(signal[position : position + frame_hours]),
                rising=(),
                sample_round=0,
            )
        )
        position += step
    if position - step + frame_hours < signal.size:
        window = TimeWindow(
            start + timedelta(hours=signal.size - frame_hours),
            start + timedelta(hours=signal.size),
        )
        request = TimeFrameRequest(term="Internet outage", geo="US-TX", window=window)
        responses.append(
            TimeFrameResponse(
                request=request,
                values=index_frame(signal[-frame_hours:]),
                rising=(),
                sample_round=0,
            )
        )
    return responses


signals = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=144, max_value=400),
    elements=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
)


class TestStitchingProperties:
    @settings(max_examples=40)
    @given(signal=signals)
    def test_output_length_and_bounds(self, signal):
        frames = _frames_from_signal(signal)
        timeline, _ = stitch_frames(frames)
        assert len(timeline) == signal.size
        assert timeline.values.min() >= 0
        if timeline.peak_value > 0:
            assert timeline.peak_value == pytest.approx(100.0)

    @settings(max_examples=40)
    @given(signal=signals)
    def test_true_zeros_stay_zero(self, signal):
        """Hours the service reported as zero stay exactly zero after
        stitching (values may *gain* zeros via integer indexing of tiny
        fractions, but never lose them)."""
        frames = _frames_from_signal(signal)
        timeline, _ = stitch_frames(frames)
        assert (timeline.values[signal == 0] == 0).all()

    @settings(max_examples=40)
    @given(
        overlap_left=arrays(
            dtype=np.float64,
            shape=24,
            elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        scale=st.floats(min_value=0.02, max_value=50.0),
    )
    def test_estimate_ratio_recovers_scale(self, overlap_left, scale):
        """For same-shape overlaps the estimate approximates the true
        scale (up to smoothing) and always lands within the clamp."""
        ratio = estimate_ratio(overlap_left, overlap_left * scale)
        if ratio is None:
            assert overlap_left.sum() == 0
        else:
            assert 0.01 <= ratio <= 100.0
            if overlap_left.sum() > 100 and overlap_left.sum() * scale > 100:
                # Enough mass on both sides for the +1 smoothing to be
                # negligible.
                assert ratio == pytest.approx(1.0 / scale, rel=0.25)


import pytest  # noqa: E402  (used inside hypothesis bodies)


# --------------------------------------------------------------------------
# Weekly partitioning invariants
# --------------------------------------------------------------------------


class TestWeeklyFrameProperties:
    @given(
        days=st.integers(min_value=8, max_value=800),
        overlap=st.integers(min_value=1, max_value=167),
    )
    def test_cover_and_overlap(self, days, overlap):
        window = TimeWindow(utc(2020, 1, 1), utc(2020, 1, 1) + timedelta(days=days))
        frames = weekly_frames(window, overlap_hours=overlap)
        assert frames[0].start == window.start
        assert frames[-1].end == window.end
        for left, right in zip(frames, frames[1:]):
            assert left.intersection_hours(right) >= 1
            assert right.start > left.start  # strictly advancing
        for frame in frames:
            assert frame.hours <= 168


# --------------------------------------------------------------------------
# Rate limiter invariants
# --------------------------------------------------------------------------


class TestRateLimiterProperties:
    @settings(max_examples=30)
    @given(
        burst=st.integers(min_value=1, max_value=20),
        refill=st.floats(min_value=0.1, max_value=10.0),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60
        ),
    )
    def test_never_exceeds_token_budget(self, burst, refill, gaps):
        """Granted requests can never exceed burst + refill * elapsed."""
        clock = SimulatedClock()
        limiter = TokenBucketLimiter(
            RateLimitConfig(burst=burst, refill_per_second=refill), clock=clock
        )
        granted = 0
        for gap in gaps:
            clock.advance(gap)
            if limiter.try_acquire("ip"):
                granted += 1
        budget = burst + refill * clock() + 1e-6
        assert granted <= budget


# --------------------------------------------------------------------------
# NLP invariants
# --------------------------------------------------------------------------


class TestNlpProperties:
    @given(phrase=st.text(min_size=0, max_size=60))
    def test_similarity_bounded_and_symmetric(self, phrase):
        other = "internet outage"
        score = phrase_similarity(phrase, other)
        assert 0.0 <= score <= 1.0 + 1e-9
        assert score == pytest.approx(phrase_similarity(other, phrase))

    @given(phrase=st.text(alphabet=st.characters(categories=("Ll", "Zs")), max_size=60))
    def test_tokenize_never_crashes(self, phrase):
        tokens = tokenize(phrase)
        assert isinstance(tokens, tuple)


# --------------------------------------------------------------------------
# SpikeSet similarity invariants
# --------------------------------------------------------------------------

spike_lists = st.lists(
    st.tuples(
        st.sampled_from(["US-TX", "US-CA", "US-NY"]),
        st.integers(min_value=0, max_value=200),  # peak hour offset
        st.floats(min_value=0.5, max_value=100.0),  # magnitude
    ),
    max_size=15,
)


def _build_set(raw) -> SpikeSet:
    spikes = []
    seen = set()
    for geo, offset, magnitude in raw:
        if (geo, offset) in seen:
            continue
        seen.add((geo, offset))
        peak = utc(2021, 1, 1) + timedelta(hours=offset)
        spikes.append(
            Spike(
                term="Internet outage",
                geo=geo,
                start=peak,
                peak=peak,
                end=peak,
                magnitude=magnitude,
            )
        )
    return SpikeSet(spikes)


class TestSimilarityProperties:
    @given(raw=spike_lists)
    def test_self_similarity_is_one(self, raw):
        spikes = _build_set(raw)
        assert spikes.match_similarity(spikes) == pytest.approx(1.0)
        assert spikes.weighted_match_similarity(spikes) == pytest.approx(1.0)

    @given(left=spike_lists, right=spike_lists)
    def test_similarity_bounded_and_symmetric(self, left, right):
        a, b = _build_set(left), _build_set(right)
        forward = a.match_similarity(b)
        backward = b.match_similarity(a)
        assert 0.0 <= forward <= 1.0
        assert forward == pytest.approx(backward)

    @given(left=spike_lists, right=spike_lists)
    def test_weighted_similarity_bounded(self, left, right):
        a, b = _build_set(left), _build_set(right)
        assert 0.0 <= a.weighted_match_similarity(b) <= 1.0 + 1e-9


# --------------------------------------------------------------------------
# Retry policy invariants
# --------------------------------------------------------------------------

retry_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=16),
    backoff_base=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    max_backoff=st.floats(min_value=1.0, max_value=600.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
)

_EPS = 1e-9


class TestRetryPolicyProperties:
    @given(
        policy=retry_policies,
        attempt=st.integers(min_value=0, max_value=30),
        retry_after=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        unit=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_delay_is_bounded_by_cap_and_hint(self, policy, attempt, retry_after, unit):
        """No delay exceeds max(hint, max_backoff) plus full jitter."""
        delay = policy.delay(attempt, retry_after, unit)
        ceiling = max(retry_after, policy.max_backoff) * (1.0 + policy.jitter)
        assert 0.0 <= delay <= ceiling * (1.0 + _EPS)

    @given(
        policy=retry_policies,
        attempt=st.integers(min_value=0, max_value=30),
        retry_after=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        unit=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_jitter_stays_within_the_band(self, policy, attempt, retry_after, unit):
        """The jittered delay lands within +-jitter of the base delay."""
        delay = policy.delay(attempt, retry_after, unit)
        base = max(retry_after, min(policy.backoff_base**attempt, policy.max_backoff))
        assert base * (1.0 - policy.jitter) - _EPS <= delay
        assert delay <= base * (1.0 + policy.jitter) + _EPS

    @given(
        policy=retry_policies,
        attempt=st.integers(min_value=0, max_value=30),
        retry_after=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        unit=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_retry_after_hint_is_honored(self, policy, attempt, retry_after, unit):
        """A server's retry-after floor survives jitter."""
        delay = policy.delay(attempt, retry_after, unit)
        assert delay >= retry_after * (1.0 - policy.jitter) - _EPS

    @given(
        policy=retry_policies,
        unit=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_backoff_is_monotone_up_to_the_cap(self, policy, unit):
        """At a fixed jitter draw, delays never shrink between attempts."""
        delays = [policy.delay(attempt, 0.0, unit) for attempt in range(12)]
        assert all(a <= b + _EPS for a, b in zip(delays, delays[1:]))


# --------------------------------------------------------------------------
# Error-classifier totality
# --------------------------------------------------------------------------


def _all_repro_error_types() -> list[type]:
    """Every ReproError subclass reachable from the imported hierarchy."""
    seen: set[type] = set()
    stack: list[type] = [ReproError]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
    return sorted(seen, key=lambda cls: cls.__name__)


class TestClassifierTotality:
    @given(error_type=st.sampled_from(_all_repro_error_types()))
    def test_every_error_type_classifies(self, error_type):
        assert isinstance(classify_error_type(error_type), ErrorClass)

    @given(error_type=st.sampled_from(_all_repro_error_types()))
    def test_transients_never_classify_as_fatal(self, error_type):
        """The retryable branches of the hierarchy stay retryable."""
        verdict = classify_error_type(error_type)
        if issubclass(error_type, RateLimitError):
            assert verdict is ErrorClass.RATE_LIMITED
        elif issubclass(error_type, (TransientServiceError, CircuitOpenError)):
            assert verdict is ErrorClass.RETRYABLE

    def test_dead_letters_and_crawl_failures_are_fatal(self):
        """Budget-exhausted errors must not re-enter the retry loop."""
        assert classify_error_type(FrameCrawlError) is ErrorClass.FATAL
        assert classify_error_type(FrameDeadLettered) is ErrorClass.FATAL

    def test_unknown_subclasses_default_to_fatal(self):
        """A fault type the classifier has never seen fails safe."""

        class NovelError(ReproError):
            pass

        assert classify_error_type(NovelError) is ErrorClass.FATAL
