"""Unit tests for the prominence-walk spike detector."""

import numpy as np
import pytest

from repro.core.detection import (
    DetectionConfig,
    detect_bounds,
    detect_spikes,
    walk_backward,
    walk_forward,
)
from repro.core.series import HourlyTimeline
from repro.errors import DetectionError
from repro.timeutil import utc


def bounds(values, **config):
    cfg = DetectionConfig(**config) if config else None
    return detect_bounds(np.asarray(values, dtype=float), cfg)


class TestWalks:
    def test_forward_includes_the_half_drop_block(self):
        values = np.array([0, 10.0, 8.0, 3.0, 3.0, 0])
        claimed = np.zeros(6, dtype=bool)
        # 8 -> 3 is the below-half "ending point"; the 3 belongs to the
        # spike, and the following 3 (no further free-fall) does not.
        assert walk_forward(values, 1, claimed, 0.5) == 3

    def test_forward_stops_at_zero(self):
        values = np.array([0, 10.0, 9.0, 8.0, 0.0, 5.0])
        claimed = np.zeros(6, dtype=bool)
        assert walk_forward(values, 1, claimed, 0.5) == 3

    def test_forward_stops_at_claimed(self):
        values = np.array([0, 10.0, 9.0, 8.0, 7.0])
        claimed = np.array([False, False, False, True, True])
        assert walk_forward(values, 1, claimed, 0.5) == 2

    def test_forward_runs_to_series_end(self):
        values = np.array([10.0, 9.0, 8.0])
        claimed = np.zeros(3, dtype=bool)
        assert walk_forward(values, 0, claimed, 0.5) == 2

    def test_backward_stops_at_zero(self):
        values = np.array([5.0, 0.0, 3.0, 10.0])
        claimed = np.zeros(4, dtype=bool)
        assert walk_backward(values, 3, claimed) == 2

    def test_backward_stops_at_claimed(self):
        values = np.array([5.0, 4.0, 3.0, 10.0])
        claimed = np.array([True, False, False, False])
        assert walk_backward(values, 3, claimed) == 1

    def test_backward_runs_to_series_start(self):
        values = np.array([4.0, 3.0, 10.0])
        claimed = np.zeros(3, dtype=bool)
        assert walk_backward(values, 2, claimed) == 0


class TestDetectBounds:
    def test_single_spike(self):
        found = bounds([0, 0, 2, 10, 4, 0, 0])
        assert len(found) == 1
        spike = found[0]
        assert (spike.start, spike.peak, spike.end) == (2, 3, 4)
        assert spike.duration_hours == 3

    def test_cliff_fully_claimed(self):
        # A sharp decay (each block below half the previous) is one
        # spike, not a chain of phantom residues.
        found = bounds([0, 100, 30, 9, 2, 0])
        assert len(found) == 1
        assert found[0].end == 4

    def test_flat_series_no_spikes(self):
        assert bounds(np.zeros(10)) == []

    def test_descending_magnitude_order(self):
        found = bounds([0, 5, 0, 50, 0, 20, 0])
        peaks = [b.peak for b in found]
        assert peaks == [3, 5, 1]

    def test_successive_peaks_not_recounted(self):
        """A double-peaked surge with no half-drop between peaks is one
        spike (the paper's recounting guard)."""
        found = bounds([0, 10, 8, 9, 7, 0])
        assert len(found) == 1
        assert found[0].duration_hours == 4

    def test_sharp_valley_splits_spikes(self):
        found = bounds([0, 10, 2, 9, 0])  # 10 -> 2 is a half-drop
        assert len(found) == 2

    def test_spikes_disjoint(self):
        values = np.random.default_rng(5).random(200) * np.where(
            np.random.default_rng(6).random(200) < 0.3, 10, 0
        )
        found = bounds(values)
        claimed = np.zeros(200, dtype=bool)
        for spike in found:
            assert not claimed[spike.start : spike.end + 1].any()
            claimed[spike.start : spike.end + 1] = True

    def test_every_positive_peak_by_default(self):
        found = bounds([0, 0.5, 0, 5, 0])
        assert len(found) == 2

    def test_adjacent_spikes_share_no_blocks(self):
        # Second spike's backward walk must stop at the first's end.
        found = bounds([0, 3, 8, 4, 30, 10, 0])
        assert len(found) >= 1
        first = found[0]
        assert first.peak == 4
        if len(found) > 1:
            assert found[1].end < first.start or found[1].start > first.end

    def test_rejects_2d(self):
        with pytest.raises(DetectionError):
            detect_bounds(np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(DetectionError):
            detect_bounds(np.array([1.0, np.inf]))

    def test_empty_series(self):
        assert detect_bounds(np.array([])) == []

    def test_plateau_is_one_spike(self):
        found = bounds([0, 7, 7, 7, 0])
        assert len(found) == 1
        assert found[0].duration_hours == 3


class TestDetectionConfig:
    def test_rejects_bad_half_ratio(self):
        with pytest.raises(DetectionError):
            DetectionConfig(half_ratio=0.0)
        with pytest.raises(DetectionError):
            DetectionConfig(half_ratio=1.0)

    def test_half_ratio_sweep_changes_sensitivity(self):
        values = [0, 10.0, 6.0, 3.5, 0]
        # At 0.5: 6 -> 3.5 stays (ratio .58); at 0.7 the spike ends sooner.
        loose = bounds(values, half_ratio=0.5)[0]
        strict = bounds(values, half_ratio=0.7)[0]
        assert strict.duration_hours <= loose.duration_hours


class TestDetectSpikes:
    def test_wall_clock_metadata(self):
        timeline = HourlyTimeline(
            term="Internet outage",
            geo="US-TX",
            start=utc(2021, 2, 15),
            values=np.array([0, 0, 2, 10, 4, 0], dtype=float),
        )
        spikes = detect_spikes(timeline)
        assert len(spikes) == 1
        spike = spikes[0]
        assert spike.start == utc(2021, 2, 15, 2)
        assert spike.peak == utc(2021, 2, 15, 3)
        assert spike.end == utc(2021, 2, 15, 4)
        assert spike.magnitude == 10.0
        assert spike.magnitude_rank == 1

    def test_ranks_are_one_based_by_magnitude(self):
        timeline = HourlyTimeline(
            term="Internet outage",
            geo="US-TX",
            start=utc(2021, 2, 15),
            values=np.array([0, 5, 0, 50, 0, 20, 0], dtype=float),
        )
        spikes = detect_spikes(timeline)
        assert [s.magnitude_rank for s in spikes] == [1, 2, 3]
        assert [s.magnitude for s in spikes] == [50.0, 20.0, 5.0]
