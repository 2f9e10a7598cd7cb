"""Unit tests for iterative re-fetch averaging."""

import numpy as np
import pytest

from repro.core.averaging import AveragingConfig, average_until_convergence
from repro.errors import ConvergenceError
from repro.timeutil import TimeWindow, utc
from repro.trends.records import TimeFrameRequest, TimeFrameResponse
from repro.trends.sampling import index_frame

HOURS = 168


def noisy_round_factory(truth: np.ndarray, noise: float, seed: int = 0):
    """fetch_round callable adding per-round sampling-style noise."""

    def fetch_round(round_index: int):
        rng = np.random.default_rng(seed + round_index)
        sampled = np.maximum(truth + rng.normal(0, noise, truth.size), 0)
        sampled[truth == 0] = 0.0  # privacy zeros are sticky
        window = TimeWindow(utc(2021, 1, 1), utc(2021, 1, 8))
        request = TimeFrameRequest(
            term="Internet outage", geo="US-TX", window=window
        )
        return [
            TimeFrameResponse(
                request=request,
                values=index_frame(sampled),
                rising=(),
                sample_round=round_index,
            )
        ]

    return fetch_round


@pytest.fixture()
def truth():
    values = np.zeros(HOURS)
    values[40] = 30.0
    values[41] = 80.0
    values[42] = 50.0
    values[100] = 25.0
    return values


class TestConfig:
    def test_rejects_bad_round_budget(self):
        with pytest.raises(ConvergenceError):
            AveragingConfig(min_rounds=0)
        with pytest.raises(ConvergenceError):
            AveragingConfig(min_rounds=5, max_rounds=2)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConvergenceError):
            AveragingConfig(similarity_threshold=0.0)
        with pytest.raises(ConvergenceError):
            AveragingConfig(similarity_threshold=1.5)


class TestConvergence:
    def test_clean_signal_converges_fast(self, truth):
        result = average_until_convergence(
            noisy_round_factory(truth, noise=0.5),
            AveragingConfig(min_rounds=2, max_rounds=6),
        )
        assert result.converged
        assert result.rounds_used <= 4
        assert len(result.spikes) == 2

    def test_noisy_signal_uses_more_rounds(self, truth):
        quiet = average_until_convergence(
            noisy_round_factory(truth, noise=0.5),
            AveragingConfig(min_rounds=2, max_rounds=8),
        )
        noisy = average_until_convergence(
            noisy_round_factory(truth, noise=12.0),
            AveragingConfig(min_rounds=2, max_rounds=8),
        )
        assert noisy.rounds_used >= quiet.rounds_used

    def test_averaging_reduces_error(self, truth):
        """The averaged series must be closer to truth than round one."""
        fetch = noisy_round_factory(truth, noise=8.0)
        single = fetch(0)[0].values.astype(float)
        single = single / single.max() * 100
        result = average_until_convergence(
            fetch, AveragingConfig(min_rounds=6, max_rounds=6)
        )
        averaged = result.timeline.values
        normalized_truth = truth / truth.max() * 100
        assert np.abs(averaged - normalized_truth).mean() < (
            np.abs(single - normalized_truth).mean()
        )

    @staticmethod
    def moving_target_rounds(round_index: int):
        """A pathological source whose spike moves every round."""
        values = np.zeros(HOURS)
        values[20 + 30 * round_index] = 50.0
        window = TimeWindow(utc(2021, 1, 1), utc(2021, 1, 8))
        request = TimeFrameRequest(
            term="Internet outage", geo="US-TX", window=window
        )
        return [
            TimeFrameResponse(
                request=request,
                values=index_frame(values),
                rising=(),
                sample_round=round_index,
            )
        ]

    def test_best_effort_without_convergence(self):
        result = average_until_convergence(
            self.moving_target_rounds,
            AveragingConfig(min_rounds=2, max_rounds=3, similarity_threshold=0.99),
        )
        assert not result.converged
        assert result.rounds_used == 3

    def test_similarity_history_recorded(self, truth):
        result = average_until_convergence(
            noisy_round_factory(truth, noise=5.0),
            AveragingConfig(min_rounds=3, max_rounds=6),
        )
        assert len(result.similarity_history) == result.rounds_used - 1
        assert all(0 <= s <= 1 for s in result.similarity_history)

    def test_empty_round_raises(self):
        with pytest.raises(ConvergenceError):
            average_until_convergence(lambda k: [])

    def test_changing_frame_count_raises(self, truth):
        good = noisy_round_factory(truth, 1.0)

        def flaky(round_index):
            responses = good(round_index)
            return responses if round_index == 0 else responses + responses

        with pytest.raises(ConvergenceError):
            average_until_convergence(flaky)
