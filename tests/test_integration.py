"""End-to-end integration tests: pipeline findings vs ground truth.

These tests run the complete system — world, Trends service, fetcher
fleet, stitching, averaging, detection, annotation, grouping — and
check that the paper's *anchor facts* come out the other side.
"""

import pytest

from repro import StudyRuntime, utc
from repro.ant import AntDataset, CrossValidationConfig, trace_spike


class TestTexasWinterStorm:
    """The paper's flagship anchor: Table 1 row 1 and Fig. 1."""

    def test_storm_spike_detected(self, tx_result):
        top = tx_result.spikes.top_by_duration(1)[0]
        assert top.start.date().isoformat() == "2021-02-15"
        assert top.start.hour == pytest.approx(10, abs=3)

    def test_storm_duration_close_to_paper(self, tx_result):
        """Paper: 45 hours."""
        top = tx_result.spikes.top_by_duration(1)[0]
        assert 38 <= top.duration_hours <= 55

    def test_storm_is_magnitude_rank_one(self, tx_result):
        top = tx_result.spikes.top_by_duration(1)[0]
        assert top.magnitude_rank == 1
        assert top.magnitude == pytest.approx(100.0, abs=1.0)

    def test_averaging_converged_within_six_rounds(self, tx_result):
        assert tx_result.averaging.rounds_used <= 6
        assert tx_result.averaging.converged

    def test_timeline_covers_window(self, tx_result, small_window):
        assert tx_result.timeline.window == small_window


class TestVerizonAnchor:
    """Fig. 1's second circle: the 26 Jan 2021 Verizon outage."""

    def test_verizon_spike_in_texas(self, tx_result):
        day = [
            spike
            for spike in tx_result.spikes
            if spike.peak.date().isoformat() == "2021-01-26"
        ]
        assert day, "Verizon outage day has no spike in TX"

    def test_storm_outranks_verizon(self, tx_result):
        """Fig. 1: the storm's magnitude and duration dominate."""
        storm = tx_result.spikes.top_by_duration(1)[0]
        verizon = [
            spike
            for spike in tx_result.spikes
            if spike.peak.date().isoformat() == "2021-01-26"
        ][0]
        assert storm.magnitude > verizon.magnitude
        assert storm.duration_hours > verizon.duration_hours


class TestStudyLevelFindings:
    def test_annotation_finds_power_outage_on_storm(self, mini_study):
        storm = mini_study.spikes.in_state("TX").top_by_duration(1)[0]
        assert storm.has_annotation({"Power outage", "Electric power", "Winter storm"})

    def test_verizon_outage_is_multi_state(self, mini_study):
        """The Verizon event spans many states; within our 4-geography
        study it must still group TX with at least one other state."""
        verizon_outages = [
            outage
            for outage in mini_study.outages
            if outage.start.date().isoformat() == "2021-01-26"
            and outage.footprint >= 2
        ]
        assert verizon_outages

    def test_heavy_hitters_contain_power_outage(self, mini_study):
        assert "Power outage" in mini_study.heavy_hitters

    def test_suggestion_stats_populated(self, mini_study):
        distinct, total = mini_study.suggestion_stats
        assert 0 < distinct <= total


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def ant(self, small_scenario):
        return AntDataset.build(small_scenario)

    def test_ant_confirms_storm(self, ant, tx_result):
        storm = tx_result.spikes.top_by_duration(1)[0]
        # The two-month test scenario is storm-season-dense, so the
        # state background is unusually high; a 2x excess still marks a
        # clear confirmation.
        result = trace_spike(
            ant, storm, CrossValidationConfig(background_ratio=2.0)
        )
        assert result.confirmed
        assert result.blocks_down > result.expected_background


class TestCollectionAccounting:
    def test_frames_crawled_once_per_request(self, small_env):
        """Cache discipline: the DB holds exactly what the service served."""
        assert small_env.manager.frames_stored == (
            small_env.service.stats.frames_served
        )

    def test_workload_spread_over_fleet(self, small_env):
        per_fetcher = small_env.manager.database.frames_by_fetcher()
        assert len(per_fetcher) == small_env.config.fetcher_count
        counts = sorted(per_fetcher.values())
        assert counts[0] > 0
        assert counts[-1] - counts[0] <= 1  # least-loaded balancing


class TestDeterminism:
    def test_identical_environments_identical_studies(self):
        window_start = utc(2021, 2, 1)
        window_end = utc(2021, 3, 1)
        results = []
        for _ in range(2):
            env = StudyRuntime.build(
                background_scale=0.1, start=window_start, end=window_end
            )
            study = env.run_study(geos=("US-TX", "US-WY"))
            results.append(study)
        a, b = results
        assert a.spike_count == b.spike_count
        assert a.spikes.peak_signature() == b.spikes.peak_signature()
        assert [s.annotations for s in a.spikes] == [s.annotations for s in b.spikes]
