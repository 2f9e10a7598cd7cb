"""Tests for the one-stop deployment wiring (``StudyRuntime.build``)."""


from repro import ALL_GEOS, STUDY_END, STUDY_START, StudyRuntime, utc
from repro.core.pipeline import StudyResult


class TestWiring:
    def test_all_geos(self):
        assert len(ALL_GEOS) == 51
        assert "US-TX" in ALL_GEOS

    def test_study_window_constants(self):
        assert STUDY_START == utc(2020, 1, 1)
        assert STUDY_END == utc(2022, 1, 1)

    def test_environment_components_share_world(self, small_env):
        assert small_env.service.population is small_env.population
        assert small_env.population.scenario is small_env.scenario

    def test_sift_uses_collection_manager(self, small_env):
        assert small_env.sift.source is small_env.manager

    def test_window_matches_config(self, small_env):
        assert small_env.window.start == small_env.config.start
        assert small_env.window.end == small_env.config.end

    def test_deterministic_rebuild(self):
        a = StudyRuntime.build(
            background_scale=0.1, start=utc(2021, 1, 1), end=utc(2021, 2, 1)
        )
        b = StudyRuntime.build(
            background_scale=0.1, start=utc(2021, 1, 1), end=utc(2021, 2, 1)
        )
        ra = a.sift.analyze_state("US-WY", a.window)
        rb = b.sift.analyze_state("US-WY", b.window)
        assert ra.spikes.peak_signature() == rb.spikes.peak_signature()


class TestStudyExecution:
    def test_mini_study_is_study_result(self, mini_study):
        assert isinstance(mini_study, StudyResult)
        assert set(mini_study.states) == {"US-TX", "US-CA", "US-OK", "US-WY"}

    def test_spikes_annotated(self, mini_study):
        annotated = [s for s in mini_study.spikes if s.annotations]
        assert annotated  # the annotation stage ran

    def test_outages_cover_spikes(self, mini_study):
        grouped = sum(len(outage.spikes) for outage in mini_study.outages)
        assert grouped == mini_study.spike_count

    def test_crawl_went_through_database(self, small_env, mini_study):
        assert small_env.manager.frames_stored > 0
        assert small_env.service.stats.frames_served > 0

    def test_virtual_time_advanced_not_wall_time(self, small_env):
        # The crawl slept virtually (rate limits), never really.
        assert small_env.clock() >= 0.0
