"""Unit tests for the collection layer: frame cache, fetchers, scheduler."""

import numpy as np
import pytest

from repro.collection.database import CollectionDatabase
from repro.collection.fetchers import WorkItem, build_fleet
from repro.collection.scheduler import CollectionManager, CollectionScheduler
from repro.errors import (
    CollectionError,
    ConfigurationError,
    TransientServiceError,
    UnknownTermError,
)
from repro.timeutil import TimeWindow, utc
from repro.trends.ratelimit import RateLimitConfig, SimulatedClock
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse
from repro.trends.service import TrendsConfig, TrendsService
from repro.world.population import SearchPopulation
from repro.world.scenarios import Scenario, ScenarioConfig

WEEK = TimeWindow(utc(2021, 1, 4), utc(2021, 1, 11))
WEEK2 = TimeWindow(utc(2021, 1, 10), utc(2021, 1, 17))


@pytest.fixture(scope="module")
def population():
    scenario = Scenario.build(
        ScenarioConfig(
            start=utc(2021, 1, 1), end=utc(2021, 2, 1), background_scale=0.0
        )
    )
    return SearchPopulation(scenario)


def make_response(window=WEEK, sample_round=0):
    request = TimeFrameRequest(term="Internet outage", geo="US-TX", window=window)
    values = np.zeros(window.hours, dtype=np.int16)
    values[10] = 100
    return TimeFrameResponse(
        request=request,
        values=values,
        rising=(RisingTerm("power outage", 120),),
        sample_round=sample_round,
    )


class TestDatabase:
    def test_frame_roundtrip(self):
        with CollectionDatabase() as db:
            response = make_response()
            db.store_frame(response, fetched_by="fetcher-00")
            loaded = db.load_frame("Internet outage", "US-TX", WEEK, 0)
            np.testing.assert_array_equal(loaded.values, response.values)
            assert loaded.rising == response.rising
            assert loaded.sample_round == 0

    def test_miss_returns_none(self):
        with CollectionDatabase() as db:
            assert db.load_frame("Internet outage", "US-TX", WEEK, 0) is None

    def test_rounds_are_distinct(self):
        with CollectionDatabase() as db:
            db.store_frame(make_response(sample_round=0), "f")
            db.store_frame(make_response(sample_round=1), "f")
            assert db.frame_count() == 2
            assert db.load_frame("Internet outage", "US-TX", WEEK, 1) is not None

    def test_replace_is_idempotent(self):
        with CollectionDatabase() as db:
            db.store_frame(make_response(), "f")
            db.store_frame(make_response(), "f")
            assert db.frame_count() == 1

    def test_frames_by_fetcher(self):
        with CollectionDatabase() as db:
            db.store_frame(make_response(WEEK), "a")
            db.store_frame(make_response(WEEK2), "b")
            assert db.frames_by_fetcher() == {"a": 1, "b": 1}

    def test_persistence_to_file(self, tmp_path):
        path = str(tmp_path / "sift.db")
        with CollectionDatabase(path) as db:
            db.store_frame(make_response(), "f")
        with CollectionDatabase(path) as db:
            assert db.frame_count() == 1


class TestFleet:
    def test_build_fleet_distinct_ips(self, population):
        clock = SimulatedClock()
        service = TrendsService(population, clock=clock)
        fleet = build_fleet(service, 5, sleep=clock.sleep)
        ips = {unit.ip for unit in fleet}
        assert len(ips) == 5

    def test_fleet_size_validation(self, population):
        clock = SimulatedClock()
        service = TrendsService(population, clock=clock)
        with pytest.raises(ConfigurationError):
            build_fleet(service, 0, sleep=clock.sleep)
        with pytest.raises(ConfigurationError):
            build_fleet(service, 500, sleep=clock.sleep)

    def test_fetch_counts_completed(self, population):
        clock = SimulatedClock()
        service = TrendsService(population, clock=clock)
        fleet = build_fleet(service, 1, sleep=clock.sleep)
        fleet[0].fetch(WorkItem("Internet outage", "US-TX", WEEK))
        assert fleet[0].completed == 1


class TestScheduler:
    def make_scheduler(self, population, fetchers=3, burst=2, refill=5.0):
        clock = SimulatedClock()
        service = TrendsService(
            population,
            TrendsConfig(
                rate_limit=RateLimitConfig(burst=burst, refill_per_second=refill)
            ),
            clock=clock,
        )
        db = CollectionDatabase()
        fleet = build_fleet(service, fetchers, sleep=clock.sleep)
        return clock, CollectionScheduler(fleet, db)

    def workload(self, count=12):
        from datetime import timedelta

        items = []
        for i in range(count):
            start = utc(2021, 1, 4) + timedelta(days=i % 4 * 7)
            window = TimeWindow(start, start + timedelta(days=7))
            items.append(
                WorkItem(
                    "Internet outage",
                    "US-TX",
                    window,
                    sample_round=i // 4,
                    include_rising=False,
                )
            )
        return items

    def test_execute_crawls_everything(self, population):
        _, scheduler = self.make_scheduler(population)
        report = scheduler.execute(self.workload())
        assert report.fetched == 12
        assert report.served_from_cache == 0
        assert scheduler.database.frame_count() == 12

    def test_execute_is_idempotent(self, population):
        _, scheduler = self.make_scheduler(population)
        scheduler.execute(self.workload())
        report = scheduler.execute(self.workload())
        assert report.fetched == 0
        assert report.served_from_cache == 12

    def test_load_balances_across_fetchers(self, population):
        """The paper's point: the workload spreads over the units."""
        _, scheduler = self.make_scheduler(population, fetchers=3)
        report = scheduler.execute(self.workload(12))
        assert set(report.per_fetcher.values()) == {4}

    def test_rate_limit_survived_via_retries(self, population):
        clock, scheduler = self.make_scheduler(
            population, fetchers=1, burst=2, refill=1.0
        )
        report = scheduler.execute(self.workload(8))
        assert report.fetched == 8
        assert report.retries > 0
        assert clock() > 0

    def test_needs_a_fetcher(self, population):
        with pytest.raises(CollectionError):
            CollectionScheduler([], CollectionDatabase())


class TestManager:
    def test_manager_is_frame_source(self, population):
        clock = SimulatedClock()
        service = TrendsService(population, clock=clock)
        manager = CollectionManager(service, sleep=clock.sleep, fetcher_count=2)
        response = manager.interest_over_time("Internet outage", "US-TX", WEEK)
        assert response.values.shape == (WEEK.hours,)
        assert manager.frames_stored == 1

    def test_manager_caches(self, population):
        clock = SimulatedClock()
        service = TrendsService(population, clock=clock)
        manager = CollectionManager(service, sleep=clock.sleep, fetcher_count=2)
        first = manager.interest_over_time("Internet outage", "US-TX", WEEK)
        second = manager.interest_over_time("Internet outage", "US-TX", WEEK)
        np.testing.assert_array_equal(first.values, second.values)
        assert service.stats.frames_served == 1  # second came from the DB

    def test_distinct_rounds_crawled_separately(self, population):
        clock = SimulatedClock()
        service = TrendsService(population, clock=clock)
        manager = CollectionManager(service, sleep=clock.sleep, fetcher_count=2)
        manager.interest_over_time("Internet outage", "US-TX", WEEK, sample_round=0)
        manager.interest_over_time("Internet outage", "US-TX", WEEK, sample_round=1)
        assert manager.frames_stored == 2


class TestFatalErrorHandling:
    """Regression: a fatal mid-crawl error must not leak the leased unit.

    The client used to treat any non-RateLimitError as instantly fatal
    and the scheduler dropped the unit on the floor — a study that hit
    one malformed response would slowly strangle its own fleet.  Fatal
    errors now dead-letter the item and release the lease; transient
    errors are retried on the same unit.
    """

    def make_scheduler(self, service, fetchers, clock):
        fleet = build_fleet(service, fetchers, sleep=clock.sleep, clock=clock)
        return fleet, CollectionScheduler(fleet, CollectionDatabase())

    def test_fatal_error_releases_the_unit_and_dead_letters(self, population):
        clock = SimulatedClock()
        inner = TrendsService(population, clock=clock)

        class Exploding:
            explode = True

            def fetch(self, request, **kwargs):
                if self.explode:
                    raise UnknownTermError("no data for term")
                return inner.fetch(request, **kwargs)

        service = Exploding()
        fleet, scheduler = self.make_scheduler(service, 2, clock)
        with pytest.raises(UnknownTermError):
            scheduler.fetch_one(WorkItem("Internet outage", "US-TX", WEEK))

        assert len(scheduler.dead_letters) == 1
        (entry,) = scheduler.dead_letters.entries()
        assert entry.error_type == "UnknownTermError"
        # Every unit is back in the idle pool: the lease was released.
        assert sorted(unit.name for unit in scheduler._idle) == sorted(
            unit.name for unit in fleet
        )
        # ... and the fleet still crawls once the service recovers.
        service.explode = False
        response = scheduler.fetch_one(WorkItem("Internet outage", "US-TX", WEEK2))
        assert response.values.shape == (WEEK2.hours,)

    def test_transient_errors_are_retried_not_fatal(self, population):
        clock = SimulatedClock()
        inner = TrendsService(population, clock=clock)

        class Flaky:
            failures = 2

            def fetch(self, request, **kwargs):
                if self.failures:
                    self.failures -= 1
                    raise TransientServiceError("503: try again")
                return inner.fetch(request, **kwargs)

        fleet, scheduler = self.make_scheduler(Flaky(), 1, clock)
        response = scheduler.fetch_one(WorkItem("Internet outage", "US-TX", WEEK))
        assert response.values.shape == (WEEK.hours,)
        assert fleet[0].retries == 2  # absorbed by backoff, not dead-lettered
        assert len(scheduler.dead_letters) == 0
        assert clock() > 0  # the backoff spent virtual time
