"""Implementation benchmark: fetcher-fleet scaling under rate limits.

GT's per-IP rate limiting bottlenecks a single crawler; spreading the
workload over fetcher units behind separate IPs restores throughput
(paper §4).  Measured on the simulated clock, where the only cost is
rate-limit backoff, so the result does not depend on the host.
"""

from repro.analysis import render_table
from repro.collection import CollectionManager, WorkItem
from repro.timeutil import utc, weekly_frames, TimeWindow
from repro.trends.ratelimit import RateLimitConfig, SimulatedClock
from repro.trends.service import TrendsConfig, TrendsService
from repro.world.population import SearchPopulation
from repro.world.scenarios import Scenario, ScenarioConfig


def build_population() -> SearchPopulation:
    scenario = Scenario.build(
        ScenarioConfig(
            start=utc(2021, 1, 1), end=utc(2021, 3, 1), background_scale=0.0
        )
    )
    return SearchPopulation(scenario)


def build_workload(geos: tuple[str, ...]) -> list[WorkItem]:
    window = TimeWindow(utc(2021, 1, 1), utc(2021, 2, 26))
    return [
        WorkItem("Internet outage", geo, frame, include_rising=False)
        for geo in geos
        for frame in weekly_frames(window)
    ]


def crawl_time(population, fetchers: int) -> tuple[float, int]:
    clock = SimulatedClock()
    service = TrendsService(
        population,
        TrendsConfig(rate_limit=RateLimitConfig(burst=5, refill_per_second=0.5)),
        clock=clock,
    )
    manager = CollectionManager(service, sleep=clock.sleep, fetcher_count=fetchers)
    workload = build_workload(("US-TX", "US-CA", "US-NY", "US-FL"))
    report = manager.prefetch(workload)
    return clock(), report.fetched


def test_fleet_scaling(benchmark, emit):
    population = build_population()
    rows = []
    times = {}
    for fetchers in (1, 2, 4, 8):
        virtual, fetched = crawl_time(population, fetchers)
        times[fetchers] = virtual
        rows.append((fetchers, fetched, f"{virtual:.0f}s"))

    benchmark.pedantic(
        crawl_time, args=(population, 4), rounds=1, iterations=1
    )
    emit(
        render_table(
            ("fetcher units", "frames crawled", "virtual crawl time"),
            rows,
            title="Collection: fleet scaling under per-IP rate limiting",
        ),
    )
    # More IPs -> proportionally less time stuck in rate-limit backoff.
    assert times[4] < times[1] / 2
    assert times[8] <= times[4]

