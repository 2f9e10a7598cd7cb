"""Fetcher units: crawler identities behind separate IP addresses.

GT's IP-based rate limiting is the collection bottleneck (paper §4,
Implementation), so the workload is spread over multiple fetcher units,
each owning its own IP (and therefore its own token bucket at the
service).  A :class:`FetcherUnit` is a thin stateful wrapper around a
:class:`repro.trends.TrendsClient` that tracks its own load, plus a
per-IP :class:`~repro.collection.breaker.CircuitBreaker` so the
scheduler can route work away from an IP that has gone dark.
"""

from __future__ import annotations

import dataclasses
import time

from repro.collection.breaker import BreakerConfig, CircuitBreaker
from repro.errors import ConfigurationError
from repro.timeutil import TimeWindow
from repro.trends.client import RetryPolicy, Sleeper, TrendsClient
from repro.trends.records import TimeFrameResponse
from repro.trends.service import TrendsService


@dataclasses.dataclass(frozen=True, slots=True)
class WorkItem:
    """One frame to crawl."""

    term: str
    geo: str
    window: TimeWindow
    sample_round: int = 0
    include_rising: bool = True

    @property
    def key(self) -> tuple[str, str, str, str, int]:
        return (
            self.term,
            self.geo,
            self.window.start.isoformat(),
            self.window.end.isoformat(),
            self.sample_round,
        )


class FetcherUnit:
    """One crawl identity: an IP plus its client, breaker and statistics."""

    def __init__(
        self,
        name: str,
        service: TrendsService,
        ip: str,
        sleep: Sleeper,
        policy: RetryPolicy | None = None,
        clock=time.monotonic,
        breaker_config: BreakerConfig | None = None,
    ) -> None:
        if not name:
            raise ConfigurationError("fetcher needs a name")
        self.name = name
        self.sleep = sleep
        self.clock = clock
        self.breaker = CircuitBreaker(breaker_config, clock=clock)
        self.client = TrendsClient(
            service,
            ip=ip,
            sleep=sleep,
            policy=policy,
            breaker=self.breaker,
        )
        self.completed = 0

    @property
    def ip(self) -> str:
        return self.client.ip

    @property
    def retries(self) -> int:
        return self.client.retries

    def fetch(self, item: WorkItem) -> TimeFrameResponse:
        """Execute one work item (retries ride on the client)."""
        response = self.client.interest_over_time(
            item.term,
            item.geo,
            item.window,
            sample_round=item.sample_round,
            include_rising=item.include_rising,
        )
        self.completed += 1
        return response


def build_fleet(
    service: TrendsService,
    count: int,
    sleep: Sleeper,
    policy: RetryPolicy | None = None,
    subnet: str = "203.0.113",
    clock=time.monotonic,
    breaker_config: BreakerConfig | None = None,
) -> list[FetcherUnit]:
    """Construct *count* fetcher units on distinct (documentation) IPs."""
    if count <= 0:
        raise ConfigurationError(f"fleet size must be positive: {count}")
    if count > 254:
        raise ConfigurationError(f"one /24 gives at most 254 fetchers: {count}")
    return [
        FetcherUnit(
            name=f"fetcher-{index:02d}",
            service=service,
            ip=f"{subnet}.{index + 1}",
            sleep=sleep,
            policy=policy,
            clock=clock,
            breaker_config=breaker_config,
        )
        for index in range(count)
    ]
