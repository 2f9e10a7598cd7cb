"""A pytrends-style convenience client for the simulated service.

:class:`TrendsClient` is what the collection layer talks to: it owns a
source IP, classifies every failure the service can surface (see
:func:`repro.errors.classify_error`), retries politely on anything
retryable — honoring ``retry_after`` hints with exponential backoff and
jitter — and validates each response, converting truncated or degraded
frames into retryable errors instead of letting damaged data through.
Fatal errors (malformed requests, configuration mistakes) propagate on
the first attempt; an exhausted retry budget surfaces as
:class:`~repro.errors.FrameCrawlError` so the scheduler can reassign
the frame to another fetcher.

The sleep function is injectable so the whole crawl runs on virtual
time in tests and benchmarks.  An optional circuit breaker (duck-typed;
see :class:`repro.collection.breaker.CircuitBreaker`) is consulted
before every attempt and fed transport-level successes and failures.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from collections.abc import Callable

from repro.errors import (
    CircuitOpenError,
    DegradedFrameError,
    ErrorClass,
    FrameCrawlError,
    ReproError,
    TransientServiceError,
    TruncatedFrameError,
    classify_error,
)
from repro.rand import substream
from repro.timeutil import TimeWindow
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse
from repro.trends.service import TrendsService

Sleeper = Callable[[float], None]


@dataclasses.dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Backoff behaviour when the service rate-limits the client."""

    max_attempts: int = 8
    backoff_base: float = 1.5
    max_backoff: float = 120.0
    jitter: float = 0.25  # +- fraction of the computed delay

    def delay(self, attempt: int, retry_after: float, jitter_unit: float) -> float:
        """Delay before retry *attempt* (0-based), respecting the hint."""
        backoff = min(self.backoff_base**attempt, self.max_backoff)
        base = max(retry_after, backoff)
        return base * (1.0 + self.jitter * (2.0 * jitter_unit - 1.0))


def _trips_breaker(error: ReproError) -> bool:
    """Only transport faults count toward opening the breaker.

    Rate limits are back-pressure from a healthy service; truncated and
    degraded frames are data-quality faults — neither says the path to
    the service is dark.
    """
    return isinstance(error, TransientServiceError) and not isinstance(
        error, (TruncatedFrameError, DegradedFrameError)
    )


class TrendsClient:
    """One crawler identity (one IP) against the Trends service."""

    def __init__(
        self,
        service: TrendsService,
        ip: str,
        sleep: Sleeper = time.sleep,
        policy: RetryPolicy | None = None,
        seed: int = 1234,
        breaker=None,
    ) -> None:
        self.service = service
        self.ip = ip
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self._jitter_rng = substream(seed, "client-jitter", ip)
        #: Optional circuit breaker guarding this IP; consulted before
        #: every attempt and fed transport successes/failures.
        self.breaker = breaker
        self.fetches = 0
        self.retries = 0
        #: Retried errors by exception type name — the "observed" side
        #: of the chaos FaultReport's exactly-once accounting.
        self.retry_causes: Counter = Counter()

    def interest_over_time(
        self,
        term: str,
        geo: str,
        window: TimeWindow,
        sample_round: int | None = None,
        include_rising: bool = True,
    ) -> TimeFrameResponse:
        """Fetch one hourly frame, retrying through retryable faults.

        Raises :class:`~repro.errors.CircuitOpenError` without touching
        the service while this IP's breaker is open, propagates fatal
        errors immediately, and raises
        :class:`~repro.errors.FrameCrawlError` once the retry budget is
        spent on retryable ones.
        """
        request = TimeFrameRequest(term=term, geo=geo, window=window)
        last_error: ReproError | None = None
        for attempt in range(self.policy.max_attempts):
            if self.breaker is not None and not self.breaker.allow():
                raise CircuitOpenError(self.ip, self.breaker.retry_at)
            try:
                response = self.service.fetch(
                    request,
                    ip=self.ip,
                    sample_round=sample_round,
                    include_rising=include_rising,
                )
                self._validate(request, response)
            except ReproError as error:
                if classify_error(error) is ErrorClass.FATAL:
                    raise
                last_error = error
                self.retries += 1
                self.retry_causes[type(error).__name__] += 1
                if self.breaker is not None and _trips_breaker(error):
                    self.breaker.record_failure()
                delay = self.policy.delay(
                    attempt,
                    getattr(error, "retry_after", 0.0),
                    float(self._jitter_rng.random()),
                )
                self._sleep(delay)
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            self.fetches += 1
            return response
        raise FrameCrawlError(self.ip, self.policy.max_attempts, last_error)

    @staticmethod
    def _validate(
        request: TimeFrameRequest, response: TimeFrameResponse
    ) -> None:
        """Reject damaged responses so the retry loop re-fetches them."""
        if response.request.window != request.window:
            raise TruncatedFrameError(
                request.window.hours, response.request.window.hours
            )
        if response.degraded:
            raise DegradedFrameError(
                f"below-threshold frame for {request.term!r} in {request.geo}"
            )

    def rising_queries(
        self, term: str, geo: str, window: TimeWindow
    ) -> tuple[RisingTerm, ...]:
        """Fetch only the rising related queries for a frame."""
        response = self.interest_over_time(term, geo, window, include_rising=True)
        return response.rising
