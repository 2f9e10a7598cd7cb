"""Exception hierarchy for the SIFT reproduction.

All errors raised by this package derive from :class:`ReproError` so
callers can catch package failures with a single ``except`` clause while
still distinguishing the fine-grained conditions below.

The collection layer additionally needs to know, for *any* error the
Trends service can surface, whether retrying can help.
:func:`classify_error` is that decision, total over the hierarchy:
every :class:`ReproError` maps to exactly one :class:`ErrorClass`, and
anything the table does not explicitly mark retryable is fatal.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters."""


class TimeGridError(ReproError):
    """A timestamp or range does not align with the hourly grid."""


class UnknownGeoError(ReproError):
    """A geography code does not name a supported US state."""

    def __init__(self, geo: str) -> None:
        super().__init__(f"unknown geography: {geo!r}")
        self.geo = geo


class UnknownTermError(ReproError):
    """A search term is not present in the simulated search world."""

    def __init__(self, term: str) -> None:
        super().__init__(f"unknown search term: {term!r}")
        self.term = term


class TrendsRequestError(ReproError):
    """The Trends service rejected a malformed request."""


class RateLimitError(TrendsRequestError):
    """The per-IP request budget is exhausted.

    Attributes:
        retry_after: seconds the caller should wait before retrying.
    """

    def __init__(self, ip: str, retry_after: float) -> None:
        super().__init__(
            f"rate limit exceeded for {ip}; retry after {retry_after:.2f}s"
        )
        self.ip = ip
        self.retry_after = retry_after


class TransientServiceError(TrendsRequestError):
    """A 503-style hiccup: the request failed but a retry may succeed."""


class RequestTimeout(TransientServiceError):
    """The service did not answer within the request deadline.

    Attributes:
        timeout_seconds: how long the caller waited (virtual time).
    """

    def __init__(self, ip: str, timeout_seconds: float) -> None:
        super().__init__(
            f"request from {ip} timed out after {timeout_seconds:.1f}s"
        )
        self.ip = ip
        self.timeout_seconds = timeout_seconds


class TruncatedFrameError(TransientServiceError):
    """The response covered fewer hours than the requested frame."""

    def __init__(self, expected_hours: int, got_hours: int) -> None:
        super().__init__(
            f"truncated frame: expected {expected_hours} hours, "
            f"got {got_hours}"
        )
        self.expected_hours = expected_hours
        self.got_hours = got_hours


class DegradedFrameError(TransientServiceError):
    """The response was computed from a sample below the privacy
    threshold (the service flagged it as all-zero low-sample data)."""


class StitchingError(ReproError):
    """Consecutive time frames could not be stitched together."""


class ConvergenceError(ReproError):
    """Iterative averaging failed to converge within the round budget."""


class DetectionError(ReproError):
    """The spike detector received an invalid series."""


class DatabaseError(ReproError):
    """The collection database rejected an operation."""


class StoreIntegrityError(DatabaseError):
    """A persisted partition failed its integrity check (truncated,
    bit-flipped, or missing) and could not be quarantined."""


class CollectionError(ReproError):
    """The collection scheduler could not complete a workload."""


class TickCrashError(CollectionError):
    """A streaming tick died mid-crawl (simulated process crash).

    Raised above the per-frame retry machinery — the supervisor, not
    the fetcher loop, owns recovery: the tick is retry-safe (fed
    geographies are skipped by their watermark), so a restart simply
    runs it again.
    """


class WatchdogTimeout(CollectionError):
    """A supervised tick overran its virtual-time watchdog deadline.

    Attributes:
        elapsed_seconds: virtual time the tick had consumed when the
            watchdog fired.
        deadline_seconds: the armed deadline.
    """

    def __init__(self, elapsed_seconds: float, deadline_seconds: float) -> None:
        super().__init__(
            f"watchdog fired: tick spent {elapsed_seconds:.1f}s of virtual "
            f"time against a {deadline_seconds:.1f}s deadline"
        )
        self.elapsed_seconds = elapsed_seconds
        self.deadline_seconds = deadline_seconds


class SupervisorHalted(CollectionError):
    """The daemon supervisor exhausted its restart budget (or hit a
    fatal error) and refuses to restart again.

    Attributes:
        restarts: restarts spent before halting.
        last_error: the failure that exhausted the budget.
    """

    def __init__(self, reason: str, restarts: int = 0,
                 last_error: BaseException | None = None) -> None:
        super().__init__(reason)
        self.restarts = restarts
        self.last_error = last_error


class CircuitOpenError(CollectionError):
    """A fetcher's circuit breaker is open; route work elsewhere.

    Attributes:
        ip: the fetcher IP whose breaker rejected the request.
        retry_at: virtual-clock time of the next half-open probe.
    """

    def __init__(self, ip: str, retry_at: float) -> None:
        super().__init__(
            f"circuit open for {ip}; next probe at t={retry_at:.2f}"
        )
        self.ip = ip
        self.retry_at = retry_at


class FrameCrawlError(CollectionError):
    """One fetcher exhausted its retry budget on a single frame.

    Attributes:
        ip: the fetcher that gave up.
        attempts: how many attempts were spent.
        last_error: the final failure (``None`` if unknown).
    """

    def __init__(
        self, ip: str, attempts: int, last_error: BaseException | None
    ) -> None:
        super().__init__(
            f"fetcher {ip} gave up after {attempts} attempts: {last_error}"
        )
        self.ip = ip
        self.attempts = attempts
        self.last_error = last_error


class FrameDeadLettered(CollectionError):
    """A frame exhausted every fetcher and was parked on the DLQ."""


class ErrorClass(enum.Enum):
    """What a caller should do with an error mid-crawl."""

    #: Back-pressure: wait out the ``retry_after`` hint and retry.
    RATE_LIMITED = "rate_limited"
    #: Transient fault (503, timeout, truncated/degraded data, open
    #: breaker): retry with backoff, possibly on another fetcher.
    RETRYABLE = "retryable"
    #: Retrying cannot help (bad request, bad configuration, exhausted
    #: budgets): propagate.
    FATAL = "fatal"


def classify_error_type(error_type: type[BaseException]) -> ErrorClass:
    """Classify an exception *type*; total over :class:`ReproError`.

    The table is ordered most-specific first.  ``FrameCrawlError`` is
    fatal even though it wraps retryable causes: it means a retry budget
    is already spent.  ``TickCrashError`` and ``WatchdogTimeout`` are
    retryable *by the supervisor* — they surface above the per-frame
    retry loop (which never sees them), and the streaming tick they
    kill is retry-safe by construction.  ``SupervisorHalted`` is fatal:
    it means the restart budget itself is spent.  Anything unlisted —
    including future :class:`ReproError` subclasses — defaults to
    fatal, so a new fault type must be added here (and to the
    classifier property test) before the crawl will retry it.
    """
    if issubclass(error_type, RateLimitError):
        return ErrorClass.RATE_LIMITED
    if issubclass(error_type, (SupervisorHalted, FrameCrawlError, FrameDeadLettered)):
        return ErrorClass.FATAL
    if issubclass(
        error_type,
        (TransientServiceError, CircuitOpenError, TickCrashError, WatchdogTimeout),
    ):
        return ErrorClass.RETRYABLE
    return ErrorClass.FATAL


def classify_error(error: BaseException) -> ErrorClass:
    """Classify an exception instance (see :func:`classify_error_type`)."""
    return classify_error_type(type(error))
