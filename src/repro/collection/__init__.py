"""Data extraction and collection module (paper §4, Implementation).

Maps the crawl workload onto fetcher units hosted behind separate IP
addresses (defeating per-IP rate limits politely), and merges their
responses into a unified sqlite-backed frame cache.
"""

from repro.collection.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.collection.database import CollectionDatabase
from repro.collection.fetchers import FetcherUnit, WorkItem, build_fleet
from repro.collection.scheduler import (
    CollectionManager,
    CollectionScheduler,
    CrawlReport,
    DeadLetter,
    DeadLetterQueue,
)

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CollectionDatabase",
    "CollectionManager",
    "CollectionScheduler",
    "CrawlReport",
    "DeadLetter",
    "DeadLetterQueue",
    "FetcherUnit",
    "WorkItem",
    "build_fleet",
]
