"""Backend database for the collection module: the crawl frame cache.

The paper's implementation keeps a backend database into which the
responses gathered by the fetcher units are merged.  This is a thin
sqlite3 layer (``:memory:`` by default, a file path for persistence)
with one table, ``frames``: every raw frame response, keyed by
``(term, geo, window, sample_round)``.  Everything derived from the
frames (stitched series, spikes) is recomputed from this cache; a
study that must resume its *analysis* checkpoints into
:class:`repro.store.ColumnarStore` instead.

Concurrency model: the store is safe to use from many threads at once.

* **File-backed** paths get one connection *per thread* (sqlite
  connections are not thread-safe), WAL journaling so readers never
  block behind writers, and a generous busy timeout so concurrent
  writers serialize instead of failing.
* **In-memory** databases cannot share pages across connections, so a
  single connection is shared behind a lock instead.

``store_frames`` batches many frame inserts into one transaction —
the fast path for bulk crawls.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from collections.abc import Iterator, Sequence
from types import TracebackType

import numpy as np

from repro.errors import DatabaseError
from repro.timeutil import TimeWindow
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse

_SCHEMA = """
CREATE TABLE IF NOT EXISTS frames (
    term TEXT NOT NULL,
    geo TEXT NOT NULL,
    start TEXT NOT NULL,
    end TEXT NOT NULL,
    sample_round INTEGER NOT NULL,
    values_json TEXT NOT NULL,
    rising_json TEXT NOT NULL,
    fetched_by TEXT NOT NULL,
    PRIMARY KEY (term, geo, start, end, sample_round)
);
"""

_BUSY_TIMEOUT_MS = 30_000


class CollectionDatabase:
    """Caches crawled frame responses (one ``frames`` table)."""

    def __init__(self, path: str = ":memory:") -> None:
        self._path = path
        self._shared_memory = ":memory:" in path or path == ""
        self._lock = threading.RLock()
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._closed = False
        if self._shared_memory:
            self._shared: sqlite3.Connection | None = sqlite3.connect(
                path, check_same_thread=False
            )
            self._shared.executescript(_SCHEMA)
            self._shared.commit()
        else:
            self._shared = None
            with self._connect() as conn:  # create the schema eagerly
                conn.execute("SELECT 1")

    # -- connections -------------------------------------------------------------

    def _thread_connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            try:
                conn = sqlite3.connect(self._path)
            except sqlite3.OperationalError as error:
                raise DatabaseError(
                    f"cannot open database {self._path!r}: {error}"
                ) from error
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            conn.commit()
            self._local.conn = conn
            with self._lock:
                if self._closed:
                    self._local.conn = None
                    conn.close()
                    raise DatabaseError(f"database {self._path} is closed")
                self._connections.append(conn)
        return conn

    @contextlib.contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """The calling thread's connection, serialized for shared memory."""
        if self._closed:
            raise DatabaseError(f"database {self._path} is closed")
        if self._shared is not None:
            with self._lock:
                yield self._shared
        else:
            yield self._thread_connection()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._shared is not None:
                self._shared.close()
                self._shared = None
                return
            for conn in self._connections:
                with contextlib.suppress(sqlite3.Error):
                    conn.close()
            self._connections.clear()
            self._local = threading.local()

    def __enter__(self) -> "CollectionDatabase":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # -- frames ------------------------------------------------------------------

    @staticmethod
    def _frame_row(response: TimeFrameResponse, fetched_by: str) -> tuple:
        request = response.request
        rising = [[term.phrase, term.weight] for term in response.rising]
        return (
            request.term,
            request.geo,
            request.window.start.isoformat(),
            request.window.end.isoformat(),
            response.sample_round,
            json.dumps(response.values.tolist()),
            json.dumps(rising),
            fetched_by,
        )

    def store_frame(self, response: TimeFrameResponse, fetched_by: str) -> None:
        try:
            with self._connect() as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO frames VALUES (?,?,?,?,?,?,?,?)",
                    self._frame_row(response, fetched_by),
                )
                conn.commit()
        except sqlite3.Error as error:
            raise DatabaseError(f"failed to store frame: {error}") from error

    def store_frames(
        self, batch: list[tuple[TimeFrameResponse, str]]
    ) -> None:
        """Merge many ``(response, fetched_by)`` pairs in one transaction."""
        if not batch:
            return
        rows = [self._frame_row(response, fetched_by) for response, fetched_by in batch]
        try:
            with self._connect() as conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO frames VALUES (?,?,?,?,?,?,?,?)", rows
                )
                conn.commit()
        except sqlite3.Error as error:
            raise DatabaseError(f"failed to store frame batch: {error}") from error

    def load_frame(
        self, term: str, geo: str, window: TimeWindow, sample_round: int
    ) -> TimeFrameResponse | None:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT values_json, rising_json, sample_round FROM frames "
                "WHERE term=? AND geo=? AND start=? AND end=? AND sample_round=?",
                (
                    term,
                    geo,
                    window.start.isoformat(),
                    window.end.isoformat(),
                    sample_round,
                ),
            ).fetchone()
        if row is None:
            return None
        values_json, rising_json, stored_round = row
        request = TimeFrameRequest(term=term, geo=geo, window=window)
        rising = tuple(
            RisingTerm(phrase=phrase, weight=weight)
            for phrase, weight in json.loads(rising_json)
        )
        return TimeFrameResponse(
            request=request,
            values=np.array(json.loads(values_json), dtype=np.int16),
            rising=rising,
            sample_round=stored_round,
        )

    def frame_count(self) -> int:
        with self._connect() as conn:
            (count,) = conn.execute("SELECT COUNT(*) FROM frames").fetchone()
        return int(count)

    def frames_by_fetcher(self) -> dict[str, int]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT fetched_by, COUNT(*) FROM frames GROUP BY fetched_by"
            ).fetchall()
        return {fetcher: int(count) for fetcher, count in rows}

    # -- shard partitions --------------------------------------------------------

    def seed_partition(self, path: str, geos: Sequence[str]) -> None:
        """Copy this cache's frames of *geos* into a shard partition
        database (see :mod:`repro.runtime.shard`), so the shard's crawl
        is served from the cache exactly as a serial run's would be.
        """
        marks = ",".join("?" * len(geos))
        try:
            with contextlib.closing(sqlite3.connect(path)) as conn:
                conn.executescript(_SCHEMA)
                conn.execute("ATTACH DATABASE ? AS parent", (self._path,))
                conn.execute(
                    "INSERT OR REPLACE INTO frames SELECT * FROM parent.frames "
                    f"WHERE geo IN ({marks}) "
                    "ORDER BY term, geo, start, end, sample_round",
                    tuple(geos),
                )
                conn.commit()
        except sqlite3.Error as error:
            raise DatabaseError(
                f"failed to seed shard partition {path!r}: {error}"
            ) from error

    def merge_partition(self, path: str) -> None:
        """Merge a shard partition database (see :mod:`repro.runtime.shard`)
        into this one, in one transaction.

        Rows are copied in primary-key order — partitions shard by
        geography, so no two shards hold the same frame (rows seeded
        from this cache replace themselves), and the merged table holds
        exactly the frames a serial run would have cached, whatever
        order the shards finished in.
        """
        try:
            with self._connect() as conn:
                conn.execute("ATTACH DATABASE ? AS shard", (path,))
                try:
                    conn.execute(
                        "INSERT OR REPLACE INTO frames SELECT * FROM shard.frames "
                        "ORDER BY term, geo, start, end, sample_round"
                    )
                    conn.commit()
                finally:
                    conn.execute("DETACH DATABASE shard")
        except sqlite3.Error as error:
            raise DatabaseError(
                f"failed to merge shard partition {path!r}: {error}"
            ) from error
