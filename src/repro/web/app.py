"""A high-throughput web interface over SIFT results (paper §4).

The paper's system includes "a running web interface to display the
requested data to the SIFT user"; this is a dependency-free equivalent
on ``http.server``, built to serve read-mostly snapshots fast:

* all payloads come from a columnar :class:`~repro.web.index.QueryIndex`
  built once per study snapshot (see that module for the layout);
* responses are cached as fully **encoded bytes** in an LRU keyed by
  canonicalized queries — equivalent filters share one entry;
* every snapshot carries a monotonically increasing version that yields
  strong ETags, so conditional requests (``If-None-Match``) revalidate
  with a 304 and zero body bytes;
* clients sending ``Accept-Encoding: gzip`` get a gzip representation,
  compressed once per cached entry;
* JSON is compact by default; ``?pretty=1`` opts into indentation.

The request routing is a pure function (:meth:`SiftWebApp.handle_request`
and the legacy tuple form :meth:`SiftWebApp.handle_path`), so tests and
benchmarks exercise every endpoint without sockets; :func:`serve` binds
the same app to a real ``ThreadingHTTPServer``.

Endpoints::

    GET /                      HTML overview with a timeline sketch
    GET /api/geos              known geographies
    GET /api/summary           study-wide headline stats
    GET /api/timeline?geo=US-TX[&start=ISO&end=ISO]   series + aggregates
    GET /api/spikes?geo=US-TX[&min_hours=N]           detected spikes
    GET /api/outages[?min_states=N]                   grouped outages
    GET /api/runtime                                  telemetry (uncached)
    GET /api/stream[?since=SEQ&timeout=S]             long-poll event feed
    GET /healthz                                      liveness + health state
    GET /readyz                                       readiness (503 halted)

All JSON endpoints accept ``pretty=1``.  Duplicated query parameters
and unknown parameters are rejected with a 400 (silent drops would
poison the cache keyspace).

Degraded-mode serving: when a ``health_source`` (the supervisor's
``health_payload``) is wired in, ``/healthz`` and ``/readyz`` report
its state, ``/api/runtime`` carries an explicit ``staleness`` field,
and the app keeps answering every read from the last installed
snapshot while the daemon restarts — stale-while-degraded, never
down.  ``max_inflight`` bounds concurrent admission: excess requests
are shed with ``503 Retry-After`` (the only deliberate 5xx) instead
of queueing without bound.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import threading
import time
from collections import OrderedDict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.analysis.reporting import render_timeline
from repro.collection.scheduler import CrawlReport
from repro.core.pipeline import StudyResult
from repro.core.progress import (
    DeltaInstalled,
    ProgressEvent,
    ProgressListener,
    ProgressLog,
    ServingStats,
    ShardStats,
    SnapshotInstalled,
    SpikePublished,
)
from repro.errors import ReproError
from repro.timeutil import TimeWindow, hour_at
from repro.trends.faults import FaultReport
from repro.web.index import QueryIndex, parse_window_param

_COMPACT_SEPARATORS = (",", ":")
_JSON_TYPE = "application/json"
_HTML_TYPE = "text/html; charset=utf-8"
#: Snapshots change only when a new study installs, so clients may cache
#: briefly but must revalidate (the ETag makes revalidation one RTT).
_CACHE_CONTROL = "public, max-age=60, must-revalidate"
_NO_STORE = "no-store"
#: Bodies below this size are served identity-encoded even to gzip
#: clients: the header overhead outweighs the savings.
_MIN_GZIP_BYTES = 256

#: Route table: path -> (planner method name, allowed query parameters).
_ROUTES: dict[str, tuple[str, frozenset[str]]] = {
    "/": ("_plan_index", frozenset({"geo"})),
    "/api/geos": ("_plan_geos", frozenset({"pretty"})),
    "/api/summary": ("_plan_summary", frozenset({"pretty"})),
    "/api/timeline": (
        "_plan_timeline",
        frozenset({"geo", "start", "end", "pretty"}),
    ),
    "/api/spikes": ("_plan_spikes", frozenset({"geo", "min_hours", "pretty"})),
    "/api/outages": ("_plan_outages", frozenset({"min_states", "pretty"})),
    "/api/runtime": ("_plan_runtime", frozenset({"type", "pretty"})),
    "/api/stream": ("_plan_stream", frozenset({"since", "timeout", "pretty"})),
    "/healthz": ("_plan_healthz", frozenset({"pretty"})),
    "/readyz": ("_plan_readyz", frozenset({"pretty"})),
}

#: Probe endpoints exempt from load shedding: health checks must answer
#: precisely when the server is too busy to answer anything else.
_PROBE_PATHS = frozenset({"/healthz", "/readyz"})


def _encode_json(payload: object, pretty: bool) -> bytes:
    if pretty:
        return json.dumps(payload, indent=1).encode("utf-8")
    return json.dumps(payload, separators=_COMPACT_SEPARATORS).encode("utf-8")


def _truthy(value: str | None) -> bool:
    return value is not None and value.lower() not in ("", "0", "false", "no", "off")


def _etag_matches(header: str | None, etag: str) -> bool:
    if not header:
        return False
    if header.strip() == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


@dataclasses.dataclass(frozen=True, slots=True)
class WebResponse:
    """A fully-formed HTTP response: status, header pairs, body bytes."""

    status: int
    headers: tuple[tuple[str, str], ...]
    body: bytes

    def header(self, name: str) -> str | None:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    @property
    def content_type(self) -> str:
        return self.header("Content-Type") or ""


class _CacheEntry:
    """One cached representation set: identity bytes + lazy gzip."""

    __slots__ = ("body", "etag", "gzip_body", "gzip_etag")

    def __init__(self, body: bytes, etag: str) -> None:
        self.body = body
        self.etag = etag
        self.gzip_body: bytes | None = None
        self.gzip_etag: str | None = None

    def gzipped(self) -> tuple[bytes, str]:
        if self.gzip_body is None:
            # mtime=0 keeps the compressed bytes deterministic.
            self.gzip_body = gzip.compress(self.body, mtime=0)
            self.gzip_etag = f'{self.etag[:-1]}+gzip"'
        return self.gzip_body, self.gzip_etag  # type: ignore[return-value]


class ResponseCache:
    """A capacity-bounded LRU over fully-encoded response bodies."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> _CacheEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: _CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def invalidate(self, predicate) -> int:
        """Drop every entry whose key satisfies *predicate*; returns count.

        The delta-install path uses this to evict only the responses a
        streamed tick actually changed, leaving still-valid encoded
        bodies (and their ETags) in place.
        """
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0


class ServingTelemetry:
    """Request accounting: volumes, savings, handle-time percentiles."""

    def __init__(self, window: int = 4096) -> None:
        self.requests = 0
        self.errors = 0
        self.not_modified = 0
        self.bytes_served = 0
        self.bytes_saved = 0
        #: Requests rejected by bounded admission (deliberate 503s).
        self.shed = 0
        self._seconds: deque[float] = deque(maxlen=window)

    def record(self, seconds: float) -> None:
        self.requests += 1
        self._seconds.append(seconds)

    def percentile_ms(self, percent: float) -> float:
        if not self._seconds:
            return 0.0
        ordered = sorted(self._seconds)
        rank = min(
            len(ordered) - 1, max(0, round(percent / 100 * (len(ordered) - 1)))
        )
        return ordered[rank] * 1000.0


class SiftWebApp:
    """Routes paths to cached, pre-encoded payloads over a study snapshot.

    ``progress_log``, ``crawl_report`` and ``fault_report`` are optional
    runtime telemetry surfaced by ``/api/runtime``.  The serving knobs:

    * ``cache_size`` — LRU entry bound of the response cache;
    * ``caching`` — disable the response cache entirely (payloads still
      come from the :class:`QueryIndex`); responses are byte-identical
      with caching on or off;
    * ``preload`` — pre-encode the hot payloads (geos, summary, default
      outages, per-geo full timelines and spike lists) at snapshot
      install, so even first requests are cache hits;
    * ``progress`` — a structured-event listener receiving
      :class:`SnapshotInstalled` and periodic :class:`ServingStats`;
    * ``health_source`` — a zero-argument callable (the supervisor's
      ``health_payload``) backing ``/healthz``, ``/readyz`` and the
      runtime ``health`` / ``staleness`` fields;
    * ``max_inflight`` — bound on concurrently-admitted requests;
      excess load is shed with ``503 Retry-After`` (``None`` = no
      bound; probe endpoints are always exempt);
    * ``stream_buffer`` — capacity of the ``/api/stream`` event ring.
    """

    def __init__(
        self,
        study: StudyResult,
        progress_log: ProgressLog | None = None,
        crawl_report: CrawlReport | None = None,
        fault_report: FaultReport | None = None,
        execution: dict | None = None,
        *,
        cache_size: int = 512,
        caching: bool = True,
        preload: bool = True,
        progress: ProgressListener | None = None,
        stats_interval: int = 1000,
        health_source=None,
        max_inflight: int | None = None,
        stream_buffer: int = 1024,
    ) -> None:
        self.progress_log = progress_log
        self.crawl_report = crawl_report
        self.fault_report = fault_report
        #: Execution policy of the run that produced the study (executor
        #: kind, worker count, stores) as reported by ``/api/runtime``.
        self.execution = execution
        self._caching = caching
        self._preload = preload
        self._progress = progress
        self._stats_interval = max(1, stats_interval)
        self.health_source = health_source
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be positive: {max_inflight}")
        self._max_inflight = max_inflight
        self._inflight = 0
        self._admission_lock = threading.Lock()
        self._lock = threading.RLock()
        self._cache = ResponseCache(cache_size)
        self._telemetry = ServingTelemetry()
        self._snapshot = 0
        self._preloaded = 0
        #: Stream tick of the installed snapshot (``None`` = a complete
        #: batch study); /api/runtime's staleness field reports it.
        self._installed_tick: int | None = None
        # /api/stream: a sequence-numbered event ring consumed by
        # long-polling dashboards.  Guarded by its own lock so a waiting
        # poll never blocks snapshot installs or cached serving.
        if stream_buffer < 1:
            raise ValueError(f"stream_buffer must be positive: {stream_buffer}")
        self._stream_cond = threading.Condition(threading.Lock())
        self._stream_events: deque[tuple[int, dict]] = deque(maxlen=stream_buffer)
        self._stream_seq = 0
        self.install_study(study)

    # -- snapshot lifecycle ---------------------------------------------------

    def install_study(
        self, study: StudyResult, stream_tick: int | None = None
    ) -> None:
        """Swap in a new study snapshot.

        Rebuilds the :class:`QueryIndex`, bumps the snapshot version
        (which changes every ETag), drops all cached responses, resets
        the serving counters, and re-warms the hot payloads.  A
        supervisor resynchronizing mid-stream passes *stream_tick* (the
        last tick the snapshot covers) so the staleness field stays
        truthful; batch installs leave it ``None`` (complete).
        """
        with self._lock:
            self.study = study
            self.index = QueryIndex(study)
            self._installed_tick = stream_tick
            self._snapshot += 1
            self._cache.clear()
            self._cache.reset_stats()
            self._telemetry = ServingTelemetry()
            self._preloaded = 0
            if self._caching and self._preload:
                self._preloaded = self._warm_hot_paths()
        installed = SnapshotInstalled(
            snapshot=self._snapshot,
            fingerprint=self.index.fingerprint,
            geo_count=len(self.index.geos),
            preloaded=self._preloaded,
        )
        self._emit(installed)
        self.publish_stream_events([installed])

    def install_delta(self, study: StudyResult, delta) -> DeltaInstalled:
        """Install a streamed tick without rebuilding the snapshot.

        *delta* is a :class:`repro.streaming.delta.StudyDelta`.  The
        :class:`QueryIndex` extends its columns in place
        (``apply_delta``), the snapshot version still bumps (new
        responses get new ETags), but instead of dropping the whole
        response cache only the entries the tick touched are evicted:

        * ``timeline`` entries for a changed geography whose window
          reaches past the geography's previous length, or whose column
          had to be rebuilt (scale moved / prefix rewritten) — a window
          entirely inside the untouched prefix stays byte-valid, and
          its ETag still names exactly those bytes;
        * ``spikes`` entries for geographies whose spike set changed;
        * all study-wide entries (summary, outages, index pages) — they
          embed counts and the fingerprint.

        ``SpikePublished`` events for the tick's new spikes plus one
        :class:`DeltaInstalled` land on the ``/api/stream`` feed.
        """
        published = delta.published
        with self._lock:
            self.study = study
            rebuilt = self.index.apply_delta(study, delta)
            self._installed_tick = delta.tick
            self._snapshot += 1
            invalidated = 0
            if self._caching:
                invalidated = self._cache.invalidate(
                    lambda key: self._delta_affects(key[0], delta)
                )
            retained = len(self._cache)
            installed = DeltaInstalled(
                snapshot=self._snapshot,
                fingerprint=self.index.fingerprint,
                tick=delta.tick,
                appended_hours=delta.appended_hours,
                rebuilt_columns=rebuilt,
                invalidated=invalidated,
                retained=retained,
                published=len(published),
            )
        events: list[ProgressEvent] = [
            SpikePublished(
                geo=spike.geo,
                tick=delta.tick,
                start=spike.start.isoformat(),
                peak=spike.peak.isoformat(),
                end=spike.end.isoformat(),
                magnitude=spike.magnitude,
                duration_hours=spike.duration_hours,
            )
            for spike in published
        ]
        events.append(installed)
        self._emit(installed)
        self.publish_stream_events(events)
        return installed

    @staticmethod
    def _delta_affects(plan_key: tuple, delta) -> bool:
        """Does a cached plan's payload depend on what the tick changed?"""
        kind = plan_key[0]
        if kind == "timeline":
            _, geo, lo, hi = plan_key
            geo_delta = delta.geos.get(geo)
            if geo_delta is None:
                return False
            return geo_delta.scale_changed or hi > geo_delta.old_hours
        if kind == "spikes":
            _, geo, _cut = plan_key
            geo_delta = delta.geos.get(geo)
            return geo_delta is not None and geo_delta.spikes_changed
        # Study-wide payloads (summary, outages, geos, index HTML) embed
        # counts or the fingerprint; anything unrecognized evicts too.
        return True

    @property
    def snapshot_version(self) -> int:
        return self._snapshot

    @property
    def cache(self) -> ResponseCache:
        return self._cache

    def _warm_hot_paths(self) -> int:
        """Pre-encode the read-mostly payloads into the cache."""
        plans = [
            self._plan_index({}),
            self._plan_geos({}),
            self._plan_summary({}),
            self._plan_outages({}),
        ]
        for geo in self.index.geos:
            plans.append(self._plan_timeline({"geo": geo}))
            plans.append(self._plan_spikes({"geo": geo}))
        for key, build, content_type in plans:
            body = self._render(build, content_type, pretty=False)
            self._cache.put((key, False), _CacheEntry(body, self._make_etag(body)))
        return len(plans)

    # -- request handling -----------------------------------------------------

    def handle_request(
        self,
        path: str,
        headers: dict[str, str] | None = None,
        method: str = "GET",
    ) -> WebResponse:
        """Serve one request; ``headers`` may carry the conditional and
        content-negotiation request headers (``If-None-Match``,
        ``Accept-Encoding``).

        Bounded admission happens here, before any work: with
        ``max_inflight`` set, a request arriving while that many others
        are in flight is shed with a ``503 Retry-After`` — a deliberate,
        bounded answer instead of an unbounded queue.  Probe endpoints
        are never shed.
        """
        started = time.perf_counter()
        counted = False
        if (
            self._max_inflight is not None
            and urlparse(path).path not in _PROBE_PATHS
        ):
            shed = False
            with self._admission_lock:
                if self._inflight >= self._max_inflight:
                    shed = True
                else:
                    self._inflight += 1
                    counted = True
            if shed:
                return self._shed_response()
        try:
            response = self._dispatch(path, headers or {})
        finally:
            if counted:
                with self._admission_lock:
                    self._inflight -= 1
        with self._lock:
            self._telemetry.record(time.perf_counter() - started)
            requests = self._telemetry.requests
        if requests % self._stats_interval == 0:
            self._emit(self.serving_stats())
        return response

    def _shed_response(self) -> WebResponse:
        with self._lock:
            self._telemetry.shed += 1
        body = _encode_json(
            {"error": "server at capacity; retry shortly"}, pretty=False
        )
        return WebResponse(
            503,
            (
                ("Content-Type", _JSON_TYPE),
                ("Content-Length", str(len(body))),
                ("Retry-After", "1"),
                ("Cache-Control", _NO_STORE),
            ),
            body,
        )

    def handle_path(self, path: str) -> tuple[int, str, str]:
        """Legacy tuple form: (status, content type, body text)."""
        response = self.handle_request(path)
        return response.status, response.content_type, response.body.decode("utf-8")

    def _dispatch(self, path: str, request_headers: dict[str, str]) -> WebResponse:
        parsed = urlparse(path)
        route = _ROUTES.get(parsed.path)
        if route is None:
            return self._error_response(404, f"unknown path: {parsed.path}")
        planner_name, allowed = route
        query = parse_qs(parsed.query, keep_blank_values=True)
        duplicated = sorted(name for name, values in query.items() if len(values) > 1)
        if duplicated:
            return self._error_response(
                400, f"duplicated query parameter(s): {', '.join(duplicated)}"
            )
        params = {name: values[0] for name, values in query.items()}
        unknown = sorted(set(params) - allowed)
        if unknown:
            return self._error_response(
                400, f"unknown query parameter(s): {', '.join(unknown)}"
            )
        pretty = _truthy(params.get("pretty"))
        try:
            if planner_name == "_plan_runtime":
                body = _encode_json(self._runtime(params), pretty)
                return WebResponse(
                    200,
                    (
                        ("Content-Type", _JSON_TYPE),
                        ("Content-Length", str(len(body))),
                        ("Cache-Control", _NO_STORE),
                    ),
                    body,
                )
            if planner_name == "_plan_stream":
                body = _encode_json(self._stream_payload(params), pretty)
                return WebResponse(
                    200,
                    (
                        ("Content-Type", _JSON_TYPE),
                        ("Content-Length", str(len(body))),
                        ("Cache-Control", _NO_STORE),
                    ),
                    body,
                )
            if planner_name in ("_plan_healthz", "_plan_readyz"):
                status, payload = getattr(self, planner_name)()
                body = _encode_json(payload, pretty)
                return WebResponse(
                    status,
                    (
                        ("Content-Type", _JSON_TYPE),
                        ("Content-Length", str(len(body))),
                        ("Cache-Control", _NO_STORE),
                    ),
                    body,
                )
            key, build, content_type = getattr(self, planner_name)(params)
        except (KeyError, ValueError, ReproError) as error:
            return self._error_response(400, str(error))
        return self._serve_cacheable(
            (key, pretty), build, content_type, pretty, request_headers
        )

    def _serve_cacheable(
        self,
        key: tuple,
        build,
        content_type: str,
        pretty: bool,
        request_headers: dict[str, str],
    ) -> WebResponse:
        accepts_gzip = "gzip" in (
            request_headers.get("Accept-Encoding") or ""
        ).lower()
        with self._lock:
            entry = self._cache.get(key) if self._caching else None
            if entry is None:
                body = self._render(build, content_type, pretty)
                entry = _CacheEntry(body, self._make_etag(body))
                if self._caching:
                    self._cache.put(key, entry)
                hit = False
            else:
                hit = True
                # Encoded bytes we did not have to rebuild.
                self._telemetry.bytes_saved += len(entry.body)
            body, etag = entry.body, entry.etag
            content_encoding = None
            if accepts_gzip and len(entry.body) >= _MIN_GZIP_BYTES:
                body, etag = entry.gzipped()
                content_encoding = "gzip"
            if _etag_matches(request_headers.get("If-None-Match"), etag):
                self._telemetry.not_modified += 1
                # Body bytes the 304 kept off the wire.
                self._telemetry.bytes_saved += len(body)
                return WebResponse(
                    304,
                    (
                        ("ETag", etag),
                        ("Cache-Control", _CACHE_CONTROL),
                        ("Vary", "Accept-Encoding"),
                    ),
                    b"",
                )
            self._telemetry.bytes_served += len(body)
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
            ("ETag", etag),
            ("Cache-Control", _CACHE_CONTROL),
            ("Vary", "Accept-Encoding"),
            ("X-Cache", "hit" if hit else "miss"),
        ]
        if content_encoding:
            headers.append(("Content-Encoding", content_encoding))
        return WebResponse(200, tuple(headers), body)

    def _render(self, build, content_type: str, pretty: bool) -> bytes:
        payload = build()
        if content_type == _HTML_TYPE:
            return payload.encode("utf-8")
        return _encode_json(payload, pretty)

    def _make_etag(self, body: bytes) -> str:
        digest = hashlib.sha256(body).hexdigest()[:16]
        return f'"s{self._snapshot}-{self.index.fingerprint[:8]}-{digest}"'

    def _error_response(self, status: int, message: str) -> WebResponse:
        body = _encode_json({"error": message}, pretty=False)
        with self._lock:
            self._telemetry.errors += 1
        return WebResponse(
            status,
            (
                ("Content-Type", _JSON_TYPE),
                ("Content-Length", str(len(body))),
                ("Cache-Control", _NO_STORE),
            ),
            body,
        )

    # -- route planners -------------------------------------------------------
    # Each returns (canonical cache key, payload builder, content type);
    # the key never contains raw parameter spellings, only resolved
    # values, so equivalent queries collapse into one cache entry.

    def _require_geo(self, params: dict[str, str]) -> str:
        geo = params.get("geo")
        if not geo:
            raise ValueError("missing required parameter: geo")
        return geo

    def _plan_index(self, params: dict[str, str]):
        geo = params.get("geo") or (self.index.geos[0] if self.index.geos else "")
        return ("index", geo), (lambda: self._index_html(geo)), _HTML_TYPE

    def _plan_geos(self, params: dict[str, str]):
        return ("geos",), (lambda: list(self.index.geos)), _JSON_TYPE

    def _plan_summary(self, params: dict[str, str]):
        return ("summary",), self.index.summary_payload, _JSON_TYPE

    def _plan_timeline(self, params: dict[str, str]):
        geo = self._require_geo(params)
        column = self.index.column(geo)
        start, end = params.get("start"), params.get("end")
        if start is None and end is None:
            lo, hi = 0, column.hours
        else:
            window = TimeWindow(
                parse_window_param(start) if start else column.start,
                parse_window_param(end)
                if end
                else hour_at(column.start, column.hours),
            )
            lo, hi = column.locate(window)
        return (
            ("timeline", geo, lo, hi),
            (lambda: self.index.timeline_payload(geo, lo, hi)),
            _JSON_TYPE,
        )

    def _plan_spikes(self, params: dict[str, str]):
        geo = self._require_geo(params)
        table = self.index.spike_table(geo)
        cut = table.cut(int(params.get("min_hours", 1)))
        return (
            ("spikes", geo, cut),
            (lambda: self.index.spikes_payload(geo, cut)),
            _JSON_TYPE,
        )

    def _plan_outages(self, params: dict[str, str]):
        cut = self.index.outages.cut(int(params.get("min_states", 1)))
        return (
            ("outages", cut),
            (lambda: self.index.outages_payload(cut)),
            _JSON_TYPE,
        )

    def _plan_runtime(self, params: dict[str, str]):  # pragma: no cover
        raise AssertionError("runtime responses are served uncached")

    def _plan_stream(self, params: dict[str, str]):  # pragma: no cover
        raise AssertionError("stream responses are served uncached")

    # -- health probes --------------------------------------------------------

    def _health(self) -> dict | None:
        """The supervisor's health payload, or ``None`` unsupervised."""
        if self.health_source is None:
            return None
        return self.health_source()

    def _staleness(self) -> dict:
        """How far behind the stream head the served snapshot may be."""
        health = self._health()
        with self._lock:
            tick = self._installed_tick
            snapshot = self._snapshot
        stale = health is not None and health.get("state") != "healthy"
        payload: dict = {
            "snapshot": snapshot,
            "installed_tick": tick,
            #: True while the daemon is degraded/halted: reads keep
            #: answering from this snapshot, which may trail the stream.
            "serving_stale": stale,
        }
        if health is not None and tick is not None:
            done = health.get("ticks_done")
            if done is not None:
                payload["ticks_behind"] = max(0, int(done) - (tick + 1))
        return payload

    def _plan_healthz(self) -> tuple[int, dict]:
        """Liveness: answering at all means the serving process lives.

        Always 200 — a halted daemon still leaves reads up (that is the
        whole point of stale-while-degraded); the body carries the
        supervisor state for anything that wants to alert on it.
        """
        health = self._health()
        return 200, {
            "status": "ok",
            "health": health,
            "staleness": self._staleness(),
        }

    def _plan_readyz(self) -> tuple[int, dict]:
        """Readiness: should a load balancer route new traffic here?

        Ready while healthy or degraded (stale reads are served
        deliberately); 503 once the supervisor halts — the snapshot
        will never advance again, so traffic should fail over.
        """
        health = self._health()
        halted = health is not None and health.get("state") == "halted"
        return (503 if halted else 200), {
            "status": "halted" if halted else "ok",
            "health": health,
            "staleness": self._staleness(),
        }

    # -- the event stream -----------------------------------------------------

    def publish_stream_events(self, events) -> None:
        """Append progress events to the ``/api/stream`` feed."""
        with self._stream_cond:
            for event in events:
                self._stream_seq += 1
                self._stream_events.append((self._stream_seq, event.to_dict()))
            self._stream_cond.notify_all()

    def _stream_payload(self, params: dict[str, str]) -> dict:
        """Long-poll over the event ring.

        ``since=SEQ`` returns only events newer than *SEQ*;
        ``timeout=SECONDS`` (capped at 30) blocks until something newer
        arrives or the timeout lapses.  Each event carries its ``seq``,
        so a dashboard loops ``since=<last next_since>``.  The ring is
        bounded: a client further behind than its capacity misses the
        overwritten events (``oldest_seq`` reveals the gap).
        """
        since = int(params.get("since", 0))
        timeout = min(max(float(params.get("timeout", 0.0)), 0.0), 30.0)
        deadline = time.monotonic() + timeout
        with self._stream_cond:
            while self._stream_seq <= since:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._stream_cond.wait(remaining)
            events = [
                {"seq": seq, **payload}
                for seq, payload in self._stream_events
                if seq > since
            ]
            oldest = self._stream_events[0][0] if self._stream_events else 0
            # The client asked to resume from a cursor older than the
            # ring's tail: events in (since, oldest) were overwritten.
            gap = since > 0 and oldest > since + 1
            return {
                "since": since,
                "next_since": self._stream_seq,
                "oldest_seq": oldest,
                "gap": gap,
                "events": events,
            }

    # -- dynamic payloads -----------------------------------------------------

    def serving_stats(self) -> ServingStats:
        """Current serving telemetry as a structured progress event."""
        with self._lock:
            telemetry, cache = self._telemetry, self._cache
            return ServingStats(
                snapshot=self._snapshot,
                fingerprint=self.index.fingerprint,
                requests=telemetry.requests,
                hits=cache.hits,
                misses=cache.misses,
                not_modified=telemetry.not_modified,
                errors=telemetry.errors,
                evictions=cache.evictions,
                entries=len(cache),
                capacity=cache.capacity,
                preloaded=self._preloaded,
                bytes_served=telemetry.bytes_served,
                bytes_saved=telemetry.bytes_saved,
                shed=telemetry.shed,
                p50_handle_ms=round(telemetry.percentile_ms(50), 4),
                p99_handle_ms=round(telemetry.percentile_ms(99), 4),
            )

    def _runtime(self, params: dict[str, str]) -> dict:
        kind = params.get("type")
        events = []
        if self.progress_log is not None:
            events = [
                event.to_dict()
                for event in self.progress_log.events()
                if kind is None or type(event).__name__ == kind
            ]
        crawl = None
        if self.crawl_report is not None:
            report = self.crawl_report
            crawl = {
                "requested": report.requested,
                "fetched": report.fetched,
                "served_from_cache": report.served_from_cache,
                "retries": report.retries,
                "elapsed_seconds": round(report.elapsed_seconds, 3),
                "frames_per_second": round(report.frames_per_second, 1),
                "per_fetcher": dict(report.per_fetcher),
                "dead_lettered": report.dead_lettered,
            }
        faults = (
            self.fault_report.to_dict() if self.fault_report is not None else None
        )
        return {
            "resumed_geos": list(self.study.resumed_geos),
            "event_count": len(events),
            "events": events,
            "crawl": crawl,
            "faults": faults,
            "reconstruction": self._reconstruction(),
            "execution": self._execution(),
            "serving": self.serving_stats().to_dict(),
            "health": self._health(),
            "staleness": self._staleness(),
        }

    def _execution(self) -> dict | None:
        """Execution policy plus per-shard wall-clock / peak-RSS rows.

        The shard rows come from the :class:`ShardStats` events every
        executor emits (worker processes forward theirs through the
        shard queue), so even a serial run reports its memory profile.
        """
        shards = []
        if self.progress_log is not None:
            shards = [
                event.to_dict()
                for event in self.progress_log.of_type(ShardStats)
            ]
        if self.execution is None and not shards:
            return None
        payload = dict(self.execution) if self.execution is not None else {}
        payload["shards"] = shards
        return payload

    def _reconstruction(self) -> dict:
        """Per-geo stitch diagnostics of the served snapshot."""
        per_geo = {}
        for geo in sorted(self.study.states):
            report = self.study.states[geo].averaging.stitch_report
            per_geo[geo] = {
                "frames": report.frames,
                "carried_ratios": report.carried_ratios,
                "carried_positions": list(report.carried_positions),
                "ratio_spread": round(report.ratio_spread, 4),
            }
        return {"per_geo": per_geo}

    def _index_html(self, geo: str) -> str:
        rows = [
            "<!doctype html><html><head><title>SIFT</title></head><body>",
            "<h1>SIFT &mdash; user-affecting Internet outages</h1>",
            f"<p>{self.study.spike_count} spikes, {len(self.study.outages)} "
            f"outages across {len(self.study.states)} geographies.</p>",
        ]
        result = self.study.states.get(geo)
        if result is not None:
            sketch = render_timeline(result.timeline.values, title="")
            rows.append(f"<h2>{geo} timeline</h2><pre>{sketch}</pre>")
            top = self.study.spikes.in_state(geo).top_by_duration(5)
            rows.append("<h2>Top spikes</h2><ul>")
            rows.extend(
                f"<li>{spike.label} &mdash; {spike.duration_hours} h "
                f"&mdash; {', '.join(spike.annotations) or 'unannotated'}</li>"
                for spike in top
            )
            rows.append("</ul>")
        rows.append("</body></html>")
        return "".join(rows)

    # -- progress -------------------------------------------------------------

    def _emit(self, event) -> None:
        if self._progress is not None:
            self._progress(event)


class _Handler(BaseHTTPRequestHandler):
    app: SiftWebApp  # injected by serve()

    #: Keep-alive: every non-304 response carries Content-Length.
    protocol_version = "HTTP/1.1"

    #: TCP_NODELAY: headers and body go out as separate writes, and
    #: with Nagle enabled the second write stalls behind the client's
    #: delayed ACK (~40ms per keep-alive request).
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._respond(include_body=True)

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        self._respond(include_body=False)

    def _respond(self, include_body: bool) -> None:
        response = self.app.handle_request(
            self.path,
            headers={
                "If-None-Match": self.headers.get("If-None-Match", ""),
                "Accept-Encoding": self.headers.get("Accept-Encoding", ""),
            },
        )
        self.send_response(response.status)
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        # 304 carries no body by definition; HEAD sends headers only.
        if include_body and response.status != 304 and response.body:
            self.wfile.write(response.body)

    def log_message(self, format: str, *args: object) -> None:
        pass  # keep pytest output clean


def serve(
    study: StudyResult,
    host: str = "127.0.0.1",
    port: int = 0,
    progress_log: ProgressLog | None = None,
    crawl_report: CrawlReport | None = None,
    fault_report: FaultReport | None = None,
    execution: dict | None = None,
    *,
    cache_size: int = 512,
    caching: bool = True,
    preload: bool = True,
    progress: ProgressListener | None = None,
    health_source=None,
    max_inflight: int | None = None,
    stream_buffer: int = 1024,
) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Serve a study over HTTP; returns (server, daemon thread).

    ``port=0`` picks a free port (see ``server.server_address``).  Call
    ``server.shutdown()`` to stop.  The bound :class:`SiftWebApp` is
    available as ``server.app``.
    """
    app = SiftWebApp(
        study,
        progress_log=progress_log,
        crawl_report=crawl_report,
        fault_report=fault_report,
        execution=execution,
        cache_size=cache_size,
        caching=caching,
        preload=preload,
        progress=progress,
        health_source=health_source,
        max_inflight=max_inflight,
        stream_buffer=stream_buffer,
    )
    return serve_app(app, host=host, port=port)


def serve_app(
    app: SiftWebApp, host: str = "127.0.0.1", port: int = 0
) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Bind an already-built app (e.g. one a stream daemon installs
    deltas into) to a real HTTP server; returns (server, daemon thread).
    """
    handler = type("BoundHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.app = app  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
