"""The four benchmark workloads and the loop that measures them.

Every workload derives its inputs from the run's seed (the world seed
of the simulated deployment) and runs in the calling process.  Each
one is a closed loop: the next operation starts when the previous one
returned.  A run measures a fixed amount of work (:class:`Shape`), so
two commits always measure the same inputs however fast they are.

Every workload reports the same end-to-end metrics (a harness compares
them workload by workload).  Each workload times the operations it has
under names of its own and maps them onto the timing metrics in its
``TIMINGS`` table:

* ``batch_paper`` / ``batch_parallel`` — a whole study (``run_study``,
  annotation included), each geography inside it, and the whole
  ``sift study`` command (build, study, close);
* ``stream_watch`` — a tick up to the return of the web app's
  ``install_delta`` (publish), the whole ``tick()`` call with its stream
  checkpoint (durable), and the dashboard reads after every tick;
* ``serve_http`` — one HTTP request over a keep-alive connection.

Stores live under the run's work directory inside the checkout and see
tmpfs semantics (:class:`TmpfsOs`): the benchmark measures the store's
CPU and write path, not the disk's flush latency (see
``bench/README.md``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import http.client
import importlib
import json
import os
import random
import resource
import shutil
import stat
import statistics
import threading
import time
from collections import Counter, defaultdict
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from repro.core.averaging import AveragingConfig
from repro.core.pipeline import SiftConfig, StateResult
from repro.core.progress import GeoFinished, ShardStats
from repro.errors import ReproError
from repro.runtime import ALL_GEOS, StudyRuntime
from repro.store import ColumnarStore
from repro.timeutil import utc
from repro.web import SiftWebApp
from repro.web.app import serve_app

from bench.layers import instrument, layer_metrics, layer_table
from bench.tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent

DEFAULT_SEED = 20221025
#: The ``--seconds`` the counts in :class:`Shape` are sized for
#: (``run_seconds`` in ``BENCHMARK.json``); other values scale them.
NOMINAL_SECONDS = 10.0
#: Low background event scale: the study measures the pipeline, not
#: event generation.
SCALE = 0.05
#: Set-up repeats per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Worlds a batch run cycles through: study *i* uses ``seed + i % 3``.
#: Worlds differ in how many fetch rounds converge and how many spikes
#: need annotating, which moves study time by several percent.
WORLDS = 3
#: Fixed fetch rounds per streamed frame (batch parity needs min == max).
STREAM_ROUNDS = 2
#: Geographies re-analyzed on a fresh serial runtime as the batch oracle.
ORACLE_GEOS = 2
#: The streamed study's pipeline: annotation is a global two-pass stage
#: the daemon defers, and batch parity needs fixed rounds.
STREAM_SIFT = SiftConfig(
    annotate=False,
    averaging=AveragingConfig(min_rounds=STREAM_ROUNDS, max_rounds=STREAM_ROUNDS),
)


@dataclasses.dataclass(frozen=True)
class Shape:
    """The size of every workload's input."""

    name: str
    #: Geographies of the batch studies and of the served study.
    geos: tuple[str, ...]
    #: Geographies the stream watches.
    stream_geos: tuple[str, ...]
    batch_start: datetime
    batch_end: datetime
    stream_end: datetime
    #: Studies per batch run and measured requests per HTTP run at
    #: :data:`NOMINAL_SECONDS`; a stream run measures every tick after
    #: tick 0.
    studies: int
    requests: int
    warmup_requests: int
    verify_paths: int
    windows_per_burst: int


#: Sized so that one run of every workload takes 10-20 s on a 2-core
#: host: a batch study covers the year of the Texas winter-storm
#: outage, and the stream watches every second state, twice what the
#: world tensor cache holds, for the 46 weekly ticks of nine months.
FULL = Shape(
    name="full",
    geos=ALL_GEOS,
    stream_geos=ALL_GEOS[::2],
    batch_start=utc(2021, 1, 1),
    batch_end=utc(2022, 1, 1),
    stream_end=utc(2021, 10, 1),
    studies=WORLDS,
    requests=60_000,
    warmup_requests=2000,
    verify_paths=500,
    windows_per_burst=20,
)

#: 4 geographies x 4 weeks: every workload in a couple of seconds.
SMOKE = Shape(
    name="smoke",
    geos=("US-TX", "US-CA", "US-AZ", "US-NY"),
    stream_geos=("US-TX", "US-CA", "US-AZ", "US-NY"),
    batch_start=utc(2021, 1, 1),
    batch_end=utc(2021, 1, 29),
    stream_end=utc(2021, 1, 29),
    studies=1,
    requests=300,
    warmup_requests=50,
    verify_paths=50,
    windows_per_burst=4,
)


@dataclasses.dataclass
class Run:
    """One benchmark invocation."""

    workload: str
    seed: int = DEFAULT_SEED
    seconds: float = NOMINAL_SECONDS
    trace: bool = False
    smoke: bool = False
    #: Stores and trace files go here (inside the checkout).
    workdir: str = ".bench_work"
    #: Reference fingerprints; ``None`` reads ``bench/reference.json``.
    references: dict | None = None

    @property
    def shape(self) -> Shape:
        return SMOKE if self.smoke else FULL

    def count(self, nominal: int) -> int:
        """*nominal* operations scaled to ``seconds`` (at least one)."""
        return max(1, round(nominal * self.seconds / NOMINAL_SECONDS))

    def reference(self, kind: str):
        """The stored fingerprint of *kind* for this shape and seed: one
        string for ``batch``, one per tick for ``stream``."""
        references = self.references
        if references is None:
            references = json.loads((BENCH_DIR / "reference.json").read_text())
        return references.get(self.shape.name, {}).get(kind, {}).get(str(self.seed))


@dataclasses.dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failures: list[str]
    #: Human-readable lines printed before the result.
    info: list[str]


@dataclasses.dataclass
class Loop:
    """What one measured loop did."""

    ops: int = 0
    wall: float = 0.0
    #: Work units completed and the seconds they took (``work_per_s``).
    units: int = 0
    busy: float = 0.0
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    setups: list[float] = dataclasses.field(default_factory=list)
    counters: Counter = dataclasses.field(default_factory=Counter)
    #: Timed operations by kind (``study``, ``read``, ...), seconds.
    samples: defaultdict[str, list[float]] = dataclasses.field(
        default_factory=lambda: defaultdict(list)
    )


class TmpfsOs:
    """What :mod:`os` looks like to the columnar store during a run.

    Stores must live inside the checkout, which may sit on a disk.  Two
    durability calls would then time the disk instead of the program:
    ``fsync``, and ``replace`` over an existing file, which ext4 turns
    into a synchronous data flush (``auto_da_alloc``).  On tmpfs neither
    waits, and this proxy gives the store the same: ``fsync`` is a
    counted no-op and ``replace`` is unlink-then-rename.  Everything
    else passes through to :mod:`os`.
    """

    MODULES = ("repro.store.columnar", "repro.store.integrity")

    def __init__(self) -> None:
        self.fsyncs = 0
        #: Size of every regular file flushed: the bytes made durable.
        self.fsync_bytes = 0
        self._lock = threading.Lock()
        self._patched: list[tuple[object, object]] = []

    def __getattr__(self, name: str):
        return getattr(os, name)

    def fsync(self, fd: int) -> None:
        info = os.fstat(fd)
        with self._lock:
            self.fsyncs += 1
            if stat.S_ISREG(info.st_mode):
                self.fsync_bytes += info.st_size

    def replace(self, source: str, target: str) -> None:
        try:
            os.unlink(target)
        except FileNotFoundError:
            pass
        os.rename(source, target)

    def install(self) -> None:
        for name in self.MODULES:
            module = importlib.import_module(name)
            self._patched.append((module, module.os))
            module.os = self

    def remove(self) -> None:
        while self._patched:
            module, original = self._patched.pop()
            module.os = original


class StageStats:
    """Progress listener keeping the executor's public stage accounting."""

    def __init__(self) -> None:
        #: Seconds each geography took on its worker.
        self.geo_s: list[float] = []
        self.stage_s = 0.0
        self.worker_s = 0.0

    def __call__(self, event) -> None:
        if isinstance(event, GeoFinished):
            self.geo_s.append(event.elapsed_seconds)
        elif isinstance(event, ShardStats):
            self.stage_s += event.elapsed_seconds
            self.worker_s += event.elapsed_seconds * event.worker_count


def build_runtime(shape: Shape, seed: int, stream: bool = False, **options) -> StudyRuntime:
    """A deployment of world *seed* over *shape*'s batch window, or with
    *stream* over its stream window and pipeline; no checkpoint unless
    *options* ask for one."""
    options.setdefault("checkpoint", False)
    return StudyRuntime.build(
        background_scale=SCALE,
        seed=seed,
        start=shape.batch_start,
        end=shape.stream_end if stream else shape.batch_end,
        sift=STREAM_SIFT if stream else None,
        **options,
    )


def _timed(action) -> float:
    started = time.perf_counter()
    action()
    return time.perf_counter() - started


def _same_state(left: StateResult, right: StateResult) -> bool:
    def spikes(result: StateResult) -> list[tuple]:
        return [(s.start, s.peak, s.end, s.magnitude) for s in result.spikes]

    return (
        left.timeline.start == right.timeline.start
        and np.array_equal(left.timeline.values, right.timeline.values)
        and spikes(left) == spikes(right)
    )


def _iso(moment: datetime) -> str:
    return moment.strftime("%Y-%m-%dT%H:%M")


class BatchStudy:
    """``batch_paper`` (serial, in-memory) and ``batch_parallel``
    (2 workers, columnar store, checkpoints).

    Every study builds a fresh runtime, so it starts with cold caches,
    and a run cycles through :data:`WORLDS` worlds so that its numbers
    do not hinge on one.
    """

    #: Timing metric -> the samples it summarizes.  Three studies per
    #: run are too few for a tail, so the tail and the steps are the
    #: geographies inside the studies.
    TIMINGS = {
        "latency_p50_ms": "study",
        "latency_tail_ms": "geography",
        "durable_p50_ms": "command",
        "step_p50_ms": "geography",
        "step_tail_ms": "geography",
    }

    def __init__(self, run: Run, parallel: bool) -> None:
        self.run = run
        self.parallel = parallel
        self.store = os.path.join(run.workdir, f"store-{run.workload}") if parallel else None
        self.disk = TmpfsOs() if parallel else None
        #: (world seed, fingerprint, the oracle's sampled states) per study.
        self.studies: list[tuple[int, str, dict[str, StateResult]]] = []

    def prepare(self) -> None:
        if self.disk is not None:
            self.disk.install()

    def _build(self, seed: int, progress=None) -> StudyRuntime:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
        return build_runtime(
            self.run.shape,
            seed,
            max_workers=2 if self.parallel else 1,
            executor="auto",
            store=self.store,
            checkpoint=self.parallel,
            progress=progress,
        )

    def setup(self) -> None:
        self._build(self.run.seed).close()

    def discard(self) -> None:
        """Nothing outlives a study: each one builds its own runtime."""

    def loop(self, tracer: Tracer | None) -> Loop:
        loop = Loop()
        geos = self.run.shape.geos
        started = time.perf_counter()
        for index in range(self.run.count(self.run.shape.studies)):
            seed = self.run.seed + index % WORLDS
            stages = StageStats()
            build_started = time.perf_counter()
            with _span(tracer, "runtime", "build"):
                runtime = self._build(seed, stages)
            build_s = time.perf_counter() - build_started
            loop.setups.append(build_s)
            loop.attempted += 1
            try:
                study_started = time.perf_counter()
                study = runtime.run_study(geos)
                study_s = time.perf_counter() - study_started
            except ReproError as error:
                loop.failures.append(f"study of world {seed}: {error}")
                runtime.close()
                break
            picks = random.Random(seed).sample(geos, ORACLE_GEOS)
            self.studies.append(
                (seed, study.fingerprint(), {geo: study.states[geo] for geo in picks})
            )
            if tracer is not None:
                self._count(loop.counters, runtime, study, stages)
            close_s = _timed(runtime.close)
            loop.samples["command"].append(build_s + study_s + close_s)
            loop.samples["study"].append(study_s)
            loop.samples["geography"].extend(stages.geo_s)
            loop.ops += 1
            loop.units += len(geos)
            loop.busy += study_s
        loop.wall = time.perf_counter() - started
        return loop

    @staticmethod
    def _count(counters: Counter, runtime: StudyRuntime, study, stages: StageStats) -> None:
        cache = runtime.population.cache_stats()
        report = runtime.report()
        rising = runtime.sift.rising_cache.stats()
        counters.update(
            world_hits=cache.hits,
            world_misses=cache.misses,
            frames_served=runtime.service.stats.frames_served,
            rising_computed=runtime.service.stats.rising_computed,
            crawl_requested=report.requested,
            crawl_cached=report.served_from_cache,
            crawl_retries=report.retries,
            rising_hits=rising.hits,
            rising_misses=rising.misses,
            rounds_sum=sum(s.averaging.rounds_used for s in study.states.values()),
            rounds_n=len(study.states),
        )
        counters["stage_s"] += stages.stage_s
        counters["geo_busy_s"] += sum(stages.geo_s)
        counters["worker_s"] += stages.worker_s

    def verify(self) -> tuple[int, list[str]]:
        if not self.studies:
            return 1, ["no study completed"]
        checks, failures = 0, []
        by_seed: dict[int, tuple[str, dict[str, StateResult]]] = {}
        for seed, fingerprint, states in self.studies:
            first = by_seed.setdefault(seed, (fingerprint, states))[0]
            checks += 1
            if fingerprint != first:
                failures.append(f"world {seed}: fresh runtimes disagree ({first}, {fingerprint})")
        expected = self.run.reference("batch")
        if expected is not None:
            checks += 1
            fingerprint = by_seed[self.run.seed][0]
            if fingerprint != expected:
                failures.append(
                    f"study fingerprint {fingerprint} != reference {expected} "
                    f"(seed {self.run.seed})"
                )
        # Oracle: a fresh serial runtime re-analyzes sampled geographies.
        for seed, (_, states) in by_seed.items():
            with build_runtime(self.run.shape, seed) as oracle:
                for geo, state in states.items():
                    checks += 1
                    if not _same_state(oracle.analyze_state(geo), state):
                        failures.append(
                            f"world {seed} {geo}: study state differs from a serial "
                            f"re-analysis"
                        )
        if self.store is not None:
            checks += 1
            loaded = ColumnarStore(self.store).load_study().fingerprint()
            if loaded != self.studies[-1][1]:
                failures.append(f"store reloads as {loaded}, study was {self.studies[-1][1]}")
        return checks, failures

    def close(self) -> None:
        if self.disk is not None:
            self.disk.remove()
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)


class StreamWatch:
    """``stream_watch``: the ``sift watch --store --serve`` loop."""

    TIMINGS = {
        "latency_p50_ms": "publish",
        "latency_tail_ms": "publish",
        "durable_p50_ms": "tick",
        "step_p50_ms": "read",
        "step_tail_ms": "read",
    }

    def __init__(self, run: Run) -> None:
        self.run = run
        self.store = os.path.join(run.workdir, "store-stream_watch")
        self.disk = TmpfsOs()
        self.runtime: StudyRuntime | None = None
        self.daemon = None
        self.app: SiftWebApp | None = None
        self.cursor = 0
        self.installed_at = 0.0
        self.invalidated = 0
        self.rng = random.Random(run.seed)

    def prepare(self) -> None:
        self.disk.install()

    def setup(self) -> None:
        """Runtime, daemon, tick 0 and the app it installs into."""
        shutil.rmtree(self.store, ignore_errors=True)
        self.runtime = build_runtime(
            self.run.shape,
            self.run.seed,
            stream=True,
            store=self.store,
            checkpoint=True,
        )
        self.daemon = self.runtime.stream_daemon(self.run.shape.stream_geos)
        self.daemon.tick()
        self.app = SiftWebApp(self.daemon.snapshot_study())
        # An instance attribute, so the class method stays patchable.
        self.app.install_delta = self._timed_install
        self.daemon.app = self.app
        self.cursor = 0
        self.rng = random.Random(self.run.seed)

    def _timed_install(self, study, delta):
        installed = SiftWebApp.install_delta(self.app, study, delta)
        self.installed_at = time.perf_counter()
        self.invalidated += installed.invalidated
        return installed

    def discard(self) -> None:
        if self.app is not None:
            del self.app.install_delta
        if self.runtime is not None:
            self.runtime.close()
        self.runtime = self.daemon = self.app = None

    def _burst(self) -> list[str]:
        """The dashboard reads issued after every tick."""
        geos = self.run.shape.stream_geos
        end = self.daemon.prefix_window().end
        week = f"&start={_iso(end - timedelta(days=7))}&end={_iso(end)}"
        paths = [
            f"/api/stream?since={self.cursor}",
            "/api/summary",
            "/api/outages",
            "/api/outages?min_states=2",
        ]
        for geo in geos:
            paths.append(f"/api/timeline?geo={geo}")
            paths.append(f"/api/spikes?geo={geo}")
        for _ in range(self.run.shape.windows_per_burst):
            paths.append(f"/api/timeline?geo={self.rng.choice(geos)}{week}")
        return paths

    def _stats(self) -> Counter:
        cache = self.runtime.population.cache_stats()
        report = self.runtime.report()
        return Counter(
            world_hits=cache.hits,
            world_misses=cache.misses,
            frames_served=self.runtime.service.stats.frames_served,
            rising_computed=self.runtime.service.stats.rising_computed,
            crawl_requested=report.requested,
            crawl_cached=report.served_from_cache,
            crawl_retries=report.retries,
        )

    def loop(self, tracer: Tracer | None) -> Loop:
        loop = Loop()
        daemon, app = self.daemon, self.app
        remaining = daemon.total_ticks - daemon.ticks_done
        before = self._stats()
        self.invalidated = 0
        started = time.perf_counter()
        for _ in range(min(remaining, self.run.count(remaining))):
            tick_started = time.perf_counter()
            loop.attempted += 1
            try:
                daemon.tick()
            except ReproError as error:
                loop.failures.append(f"tick {daemon.ticks_done}: {error}")
                break
            loop.samples["tick"].append(time.perf_counter() - tick_started)
            loop.samples["publish"].append(self.installed_at - tick_started)
            loop.ops += 1
            loop.units += 1
            for path in self._burst():
                read_started = time.perf_counter()
                response = app.handle_request(path)
                loop.samples["read"].append(time.perf_counter() - read_started)
                loop.attempted += 1
                if response.status != 200:
                    loop.failures.append(f"{path}: HTTP {response.status}")
                    continue
                cache = response.header("X-Cache")
                if cache is not None:
                    loop.counters["web_hits" if cache == "hit" else "web_misses"] += 1
                if path.startswith("/api/stream"):
                    self.cursor = json.loads(response.body)["next_since"]
            loop.busy += time.perf_counter() - tick_started
        loop.wall = time.perf_counter() - started
        loop.counters.update(self._stats() - before)
        loop.counters.update(
            rounds_sum=daemon.rounds * loop.ops,
            rounds_n=loop.ops,
            invalidated=self.invalidated,
            ticks=loop.ops,
        )
        return loop

    def verify(self) -> tuple[int, list[str]]:
        if self.daemon is None or self.daemon.ticks_done == 0:
            return 1, ["no tick completed"]
        checks, failures = 1, []
        streamed = self.daemon.snapshot_study().fingerprint()
        with build_runtime(self.run.shape, self.run.seed, stream=True) as batch_runtime:
            batch = batch_runtime.run_study(
                self.run.shape.stream_geos, window=self.daemon.prefix_window()
            ).fingerprint()
        if streamed != batch:
            failures.append(f"streamed snapshot {streamed} != batch prefix study {batch}")
        # One reference per tick: a shorter --seconds stops early.
        expected = self.run.reference("stream")
        tick = self.daemon.ticks_done - 1
        if expected is not None and tick < len(expected):
            checks += 1
            if streamed != expected[tick]:
                failures.append(
                    f"snapshot after tick {tick} is {streamed}, reference {expected[tick]} "
                    f"(seed {self.run.seed})"
                )
        return checks, failures

    def close(self) -> None:
        self.disk.remove()
        shutil.rmtree(self.store, ignore_errors=True)


def reference_fingerprints(shape: Shape, seed: int) -> dict:
    """The batch study's fingerprint and the stream's, tick by tick."""
    with build_runtime(shape, seed) as runtime:
        batch = runtime.run_study(shape.geos).fingerprint()
    with build_runtime(shape, seed, stream=True) as runtime:
        daemon = runtime.stream_daemon(shape.stream_geos)
        stream = [daemon.tick().fingerprint for _ in range(daemon.total_ticks)]
    return {"batch": batch, "stream": stream}


class RequestMix:
    """The seeded ``serve_http`` traffic mix."""

    def __init__(self, shape: Shape, study_hours: int) -> None:
        self.shape = shape
        self.hours = study_hours

    def path(self, rng: random.Random) -> str:
        geo = rng.choice(self.shape.geos)
        draw = rng.random()
        if draw < 0.25:  # windowed timelines: distinct windows, cache misses
            lo = rng.randrange(0, self.hours - 24)
            hi = min(self.hours, lo + rng.randrange(24, 24 * 31))
            start = self.shape.batch_start + timedelta(hours=lo)
            end = self.shape.batch_start + timedelta(hours=hi)
            return f"/api/timeline?geo={geo}&start={_iso(start)}&end={_iso(end)}"
        if draw < 0.45:
            return f"/api/timeline?geo={geo}"
        if draw < 0.75:
            if rng.random() < 0.5:
                return f"/api/spikes?geo={geo}"
            return f"/api/spikes?geo={geo}&min_hours={rng.randint(1, 6)}"
        if draw < 0.85:
            return f"/api/outages?min_states={rng.randint(1, 10)}"
        if draw < 0.95:
            return "/api/summary"
        return "/api/geos"


class ServeHttp:
    """``serve_http``: one keep-alive client against ``serve_app``."""

    #: One kind of operation: the request is also the step, and nothing
    #: is written, so it is durable once answered.
    TIMINGS = {
        "latency_p50_ms": "request",
        "latency_tail_ms": "request",
        "durable_p50_ms": "request",
        "step_p50_ms": "request",
        "step_tail_ms": "request",
    }

    def __init__(self, run: Run) -> None:
        self.run = run
        self.disk = None
        self.study = None
        self.mix: RequestMix | None = None
        self.rng = random.Random(run.seed)
        self.server = None
        self.thread = None
        self.conn: http.client.HTTPConnection | None = None
        #: Warm-up requests of every set-up, checked like measured ones.
        self.warmup = Loop()
        #: First distinct paths -> (status, body digest), for verify().
        self.seen: dict[str, tuple[int, str]] = {}
        self.affinity: set[int] | None = None

    def prepare(self) -> None:
        """Pin to one CPU, then build the study to serve (input, not set-up).

        Client and server threads hand over on every request, and one
        request is in flight at a time, so one core does all the work.
        Left to the scheduler, whether the pair shared a core moved the
        median latency by about 6 % between runs; pinned, by 1.5 %.
        """
        if hasattr(os, "sched_setaffinity"):
            self.affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self.affinity)})
        with build_runtime(self.run.shape, self.run.seed) as runtime:
            self.study = runtime.run_study(self.run.shape.geos)
        self.mix = RequestMix(self.run.shape, len(next(iter(self.study.states.values())).timeline))

    def setup(self) -> None:
        """Index + preload, bind the server, then the warm-up requests.

        Warm-up fills the app's caches; it counts as set-up, so work a
        change moves from requests into the first answers still shows.
        """
        self.server, self.thread = serve_app(SiftWebApp(self.study))
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port)
        self.rng = random.Random(self.run.seed)
        for _ in range(self.run.shape.warmup_requests):
            self._request(self.warmup, self.mix.path(self.rng))

    def _get(self, path: str) -> tuple[int, bytes, str | None]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        return response.status, body, response.getheader("X-Cache")

    def discard(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
        self.conn = self.server = self.thread = None

    def loop(self, tracer: Tracer | None) -> Loop:
        loop = Loop()
        started = time.perf_counter()
        for _ in range(self.run.count(self.run.shape.requests)):
            path = self.mix.path(self.rng)
            request_started = time.perf_counter()
            with _span(tracer, "http", "request"):
                cache = self._request(loop, path)
            loop.samples["request"].append(time.perf_counter() - request_started)
            loop.ops += 1
            loop.units += 1
            if cache is not None:
                loop.counters["web_hits" if cache == "hit" else "web_misses"] += 1
        loop.wall = time.perf_counter() - started
        loop.busy = loop.wall
        return loop

    def _request(self, loop: Loop, path: str) -> str | None:
        """One counted request; returns its ``X-Cache`` header."""
        status, body, cache = self._get(path)
        loop.attempted += 1
        if status != 200:
            loop.failures.append(f"{path}: HTTP {status}")
        if len(self.seen) < self.run.shape.verify_paths and path not in self.seen:
            self.seen[path] = (status, hashlib.sha256(body).hexdigest())
        return cache

    def verify(self) -> tuple[int, list[str]]:
        failures = list(self.warmup.failures)
        uncached = SiftWebApp(self.study, caching=False, preload=False)
        for path, (status, digest) in self.seen.items():
            response = uncached.handle_request(path)
            if (
                status != 200
                or response.status != 200
                or hashlib.sha256(response.body).hexdigest() != digest
            ):
                failures.append(f"{path}: status or body differs from an uncached app")
        checks = self.warmup.attempted + len(self.seen)
        expected = self.run.reference("batch")
        if expected is not None:
            checks += 1
            if self.study.fingerprint() != expected:
                failures.append(
                    f"served study {self.study.fingerprint()} != reference {expected}"
                )
        return checks, failures

    def close(self) -> None:
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)


WORKLOADS = {
    "batch_paper": lambda run: BatchStudy(run, parallel=False),
    "batch_parallel": lambda run: BatchStudy(run, parallel=True),
    "stream_watch": StreamWatch,
    "serve_http": ServeHttp,
}


def _span(tracer: Tracer | None, layer: str, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(layer, name)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its children, MiB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def tail_percent(samples: int) -> int:
    """The higher of p90 and p75 with at least ten of *samples* beyond
    it; p50 when there are too few for either.

    Not p99: on a shared 2-core host the p99 of a sub-millisecond read
    or request moved by 16 to 35 % between runs of the same inputs, the
    p90 by 2 to 5 %.
    """
    return next((p for p in (90, 75) if samples * (100 - p) >= 1000), 50)


def _percentile_ms(samples: list[float], percent: float) -> float:
    return float(np.percentile(samples, percent)) * 1000.0 if samples else 0.0


def timing_metrics(timings: dict[str, str], samples: dict[str, list[float]]) -> dict[str, float]:
    """The ``*_p50_ms`` and ``*_tail_ms`` metrics of a workload's samples."""
    return {
        metric: _percentile_ms(
            samples[kind], 50 if metric.endswith("_p50_ms") else tail_percent(len(samples[kind]))
        )
        for metric, kind in timings.items()
    }


def _describe(kind: str, samples: list[float]) -> str:
    tail = tail_percent(len(samples))
    return (
        f"{kind}: n={len(samples)} p50={_percentile_ms(samples, 50):.3f} ms "
        f"p{tail}={_percentile_ms(samples, tail):.3f} ms"
    )


def execute(run: Run) -> Outcome:
    """Set up, measure and verify one workload in this process."""
    if run.workload not in WORKLOADS:
        raise ValueError(f"unknown workload {run.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(run.workdir, exist_ok=True)
    workload = WORKLOADS[run.workload](run)
    info: list[str] = []
    try:
        workload.prepare()
        setups = []
        for _ in range(SETUP_REPEATS):
            workload.discard()
            setups.append(_timed(workload.setup))
        if run.trace:
            # The same operations untraced, then traced from a fresh
            # set-up: the wall-clock ratio is the tracing overhead.
            plain = workload.loop(None)
            workload.discard()
            workload.setup()
            disk = workload.disk
            disk_before = (disk.fsyncs, disk.fsync_bytes) if disk else (0, 0)
            tracer = Tracer()
            instrument(tracer)
            try:
                loop = workload.loop(tracer)
            finally:
                tracer.restore()
            if disk is not None:
                loop.counters["fsyncs"] += disk.fsyncs - disk_before[0]
                loop.counters["fsync_bytes"] += disk.fsync_bytes - disk_before[1]
            metrics = layer_metrics(
                tracer, threading.get_ident(), loop.wall, plain.wall, loop.ops, loop.counters
            )
            trace_file = os.path.join(run.workdir, f"trace-{run.workload}.json")
            tracer.chrome_trace(trace_file)
            info.extend(layer_table(tracer))
            info.append(f"traced {loop.ops} ops in {loop.wall:.3f} s "
                        f"(untraced {plain.wall:.3f} s); trace written to {trace_file}")
            loops = [plain, loop]
        else:
            loop = workload.loop(None)
            setups.extend(loop.setups)
            metrics = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
                "work_per_s": loop.units / loop.busy if loop.busy else 0.0,
                **timing_metrics(workload.TIMINGS, loop.samples),
            }
            info.append(f"setup: n={len(setups)} " + " ".join(f"{s:.4f}" for s in setups))
            info.extend(_describe(kind, samples) for kind, samples in loop.samples.items())
            info.append(f"measured {loop.ops} ops, {loop.units} units in {loop.wall:.3f} s")
            loops = [loop]
        checks, failures = workload.verify()
    finally:
        workload.discard()
        workload.close()
    for measured in loops:
        failures = measured.failures + failures
        checks += measured.attempted
    return Outcome(metrics=metrics, attempted=checks, failures=failures, info=info)
