"""Self-healing under process chaos: the supervisor's correctness bar.

The :class:`~repro.streaming.supervisor.DaemonSupervisor` claims that a
watch loop killed mid-tick, wedged past its watchdog, or fed corrupted
checkpoints heals without changing a single byte of the result: the
final study fingerprint must equal an uninterrupted batch run, damaged
geo partitions must be quarantined and re-crawled exactly once, and the
serving layer must keep answering (degraded, never down) throughout.
The soaks here are seeded — `(profile, seed)` replays bit-exactly — so
every assertion is about *the* run, not a lucky one.
"""

from __future__ import annotations

import os

import pytest

from repro.core import SiftConfig
from repro.core.averaging import AveragingConfig
from repro.core.progress import (
    GeoRecrawled,
    HealthChanged,
    Heartbeat,
    PartitionQuarantined,
    ProgressLog,
    TickRestarted,
)
from repro.errors import (
    ConfigurationError,
    ErrorClass,
    SupervisorHalted,
    TickCrashError,
    WatchdogTimeout,
    classify_error,
)
from repro.runtime.study import StudyRuntime
from repro.store import ColumnarStore
from repro.streaming import (
    PROCESS_PROFILES,
    ChaoticFrameSource,
    ProcessChaos,
    ProcessFaultProfile,
    SupervisorConfig,
    Watchdog,
    damage_stream_column,
)
from repro.timeutil import utc
from repro.trends.ratelimit import SimulatedClock
from repro.web.app import SiftWebApp

GEOS = ("US-TX", "US-CA", "US-OK")
START, END = utc(2021, 1, 1), utc(2021, 2, 7)  # six weekly ticks
ROUNDS = 2
SEED = 11

#: The canonical soak: crash + stall + corruption rates low enough that
#: every incident recovers within the six-tick stream; seed 8 was chosen
#: because its replay injects at least one crash and one corruption,
#: quarantines at least one geography, and ends back at ``healthy``.
SOAK_PROFILE = ProcessFaultProfile(
    name="soak",
    crash_rate=0.06,
    stall_rate=0.03,
    stall_seconds=600.0,
    corrupt_rate=0.35,
)
SOAK_SEED = 8
SOAK_CONFIG = SupervisorConfig(watchdog_seconds=500.0, max_restarts=10)


def build_runtime(
    store: str | None = None,
    database: str = ":memory:",
    progress=None,
):
    return StudyRuntime.build(
        background_scale=0.3,
        seed=SEED,
        start=START,
        end=END,
        database=database,
        sift=SiftConfig(
            annotate=False,
            averaging=AveragingConfig(min_rounds=ROUNDS, max_rounds=ROUNDS),
        ),
        checkpoint=False,
        store=store,
        progress=progress,
    )


def batch_fingerprint() -> str:
    return build_runtime().run_study(GEOS).fingerprint()


class TestChaosSoak:
    """Kill it, corrupt it, wedge it: the study must not change."""

    @pytest.mark.parametrize("database", [":memory:", "file"])
    def test_soak_recovers_byte_identical(self, tmp_path, database):
        db = (
            str(tmp_path / "collection.sqlite")
            if database == "file"
            else ":memory:"
        )
        log = ProgressLog()
        runtime = build_runtime(
            store=str(tmp_path / "store"),
            database=db,
            progress=log,
        )
        chaos = ProcessChaos(SOAK_PROFILE, seed=SOAK_SEED)
        supervisor = runtime.supervise(GEOS, config=SOAK_CONFIG, chaos=chaos)
        final = supervisor.run()

        # The acceptance bar: daemon died mid-tick, a partition was
        # corrupted, and none of it left a trace in the result.
        injected = chaos.injection_counts()
        assert injected["crash"] >= 1
        assert injected["truncate"] + injected["bitflip"] >= 1
        assert supervisor.restarts >= 1
        assert supervisor.quarantined
        assert supervisor.state.value == "healthy"
        assert final.fingerprint() == batch_fingerprint()

        # Health was an explicit journey, not a flag: degraded on the
        # first failure, healthy again after the recovery streak.
        transitions = [
            (event.previous, event.state)
            for event in log.of_type(HealthChanged)
        ]
        assert ("healthy", "degraded") in transitions
        assert ("degraded", "healthy") in transitions
        assert supervisor.recovery_log
        for incident in supervisor.recovery_log:
            assert incident["recovered_tick"] >= incident["tick"]
            assert incident["virtual_seconds"] > 0

    def test_quarantined_geos_recrawled_exactly_once(self, tmp_path):
        log = ProgressLog()
        runtime = build_runtime(store=str(tmp_path / "store"), progress=log)
        chaos = ProcessChaos(SOAK_PROFILE, seed=SOAK_SEED)
        supervisor = runtime.supervise(GEOS, config=SOAK_CONFIG, chaos=chaos)
        supervisor.run()

        quarantines = log.of_type(PartitionQuarantined)
        recrawls = log.of_type(GeoRecrawled)
        assert {event.geo for event in quarantines} == set(
            supervisor.quarantined
        )
        # One re-crawl per quarantine incident — never zero (the data
        # was lost) and never repeated (the re-crawl checkpoints
        # immediately, so a later restart restores instead).
        assert sorted(event.geo for event in recrawls) == sorted(
            supervisor.quarantined
        )
        for event in recrawls:
            assert event.ticks >= 1

    def test_soak_replays_bit_exactly(self, tmp_path):
        fingerprints = []
        for attempt in ("a", "b"):
            runtime = build_runtime(store=str(tmp_path / f"store-{attempt}"))
            chaos = ProcessChaos(SOAK_PROFILE, seed=SOAK_SEED)
            supervisor = runtime.supervise(
                GEOS, config=SOAK_CONFIG, chaos=chaos
            )
            final = supervisor.run()
            fingerprints.append(
                (
                    final.fingerprint(),
                    supervisor.restarts,
                    tuple(supervisor.quarantined),
                    tuple(sorted(chaos.injection_counts().items())),
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_storeless_supervisor_retries_in_memory(self):
        runtime = build_runtime()
        chaos = ProcessChaos(
            ProcessFaultProfile(name="crashy", crash_rate=0.12), seed=3
        )
        supervisor = runtime.supervise(GEOS, config=SOAK_CONFIG, chaos=chaos)
        final = supervisor.run()
        assert chaos.injection_counts()["crash"] >= 1
        assert supervisor.restarts >= 1
        assert final.fingerprint() == batch_fingerprint()


class TestFailurePolicy:
    """Restart budget, backoff geometry, halt semantics."""

    def test_restart_budget_exhaustion_halts(self, tmp_path):
        log = ProgressLog()
        runtime = build_runtime(store=str(tmp_path / "store"), progress=log)
        # Every fetch crashes: the first tick can never complete.
        chaos = ProcessChaos(
            ProcessFaultProfile(name="doom", crash_rate=0.999), seed=1
        )
        supervisor = runtime.supervise(
            GEOS,
            config=SupervisorConfig(watchdog_seconds=500.0, max_restarts=3),
            chaos=chaos,
        )
        with pytest.raises(SupervisorHalted) as exc:
            supervisor.run()
        assert supervisor.state.value == "halted"
        assert exc.value.restarts == 3
        # Halting is itself fatal: the supervisor refuses further ticks.
        with pytest.raises(SupervisorHalted):
            supervisor.tick()
        restarts = log.of_type(TickRestarted)
        assert [event.attempt for event in restarts] == [1, 2, 3]
        assert all(event.error_class == "retryable" for event in restarts)

    def test_backoff_grows_and_is_deterministic(self, tmp_path):
        log = ProgressLog()
        runtime = build_runtime(store=str(tmp_path / "store"), progress=log)
        chaos = ProcessChaos(
            ProcessFaultProfile(name="doom", crash_rate=0.999), seed=1
        )
        config = SupervisorConfig(
            watchdog_seconds=500.0,
            max_restarts=4,
            backoff_base=2.0,
            backoff_factor=2.0,
            backoff_cap=600.0,
        )
        supervisor = runtime.supervise(GEOS, config=config, chaos=chaos)
        with pytest.raises(SupervisorHalted):
            supervisor.run()
        backoffs = [e.backoff_seconds for e in log.of_type(TickRestarted)]
        assert len(backoffs) == 4
        # Jitter scales each step into [0.5, 1.0] x the exponential curve.
        for attempt, backoff in enumerate(backoffs, start=1):
            ceiling = min(600.0, 2.0 * 2.0 ** (attempt - 1))
            assert ceiling * 0.5 <= backoff <= ceiling
        # The virtual clock paid for every wait.
        assert float(runtime.clock()) >= sum(backoffs)

    def test_watchdog_timeout_is_retryable_and_restarts(self, tmp_path):
        log = ProgressLog()
        runtime = build_runtime(store=str(tmp_path / "store"), progress=log)
        # One long stall early on: the 300s watchdog trips, the restart
        # redraws (new attempt) and the stream completes.
        chaos = ProcessChaos(
            ProcessFaultProfile(
                name="wedge", stall_rate=0.04, stall_seconds=900.0
            ),
            seed=5,
        )
        supervisor = runtime.supervise(
            GEOS,
            config=SupervisorConfig(watchdog_seconds=300.0, max_restarts=10),
            chaos=chaos,
        )
        final = supervisor.run()
        assert chaos.injection_counts()["stall"] >= 1
        assert any(
            "WatchdogTimeout" in event.error
            for event in log.of_type(TickRestarted)
        )
        assert final.fingerprint() == batch_fingerprint()

    def test_watchdog_unit(self):
        clock = SimulatedClock()
        dog = Watchdog(clock, deadline_seconds=10.0)
        dog.check()  # unarmed: never fires
        dog.arm()
        clock.sleep(9.0)
        dog.check()
        clock.sleep(2.0)
        assert dog.expired()
        with pytest.raises(WatchdogTimeout) as exc:
            dog.check()
        assert exc.value.elapsed_seconds == pytest.approx(11.0)
        dog.disarm()
        dog.check()
        with pytest.raises(ConfigurationError):
            Watchdog(clock, deadline_seconds=0.0)

    def test_error_classification(self):
        assert classify_error(TickCrashError("boom")) is ErrorClass.RETRYABLE
        assert (
            classify_error(WatchdogTimeout(12.0, 10.0))
            is ErrorClass.RETRYABLE
        )
        assert classify_error(SupervisorHalted("done")) is ErrorClass.FATAL

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(max_restarts=0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(watchdog_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(backoff_cap=1.0, backoff_base=2.0)
        with pytest.raises(ConfigurationError):
            ProcessFaultProfile(crash_rate=0.7, stall_rate=0.5)
        with pytest.raises(ConfigurationError):
            ProcessFaultProfile(kinds=("melt",))


class TestChaosDeterminism:
    """Fault draws depend on request identity, never arrival order."""

    def test_fetch_fault_independent_of_order(self):
        from repro.timeutil import TimeWindow

        window = TimeWindow(START, utc(2021, 1, 8))
        identities = [
            ("internet down", geo, window, r)
            for geo in GEOS
            for r in range(ROUNDS)
        ]
        forward = ProcessChaos(PROCESS_PROFILES["havoc"], seed=21)
        backward = ProcessChaos(PROCESS_PROFILES["havoc"], seed=21)
        faults_fwd = {
            identity: forward.fetch_fault(*identity)
            for identity in identities
        }
        faults_bwd = {
            identity: backward.fetch_fault(*identity)
            for identity in reversed(identities)
        }
        assert faults_fwd == faults_bwd

    def test_retried_fetch_redraws(self):
        from repro.timeutil import TimeWindow

        window = TimeWindow(START, utc(2021, 1, 8))
        chaos = ProcessChaos(
            ProcessFaultProfile(name="x", crash_rate=0.5), seed=2
        )
        draws = [
            chaos.fetch_fault("internet down", "US-TX", window, 0)
            for _ in range(32)
        ]
        # Same identity, increasing attempt counter: both outcomes occur.
        assert "crash" in draws
        assert None in draws

    def test_chaotic_source_delegates(self):
        runtime = build_runtime()
        chaos = ProcessChaos(PROCESS_PROFILES["none"], seed=1)
        wrapped = ChaoticFrameSource(runtime.sift.source, chaos)
        assert wrapped.report() is not None


class TestStoreIntegrity:
    """Digests, quarantine, tmp sweep: crash-only, never crash-corrupt."""

    def _seeded_store(self, tmp_path) -> str:
        store_dir = str(tmp_path / "store")
        daemon = build_runtime(store=store_dir).stream_daemon(GEOS)
        daemon.tick()
        daemon.tick()
        return store_dir

    def test_verify_clean_store(self, tmp_path):
        store_dir = self._seeded_store(tmp_path)
        verification = ColumnarStore(store_dir).verify()
        assert verification.clean
        assert verification.checked >= len(GEOS)
        assert not verification.damaged_geos()

    @pytest.mark.parametrize(
        "kind,expected",
        [("truncate", "truncated"), ("bitflip", "digest-mismatch")],
    )
    def test_verify_detects_damage(self, tmp_path, kind, expected):
        store_dir = self._seeded_store(tmp_path)
        store = ColumnarStore(store_dir)
        assert damage_stream_column(store, "US-CA", kind, seed=4, tick=1)
        verification = store.verify()
        assert not verification.clean
        assert verification.damaged_geos() == ("US-CA",)
        assert any(item.kind == expected for item in verification.damage)
        # Detection without quarantine leaves the files in place.
        assert os.path.exists(
            os.path.join(store_dir, "series", "US-CA.stream.npy")
        )

    def test_quarantine_moves_both_partition_halves(self, tmp_path):
        store_dir = self._seeded_store(tmp_path)
        store = ColumnarStore(store_dir)
        damage_stream_column(store, "US-CA", "bitflip", seed=4, tick=1)
        verification = store.verify(quarantine=True)
        assert verification.quarantined == ("US-CA",)
        series = os.path.join(store_dir, "series")
        # A damaged stream column condemns the study column too: resume
        # needs a consistent pair, half-trusted is untrusted.
        assert os.path.exists(
            os.path.join(series, "US-CA.stream.npy.quarantine")
        )
        assert not os.path.exists(os.path.join(series, "US-CA.stream.npy"))
        assert not os.path.exists(os.path.join(series, "US-CA.npy"))
        # The quarantine marker survives reopening and the state shrank
        # to the intact geographies.
        reopened = ColumnarStore(store_dir)
        state = reopened.load_stream()
        assert "US-CA" in state.get("quarantined", {})
        assert "US-CA" not in state["geos"]
        assert reopened.verify().clean

    def test_sweep_removes_stale_tmp_files(self, tmp_path):
        store_dir = self._seeded_store(tmp_path)
        orphan = os.path.join(store_dir, "series", "US-XX.npy.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"torn write")
        reopened = ColumnarStore(store_dir)
        assert reopened.swept == ("series/US-XX.npy.tmp",)
        assert not os.path.exists(orphan)

    def test_manifest_entries_carry_digests(self, tmp_path):
        store_dir = self._seeded_store(tmp_path)
        store = ColumnarStore(store_dir)
        manifest = store._read_manifest()
        for geo, entry in manifest["stream_columns"].items():
            assert len(entry["digest"]) == 64
            assert entry["bytes"] > 0


class TestDegradedServing:
    """/healthz, /readyz, admission shedding, staleness, stream gaps."""

    def _serving_study(self):
        return build_runtime().run_study(GEOS)

    def test_health_probes_follow_supervisor_state(self):
        import json

        health = {"state": "healthy", "ticks_done": 4, "restarts": 0}
        app = SiftWebApp(self._serving_study(), health_source=lambda: health)
        assert app.handle_request("/healthz").status == 200
        assert app.handle_request("/readyz").status == 200
        health["state"] = "degraded"
        # Degraded stays ready: stale reads are served deliberately.
        assert app.handle_request("/healthz").status == 200
        assert app.handle_request("/readyz").status == 200
        health["state"] = "halted"
        assert app.handle_request("/healthz").status == 200
        response = app.handle_request("/readyz")
        assert response.status == 503
        payload = json.loads(response.body)
        assert payload["status"] == "halted"
        assert payload["health"]["state"] == "halted"
        assert response.header("Cache-Control") == "no-store"

    def test_probes_without_supervisor(self):
        app = SiftWebApp(self._serving_study())
        assert app.handle_request("/healthz").status == 200
        assert app.handle_request("/readyz").status == 200

    def test_admission_sheds_beyond_bound(self):
        app = SiftWebApp(self._serving_study(), max_inflight=2)
        # Simulate two requests parked in flight.
        app._inflight = 2
        shed = app.handle_request("/api/geos")
        assert shed.status == 503
        assert shed.header("Retry-After") == "1"
        assert shed.header("Cache-Control") == "no-store"
        # Probes are exempt: health must answer when nothing else can.
        assert app.handle_request("/healthz").status == 200
        assert app.handle_request("/readyz").status == 200
        app._inflight = 0
        assert app.handle_request("/api/geos").status == 200
        stats = app.serving_stats()
        assert stats.shed == 1
        # Shedding is deliberate, not an error.
        assert stats.errors == 0

    def test_admission_releases_slots(self):
        app = SiftWebApp(self._serving_study(), max_inflight=1)
        for _ in range(5):
            assert app.handle_request("/api/geos").status == 200
        assert app._inflight == 0
        assert app.serving_stats().shed == 0

    def test_staleness_field_tracks_install_tick(self):
        import json

        health = {"state": "degraded", "ticks_done": 5, "restarts": 2}
        app = SiftWebApp(self._serving_study(), health_source=lambda: health)
        app.install_study(self._serving_study(), stream_tick=2)
        payload = json.loads(app.handle_request("/api/runtime").body)
        staleness = payload["staleness"]
        assert staleness["installed_tick"] == 2
        assert staleness["serving_stale"] is True
        assert staleness["ticks_behind"] == 2  # ticks 3 and 4 not served
        health["state"] = "healthy"
        payload = json.loads(app.handle_request("/api/runtime").body)
        assert payload["staleness"]["serving_stale"] is False
        assert payload["health"]["state"] == "healthy"

    def test_stream_gap_detection(self):
        class Event:
            def __init__(self, n: int) -> None:
                self.n = n

            def to_dict(self) -> dict:
                return {"type": "Synthetic", "n": self.n}

        app = SiftWebApp(self._serving_study(), stream_buffer=4)
        # install_study published seq 1; six more overflow the ring.
        app.publish_stream_events([Event(i) for i in range(6)])
        stale = app._stream_payload({"since": "1"})
        assert stale["gap"] is True
        fresh = app._stream_payload({"since": str(stale["next_since"])})
        assert fresh["gap"] is False
        cold = app._stream_payload({})
        assert cold["gap"] is False

    def test_heartbeats_reach_the_stream_feed(self, tmp_path):
        runtime = build_runtime(store=str(tmp_path / "store"))
        supervisor = runtime.supervise(GEOS, config=SOAK_CONFIG)
        supervisor.tick()
        app = SiftWebApp(
            supervisor.daemon.snapshot_study(),
            health_source=supervisor.health_payload,
        )
        supervisor.attach_app(app)
        supervisor.run()
        payload = app._stream_payload({})
        beats = [
            event
            for event in payload["events"]
            if event["type"] == "Heartbeat"
        ]
        assert beats
        assert beats[-1]["health"] == "healthy"
        assert beats[-1]["ticks_done"] == supervisor.total_ticks


class TestSupervisedServingAvailability:
    """Reads never fail during restarts: stale-while-degraded, end to end."""

    def test_reads_survive_a_chaos_soak(self, tmp_path):
        runtime = build_runtime(store=str(tmp_path / "store"))
        chaos = ProcessChaos(SOAK_PROFILE, seed=SOAK_SEED)
        supervisor = runtime.supervise(GEOS, config=SOAK_CONFIG, chaos=chaos)
        supervisor.tick()
        app = SiftWebApp(
            supervisor.daemon.snapshot_study(),
            health_source=supervisor.health_payload,
        )
        supervisor.attach_app(app)
        statuses = []
        probe_paths = (
            "/api/geos",
            "/api/summary",
            "/api/timeline?geo=US-TX",
            "/api/runtime",
            "/healthz",
        )
        while not supervisor.done:
            supervisor.tick()
            statuses.extend(
                app.handle_request(path).status for path in probe_paths
            )
        final = supervisor.finalize()
        assert supervisor.restarts >= 1
        # Every read during the soak answered 200 — degraded means
        # stale, never down, and no unexpected 5xx ever escaped.
        assert set(statuses) == {200}
        assert final.fingerprint() == batch_fingerprint()
        # After the final tick the app converged on the full study.
        assert app.index.fingerprint == final.fingerprint()


class TestHeartbeatEvents:
    """Heartbeat cadence honours the configured interval."""

    def test_heartbeat_every_other_tick(self, tmp_path):
        log = ProgressLog()
        runtime = build_runtime(store=str(tmp_path / "store"), progress=log)
        supervisor = runtime.supervise(
            GEOS,
            config=SupervisorConfig(
                watchdog_seconds=500.0, heartbeat_every=2
            ),
        )
        supervisor.run()
        beats = log.of_type(Heartbeat)
        assert [event.ticks_done for event in beats] == [2, 4, 6]

    def test_heartbeat_disabled(self, tmp_path):
        log = ProgressLog()
        runtime = build_runtime(store=str(tmp_path / "store"), progress=log)
        supervisor = runtime.supervise(
            GEOS,
            config=SupervisorConfig(
                watchdog_seconds=500.0, heartbeat_every=0
            ),
        )
        supervisor.run()
        assert not log.of_type(Heartbeat)
