"""Command-line interface: ``python -m repro <command>``.

Commands mirror the system's stages:

* ``simulate`` — build the ground-truth scenario and print its summary;
* ``detect``   — run the pipeline for one geography and list top spikes;
* ``study``    — run a multi-geography study and print headline stats;
* ``serve``    — run a study and expose the web interface (the
  response-cache knobs: ``--cache-size``, ``--no-cache``,
  ``--no-preload``);
* ``watch``    — stream the study one weekly frame per tick
  (DESIGN.md §12): each tick crawls only the newest frame, re-stitches
  the dirty tail, and publishes spikes as they appear; ``--serve``
  installs delta snapshots into a live web app with ``/api/stream``
  events, ``--store`` makes an interrupted watch resume mid-stream
  with zero refetch;
* ``report``   — regenerate the paper's headline numbers;
* ``scenarios`` — the foundry (DESIGN.md §11): ``generate`` compiles
  scenario-pack families (or a spec JSON) into ground-truth worlds,
  ``score`` runs them through the pipeline and prints per-family
  detection quality.

Every pipeline command accepts the runtime knobs: ``--workers`` and
``--executor {auto,serial,thread,process}`` for parallel per-geography
analysis (process = geography-sharded worker processes; results are
byte-identical across executors), ``--db FILE`` to cache crawled
frames on disk (a rerun re-analyzes from the cache without fetching),
``--store DIR`` to checkpoint finished geographies into the
memory-mapped columnar store (rerunning after an interrupt resumes
instead of re-analyzing, and ``serve --from-store`` serves a finished
study from it without crawling), ``--progress`` to stream the
structured progress events as they happen, and ``--chaos
PROFILE``/``--chaos-seed`` to inject deterministic faults into the
simulated Trends service (see DESIGN.md §7) — the fault summary prints
after the run.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis import (
    daily_distribution,
    duration_cdf,
    footprint_cdf,
    most_impactful,
    power_share_of_long_spikes,
    render_table,
    state_cdf,
    yearly_counts,
)
from repro.core.progress import ProgressLog, text_listener
from repro.runtime import ALL_GEOS, EXECUTOR_KINDS, StudyRuntime
from repro.trends.faults import PROFILES
from repro.world.foundry import (
    PACK_SEED,
    ScenarioSpec,
    scenario_pack,
    score_pack_family,
)
from repro.world.scenarios import Scenario, ScenarioConfig


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="background event scale (1.0 = paper scale, default 0.05)",
    )
    parser.add_argument("--seed", type=int, default=20221025)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_runtime(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="workers analyzing geographies concurrently (default 1)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default="auto",
        help="where those workers run: serial, a thread pool, or "
        "geography-sharded worker processes; auto picks serial for one "
        "worker and threads otherwise (results are byte-identical "
        "either way; default auto)",
    )
    parser.add_argument(
        "--db",
        default=":memory:",
        metavar="FILE",
        help="sqlite file caching crawled frames, so a rerun "
        "re-analyzes without fetching (default: in memory)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="columnar store directory that checkpoints finished "
        "geographies as memory-mapped .npy columns: a rerun resumes "
        "them, and `serve --from-store` serves a finished study from "
        "it without crawling",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream structured progress events to stderr",
    )
    parser.add_argument(
        "--chaos",
        choices=sorted(PROFILES),
        default=None,
        help="inject deterministic faults into the simulated Trends "
        "service (fault profile name)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=7,
        help="seed of the fault plan; (profile, seed) replays a chaos "
        "run exactly (default 7)",
    )


def _runtime(args: argparse.Namespace) -> StudyRuntime:
    progress = None
    if getattr(args, "progress", False):
        progress = text_listener(lambda line: print(line, file=sys.stderr))
    return StudyRuntime.build(
        background_scale=args.scale,
        seed=args.seed,
        max_workers=getattr(args, "workers", 1),
        executor=getattr(args, "executor", "auto"),
        database=getattr(args, "db", ":memory:"),
        store=getattr(args, "store", None),
        progress=progress,
        faults=getattr(args, "chaos", None),
        fault_seed=getattr(args, "chaos_seed", 7),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = Scenario.build(
        ScenarioConfig(seed=args.seed, background_scale=args.scale)
    )
    print(f"scenario: {len(scenario.events)} events, "
          f"{scenario.total_impacts} state-level impacts")
    by_cause: dict[str, int] = {}
    for event in scenario.events:
        by_cause[event.cause.value] = by_cause.get(event.cause.value, 0) + 1
    print(render_table(
        ("cause", "events"),
        sorted(by_cause.items(), key=lambda item: -item[1]),
    ))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    runtime = _runtime(args)
    result = runtime.analyze_state(args.geo)
    print(result.timeline.describe())
    print(f"{len(result.spikes)} spikes "
          f"({result.averaging.rounds_used} averaging rounds, "
          f"converged={result.averaging.converged})")
    rows = [
        (spike.label, spike.duration_hours, f"{spike.magnitude:.1f}")
        for spike in result.spikes.top_by_duration(args.top)
    ]
    print(render_table(("spike time", "duration (h)", "magnitude"), rows))
    return 0


def _study(args: argparse.Namespace):
    runtime = _runtime(args)
    geos = tuple(args.geos) if args.geos else ALL_GEOS
    return runtime, runtime.run_study(geos=geos)


def _cmd_study(args: argparse.Namespace) -> int:
    runtime, study = _study(args)
    if study.resumed_geos:
        print(f"resumed {len(study.resumed_geos)} checkpointed geographies: "
              f"{', '.join(study.resumed_geos)}")
    print(f"{study.spike_count} spikes, {len(study.outages)} outages")
    print(f"yearly counts: {yearly_counts(study.spikes)}")
    cdf = state_cdf(study.spikes)
    print(f"top-10-state share: {cdf.share_of_top(10):.0%}")
    print(f"spikes >= 3 h: {duration_cdf(study.spikes).fraction_at_least(3):.0%}")
    print(f"outages >= 10 states: "
          f"{footprint_cdf(study.outages).fraction_at_least(10):.1%}")
    print(f"weekend dip (weekday/weekend): "
          f"{daily_distribution(study.spikes).weekend_dip:.2f}")
    print(f"power share of >= 5 h spikes: "
          f"{power_share_of_long_spikes(study.spikes):.0%}")
    report = runtime.report()
    print(f"crawl: {report.fetched} fetched, {report.served_from_cache} cached, "
          f"{report.frames_per_second:.0f} frames/s")
    faults = runtime.fault_report()
    if faults is not None:
        print(faults.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _, study = _study(args)
    rows = [
        (row.label, row.state, row.duration_hours, row.outage)
        for row in most_impactful(study.spikes, count=7)
    ]
    print(render_table(
        ("spike time", "state", "duration (h)", "outage"),
        rows,
        title="Table 1: most impactful spikes by duration",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    log = ProgressLog()
    listeners = [log]
    if args.progress:
        listeners.append(
            text_listener(lambda line: print(line, file=sys.stderr))
        )

    def progress(event):
        for listener in listeners:
            listener(event)

    if args.from_store:
        if not args.store:
            print("serve --from-store requires --store DIR", file=sys.stderr)
            return 2
        from repro.store import ColumnarStore
        from repro.web import serve

        store = ColumnarStore(args.store)
        # Serve the checkpointed study straight off the memory-mapped
        # columns: no scenario build, no crawl.
        study = store.load_study()
        server, _thread = serve(
            study,
            host=args.host,
            port=args.port,
            progress_log=log,
            execution={"store": args.store, "from_store": True},
            cache_size=args.cache_size,
            caching=not args.no_cache,
            preload=not args.no_preload,
            progress=progress,
        )
    else:
        runtime = StudyRuntime.build(
            background_scale=args.scale,
            seed=args.seed,
            max_workers=args.workers,
            executor=args.executor,
            database=args.db,
            store=args.store,
            progress=progress,
            faults=args.chaos,
            fault_seed=args.chaos_seed,
        )
        geos = tuple(args.geos) if args.geos else ALL_GEOS
        study = runtime.run_study(geos=geos)
        server, _thread = runtime.serve_web(
            study,
            host=args.host,
            port=args.port,
            progress_log=log,
            cache_size=args.cache_size,
            caching=not args.no_cache,
            preload=not args.no_preload,
            progress=progress,
        )
    host, port = server.server_address[:2]
    cache = "off" if args.no_cache else f"{args.cache_size} entries"
    print(f"serving SIFT on http://{host}:{port}/ "
          f"(response cache: {cache}; Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from repro.errors import SupervisorHalted
    from repro.streaming import StreamConfig

    runtime = _runtime(args)
    geos = tuple(args.geos) if args.geos else ALL_GEOS
    stream = StreamConfig(
        rounds=args.rounds, checkpoint_every=args.checkpoint_every
    )
    supervisor = None
    if args.supervise:
        from repro.streaming import (
            PROCESS_PROFILES,
            ProcessChaos,
            SupervisorConfig,
        )

        chaos = None
        if args.process_chaos != "none":
            chaos = ProcessChaos(
                PROCESS_PROFILES[args.process_chaos],
                seed=args.process_chaos_seed,
            )
        supervisor = runtime.supervise(
            geos,
            config=SupervisorConfig(
                watchdog_seconds=args.watchdog,
                max_restarts=args.max_restarts,
            ),
            stream=stream,
            chaos=chaos,
        )
        # The daemon attribute may be rebuilt across restarts; always go
        # through the supervisor from here on.
        step, source = supervisor.tick, supervisor
    else:
        daemon = runtime.stream_daemon(geos, stream=stream)
        step, source = daemon.tick, daemon
    if source.ticks_done:
        print(f"resumed mid-stream at tick {source.ticks_done}/"
              f"{source.total_ticks} (zero refetch)")
    server = None
    remaining = args.ticks
    try:
        if args.serve and not source.done:
            from repro.web import SiftWebApp, serve_app

            # The app needs a first snapshot to exist; the daemon
            # installs deltas into it from the second tick on.
            step()
            if remaining is not None:
                remaining -= 1
            app = SiftWebApp(
                (supervisor.daemon if supervisor else daemon).snapshot_study(),
                crawl_report=runtime.report(),
                fault_report=runtime.fault_report(),
                execution=runtime.execution_info(),
                health_source=(
                    supervisor.health_payload if supervisor else None
                ),
                max_inflight=args.max_inflight,
            )
            if supervisor is not None:
                supervisor.attach_app(app)
            else:
                daemon.app = app
            server, _thread = serve_app(app, host=args.host, port=args.port)
            host, port = server.server_address[:2]
            print(f"watching on http://{host}:{port}/ "
                  f"(live events: /api/stream?since=0; health: /healthz)")
        while not source.done and (remaining is None or remaining > 0):
            result = step()
            if remaining is not None:
                remaining -= 1
            line = (
                f"tick {result.tick + 1}/{source.total_ticks} "
                f"-> {result.frame.end.date()}: "
                f"{len(result.published)} published, "
                f"{result.spike_count} spikes total "
                f"({result.elapsed_seconds * 1000:.0f} ms, "
                f"fp {result.fingerprint})"
            )
            if supervisor is not None and supervisor.restarts:
                line += (f" [{supervisor.state.value}, "
                         f"{supervisor.restarts} restarts]")
            print(line)
            for spike in result.published[:5]:
                print(f"  spike [{spike.geo}] peak {spike.peak.isoformat()} "
                      f"magnitude {spike.magnitude:.1f} "
                      f"({spike.duration_hours}h)")
            if args.tick and not source.done:
                time.sleep(args.tick)
    except SupervisorHalted as error:
        print(f"supervisor halted at tick {source.ticks_done}/"
              f"{source.total_ticks}: {error}", file=sys.stderr)
        if server is not None:
            server.shutdown()
        return 1
    except KeyboardInterrupt:
        print(f"interrupted at tick {source.ticks_done}/{source.total_ticks}"
              + (" (stream checkpointed; rerun to resume)"
                 if runtime.store is not None else ""))
        if server is not None:
            server.shutdown()
        return 130
    if source.done:
        study = source.finalize()
        line = (f"stream complete: {study.spike_count} spikes, "
                f"{len(study.outages)} outages, fp {study.fingerprint()}")
        if supervisor is not None:
            line += (f" ({supervisor.state.value}, "
                     f"{supervisor.restarts} restarts, "
                     f"{len(supervisor.quarantined)} quarantined)")
        print(line)
    else:
        print(f"paused at tick {source.ticks_done}/{source.total_ticks}"
              + (" (stream checkpointed; rerun to resume)"
                 if runtime.store is not None else ""))
    if server is not None:
        if args.ticks is None:
            print("serving final study; Ctrl-C to stop")
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
        server.shutdown()
    return 0


def _selected_specs(args: argparse.Namespace) -> dict[str, ScenarioSpec]:
    """The specs a ``scenarios`` action operates on, keyed by name."""
    if args.spec:
        import json

        with open(args.spec, encoding="utf-8") as handle:
            payload = json.load(handle)
        # Accept both a bare spec and an archived fuzzer fixture.
        spec = ScenarioSpec.from_dict(payload.get("spec", payload))
        return {spec.name: spec}
    pack = scenario_pack(smoke=args.smoke)
    if not args.families:
        return pack
    unknown = [name for name in args.families if name not in pack]
    if unknown:
        raise SystemExit(
            f"unknown families: {', '.join(unknown)} "
            f"(pack has: {', '.join(pack)})"
        )
    return {name: pack[name] for name in args.families}


def _cmd_scenarios_generate(args: argparse.Namespace) -> int:
    specs = _selected_specs(args)
    if args.as_json:
        import json

        print(json.dumps(
            {name: spec.to_dict() for name, spec in specs.items()},
            indent=2,
            sort_keys=True,
        ))
        return 0
    for name, spec in specs.items():
        scenario = spec.compile(args.seed)
        window = spec.window
        print(f"{name}: {len(scenario.events)} events, "
              f"{scenario.total_impacts} impacts over {window.hours} h, "
              f"geos={','.join(spec.geos)}")
        rows = [
            (
                event.event_id,
                event.start.strftime("%Y-%m-%d %H:%M"),
                event.cause.value,
                ",".join(sorted(event.states)),
            )
            for event in scenario.events
        ]
        print(render_table(("event", "start (UTC)", "cause", "states"), rows))
    return 0


def _cmd_scenarios_score(args: argparse.Namespace) -> int:
    specs = _selected_specs(args)
    rows = []
    for name, spec in specs.items():
        score = score_pack_family(spec, args.seed)
        spikes, outages = score.spikes, score.outages
        rows.append((
            name,
            f"{spikes.precision:.3f}",
            f"{spikes.recall:.3f}",
            f"{spikes.recall_strong:.3f}",
            f"{spikes.mean_detection_delay_hours:.2f}",
            f"{outages.f1:.3f}",
            spikes.total_spikes,
            spikes.total_impacts,
        ))
    print(render_table(
        ("family", "precision", "recall", "recall>=5", "delay (h)",
         "grouped f1", "spikes", "impacts"),
        rows,
        title=f"Scenario-pack detection quality (seed {args.seed})",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIFT reproduction: outage detection from search trends",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="summarize the ground truth")
    _add_scale(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    detect = commands.add_parser("detect", help="run SIFT for one geography")
    _add_scale(detect)
    _add_runtime(detect)
    detect.add_argument("--geo", default="US-TX")
    detect.add_argument("--top", type=int, default=10)
    detect.set_defaults(handler=_cmd_detect)

    study = commands.add_parser("study", help="run a multi-geography study")
    _add_scale(study)
    _add_runtime(study)
    study.add_argument("geos", nargs="*", help="geographies (default: all 51)")
    study.set_defaults(handler=_cmd_study)

    report = commands.add_parser("report", help="regenerate headline tables")
    _add_scale(report)
    _add_runtime(report)
    report.add_argument("geos", nargs="*")
    report.set_defaults(handler=_cmd_report)

    serve_cmd = commands.add_parser("serve", help="serve the web interface")
    _add_scale(serve_cmd)
    _add_runtime(serve_cmd)
    serve_cmd.add_argument("geos", nargs="*")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080)
    serve_cmd.add_argument(
        "--cache-size",
        type=int,
        default=512,
        help="LRU bound of the encoded-response cache (default 512)",
    )
    serve_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the response cache (payloads still come from the "
        "columnar query index)",
    )
    serve_cmd.add_argument(
        "--no-preload",
        action="store_true",
        help="skip pre-encoding the hot payloads at startup",
    )
    serve_cmd.add_argument(
        "--from-store",
        action="store_true",
        help="serve a finished study straight from the columnar store "
        "given by --store (memory-mapped, no crawl)",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    watch = commands.add_parser(
        "watch", help="stream the study tick-by-tick (one weekly frame each)"
    )
    _add_scale(watch)
    _add_runtime(watch)
    watch.add_argument("geos", nargs="*", help="geographies (default: all 51)")
    watch.add_argument(
        "--tick",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="pace: sleep this long between ticks (default 0, run flat out)",
    )
    watch.add_argument(
        "--ticks",
        type=int,
        default=None,
        metavar="N",
        help="stop after N ticks this invocation (with --store, a later "
        "run resumes mid-stream with zero refetch)",
    )
    watch.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="fetch rounds per frame (fixed per tick; default 2)",
    )
    watch.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="TICKS",
        help="stream-checkpoint cadence into --store (default every tick)",
    )
    watch.add_argument(
        "--serve",
        action="store_true",
        help="expose the study over HTTP while it streams; each tick "
        "installs a delta snapshot and /api/stream emits live events",
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8080)
    watch.add_argument(
        "--supervise",
        action="store_true",
        help="run ticks under the self-healing supervisor: watchdog "
        "deadlines, checkpoint restarts with backoff, store integrity "
        "quarantine, /healthz + /readyz health probes",
    )
    watch.add_argument(
        "--max-restarts",
        type=int,
        default=8,
        metavar="N",
        help="supervisor halts after N consecutive failures of one tick "
        "(default 8)",
    )
    watch.add_argument(
        "--watchdog",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="virtual-time deadline per supervised tick (default 3600)",
    )
    watch.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="with --serve: shed requests beyond N concurrent with a "
        "503 Retry-After (default: unbounded)",
    )
    watch.add_argument(
        "--process-chaos",
        choices=["none", "crashy", "wedged", "torn", "havoc"],
        default="none",
        help="with --supervise: inject seeded process faults (tick "
        "crashes, watchdog stalls, checkpoint corruption)",
    )
    watch.add_argument(
        "--process-chaos-seed",
        type=int,
        default=8,
        metavar="SEED",
        help="seed for the process-chaos substreams (default 8)",
    )
    watch.set_defaults(handler=_cmd_watch)

    scenarios = commands.add_parser(
        "scenarios", help="generate and score foundry scenario worlds"
    )
    actions = scenarios.add_subparsers(dest="action", required=True)

    def _add_selection(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "families",
            nargs="*",
            help="scenario-pack family names (default: the whole pack)",
        )
        sub.add_argument(
            "--spec",
            default=None,
            metavar="FILE",
            help="operate on a ScenarioSpec JSON file (or an archived "
            "fuzzer fixture) instead of pack families",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=PACK_SEED,
            help=f"world seed (default {PACK_SEED}, the frozen pack seed)",
        )
        sub.add_argument(
            "--smoke",
            action="store_true",
            help="the reduced-scale pack the CI smoke job runs",
        )

    generate = actions.add_parser(
        "generate", help="compile specs into ground-truth worlds"
    )
    _add_selection(generate)
    generate.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the selected specs as JSON instead of event tables",
    )
    generate.set_defaults(handler=_cmd_scenarios_generate)

    score = actions.add_parser(
        "score", help="run generated worlds through the pipeline and score"
    )
    _add_selection(score)
    score.set_defaults(handler=_cmd_scenarios_score)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
