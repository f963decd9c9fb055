"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    python -m repro list
    python -m repro run table1
    python -m repro run figure1 --quick --seed 3
    python -m repro run table2 --jobs 4
    python -m repro run all --out-dir results/
    python -m repro run figure1 --quick --trace figure1.jsonl
    python -m repro trace figure1.jsonl
    python -m repro paths figure1.jsonl
    python -m repro incidents figure1.jsonl --json incidents.jsonl
    python -m repro slo figure1.jsonl --window 30 --availability 0.999
    python -m repro health prediction.jsonl
    python -m repro alerts prediction.jsonl
    python -m repro shards storm.jsonl --json view.json --prom metrics.prom

Each experiment prints its rendered table (and ASCII figures, where the
paper has a figure) to stdout; ``--out-dir`` additionally writes one text
file per experiment.  Every experiment module has one ``SCALES`` table:
``--quick`` and ``--full`` pick its ``quick`` and ``full`` rows, and
without either it runs its ``bench`` row, the size whose output
``benchmarks/results/`` holds.  ``--trace`` enables the telemetry layer
(including the span layer) for the run and writes every kernel's event
timeline to one JSONL file.  The ``trace`` subcommand summarizes it (recovery
timeline, failover windows, slowest requests); the ``paths`` subcommand
renders the causal view (observed call trees, dependency graph, anomaly
ranking, recovery-decision audit); ``incidents`` stitches the timeline
into per-incident MTTR decompositions and ``slo`` judges rolling
availability/latency windows against a policy.  ``health`` and
``alerts`` replay the timeline through the predictive stack — online
MTTF/hazard estimators, blended component health scores, and the
declarative alert rules — rendering scores (sickest first) and
fired/resolved alerts with lead times versus the stitched incidents;
``shards`` renders the cluster plane's per-shard rollups and storm
meta-incidents.  All seven stream the timeline through one replay, bus by
bus (one kernel per arm or policy), and print one ``[bus <id>]`` section
per bus, each what that bus's records alone render.
"""

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.diagnosis.report import PathSummary
from repro.ebid.descriptors import URL_PATH_MAP
from repro.observability import (
    ClusterIncidentCorrelator,
    IncidentTracker,
    RequestWindows,
    ShardView,
    SloPolicy,
    predictive_chain,
    registry_from_cluster,
    registry_from_health,
    registry_from_observability,
    render_prometheus_buses,
    replay,
    shard_of_incident,
    summarize_alerts,
    summarize_health,
    summarize_incidents,
    summarize_shards,
    summarize_slo,
)
from repro.telemetry import (
    TimelineError,
    TimelineSummary,
    capture_to_jsonl,
    read_timeline,
)

from repro.experiments import (
    availability,
    chaos,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    health_prediction,
    megascale,
    path_diagnosis,
    storm,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)

EXPERIMENTS = {
    "table1": (table1, "Client workload mix"),
    "table2": (table2, "Fault → worst-case recovery level (26 scenarios)"),
    "table3": (table3, "Recovery times under load"),
    "table4": (table4, "Requests > 8 s during failover at doubled load"),
    "table5": (table5, "Fault-free throughput and latency"),
    "table6": (table6, "Masking µRBs with HTTP/1.1 Retry-After"),
    "figure1": (figure1, "Taw: process restart vs microreboot"),
    "figure2": (figure2, "Functional disruption by group"),
    "figure3": (figure3, "Failover under normal load, 2-8 nodes"),
    "figure4": (figure4, "Response time during failover at doubled load"),
    "figure5": (figure5, "Relaxing failure detection"),
    "figure6": (figure6, "Microrejuvenation"),
    "availability": (availability, "Six-nines recovery allowances"),
    "pathdiag": (path_diagnosis, "Static-map vs path-analysis diagnosis"),
    "chaos": (chaos, "Correlated-fault chaos: seed vs hardened pipeline"),
    "prediction": (health_prediction,
                   "Leak-heavy chaos: reactive vs proactive rejuvenation"),
    "megascale": (megascale,
                  "~1M sessions: cohort workload on a sharded 128-node "
                  "cluster, fault at one shard"),
    "storm": (storm,
              "K-shard fault storm at 1M sessions: static capacity vs "
              "elastic resharding with live session migration"),
}


def _print_experiments():
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_module, description) in EXPERIMENTS.items():
        print(f"  {name.ljust(width)}  {description}")


def _option(convert, accept, rule):
    """An argparse ``type`` that rejects values outside ``rule``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    return parse


_COUNT = _option(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _option(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_FRACTION = _option(float, lambda v: 0 < v <= 1, "in (0, 1]")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Microreboot: A Technique for Cheap Recovery' "
            "(Candea et al., OSDI 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available experiments")

    run = sub.add_parser(
        "run",
        help="run one experiment (or 'all')",
        description="Run one experiment (or 'all').  Without --quick or "
                    "--full it runs at the size benchmarks/results/ records.",
    )
    run.add_argument("experiment", nargs="?", default=None,
                     help="experiment name (see 'repro run --list') or 'all'")
    run.add_argument("--list", action="store_true", dest="list_scenarios",
                     help="list the registered scenarios and exit")
    run.add_argument("--seed", type=int, default=0)
    size = run.add_mutually_exclusive_group()
    size.add_argument("--quick", action="store_const", const="quick",
                      dest="scale", default="bench",
                      help="smallest parameters (fast smoke run)")
    size.add_argument("--full", action="store_const", const="full",
                      dest="scale", help="paper-scale parameters (slow)")
    run.add_argument("--jobs", type=int, default=1,
                     help="fan independent trials across N worker processes "
                          "(0 = all cores); output is identical to --jobs 1")
    run.add_argument("--out-dir", type=Path, default=None,
                     help="also write rendered output files here")
    run.add_argument("--trace", type=Path, default=None,
                     help="enable tracing and write a JSONL timeline here")

    trace = sub.add_parser(
        "trace", help="summarize a JSONL trace timeline written by run --trace"
    )
    trace.add_argument("file", type=Path)
    trace.add_argument("--slowest", type=_COUNT, default=5,
                       help="how many slowest requests to show")

    paths = sub.add_parser(
        "paths",
        help="render observed call trees, dependency graph and anomaly "
             "ranking from a JSONL timeline",
    )
    paths.add_argument("file", type=Path)
    paths.add_argument("--limit", type=_COUNT, default=20,
                       help="how many URLs/edges to show per section")

    incidents = sub.add_parser(
        "incidents",
        help="stitch a JSONL timeline into incidents with per-phase MTTR "
             "decomposition (detection/diagnosis/recovery/residual); the "
             "waterfall marks incidents whose recovery windows overlap "
             "(|| = concurrent recovery under the parallel scheduler)",
    )
    incidents.add_argument("file", type=Path)
    incidents.add_argument("--shard", default=None,
                           help="only incidents attributed to this shard "
                                "(megascale/storm timelines)")
    incidents.add_argument("--json", type=Path, default=None,
                           help="also write incidents as JSONL here")
    incidents.add_argument("--prom", type=Path, default=None,
                           help="also write Prometheus text exposition here")

    slo = sub.add_parser(
        "slo",
        help="judge rolling SLO windows (availability, Gaw, p50/p99, "
             "error-budget burn) over a JSONL timeline",
    )
    slo.add_argument("file", type=Path)
    slo.add_argument("--window", type=_POSITIVE, default=30.0,
                     help="window width in simulated seconds")
    slo.add_argument("--availability", type=_FRACTION, default=0.999,
                     help="per-window availability target")
    slo.add_argument("--latency", type=_POSITIVE, default=8.0,
                     help="per-window p99 ceiling in seconds")
    slo.add_argument("--shard", default=None,
                     help="judge one shard's windows from the cluster "
                          "plane's shard.window events (window width is "
                          "fixed at capture time)")
    slo.add_argument("--prom", type=Path, default=None,
                     help="also write Prometheus text exposition here")

    shards = sub.add_parser(
        "shards",
        help="render the cluster observability plane's per-shard rollups "
             "from a megascale/storm timeline: availability, probe "
             "p50/p99, failovers, migration flow, and the storm "
             "meta-incident waterfall with migration marks",
    )
    shards.add_argument("file", type=Path)
    shards.add_argument("--shard", default=None,
                        help="limit the table to one shard")
    shards.add_argument("--json", type=Path, default=None,
                        help="also write the rollup view as JSON here")
    shards.add_argument("--prom", type=Path, default=None,
                        help="also write Prometheus text exposition here "
                             "(shard=\"...\" labelled families)")

    health = sub.add_parser(
        "health",
        help="replay a JSONL timeline through the predictive stack "
             "(MTTF/hazard estimators + health registry) and render "
             "per-component health scores, sickest first",
    )
    health.add_argument("file", type=Path)
    health.add_argument("--prom", type=Path, default=None,
                        help="also write Prometheus text exposition here")

    alerts = sub.add_parser(
        "alerts",
        help="replay a JSONL timeline through the alert rules and render "
             "fired/resolved alerts plus lead times versus the stitched "
             "incidents",
    )
    alerts.add_argument("file", type=Path)
    return parser


def _tracker():
    return IncidentTracker(url_path_map=URL_PATH_MAP)


def _text(args, consumers, end):
    [summary] = consumers
    return summary.render(), None, None


def _incidents(args, consumers, end):
    tracker, requests = consumers
    incidents = tracker.finalize()
    if args.shard is not None:
        incidents = [
            i for i in incidents if shard_of_incident(i) == args.shard
        ]
    return (
        summarize_incidents(incidents),
        [i.to_dict() for i in incidents],
        registry_from_observability(incidents, requests.windows(end)),
    )


def _slo(args, consumers, end):
    source, tracker = consumers
    policy = SloPolicy(
        window=args.window,
        availability_target=args.availability,
        latency_target=args.latency,
    )
    if args.shard is not None:
        windows = source.slo_windows(args.shard, policy=policy)
    else:
        windows = source.windows(end, policy=policy)
    return (
        summarize_slo(windows, policy=policy),
        windows,
        registry_from_observability(tracker.finalize(), windows),
    )


def _health(args, consumers, end):
    tracker, _hub, registry = consumers
    tracker.finalize()
    rows = registry.snapshot(end)
    return summarize_health(rows), rows, registry_from_health(rows)


def _alerts(args, consumers, end):
    tracker, _hub, registry = consumers
    incidents = tracker.finalize()
    alerts = registry.alert_engine.finalize(end)
    return summarize_alerts(alerts, incidents=incidents), alerts, None


def _shards(args, consumers, end):
    view, tracker = consumers
    snapshot = view.snapshot()
    metas = [
        meta.to_dict() for meta in ClusterIncidentCorrelator().correlate(
            tracker.finalize(),
            replacements=view.replacements,
            migrations=view.migrations,
            storm=view.storm,
        )
    ]
    return (
        summarize_shards(snapshot, meta_incidents=metas, shard=args.shard),
        dict(snapshot, meta_incidents=metas),
        registry_from_cluster(snapshot["shards"]),
    )


#: Timeline subcommand -> (fresh consumers for one bus, renderer of one
#: replayed bus returning (text, exported data, Prometheus registry)).
REPLAYS = {
    "trace": (lambda args: [TimelineSummary(args.slowest)], _text),
    "paths": (lambda args: [PathSummary(args.limit)], _text),
    "incidents": (lambda args: [_tracker(), RequestWindows()], _incidents),
    "slo": (
        lambda args: [
            ShardView() if args.shard is not None else RequestWindows(),
            _tracker(),
        ],
        _slo,
    ),
    "health": (lambda args: predictive_chain(URL_PATH_MAP), _health),
    "alerts": (lambda args: predictive_chain(URL_PATH_MAP), _alerts),
    "shards": (lambda args: [ShardView(), _tracker()], _shards),
}


def _write_json(args, sections):
    """``--json``: incidents as JSONL, the shard view as one document.

    A multi-bus timeline tags each incident line with its ``bus`` and
    keys the shard views by bus.
    """
    multi = len(sections) > 1
    if args.command == "incidents":
        lines = [
            json.dumps(dict(incident, bus=bus) if multi else incident,
                       sort_keys=True) + "\n"
            for bus, _text, incidents, _registry in sections
            for incident in incidents
        ]
        args.json.write_text("".join(lines), encoding="utf-8")
        return f"[{len(lines)} incident(s) written to {args.json}]"
    views = {str(bus): view for bus, _text, view, _registry in sections}
    payload = views if multi else sections[0][2]
    args.json.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return f"[shard rollup view written to {args.json}]"


def replay_command(args):
    """``repro trace|paths|incidents|slo|health|alerts|shards``.

    Streams the timeline through one replay: a multi-bus timeline (one
    bus per kernel: per policy, per arm) renders one ``[bus <id>]``
    section per bus, each exactly what that bus's records alone would
    render; Prometheus samples gain a ``bus`` label.  A timeline that
    cannot be read is one ``error:`` line on stderr and exit 2.
    """
    build, render = REPLAYS[args.command]
    try:
        replayed = replay(read_timeline(args.file), lambda: build(args))
    except TimelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sections = [
        (bus, *render(args, consumers, end))
        for bus, consumers, end in replayed
    ]
    if args.command == "slo" and args.shard is not None \
            and not any(windows for _bus, _text, windows, _r in sections):
        views = [consumers[0] for _bus, consumers, _end in replayed]
        seen = sorted({shard for view in views for shard in view.windows})
        hint = f" (shards with windows: {', '.join(seen)})" if seen else ""
        print(
            f"error: no shard SLO windows for {args.shard!r}{hint}",
            file=sys.stderr,
        )
        return 2
    multi = len(sections) > 1
    print(
        "\n\n".join(
            f"[bus {bus}]\n{text}" if multi else text
            for bus, text, _data, _registry in sections
        )
    )
    if getattr(args, "json", None) is not None:
        print(_write_json(args, sections))
    if getattr(args, "prom", None) is not None:
        registries = {
            bus if multi else None: registry
            for bus, _text, _data, registry in sections
        }
        args.prom.write_text(
            render_prometheus_buses(registries), encoding="utf-8"
        )
        print(f"[Prometheus exposition written to {args.prom}]")
    return 0


def run_experiment(name, seed=0, scale="bench", jobs=1):
    """Run one experiment by name at one of its scales (``"quick"``,
    ``"bench"`` or ``"full"``); returns its ExperimentResult."""
    try:
        module, _description = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment: {name!r} (see 'repro run --list')"
        ) from None
    result, _outcomes = module.run(seed=seed, scale=scale, jobs=jobs)
    return result


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "list":
        _print_experiments()
        return 0

    if args.command in REPLAYS:
        return replay_command(args)

    if args.command == "run" and args.list_scenarios:
        _print_experiments()
        return 0

    if args.experiment is None:
        print(
            "error: missing experiment name (see 'repro run --list')",
            file=sys.stderr,
        )
        return 2

    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(
            "error: unknown experiment: "
            f"{args.experiment} (see 'repro run --list')",
            file=sys.stderr,
        )
        return 2

    if args.trace is not None and not args.trace.parent.is_dir():
        print(f"error: no such directory: {args.trace.parent}",
              file=sys.stderr)
        return 2

    jobs = args.jobs
    if args.trace is not None and jobs != 1:
        # Worker processes have their own trace buses; their timelines
        # cannot reach this process's capture file.  Keep traced runs
        # in-process so the JSONL timeline stays complete.
        print("[--trace forces --jobs 1 so the timeline captures every event]")
        jobs = 1

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    capture = (
        capture_to_jsonl(args.trace) if args.trace is not None else nullcontext()
    )
    with capture:
        for name in names:
            started = time.monotonic()
            result = run_experiment(
                name, seed=args.seed, scale=args.scale, jobs=jobs
            )
            elapsed = time.monotonic() - started
            print(result.render())
            print(f"[{name} regenerated in {elapsed:.1f}s wall time]")
            print()
            if args.out_dir is not None:
                args.out_dir.mkdir(parents=True, exist_ok=True)
                (args.out_dir / f"{name}.txt").write_text(
                    result.render() + "\n", encoding="utf-8"
                )
    if args.trace is not None:
        print(f"[trace timeline written to {args.trace}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
