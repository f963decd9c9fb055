"""Live ≡ replay for every observability consumer, bus by bus.

One in-process capture records four small rigs, one kernel (so one bus)
each: a hardened chaos campaign, the leak schedule under shadow and
proactive prediction, and a smoke storm with elastic resharding; then
two span-traced single-node rigs with a transient fault, whose
``request.end`` records carry their calls.  Replaying that multi-bus
timeline through fresh consumers must rebuild, bus by bus, what each of
the first four rigs' live consumers computed — the contract that makes
``repro incidents|slo|health|alerts|shards`` on a recorded timeline
trustworthy — and every timeline subcommand must render each
``[bus <id>]`` section exactly as it renders that bus alone.
"""

import json

import pytest

from repro.cli import main
from repro.ebid.schema import DatasetConfig
from repro.experiments.chaos import ChaosClusterRig
from repro.experiments.common import SingleNodeRig
from repro.experiments.megascale import URL_PATH_MAP
from repro.experiments.storm import StormRig
from repro.faults.chaos import ChaosSpec, StormSpec
from repro.observability import (
    ClusterIncidentCorrelator,
    ShardView,
    SloPolicy,
    predictive_chain,
    replay,
    summarize_slo,
)
from repro.telemetry import capture_to_jsonl, read_timeline


def _chaos(**kwargs):
    return ChaosClusterRig(
        seed=0, n_nodes=2, clients_per_node=10, hardened=True, **kwargs
    )


#: Rig builders in capture order: rig i records bus i.
RIGS = {
    "chaos-hardened": lambda: _chaos(spec=ChaosSpec.smoke()),
    "prediction-shadow": lambda: _chaos(
        spec=ChaosSpec.leaky(duration=240.0), prediction="shadow"
    ),
    "prediction-proactive": lambda: _chaos(
        spec=ChaosSpec.leaky(duration=240.0), prediction="proactive"
    ),
    "storm+elastic": lambda: StormRig(
        seed=0, n_sessions=2000, n_shards=4, duration=90.0, storm=True,
        elastic=True, storm_spec=StormSpec.smoke(),
    ),
}


def _span_traced(seed):
    """A single-node rig whose requests the span layer traces."""
    rig = SingleNodeRig(seed=seed, n_clients=10, dataset=DatasetConfig.tiny())
    rig.start()
    rig.injector.inject_transient_exception("ViewItem")
    rig.run_for(30.0)


#: Buses in the capture: RIGS, then two span-traced rigs.
BUSES = len(RIGS) + 2


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    directory = tmp_path_factory.mktemp("replay")
    path = directory / "rigs.jsonl"
    runs = []
    with capture_to_jsonl(path):
        for build in RIGS.values():
            rig = build()
            runs.append((rig, rig.run()))
        for seed in (0, 1):
            _span_traced(seed)
    records = list(read_timeline(path))
    for bus in range(BUSES):  # each bus's records alone, for the CLI
        (directory / f"bus{bus}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records if r["bus"] == bus),
            encoding="utf-8",
        )
    replayed = replay(
        records, lambda: predictive_chain(URL_PATH_MAP) + [ShardView()]
    )
    assert [bus for bus, *_rest in replayed] == list(range(BUSES))
    by_name = {
        name: (rig, outcome, consumers, end)
        for name, (rig, outcome), (_bus, consumers, end)
        in zip(RIGS, runs, replayed)
    }
    return path, by_name


@pytest.mark.parametrize("name", list(RIGS))
def test_live_equals_replay(capture, name):
    _path, by_name = capture
    rig, outcome, (tracker, registry, view), end = by_name[name]

    incidents = tracker.finalize()
    assert incidents
    assert [i.to_dict() for i in incidents] == [
        i.to_dict() for i in rig.incident_tracker.incidents
    ]

    engine = getattr(rig, "alert_engine", None)
    if engine is not None:
        alerts = registry.alert_engine.finalize(end)
        assert alerts
        assert [a.to_dict() for a in alerts] == [
            a.to_dict() for a in engine.alerts
        ]

    if rig.health_registry is not None:
        live = {
            (row["server"], row["component"]): row
            for row in rig.health_registry.snapshot(end)
        }
        rows = registry.snapshot(end)
        assert rows
        for row in rows:  # live also lists every pre-registered component
            assert row == live[(row["server"], row["component"])]

    plane = getattr(rig, "shard_metrics", None)
    if plane is not None:
        live_rows = {row["shard"]: row for row in plane.rows()}
        rows = view.snapshot()["shards"]
        assert [row["shard"] for row in rows] == sorted(live_rows)
        for row in rows:
            live = dict(live_rows[row["shard"]])
            live.pop("series")
            slo = live.pop("slo")
            assert {key: row[key] for key in live} == live
            assert (
                row["slo_windows"], row["slo_violations"],
                row["slo_min_availability"],
            ) == (slo["windows"], slo["violations"], slo["min_availability"])
            windows = view.slo_windows(row["shard"])
            assert len(windows) == slo["windows"]
            assert sum(w.violated for w in windows) == slo["violations"]
        metas = ClusterIncidentCorrelator().correlate(
            incidents,
            replacements=view.replacements,
            migrations=view.migrations,
            storm=view.storm,
        )
        assert [m.to_dict() for m in metas] == (
            outcome["cluster"]["meta_incidents"]
        )
        assert view.replacements == outcome["reshard"]["replacements"]
        assert view.replacements


#: Timeline subcommands; ``{shard}`` is a shard the storm struck.
COMMANDS = (
    "trace",
    "trace --slowest 2",
    "paths",
    "paths --limit 3",
    "incidents",
    "incidents --shard {shard}",
    "slo",
    "slo --shard {shard}",
    "health",
    "alerts",
    "shards",
    "shards --shard {shard}",
)


def _main(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS)
def test_each_bus_section_renders_that_bus_alone(capture, capsys, command):
    path, by_name = capture
    shard = by_name["storm+elastic"][1]["storm"]["shards"][0]
    name, *options = command.format(shard=shard).split()
    code, out = _main(capsys, [name, str(path), *options])
    assert code == 0

    sections = []
    for bus in range(BUSES):
        alone = path.with_name(f"bus{bus}.jsonl")
        code, text = _main(capsys, [name, str(alone), *options])
        if code == 2:  # only slo --shard: no windows for it on this bus
            assert name == "slo" and text == ""
            text = summarize_slo([], policy=SloPolicy()) + "\n"
        sections.append(f"[bus {bus}]\n{text}")
    assert out == "\n".join(sections)
    if name == "paths":  # the span-traced buses rank their paths
        for section in sections[len(RIGS):]:
            assert " 0 spans across" not in section
            assert "(empty — no failures observed)" not in section


def test_multi_bus_exports_carry_the_bus(capture, tmp_path, capsys):
    path, by_name = capture
    jsonl, prom = tmp_path / "incidents.jsonl", tmp_path / "metrics.prom"
    assert main(["incidents", str(path), "--json", str(jsonl),
                 "--prom", str(prom)]) == 0
    by_bus = {}
    for line in jsonl.read_text().splitlines():
        incident = json.loads(line)
        by_bus.setdefault(incident.pop("bus"), []).append(incident)
    for bus, (rig, *_rest) in enumerate(by_name.values()):
        live = rig.incident_tracker.incidents
        assert by_bus[bus] == [i.to_dict() for i in live]
    exposition = prom.read_text()
    assert exposition.count("# TYPE repro_incidents_count counter") == 1
    for bus in range(BUSES):
        assert f'repro_incidents_count{{bus="{bus}"}} ' in exposition

    view = tmp_path / "view.json"
    assert main(["shards", str(path), "--json", str(view)]) == 0
    views = json.loads(view.read_text())
    assert sorted(views) == [str(bus) for bus in range(BUSES)]
    assert views["3"]["meta_incidents"][0]["replacements"]

    # An unknown shard is an error only when no bus has windows for it.
    capsys.readouterr()
    assert main(["slo", str(path), "--shard", "shard999"]) == 2
    assert "no shard SLO windows for 'shard999'" in capsys.readouterr().err
