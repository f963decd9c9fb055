"""CLI surface: the `repro incidents`, `slo`, `health` and `alerts`
subcommands."""

import json

from repro.cli import main
from repro.cluster.node import Node
from repro.ebid.app import build_ebid_system
from repro.ebid.schema import DatasetConfig
from repro.faults import FaultInjector
from repro.faults.lowlevel import LowLevelInjector
from repro.telemetry import TraceBus, capture_to_jsonl, read_timeline

MB = 1024 * 1024


def make_timeline(path):
    with capture_to_jsonl(path):
        bus = TraceBus(label="run")
        bus.publish("fault.injected", target="Item", fault="corrupt-tx",
                    server="node1")
        bus.publish("rm.report", url="/ebid/ViewItem", server="node1")
        bus.publish("rm.decision", level="ejb", target=("Item",),
                    server="node1")
        bus.publish("rm.action.end", level="ejb", target=("Item",), ok=True,
                    duration=1.0, server="node1")
        for i in range(4):
            bus.publish("request.end", operation="ViewItem", ok=(i != 0),
                        duration=0.3)
    return path


def test_incidents_command_renders_table_and_waterfall(tmp_path, capsys):
    path = make_timeline(tmp_path / "timeline.jsonl")
    assert main(["incidents", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 incident(s)" in out
    assert "phase waterfall" in out
    assert "recovered" in out


def test_incidents_command_writes_json_and_prom(tmp_path, capsys):
    path = make_timeline(tmp_path / "timeline.jsonl")
    json_out = tmp_path / "incidents.jsonl"
    prom_out = tmp_path / "metrics.prom"
    assert main(["incidents", str(path), "--json", str(json_out),
                 "--prom", str(prom_out)]) == 0
    records = [
        json.loads(line)
        for line in json_out.read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == 1 and records[0]["closed_by"] == "recovered"
    prom = prom_out.read_text(encoding="utf-8")
    assert "# TYPE repro_incidents_count counter" in prom
    assert "repro_incidents_count 1" in prom


def test_incidents_command_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["incidents", str(tmp_path / "nope.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no such trace file" in err


def test_slo_command_renders_windows(tmp_path, capsys):
    path = make_timeline(tmp_path / "timeline.jsonl")
    # All events land at t=0 on an unclocked bus: give the run an end so
    # at least one full window exists.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"t": 10.0, "seq": 99, "bus": "run",
                             "kind": "run.end"}) + "\n")
    assert main(["slo", str(path), "--window", "5",
                 "--availability", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "policy: window=5s availability>=0.9" in out
    assert "2 window(s)" in out
    assert "VIOLATED" in out  # 1 bad of 4 requests < 0.9 availability


def test_slo_command_empty_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["slo", str(path)]) == 2
    assert "empty timeline" in capsys.readouterr().err


def make_predictive_timeline(path):
    """A timeline with a heap drain (alert fodder) preceding an incident.

    The drain loses 30 MB/s from t=5: two samples in, the trend tracker
    predicts exhaustion well inside the 120 s rule threshold, so
    ``heap-exhaustion-predicted`` fires once the 5 s for-duration holds —
    long before the t=200 incident it "warns" about.
    """
    records = []
    seq = 0
    for k in range(1, 9):  # t = 5, 10, ..., 40
        t = 5.0 * k
        records.append({"t": t, "seq": (seq := seq + 1), "bus": "run",
                        "kind": "heap.sample", "server": "node1",
                        "available": 900 * MB - int(t * 30 * MB),
                        "capacity": 1024 * MB})
    records.append({"t": 200.0, "seq": (seq := seq + 1), "bus": "run",
                    "kind": "fault.injected", "target": "Item",
                    "fault": "leak", "server": "node1"})
    records.append({"t": 201.0, "seq": (seq := seq + 1), "bus": "run",
                    "kind": "rm.report", "url": "/ebid/ViewItem",
                    "server": "node1"})
    records.append({"t": 203.0, "seq": (seq := seq + 1), "bus": "run",
                    "kind": "rm.action.end", "level": "ejb",
                    "target": ["Item"], "ok": True, "duration": 1.0,
                    "server": "node1"})
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def test_health_command_renders_the_scoreboard(tmp_path, capsys):
    path = make_predictive_timeline(tmp_path / "timeline.jsonl")
    assert main(["health", str(path)]) == 0
    out = capsys.readouterr().out
    assert "component(s)" in out
    assert "node1" in out and "Item" in out
    assert "score" in out and "hazard" in out


def test_health_command_writes_prometheus_exposition(tmp_path, capsys):
    path = make_predictive_timeline(tmp_path / "timeline.jsonl")
    prom_out = tmp_path / "metrics.prom"
    assert main(["health", str(path), "--prom", str(prom_out)]) == 0
    prom = prom_out.read_text(encoding="utf-8")
    assert "# TYPE repro_health_score_node1_Item gauge" in prom


def test_alerts_command_renders_log_and_lead_times(tmp_path, capsys):
    path = make_predictive_timeline(tmp_path / "timeline.jsonl")
    assert main(["alerts", str(path)]) == 0
    out = capsys.readouterr().out
    assert "alert(s)" in out
    assert "heap-exhaustion-predicted" in out
    assert "lead time:" in out  # the drain warned the t=200 incident


def test_alerts_command_handles_a_quiet_timeline(tmp_path, capsys):
    # No heap drain, no failures worth alerting on: empty log, no crash.
    path = make_timeline(tmp_path / "timeline.jsonl")
    assert main(["alerts", str(path)]) == 0
    assert "alert(s)" in capsys.readouterr().out


def test_health_command_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["health", str(tmp_path / "nope.jsonl")]) == 2
    assert "no such trace file" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Shard-aware surfaces: `repro shards`, `--shard` filters
# ----------------------------------------------------------------------

class ShardClock:
    """Duck-typed kernel clock so published events carry timestamps."""

    def __init__(self):
        self.now = 0.0


def make_shard_timeline(path):
    """A two-shard storm timeline with rollups, windows, and one shard
    replacement (a policy verdict, then the add naming the fresh shard)."""
    clock = ShardClock()
    with capture_to_jsonl(path):
        bus = TraceBus(kernel=clock, label="run")
        clock.now = 10.0
        bus.publish("storm.begin", shards=["shard001", "shard002"], events=4,
                    horizon=60.0)
        clock.now = 20.0
        bus.publish("fault.injected", target="Item", fault="deadlock",
                    server="shard001-n1")
        clock.now = 20.5
        bus.publish("fault.injected", target="Item", fault="deadlock",
                    server="shard002-n1")
        clock.now = 21.0
        bus.publish("rm.report", url="/ebid/ViewItem", server="shard001-n1")
        clock.now = 23.0
        bus.publish("rm.action.end", level="ejb", target=("Item",), ok=True,
                    duration=1.0, server="shard001-n1")
        clock.now = 24.0
        bus.publish("rm.action.end", level="ejb", target=("Item",), ok=True,
                    duration=1.0, server="shard002-n1")
        clock.now = 28.0
        bus.publish("reshard.policy", shard="shard001", fail_rate=0.9)
        bus.publish("reshard.begin", op="add", shard="shard128")
        clock.now = 30.0
        bus.publish("reshard.migrate", source="shard001", target="shard128",
                    sessions=100, window=2.0)
        clock.now = 120.0
        for start, good, bad in ((0.0, 3000, 0), (30.0, 1500, 900),
                                 (60.0, 3000, 0), (90.0, 3000, 0)):
            bus.publish("shard.window", shard="shard001", start=start,
                        end=start + 30.0, good=good, bad=bad,
                        violated=bad > 0)
        bus.publish("shard.window", shard="shard002", start=0.0, end=30.0,
                    good=1500, bad=0, violated=False)
        bus.publish("shard.rollup", shard="shard001", sessions=1000,
                    good=10500, bad=900, availability=0.921053,
                    gaw_per_second=87.5, probes=120, probe_failures=9,
                    probe_p50=0.002, probe_p99=0.011, failovers=1,
                    link_faults=0, brick_crashes=0, storm_events=2,
                    storm_kinds=["deadlock"], migrated_in=0,
                    migrated_out=100, slo_windows=4, slo_violations=1,
                    slo_min_availability=0.625)
        bus.publish("shard.rollup", shard="shard002", sessions=500,
                    good=1500, bad=0, availability=1.0, gaw_per_second=50.0,
                    probes=120, probe_failures=0, probe_p50=0.002,
                    probe_p99=0.004, failovers=0, link_faults=0,
                    brick_crashes=0, storm_events=2, storm_kinds=["deadlock"],
                    migrated_in=0, migrated_out=0, slo_windows=1,
                    slo_violations=0, slo_min_availability=1.0)
    return path


def test_shards_command_renders_rollup_and_meta_waterfall(tmp_path, capsys):
    path = make_shard_timeline(tmp_path / "timeline.jsonl")
    assert main(["shards", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 shard(s), cluster availability" in out
    assert "storm at t=10s struck 2 shard(s)" in out
    assert "shard001" in out and "shard002" in out and "storm" in out
    assert "1 meta-incident(s)" in out
    assert "shards: shard001, shard002" in out
    assert "~> shard001 -> shard128: 100 session(s) @ t=30s" in out
    assert "=> replaced shard001 with shard128 @ t=28s (fail rate 0.9)" in out
    assert "capacity" not in out


def test_shards_command_filters_and_exports(tmp_path, capsys):
    path = make_shard_timeline(tmp_path / "timeline.jsonl")
    json_out = tmp_path / "view.json"
    prom_out = tmp_path / "metrics.prom"
    assert main(["shards", str(path), "--shard", "shard002",
                 "--json", str(json_out), "--prom", str(prom_out)]) == 0
    out = capsys.readouterr().out
    assert "1 shard(s)" in out
    assert "shard002" in out
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert [r["shard"] for r in payload["shards"]] == [
        "shard001", "shard002"
    ]  # JSON export keeps the full view
    assert len(payload["meta_incidents"]) == 1
    assert payload["meta_incidents"][0]["shards"] == [
        "shard001", "shard002"
    ]
    prom = prom_out.read_text(encoding="utf-8")
    assert 'repro_shard_availability{shard="shard001"} 0.921053' in prom
    assert 'repro_shard_slo_violations{shard="shard001"} 1' in prom
    assert "capacity" not in prom


def test_shards_command_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["shards", str(tmp_path / "nope.jsonl")]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_slo_shard_filter_replays_judged_windows(tmp_path, capsys):
    path = make_shard_timeline(tmp_path / "timeline.jsonl")
    assert main(["slo", str(path), "--shard", "shard001"]) == 0
    out = capsys.readouterr().out
    assert "4 window(s)" in out
    assert "VIOLATED" in out  # the 30–60 s window lost 900 requests


def test_slo_shard_filter_unknown_shard_is_a_clean_error(tmp_path, capsys):
    path = make_shard_timeline(tmp_path / "timeline.jsonl")
    assert main(["slo", str(path), "--shard", "shard999"]) == 2
    err = capsys.readouterr().err
    assert "no shard SLO windows for 'shard999'" in err
    assert "shard001" in err  # the hint lists what the timeline has


def test_incidents_shard_filter_and_column(tmp_path, capsys):
    path = make_shard_timeline(tmp_path / "timeline.jsonl")
    assert main(["incidents", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 incident(s)" in out
    assert "shard" in out  # the attribution column appears
    assert main(["incidents", str(path), "--shard", "shard002"]) == 0
    out = capsys.readouterr().out
    assert "1 incident(s)" in out
    assert "shard002" in out and "shard001-n1" not in out


def test_incidents_flat_timeline_keeps_its_shardless_rendering(
        tmp_path, capsys):
    path = make_timeline(tmp_path / "timeline.jsonl")
    assert main(["incidents", str(path)]) == 0
    header = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("id")
    ][0]
    assert "shard" not in header


def test_every_timeline_command_reads_a_leak_timeline(tmp_path, capsys):
    """Leaks outside the application name what leaked (the server, the
    node) as their target and carry their size in ``bytes``, so incident,
    health and shard replays key them like any other fault."""
    path = tmp_path / "leaks.jsonl"
    with capture_to_jsonl(path):
        system = build_ebid_system(dataset=DatasetConfig.tiny(), seed=4)
        node = Node(system)
        lowlevel = LowLevelInjector(system, system.rng.stream("lowlevel"))
        lowlevel.leak_intra_jvm(64 * MB)
        lowlevel.leak_extra_jvm(node, 32 * MB)
        FaultInjector(system).inject_deadlock("ViewItem")
        system.kernel.run(until=5.0)
    faults = [r for r in read_timeline(path) if r["kind"] == "fault.injected"]
    assert [(r["fault"], r["target"], r.get("bytes")) for r in faults] == [
        ("leak-intra-jvm", system.server.name, 64 * MB),
        ("leak-extra-jvm", node.name, 32 * MB),
        ("deadlock", "ViewItem", None),
    ]
    for command in ("trace", "paths", "incidents", "slo", "health",
                    "alerts", "shards"):
        assert main([command, str(path)]) == 0, command
        assert capsys.readouterr().err == "", command
