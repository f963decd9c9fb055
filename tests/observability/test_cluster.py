"""Cluster observability plane: shard rollups, correlation, replay."""

import pytest

from repro.observability import (
    ClusterIncidentCorrelator,
    Incident,
    ShardMetricsAggregator,
    ShardView,
    replay,
    shard_of_incident,
    shard_of_name,
)
from repro.telemetry import TraceBus, capture_to_jsonl, read_timeline


class Clock:
    """Duck-typed kernel: just enough for TraceBus timestamps."""

    def __init__(self):
        self.now = 0.0


class FakeEngine:
    """The three engine views the aggregator reads, nothing else."""

    def __init__(self, good, bad, sessions):
        self.shard_good_series = good
        self.shard_bad_series = bad
        self.shard_sessions = sessions


def make_engine():
    """Two shards over 120 s: shard001 clean, shard002 sick in 30–60 s."""
    good = {
        "shard001": {s: 100 for s in range(120)},
        "shard002": {s: 50 for s in range(120)},
    }
    bad = {"shard002": {s: 30 for s in range(30, 60)}}
    sessions = {"shard001": 1000, "shard002": 500}
    return FakeEngine(good, bad, sessions)


# ----------------------------------------------------------------------
# Shard attribution
# ----------------------------------------------------------------------

def test_shard_of_name_matches_cluster_resources_only():
    assert shard_of_name("shard003-n1") == "shard003"
    assert shard_of_name("shard003-ssm-b2") == "shard003"
    assert shard_of_name("shard003") == "shard003"
    assert shard_of_name("node1") is None
    assert shard_of_name("shardX-n1") is None
    assert shard_of_name("") is None
    assert shard_of_name(None) is None


def test_shard_of_incident_prefers_cluster_map_then_name_then_key():
    by_server = Incident(id=1, key="SSM", server="shard002-n1")
    assert shard_of_incident(by_server) == "shard002"
    # The cluster map is authoritative (it remembers departed nodes).
    assert shard_of_incident(
        by_server, shard_of_node={"shard002-n1": "shard009"}
    ) == "shard009"
    by_key = Incident(id=2, key="link:shard004-n1", server=None)
    assert shard_of_incident(by_key) == "shard004"
    flat = Incident(id=3, key="Item", server="node1")
    assert shard_of_incident(flat) is None


# ----------------------------------------------------------------------
# Aggregator: bus intake
# ----------------------------------------------------------------------

def test_aggregator_folds_bus_events_into_rollups():
    clock = Clock()
    bus = TraceBus(kernel=clock, enabled=True, label="run")
    plane = ShardMetricsAggregator(bus=bus)
    clock.now = 10.0
    bus.publish("storm.begin", shards=["shard001", "shard002"], events=8,
                horizon=60.0)
    bus.publish("storm.event", shard="shard001", kind="deadlock")
    bus.publish("storm.event", shard="shard001", kind="deadlock")
    bus.publish("lb.failover.begin", node="shard001-n1")
    bus.publish("lb.link.fault", node="shard002-n1")
    bus.publish("ssm.crash", store="shard002-ssm-b0")
    clock.now = 30.0
    bus.publish("cohort.migrate", source="shard001", target="shard002",
                sessions=40)
    bus.publish("cohort.migrate.arrived", target="shard002", sessions=40)
    bus.publish("reshard.migrate", source="shard001", target="shard002",
                sessions=40, window=2.0)
    bus.publish("reshard.policy", replaced="shard001")
    clock.now = 70.0
    bus.publish("storm.end")

    rows = {row["shard"]: row for row in plane.rows()}
    assert rows["shard001"]["storm_events"] == 2
    assert rows["shard001"]["storm_kinds"] == ["deadlock"]
    assert rows["shard001"]["failovers"] == 1
    assert rows["shard001"]["migrated_out"] == 40
    assert rows["shard002"]["link_faults"] == 1
    assert rows["shard002"]["brick_crashes"] == 1
    assert rows["shard002"]["migrated_in"] == 40
    assert plane.storm == {"at": 10.0, "shards": ["shard001", "shard002"],
                           "events": 8, "horizon": 60.0, "ended_at": 70.0}
    assert plane.migrations == [{"at": 30.0, "source": "shard001",
                                 "target": "shard002", "sessions": 40,
                                 "window": 2.0}]
    assert plane.replacement_checks == 1


# ----------------------------------------------------------------------
# Aggregator: collection, SLO judging, reduction
# ----------------------------------------------------------------------

def test_collect_folds_series_and_judges_shard_slo():
    plane = ShardMetricsAggregator()
    plane.collect(make_engine(), duration=120.0)
    rows = {row["shard"]: row for row in plane.rows()}

    clean = rows["shard001"]
    assert clean["good"] == 12_000 and clean["bad"] == 0
    assert clean["availability"] == 1.0
    assert clean["gaw_per_second"] == 100.0
    assert clean["series"] == [[0, 3000, 0], [30, 3000, 0],
                               [60, 3000, 0], [90, 3000, 0]]
    assert clean["slo"]["violations"] == 0

    sick = rows["shard002"]
    assert sick["bad"] == 900
    assert sick["slo"]["windows"] == 4
    assert sick["slo"]["violations"] == 1  # the 30–60 s window
    assert sick["slo"]["min_availability"] == pytest.approx(
        1500 / 2400, abs=1e-6
    )

    summary = plane.cluster_summary()
    assert summary["shards"] == 2
    assert summary["good"] == 12_000 + 6_000
    assert summary["bad"] == 900
    assert summary["slo_violations"] == 1
    assert summary["sessions"] == 1500


def test_probe_quantiles_merge_exactly_into_cluster_summary():
    plane = ShardMetricsAggregator()
    reference = ShardMetricsAggregator()
    for k in range(200):
        shard = "shard001" if k % 2 else "shard002"
        latency = 0.001 * (k + 1)
        plane.observe_probe(float(k), shard, "probe", True, latency)
        reference.observe_probe(float(k), "shard001", "probe", True, latency)
    merged = plane.cluster_summary()
    single = reference.cluster_summary()
    assert merged["probe_p50"] == single["probe_p50"]
    assert merged["probe_p99"] == single["probe_p99"]


def test_rollups_are_deterministic():
    def build():
        plane = ShardMetricsAggregator()
        for k in range(50):
            plane.observe_probe(float(k), "shard002", "probe", k % 3 == 0,
                                0.002 * (k % 7 + 1))
        plane.collect(make_engine(), duration=120.0)
        return plane

    a, b = build(), build()
    assert a.rows() == b.rows()
    assert a.cluster_summary() == b.cluster_summary()


# ----------------------------------------------------------------------
# Correlator: meta-incidents
# ----------------------------------------------------------------------

def make_incident(iid, shard, opened, closed, first_report=None,
                  actions=()):
    incident = Incident(
        id=iid, key=f"deadlock:{shard}-n1", server=f"{shard}-n1",
        opened_at=opened, closed_at=closed, first_report_at=first_report,
        last_activity=closed,
    )
    incident.actions = [dict(a) for a in actions]
    return incident


def test_correlator_stitches_concurrent_shards_into_one_meta():
    incidents = [
        make_incident(1, "shard001", 20.0, 45.0, first_report=22.0),
        make_incident(2, "shard002", 21.0, 50.0, first_report=23.0),
        make_incident(3, "shard001", 40.0, 60.0),  # pulse chain bridges
    ]
    correlator = ClusterIncidentCorrelator(window=60.0, k_min=2)
    metas = correlator.correlate(incidents)
    assert len(metas) == 1 and correlator.unclustered == 0
    meta = metas[0]
    assert meta.shards == ["shard001", "shard002"]
    assert meta.mode() == "simultaneous"  # onsets 20 and 21: spread 1 s
    assert meta.opened_at == 20.0 and meta.end == 60.0
    assert meta.span == 40.0


def test_correlator_detects_waves_and_orders_onsets():
    incidents = [
        make_incident(1, "shard005", 100.0, 130.0),
        make_incident(2, "shard002", 80.0, 110.0),
        make_incident(3, "shard009", 120.0, 150.0),
    ]
    meta = ClusterIncidentCorrelator().correlate(incidents)[0]
    assert meta.mode() == "wave"  # onset spread 40 s > 5 s
    assert meta.onset_order == ["shard002", "shard005", "shard009"]
    assert meta.onset_spread == 40.0


def test_correlator_splits_distant_clusters_and_counts_leftovers():
    incidents = [
        make_incident(1, "shard001", 10.0, 20.0),
        make_incident(2, "shard002", 15.0, 25.0),
        # Opens 200 s after the first cluster's end: its own cluster,
        # single-shard, below k_min — unclustered.
        make_incident(3, "shard003", 225.0, 240.0),
    ]
    correlator = ClusterIncidentCorrelator(window=60.0, k_min=2)
    metas = correlator.correlate(incidents)
    assert len(metas) == 1
    assert metas[0].shards == ["shard001", "shard002"]
    assert correlator.unclustered == 1


def test_correlator_ignores_unattributable_incidents():
    flat = Incident(id=1, key="Item", server="node1", opened_at=5.0,
                    closed_at=9.0)
    correlator = ClusterIncidentCorrelator()
    assert correlator.correlate([flat]) == []
    assert correlator.unclustered == 0  # never attributed, never counted


def test_correlator_absorbs_struck_but_silent_shards():
    # A brick-crash shard never opens a tracked incident; the storm
    # schedule is the evidence it belongs to the same meta-incident.
    incidents = [
        make_incident(1, "shard001", 60.0, 90.0),
        make_incident(2, "shard002", 61.0, 95.0),
    ]
    storm = {"at": 60.0, "shards": ["shard001", "shard002", "shard003",
                                    "shard004"], "ended_at": 180.0}
    meta = ClusterIncidentCorrelator().correlate(
        incidents, storm=storm
    )[0]
    assert meta.shards == ["shard001", "shard002", "shard003", "shard004"]
    assert meta.absorbed == ["shard003", "shard004"]
    # Absorbed shards carry no observed onset: the simultaneous/wave
    # classification and the span stay grounded in incident evidence.
    assert sorted(meta.onsets) == ["shard001", "shard002"]
    assert meta.mode() == "simultaneous"
    assert meta.opened_at == 60.0
    assert meta.to_dict()["absorbed"] == ["shard003", "shard004"]
    # A storm far outside the cluster's span is never absorbed.
    late = ClusterIncidentCorrelator().correlate(
        incidents, storm={"at": 500.0, "shards": ["shard009"],
                          "ended_at": 600.0}
    )[0]
    assert late.shards == ["shard001", "shard002"]


def test_meta_incident_attributes_elasticity_actions_in_span():
    incidents = [
        make_incident(1, "shard001", 20.0, 60.0),
        make_incident(2, "shard002", 22.0, 55.0),
    ]
    replacements = [
        {"at": 40.0, "replaced": "shard001", "with": "shard128"},
        {"at": 500.0, "replaced": "shard001", "with": "shard129"},  # late
        {"at": 41.0, "replaced": "shard099", "with": "shard130"},  # foreign
    ]
    migrations = [
        {"at": 42.0, "source": "shard001", "target": "shard128",
         "sessions": 500, "window": 2.0},
        {"at": 43.0, "source": "shard050", "target": "shard051",
         "sessions": 10, "window": 2.0},  # neither endpoint struck
    ]
    meta = ClusterIncidentCorrelator().correlate(
        incidents, replacements=replacements, migrations=migrations
    )[0]
    assert [r["at"] for r in meta.replacements] == [40.0]
    assert [m["at"] for m in meta.migrations] == [42.0]
    as_dict = meta.to_dict()
    assert as_dict["replacements"][0]["with"] == "shard128"


def test_meta_incident_phases_sum_exactly_to_span():
    actions = [{"level": "node", "target": ("shard001-n1",), "ok": True,
                "error": None, "decided_at": 26.0, "finished_at": 31.0}]
    incidents = [
        make_incident(1, "shard001", 20.0, 70.0, first_report=24.0,
                      actions=actions),
        make_incident(2, "shard002", 21.0, 65.0, first_report=23.0),
    ]
    migrations = [{"at": 35.0, "source": "shard001", "target": "shard128",
                   "sessions": 500, "window": 10.0}]
    meta = ClusterIncidentCorrelator().correlate(
        incidents, migrations=migrations
    )[0]
    phases = meta.phases()
    assert set(phases) == {"detect", "decide", "migrate", "drain"}
    assert all(value >= 0.0 for value in phases.values())
    assert sum(phases.values()) == pytest.approx(meta.span)
    assert phases["detect"] == 3.0   # onset 20 → first report 23
    assert phases["decide"] == 3.0   # → first decision 26
    assert phases["migrate"] == 19.0  # → migration window end 45
    assert phases["drain"] == 25.0   # → last incident close 70


def test_meta_incident_phases_clamp_out_of_order_evidence():
    # A report stamped before the fault must never produce a negative
    # detect phase — same clamping contract as Incident.phases().
    incidents = [
        make_incident(1, "shard001", 20.0, 40.0, first_report=18.0),
        make_incident(2, "shard002", 24.0, 44.0),
    ]
    meta = ClusterIncidentCorrelator().correlate(incidents)[0]
    phases = meta.phases()
    assert phases["detect"] == 0.0
    assert all(value >= 0.0 for value in phases.values())
    assert sum(phases.values()) == pytest.approx(meta.span)


# ----------------------------------------------------------------------
# Offline surfaces: timeline round-trip
# ----------------------------------------------------------------------

def _views():
    return [ShardView()]


def test_shard_view_pairs_policy_verdicts_with_the_fresh_shard():
    records = [
        {"t": 40.0, "seq": 0, "kind": "reshard.begin", "op": "add",
         "shard": "shard016"},  # no verdict before it: not a replacement
        {"t": 50.0, "seq": 1, "kind": "reshard.policy", "shard": "shard003",
         "fail_rate": 0.8125},
        {"t": 50.0, "seq": 2, "kind": "reshard.begin", "op": "add",
         "shard": "shard017"},
        {"t": 50.0, "seq": 3, "kind": "reshard.begin", "op": "remove",
         "shard": "shard003"},
    ]
    [(_bus, [view], end)] = replay(records, _views)
    assert end == 50.0
    assert view.replacements == [
        {"at": 50.0, "replaced": "shard003", "with": "shard017",
         "fail_rate": 0.8125},
    ]

def test_shards_from_timeline_round_trips_the_live_view(tmp_path):
    clock = Clock()
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        bus = TraceBus(kernel=clock, label="run")
        plane = ShardMetricsAggregator(bus=bus)
        for k in range(40):
            clock.now = float(k)
            plane.observe_probe(clock.now, "shard002", "probe", k % 2 == 0,
                                0.005)
        clock.now = 120.0
        plane.collect(make_engine(), duration=120.0)
    [(_bus, [shard_view], _end)] = replay(read_timeline(path), _views)
    view = shard_view.snapshot()

    live = {row["shard"]: row for row in plane.rows()}
    replayed = {row["shard"]: row for row in view["shards"]}
    assert sorted(replayed) == sorted(live) == ["shard001", "shard002"]
    for shard, row in replayed.items():
        for key in ("sessions", "good", "bad", "availability",
                    "probe_p50", "probe_p99", "migrated_in",
                    "migrated_out"):
            assert row[key] == live[shard][key], (shard, key)
        slo = live[shard]["slo"]
        assert row["slo_windows"] == slo["windows"]
        assert row["slo_violations"] == slo["violations"]
    # Four judged windows per shard, rebuilt bounded series included.
    assert len(replayed["shard002"]["windows"]) == 4
    assert view["storm"] is None


def test_shard_windows_from_records_rejudges_availability(tmp_path):
    records = [
        {"t": 120.0, "kind": "shard.window", "shard": "shard002",
         "start": 0.0, "end": 30.0, "good": 1500, "bad": 0},
        {"t": 120.0, "kind": "shard.window", "shard": "shard002",
         "start": 30.0, "end": 60.0, "good": 1500, "bad": 900},
        {"t": 120.0, "kind": "shard.window", "shard": "shard001",
         "start": 0.0, "end": 30.0, "good": 3000, "bad": 0},
    ]
    [(_bus, [view], _end)] = replay(records, _views)
    windows = view.slo_windows("shard002")
    assert len(windows) == 2
    assert windows[0].violated is False
    assert windows[1].violated is True
    assert "availability" in windows[1].reasons[0]
