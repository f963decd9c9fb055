"""Exposition: Prometheus text rendering and timeline replay."""

import json

import pytest

from repro.observability.alerts import AlertRule
from repro.observability.exporter import (
    predictive_chain,
    registry_from_observability,
    render_prometheus,
    render_prometheus_buses,
    replay,
)
from repro.observability.incidents import IncidentTracker
from repro.observability.slo import SloPolicy, compute_windows
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import TraceBus
from repro.telemetry.export import capture_to_jsonl
from tests.tracing import record

URL_PATH_MAP = {"/ebid/ViewItem": ("EbidWAR", "ViewItem", "Item")}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def test_render_prometheus_counters_gauges_and_families_exactly():
    registry = MetricsRegistry()
    registry.counter("taw.requests.good").inc(42)
    registry.gauge("slo.max_burn").set(1.25)
    family = registry.family("incidents.by_closed_by")
    family.inc("recovered", 3)
    family.inc("failover")
    assert render_prometheus(registry) == (
        "# TYPE repro_incidents_by_closed_by counter\n"
        'repro_incidents_by_closed_by{key="failover"} 1\n'
        'repro_incidents_by_closed_by{key="recovered"} 3\n'
        "# TYPE repro_slo_max_burn gauge\n"
        "repro_slo_max_burn 1.25\n"
        "# TYPE repro_taw_requests_good counter\n"
        "repro_taw_requests_good 42\n"
    )


def test_render_prometheus_histogram_as_summary():
    registry = MetricsRegistry()
    hist = registry.histogram("taw.response_time")
    for value in (0.1, 0.2, 0.3, 4.0):
        hist.observe(value)
    text = render_prometheus(registry)
    assert "# TYPE repro_taw_response_time summary" in text
    assert 'repro_taw_response_time{quantile="0.5"}' in text
    assert 'repro_taw_response_time{quantile="0.99"}' in text
    assert "repro_taw_response_time_count 4" in text
    assert "repro_taw_response_time_sum" in text


def test_render_prometheus_is_deterministic_and_escapes_labels():
    registry = MetricsRegistry()
    registry.family("f").inc('we"ird\nlabel')
    first = render_prometheus(registry)
    assert first == render_prometheus(registry)
    assert '\\"' in first and "\\n" in first


def test_render_prometheus_empty_registry_is_empty_string():
    assert render_prometheus(MetricsRegistry()) == ""


def test_registry_from_observability_folds_both_sources():
    tracker = IncidentTracker(url_path_map=URL_PATH_MAP)
    tracker.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                         "server": "node1"})
    tracker.feed(2.0, "rm.action.end", {"level": "ejb", "target": ("Item",),
                                        "ok": True, "duration": 1.0,
                                        "server": "node1"})
    incidents = tracker.finalize()
    windows = compute_windows(
        {0: 9}, {0: 1}, [], 10.0,
        policy=SloPolicy(window=10.0, availability_target=0.99),
    )
    registry = registry_from_observability(incidents, windows)
    assert registry.counter("incidents.count").value == 1
    assert registry.family("incidents.by_trigger").get("fault") == 1
    assert registry.family("incidents.by_closed_by").get("recovered") == 1
    assert registry.counter("slo.windows").value == 1
    assert registry.counter("slo.violations").value == 1
    assert registry.gauge("slo.max_burn").value == pytest.approx(10.0)
    # Phase seconds sum to the incident spans.
    phase_total = sum(
        registry.family("incidents.phase_seconds").as_dict().values()
    )
    assert phase_total == pytest.approx(sum(i.span for i in incidents))


def test_render_prometheus_buses_types_once_and_labels_every_sample():
    registries = {}
    for bus, value in ((0, 1), ("arm-b", 2)):
        registry = registries[bus] = MetricsRegistry()
        registry.counter("incidents.count").inc(value)
        registry.family("incidents.by_trigger").inc("fault", value)
        registry.histogram("incidents.span_seconds").observe(float(value))
    text = render_prometheus_buses(registries)
    assert text.count("# TYPE repro_incidents_count counter") == 1
    assert 'repro_incidents_count{bus="0"} 1' in text
    assert 'repro_incidents_count{bus="arm-b"} 2' in text
    assert 'repro_incidents_by_trigger{bus="0",key="fault"} 1' in text
    assert 'repro_incidents_span_seconds_count{bus="arm-b"} 1' in text
    assert text.count("# TYPE") == 3
    # The unlabelled bus renders exactly like a single registry.
    assert render_prometheus_buses({None: registries[0]}) == (
        render_prometheus(registries[0])
    )


# ----------------------------------------------------------------------
# Timeline replay
# ----------------------------------------------------------------------

def _trackers():
    return [IncidentTracker(url_path_map=URL_PATH_MAP)]


def test_incidents_from_timeline_matches_live_stitching(tmp_path):
    path = tmp_path / "timeline.jsonl"
    with capture_to_jsonl(path):
        bus = TraceBus(label="run")
        live = IncidentTracker(bus=bus, url_path_map=URL_PATH_MAP)
        bus.publish("fault.injected", target="Item", fault="x",
                    server="node1")
        bus.publish("rm.report", url="/ebid/ViewItem", server="node1")
        bus.publish("rm.decision", level="ejb", target=("Item",),
                    server="node1")
        bus.publish("rm.action.end", level="ejb", target=("Item",), ok=True,
                    duration=1.0, server="node1")
        bus.publish("request.end", operation="ViewItem", ok=True,
                    duration=0.1)
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]

    [(bus, [tracker], _end)] = replay(records, _trackers)
    assert bus == "run"
    replayed = tracker.finalize()
    live_incidents = live.finalize()
    assert [i.to_dict() for i in replayed] == [
        i.to_dict() for i in live_incidents
    ]


def test_incidents_from_timeline_keeps_buses_apart():
    """One bus's recovery must not close or join another bus's incident."""
    records = [
        {"t": 0.0, "seq": 0, "bus": "a", "kind": "fault.injected",
         "target": "Item", "fault": "x", "server": "node1"},
        {"t": 0.0, "seq": 0, "bus": "b", "kind": "fault.injected",
         "target": "Item", "fault": "x", "server": "node1"},
        {"t": 2.0, "seq": 1, "bus": "a", "kind": "rm.action.end",
         "level": "ejb", "target": ["Item"], "ok": True, "duration": 1.0,
         "server": "node1"},
    ]
    replayed = replay(records, _trackers)
    assert [bus for bus, _consumers, _end in replayed] == ["a", "b"]
    closed = {}
    for bus, [tracker], end in replayed:
        [incident] = tracker.finalize()
        assert incident.id == 1  # each bus numbers its own incidents
        closed[bus] = (incident.closed_by, end)
    assert closed == {"a": ("recovered", 2.0), "b": ("quiesced", 0.0)}


def test_incidents_from_timeline_ignores_untracked_kinds():
    records = [
        {"t": 0.0, "seq": 0, "bus": "a", "kind": "request.end", "ok": True},
        {"t": 1.0, "seq": 1, "bus": "a", "kind": "span", "component": "X"},
    ]
    [(bus, [tracker], end)] = replay(records, _trackers)
    assert (bus, tracker.finalize(), end) == ("a", [], 0.0)


def test_render_prometheus_escapes_every_family_label_path():
    """Regression: label values with backslashes, quotes, and newlines
    must escape identically through counter AND gauge families — a raw
    newline in a label value corrupts the whole exposition."""
    from repro.telemetry.metrics import GaugeFamily  # noqa: F401

    hostile = 'C:\\shard\n"one"'
    registry = MetricsRegistry()
    registry.family("by_key", label="shard").inc(hostile, 2)
    registry.gauge_family("load", label="shard").set(hostile, 1.5)
    text = render_prometheus(registry)
    escaped = 'C:\\\\shard\\n\\"one\\"'
    assert f'repro_by_key{{shard="{escaped}"}} 2' in text
    assert f'repro_load{{shard="{escaped}"}} 1.5' in text
    # The only literal newlines are the line separators themselves.
    assert all(
        line.startswith(("# TYPE", "repro_")) for line in text.splitlines()
    )


def test_render_prometheus_gauge_family_uses_label_name():
    registry = MetricsRegistry()
    registry.gauge_family("shard.availability", label="shard").set(
        "shard001", 0.9995
    )
    text = render_prometheus(registry)
    assert "# TYPE repro_shard_availability gauge" in text
    assert 'repro_shard_availability{shard="shard001"} 0.9995' in text


def test_registry_from_cluster_folds_rollup_rows():
    from repro.observability.exporter import registry_from_cluster

    rows = [
        {"shard": "shard001", "availability": 1.0, "sessions": 1000,
         "gaw_per_second": 100.0, "probe_p50": 0.002, "probe_p99": 0.009,
         "probes": 120, "probe_failures": 0, "failovers": 0,
         "storm_events": 0, "migrated_in": 0, "migrated_out": 0,
         "slo_violations": 0},
        {"shard": "shard002", "availability": 0.97, "sessions": 500,
         "probes": 120, "probe_failures": 17, "failovers": 2,
         "storm_events": 5, "migrated_in": 0, "migrated_out": 500,
         "slo_violations": 1},
    ]
    summary = {"availability": 0.998, "shards": 2, "probe_p99": 0.01,
               "slo_violations": 1}
    text = render_prometheus(registry_from_cluster(rows, summary=summary))
    assert 'repro_shard_availability{shard="shard001"} 1' in text
    assert 'repro_shard_availability{shard="shard002"} 0.97' in text
    assert 'repro_shard_probe_failures{shard="shard002"} 17' in text
    assert 'repro_shard_slo_violations{shard="shard002"} 1' in text
    assert 'repro_shard_failovers{shard="shard001"}' not in text  # zero
    assert "repro_cluster_availability 0.998" in text
    assert "repro_cluster_shards 2" in text


# ----------------------------------------------------------------------
# The predictive chain, live on a bus
# ----------------------------------------------------------------------

class RecordingBus(TraceBus):
    """A bus that remembers which consumer subscribed when."""

    def __init__(self):
        super().__init__(enabled=True)
        self.subscribers = []

    def subscribe(self, callback, kinds=None):
        self.subscribers.append(getattr(callback, "__self__", callback))
        return super().subscribe(callback, kinds)


def test_predictive_chain_on_a_bus_subscribes_in_replay_order():
    bus = RecordingBus()
    chain = predictive_chain(URL_PATH_MAP, bus=bus)
    tracker, registry = chain
    assert bus.subscribers == chain
    assert tracker.url_path_map == URL_PATH_MAP
    assert tracker.close_listeners == [registry.on_incident_closed]
    assert registry.alert_engine.bus is bus
    assert len(registry.alert_engine.rules) == 3  # the default rules
    _tracker, quiet = predictive_chain(rules=(), bus=RecordingBus())
    assert quiet.alert_engine.rules == ()


def test_predictive_chain_without_a_bus_subscribes_nothing():
    tracker, registry = predictive_chain(URL_PATH_MAP)
    assert registry.alert_engine.bus is None
    assert tracker.close_listeners == [registry.on_incident_closed]


def test_predictive_chain_alert_engine_publishes_on_the_bus():
    bus = RecordingBus()
    published = record(bus)  # first subscriber: sees publish order
    flapping = AlertRule(name="flapping", signal="flap", threshold=0.5,
                         below=False)
    _tracker, registry = predictive_chain(
        URL_PATH_MAP, rules=(flapping,), bus=bus
    )
    alerts = []
    bus.subscribe(lambda t, kind, fields: alerts.append((kind, fields)),
                  kinds="alert.*")
    bus.publish("rm.quarantine.begin", server="n1", component="ViewItem",
                until=60.0)
    assert [(kind, fields["rule"], fields["server"], fields["component"])
            for kind, fields in alerts] == [
        ("alert.fired", "flapping", "n1", "ViewItem"),
    ]
    registry.alert_engine.finalize(1.0)
    assert [kind for kind, _fields in alerts] == [
        "alert.fired", "alert.resolved",
    ]
    assert [event.kind for event in published] == [
        "rm.quarantine.begin", "alert.fired", "alert.resolved",
    ]
