"""Tests for the causal span layer (TraceContext / SpanCollector)."""

import pytest

from repro.appserver.http import HttpRequest
from repro.cli import main
from repro.ebid.app import build_ebid_system
from repro.ebid.schema import DatasetConfig
from repro.experiments.cluster_common import ClusterRig
from repro.experiments.common import SingleNodeRig
from repro.faults import FaultInjector
from repro.telemetry import capture_to_jsonl, read_timeline
from repro.telemetry.spans import (
    SpanCollector,
    TraceContext,
    set_default_spans,
    spans_enabled_by_default,
)
from repro.workload.client import EmulatedClient
from tests.tracing import record

#: The keys of an untraced request's ``request.end`` line.
UNTRACED_KEYS = {
    "t", "seq", "kind", "bus", "client", "operation", "ok", "duration",
    "failure", "retries", "server", "status",
}


# ----------------------------------------------------------------------
# Unit behaviour
# ----------------------------------------------------------------------

def test_disabled_collector_attaches_nothing():
    collector = SpanCollector()
    request = HttpRequest(url="/ebid/ViewItem", operation="ViewItem")
    assert collector.attach(request) is None
    assert request.trace is None
    assert collector.traces_started == 0


def test_attach_is_idempotent():
    collector = SpanCollector(enabled=True)
    request = HttpRequest(url="/ebid/ViewItem", operation="ViewItem")
    trace = collector.attach(request)  # the LB attaches first
    assert collector.attach(request) is trace  # the admitting server
    assert request.trace is trace
    assert collector.traces_started == 1


def test_finished_path_carries_components_edges_and_error_sites():
    """``finish`` returns the fields ``request.end`` adds: the calls (the
    components and the parent→child edges) and the error sites."""
    collector = SpanCollector(enabled=True)
    trace = collector.start_trace()
    war = trace.start_span("EbidWAR")
    bean = trace.start_span("CommitBid", parent=war)
    entity = trace.start_span("IdentityManager", parent=bean)
    trace.start_span("IdentityManager", parent=bean).failed = True
    entity.failed = bean.failed = True  # every call below the WAR raised

    assert trace.finish() == {
        "calls": (
            (None, "EbidWAR"), (0, "CommitBid"), (1, "IdentityManager"),
            (1, "IdentityManager"),
        ),
        "failed_in": ("CommitBid", "IdentityManager"),
    }
    # A finished trace records no later call.
    assert trace.start_span("Item", parent=bean) is None


def test_span_cap_truncates_instead_of_growing():
    collector = SpanCollector(enabled=True, max_spans_per_trace=2)
    trace = collector.start_trace()
    first = trace.start_span("A")
    assert trace.start_span("B", parent=first) is not None
    assert trace.start_span("C") is None  # over the cap
    assert trace.truncated
    assert trace.finish() == {
        "calls": ((None, "A"), (0, "B")), "failed_in": (), "truncated": True,
    }


def test_default_spans_flag_round_trips():
    previous = set_default_spans(True)
    try:
        assert spans_enabled_by_default()
        assert SpanCollector().enabled
    finally:
        set_default_spans(previous)
    assert SpanCollector().enabled is previous


def test_paths_publish_to_an_enabled_trace_bus():
    """A traced request's path reaches the bus on its ``request.end``
    (``truncated`` only when the span cap cut it); the collector itself
    publishes nothing."""
    system, collector = make_system()
    system.kernel.trace.enabled = True
    events = record(system.kernel.trace)
    client = EmulatedClient(
        0, system.kernel, system.rng.stream("client-0"), system.server,
        DatasetConfig.tiny(),
    )
    for cap in (SpanCollector.MAX_SPANS_PER_TRACE, 1):
        collector.max_spans_per_trace = cap
        system.kernel.run_until_triggered(
            system.kernel.process(client._do_operation("ViewItem", {}))
        )

    assert [event.kind for event in events] == ["request.end"] * 2
    whole, cut = (event.fields for event in events)
    assert whole["calls"][:2] == ((None, "EbidWAR"), (0, "ViewItem"))
    assert whole["failed_in"] == ()
    assert "truncated" not in whole
    assert cut["calls"] == ((None, "EbidWAR"),) and cut["truncated"] is True


# ----------------------------------------------------------------------
# End-to-end through the application server
# ----------------------------------------------------------------------

def make_system():
    system = build_ebid_system(dataset=DatasetConfig.tiny(), seed=3)
    collector = SpanCollector(enabled=True)
    system.server.span_collector = collector
    return system, collector


def serve(system, url, operation, params=None):
    request = HttpRequest(url=url, operation=operation, params=params or {})
    response = system.kernel.run_until_triggered(
        system.server.handle_request(request)
    )
    return request, response


def test_request_through_server_records_observed_call_tree():
    system, collector = make_system()
    request, response = serve(
        system, "/ebid/ViewItem", "ViewItem", {"item_id": 1}
    )
    assert int(response.status) == 200
    observed = request.trace.finish()
    calls = observed["calls"]
    assert calls[:2] == ((None, "EbidWAR"), (0, "ViewItem"))
    assert "Item" in {component for _parent, component in calls}
    assert observed["failed_in"] == ()
    assert collector.traces_started == 1


def test_pre_dispatch_fault_still_lands_on_the_failed_path():
    """Fault hooks fire before an instance is picked; the span must start
    earlier still, or chi-square would implicate the *calling* component."""
    system, _collector = make_system()
    FaultInjector(system).inject_transient_exception("BrowseCategories")
    request, response = serve(
        system, "/ebid/BrowseCategories", "BrowseCategories"
    )
    assert int(response.status) == 500
    observed = request.trace.finish()
    assert (0, "BrowseCategories") in observed["calls"]
    assert "BrowseCategories" in observed["failed_in"]


def test_untraced_request_pays_no_span_cost():
    system, collector = make_system()
    collector.enabled = False
    request, response = serve(
        system, "/ebid/ViewItem", "ViewItem", {"item_id": 1}
    )
    assert int(response.status) == 200
    assert request.trace is None
    assert collector.traces_started == 0


@pytest.mark.parametrize("cluster", [False, True],
                         ids=["single-node", "cluster"])
def test_request_end_carries_each_traced_path(tmp_path, capsys, monkeypatch,
                                              cluster):
    """A captured run writes one record per request: a traced request's
    ``request.end`` carries what its trace finished with, a request no
    trace followed keeps the untraced record, and ``repro paths`` reads
    the paths back.  In the cluster the balancer attaches the trace, so a
    request that no node admits closes a path with no calls."""
    finished = []
    finish = TraceContext.finish

    def spy(trace):
        finished.append(finish(trace))
        return finished[-1]

    monkeypatch.setattr(TraceContext, "finish", spy)
    timeline = tmp_path / "run.jsonl"
    with capture_to_jsonl(timeline):
        if cluster:
            rig = ClusterRig(2, 10, seed=0, dataset=DatasetConfig.tiny())
            node, injector = rig.cluster.nodes[0], rig.injector_for(1)
        else:
            rig = SingleNodeRig(seed=0, n_clients=10,
                                dataset=DatasetConfig.tiny())
            node, injector = rig.node, rig.injector
        rig.start()
        injector.inject_transient_exception("ViewItem")
        rig.run_for(20.0)
        rig.kernel.process(node.restart_jvm())  # refuses while it reboots
        rig.run_for(40.0)
    records = list(read_timeline(timeline))

    assert not {r["kind"] for r in records} & {"span", "path.end"}
    ends = [r for r in records if r["kind"] == "request.end"]
    traced = [r for r in ends if "calls" in r]
    assert len(traced) == len(finished) > 0
    for end, observed in zip(traced, finished):
        assert tuple(tuple(call) for call in end["calls"]) == observed["calls"]
        assert tuple(end["failed_in"]) == observed["failed_in"]
        assert "truncated" not in end and "truncated" not in observed
    assert any(observed["failed_in"] for observed in finished)
    refused = [r for r in ends if r["status"] == "network"
               and r["server"] is None]
    assert refused
    untraced = [r for r in ends if "calls" not in r]
    if cluster:
        assert not untraced
        assert all(r["calls"] == [] for r in refused)
    else:
        assert untraced == refused
        assert all(set(r) == UNTRACED_KEYS for r in untraced)

    assert main(["paths", str(timeline)]) == 0
    spans = sum(len(observed["calls"]) for observed in finished)
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{len(records)} events: {spans} spans across "
        f"{len(finished)} completed paths"
    )


def test_live_analyzer_holds_the_paths_its_capture_wrote(tmp_path):
    """With the span layer and the bus on, a rig's live PathAnalyzer reads
    each traced ``request.end`` off the bus: it holds exactly the paths
    rebuilt from the records its capture wrote, in the same order.  No
    recovery manager runs, so nothing clears the analyzer, and the run
    stays inside its window."""
    timeline = tmp_path / "run.jsonl"
    with capture_to_jsonl(timeline):
        rig = SingleNodeRig(seed=0, n_clients=10, with_recovery_manager=False,
                            dataset=DatasetConfig.tiny())
        rig.start()
        rig.injector.inject_transient_exception("ViewItem")
        rig.run_for(60.0)
    rebuilt = []
    for record in read_timeline(timeline):
        if record["kind"] != "request.end" or "calls" not in record:
            continue
        calls = record["calls"]
        edges = dict.fromkeys(
            (calls[parent][1], component)
            for parent, component in calls if parent is not None
        )
        rebuilt.append((
            record["t"], frozenset(component for _parent, component in calls),
            record["ok"], tuple(edges), tuple(record["failed_in"]),
        ))

    assert rig.path_analyzer.recorded == len(rebuilt) > 0
    assert list(rig.path_analyzer._paths) == rebuilt
    assert any(not ok for _t, _members, ok, _edges, _sites in rebuilt)
    assert any(sites for _t, _members, _ok, _edges, sites in rebuilt)
