"""Tests for the causal span layer (TraceContext / SpanCollector)."""

from repro.appserver.http import HttpRequest
from repro.ebid.app import build_ebid_system
from repro.ebid.schema import DatasetConfig
from repro.faults import FaultInjector
from repro.sim.kernel import Kernel
from repro.telemetry.spans import (
    SpanCollector,
    set_default_spans,
    spans_enabled_by_default,
)
from tests.tracing import record


# ----------------------------------------------------------------------
# Unit behaviour
# ----------------------------------------------------------------------

def test_disabled_collector_attaches_nothing():
    collector = SpanCollector(Kernel())
    request = HttpRequest(url="/ebid/ViewItem", operation="ViewItem")
    assert collector.attach(request) is None
    assert request.trace is None
    assert collector.traces_started == 0


def test_attach_is_idempotent_and_first_node_wins():
    collector = SpanCollector(Kernel(), enabled=True)
    request = HttpRequest(url="/ebid/ViewItem", operation="ViewItem")
    trace = collector.attach(request)  # the LB attaches without a node
    again = collector.attach(request, node="node-1")  # admitting server
    assert trace is again
    assert trace.node == "node-1"
    collector.attach(request, node="node-2")
    assert trace.node == "node-1"
    assert collector.traces_started == 1


def test_finished_path_carries_components_edges_and_error_sites():
    kernel = Kernel()
    collector = SpanCollector(kernel, enabled=True)
    seen = []
    collector.add_sink(seen.append)

    trace = collector.start_trace("/ebid/CommitBid", "CommitBid", client_id=7)
    war = trace.start_span("EbidWAR")
    bean = trace.start_span("CommitBid", parent=war)
    entity = trace.start_span("IdentityManager", parent=bean)
    trace.finish_span(entity, outcome="ApplicationException")
    trace.finish_span(bean, outcome="ApplicationException")
    trace.finish_span(war)
    path = trace.finish(ok=False, failure="http-error")

    assert seen == [path]
    assert path.components == ("EbidWAR", "CommitBid", "IdentityManager")
    assert path.edges == (
        ("EbidWAR", "CommitBid"), ("CommitBid", "IdentityManager"),
    )
    assert path.failed_in == ("CommitBid", "IdentityManager")
    assert path.client_id == 7 and not path.ok
    # Finishing twice delivers nothing new.
    assert trace.finish(ok=False) is None
    assert collector.paths_recorded == 1


def test_span_cap_truncates_instead_of_growing():
    collector = SpanCollector(Kernel(), enabled=True, max_spans_per_trace=2)
    trace = collector.start_trace("/ebid/ViewItem", "ViewItem")
    first = trace.start_span("A")
    assert trace.start_span("B", parent=first) is not None
    assert trace.start_span("C") is None  # over the cap
    trace.finish_span(None)  # tolerated
    assert trace.truncated
    path = trace.finish(ok=True)
    assert path.components == ("A", "B")


def test_default_spans_flag_round_trips():
    previous = set_default_spans(True)
    try:
        assert spans_enabled_by_default()
        assert SpanCollector(Kernel()).enabled
    finally:
        set_default_spans(previous)
    assert SpanCollector(Kernel()).enabled is previous


def test_paths_publish_to_an_enabled_trace_bus():
    kernel = Kernel()
    kernel.trace.enabled = True
    events = record(kernel.trace)
    collector = SpanCollector(kernel, enabled=True)
    trace = collector.start_trace("/ebid/ViewItem", "ViewItem")
    span = trace.start_span("EbidWAR")
    trace.finish_span(span)
    trace.finish(ok=True)
    kinds = [event.kind for event in events]
    assert kinds == ["span", "path.end"]


# ----------------------------------------------------------------------
# End-to-end through the application server
# ----------------------------------------------------------------------

def make_system():
    system = build_ebid_system(dataset=DatasetConfig.tiny(), seed=3)
    collector = SpanCollector(system.kernel, enabled=True)
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
    path = request.trace.finish(ok=True)
    assert path.components[0] == "EbidWAR"
    assert "ViewItem" in path.components and "Item" in path.components
    assert path.edges[0] == ("EbidWAR", "ViewItem")
    assert path.node == system.server.name
    assert path.ok and path.failed_in == ()
    assert collector.paths_recorded == 1


def test_pre_dispatch_fault_still_lands_on_the_failed_path():
    """Fault hooks fire before an instance is picked; the span must start
    earlier still, or chi-square would implicate the *calling* component."""
    system, _collector = make_system()
    FaultInjector(system).inject_transient_exception("BrowseCategories")
    request, response = serve(
        system, "/ebid/BrowseCategories", "BrowseCategories"
    )
    assert int(response.status) == 500
    path = request.trace.finish(ok=False, failure="http-error")
    assert "BrowseCategories" in path.components
    assert "BrowseCategories" in path.failed_in


def test_untraced_request_pays_no_span_cost():
    system, collector = make_system()
    collector.enabled = False
    request, response = serve(
        system, "/ebid/ViewItem", "ViewItem", {"item_id": 1}
    )
    assert int(response.status) == 200
    assert request.trace is None
    assert collector.traces_started == 0
