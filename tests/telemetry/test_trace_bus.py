"""Tests for the trace bus: ordering, ring bounds, filtering, enablement."""

from types import SimpleNamespace

from repro.sim import Kernel
from repro.telemetry import (
    TraceBus,
    set_default_tracing,
    tracing_enabled_by_default,
)
from repro.telemetry.trace import record_fields


def make_bus(**kwargs):
    kwargs.setdefault("enabled", True)
    return TraceBus(**kwargs)


def test_events_preserve_publish_order_and_sequence():
    bus = make_bus()
    for i in range(5):
        bus.publish("tick", i=i)
    events = bus.events()
    assert [e.fields["i"] for e in events] == [0, 1, 2, 3, 4]
    assert [e.seq for e in events] == [0, 1, 2, 3, 4]


def test_events_stamped_with_kernel_time():
    kernel = Kernel()
    bus = TraceBus(kernel, enabled=True)

    def proc():
        bus.publish("before")
        yield kernel.timeout(2.5)
        bus.publish("after")

    kernel.process(proc())
    kernel.run()
    before, after = bus.events()
    assert before.t == 0.0
    assert after.t == 2.5


def test_ring_buffer_keeps_only_newest_events():
    bus = make_bus(capacity=4)
    for i in range(10):
        bus.publish("tick", i=i)
    assert len(bus) == 4
    assert bus.capacity == 4
    assert bus.published == 10
    assert bus.dropped == 6
    assert [e.fields["i"] for e in bus.events()] == [6, 7, 8, 9]


def test_recovery_events_survive_request_floods():
    """Sticky kinds keep the recovery story when per-request events have
    long since evicted everything else from the main ring."""
    bus = make_bus(capacity=8)
    bus.publish("rm.decision", level="ejb")
    bus.publish("component.microreboot.end", duration=0.5)
    bus.publish("lb.failover.begin", node="n1")
    for i in range(100):
        bus.publish("request.end", i=i)
    kinds_seen = [e.kind for e in bus.events()]
    assert kinds_seen[:3] == [
        "rm.decision", "component.microreboot.end", "lb.failover.begin",
    ]
    assert kinds_seen[3:] == ["request.end"] * 8
    # Still time/sequence ordered, and no duplicates when a sticky event
    # also remains in the main ring.
    bus2 = make_bus(capacity=8)
    bus2.publish("request.start")
    bus2.publish("rm.decision")
    assert [e.seq for e in bus2.events()] == [0, 1]


def test_disabled_bus_records_nothing():
    bus = TraceBus(enabled=False)
    assert bus.publish("tick") is None
    assert len(bus) == 0
    assert bus.published == 0
    assert bus.dropped == 0


def test_kernel_bus_disabled_by_default():
    assert not tracing_enabled_by_default()
    kernel = Kernel()
    assert not kernel.trace.enabled
    kernel.trace.publish("tick")
    assert kernel.trace.published == 0


def test_set_default_tracing_applies_to_new_buses():
    previous = set_default_tracing(True)
    try:
        assert previous is False
        assert TraceBus().enabled
        # An explicit enabled= always wins over the default.
        assert not TraceBus(enabled=False).enabled
    finally:
        set_default_tracing(previous)
    assert not TraceBus().enabled


def test_subscribe_exact_kind():
    bus = make_bus()
    seen = []
    bus.subscribe(lambda t, kind, fields: seen.append(kind),
                  kinds="request.end")
    bus.publish("request.start")
    bus.publish("request.end")
    bus.publish("rm.decision")
    assert seen == ["request.end"]


def test_subscribe_prefix_wildcard():
    bus = make_bus()
    seen = []
    bus.subscribe(lambda t, kind, fields: seen.append(kind), kinds="rm.*")
    for kind in ("rm.report", "rm.decision", "request.end", "rm.action.end"):
        bus.publish(kind)
    assert seen == ["rm.report", "rm.decision", "rm.action.end"]


def test_subscribe_without_kinds_sees_everything():
    bus = make_bus()
    seen = []
    bus.subscribe(lambda *event: seen.append(event))
    bus.publish("a")
    bus.publish("b", x=1)
    assert seen == [(0.0, "a", {}), (0.0, "b", {"x": 1})]


def test_unsubscribe_stops_delivery():
    bus = make_bus()
    seen = []
    token = bus.subscribe(lambda t, kind, fields: seen.append(kind))
    bus.publish("a")
    bus.unsubscribe(token)
    bus.publish("b")
    assert seen == ["a"]


def test_events_filtered_like_subscriptions():
    bus = make_bus()
    for kind in ("lb.failover.begin", "lb.failover", "lb.failover.end", "x"):
        bus.publish(kind)
    assert [e.kind for e in bus.events(kinds="lb.failover.*")] == [
        "lb.failover.begin",
        "lb.failover.end",
    ]
    assert len(bus.events(kinds=("lb.failover", "x"))) == 2


def test_flatten_remaps_reserved_payload_keys():
    bus = make_bus()
    event = bus.publish("tick", t=99, node="n1")
    record = event.flatten(bus="b0")
    assert record["bus"] == "b0"
    assert record["kind"] == "tick"
    assert record["node"] == "n1"
    assert record["x_t"] == 99  # payload "t" must not clobber the envelope
    assert record["t"] == 0.0


def test_record_fields_inverts_flatten():
    bus = make_bus()
    event = bus.publish("chaos.event", kind="link", node="n1", seq=None)
    assert record_fields(event.flatten(bus="b0")) == event.fields


def test_clear_empties_buffer_but_keeps_totals():
    bus = make_bus()
    bus.publish("tick")
    bus.clear()
    assert len(bus) == 0
    assert bus.published == 1


# --- per-kind routes ---------------------------------------------------------

def test_subscriber_added_after_first_publish_of_a_kind_gets_the_next():
    bus = make_bus()
    early, late = [], []
    bus.subscribe(lambda t, kind, fields: early.append(fields["i"]),
                  kinds="tick")
    bus.publish("tick", i=0)  # builds the route for "tick"
    bus.subscribe(lambda t, kind, fields: late.append(fields["i"]),
                  kinds="tick")
    bus.publish("tick", i=1)
    assert early == [0, 1]
    assert late == [1]


def test_unsubscribe_after_a_kind_is_routed_stops_delivery():
    bus = make_bus()
    seen = []
    token = bus.subscribe(lambda t, kind, fields: seen.append(kind),
                          kinds=("a", "b"))
    bus.publish("a")
    bus.publish("b")
    bus.unsubscribe(token)
    bus.publish("a")
    bus.publish("b")
    assert seen == ["a", "b"]
    bus.unsubscribe(token)  # unknown tokens are ignored


def test_routes_keep_exact_and_prefix_matching_and_subscription_order():
    bus = make_bus()
    seen = []
    bus.subscribe(lambda t, kind, fields: seen.append(("exact", kind)),
                  kinds="rm.decision")
    bus.subscribe(lambda t, kind, fields: seen.append(("prefix", kind)),
                  kinds="rm.*")
    bus.subscribe(lambda t, kind, fields: seen.append(("all", kind)))
    for kind in ("rm.decision", "rm.report", "request.end", "rm.decision"):
        bus.publish(kind)
    assert seen == [
        ("exact", "rm.decision"), ("prefix", "rm.decision"),
        ("all", "rm.decision"),
        ("prefix", "rm.report"), ("all", "rm.report"),
        ("all", "request.end"),
        ("exact", "rm.decision"), ("prefix", "rm.decision"),
        ("all", "rm.decision"),
    ]


def test_subscribing_during_a_publish_takes_effect_from_the_next():
    bus = make_bus()
    seen = []

    def first(t, kind, fields):
        seen.append(("first", fields["i"]))
        if fields["i"] == 0:
            bus.subscribe(lambda t, kind, fields: seen.append(
                ("second", fields["i"])))

    bus.subscribe(first)
    bus.publish("tick", i=0)
    bus.publish("tick", i=1)
    assert seen == [("first", 0), ("first", 1), ("second", 1)]


def test_sticky_ring_and_kind_filters_unchanged_by_routing():
    bus = make_bus(capacity=2)
    bus.subscribe(lambda t, kind, fields: None, kinds="rm.*")
    for _ in range(2):
        bus.publish("rm.decision", level="ejb")
        bus.publish("lb.failover.begin")
        bus.publish("request.end")
        bus.publish("request.end")
    # The main ring kept the last two per-request events; the sticky ring
    # kept every recovery/failover event, routed or not.
    assert [e.kind for e in bus.events()] == [
        "rm.decision", "lb.failover.begin",
        "rm.decision", "lb.failover.begin",
        "request.end", "request.end",
    ]
    assert [e.seq for e in bus.events(kinds="rm.*")] == [0, 4]
    assert [e.kind for e in bus.events(kinds=("request.end",))] == [
        "request.end", "request.end",
    ]


def test_trace_event_is_a_named_tuple_with_the_same_fields():
    bus = make_bus()
    event = bus.publish("tick", i=1)
    assert event._fields == ("t", "seq", "kind", "fields")
    assert tuple(event) == (0.0, 0, "tick", {"i": 1})
    assert event.flatten() == {"t": 0.0, "seq": 0, "kind": "tick", "i": 1}


# --- row layout and its cost -------------------------------------------------

def test_rows_share_one_key_tuple_per_key_order():
    bus = make_bus()
    bus.publish("a", x=1, y=2)
    bus.publish("b", x=3, y=4)
    bus.publish("c", y=5, x=6)
    first, second, third = bus._buffer
    assert first == (0.0, 0, "a", ("x", "y"), 1, 2)
    assert second[3] is first[3]
    assert third[3] == ("y", "x")


def test_a_buffered_request_end_costs_under_256_bytes():
    """A record is one flat row: 20,000 buffered `request.end` records, with
    payloads like a client's, cost under 256 B each (a `TraceEvent` and its
    payload dict cost about 440 B)."""
    import tracemalloc

    clock = SimpleNamespace(now=0.0)
    bus = TraceBus(clock, enabled=True)
    operations = ("ViewItem", "BrowseCategories", "AboutMe", "MakeBid")
    n = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            clock.now = i * 0.05
            bus.publish(
                "request.end", client=i % 200, operation=operations[i % 4],
                ok=True, duration=0.01 + i * 1e-6, failure=None, retries=0,
                server="server-1", status=200,
            )
        per_record = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(bus) == n
    assert per_record < 256, per_record
