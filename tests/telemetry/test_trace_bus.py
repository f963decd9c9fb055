"""Tests for the trace bus: ordering, routing, retention, enablement."""

import tracemalloc
from types import SimpleNamespace

from repro.sim import Kernel
from repro.telemetry import (
    TraceBus,
    capture_to_jsonl,
    read_timeline,
    set_default_tracing,
    tracing_enabled_by_default,
)
from repro.telemetry.trace import record_fields
from tests.tracing import record


def make_bus(**kwargs):
    kwargs.setdefault("enabled", True)
    return TraceBus(**kwargs)


def test_events_preserve_publish_order_and_sequence(tmp_path):
    path = tmp_path / "t.jsonl"
    with capture_to_jsonl(path):
        bus = TraceBus()
        for i in range(5):
            bus.publish("tick", i=i)
    records = list(read_timeline(path))
    assert [r["i"] for r in records] == [0, 1, 2, 3, 4]
    assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]


def test_events_stamped_with_kernel_time():
    kernel = Kernel()
    bus = TraceBus(kernel, enabled=True)
    events = record(bus)

    def proc():
        bus.publish("before")
        yield kernel.timeout(2.5)
        bus.publish("after")

    kernel.process(proc())
    kernel.run()
    before, after = events
    assert before.t == 0.0
    assert after.t == 2.5


def test_recovery_events_survive_request_floods(tmp_path):
    """A capture writes every record: the recovery story stays whole
    however many per-request events follow it."""
    path = tmp_path / "t.jsonl"
    with capture_to_jsonl(path):
        bus = TraceBus()
        bus.publish("rm.decision", level="ejb")
        bus.publish("component.microreboot.end", duration=0.5)
        bus.publish("lb.failover.begin", node="n1")
        for i in range(100_000):
            bus.publish("request.end", i=i)
    kinds_seen = [r["kind"] for r in read_timeline(path)]
    assert kinds_seen[:3] == [
        "rm.decision", "component.microreboot.end", "lb.failover.begin",
    ]
    assert kinds_seen[3:] == ["request.end"] * 100_000


def test_disabled_bus_records_nothing():
    bus = TraceBus(enabled=False)
    events = record(bus)
    assert bus.publish("tick") is None
    assert events == []
    assert bus.published == 0
    assert bus.dropped == 0


def test_enabled_publish_counts_returns_nothing_and_drops_nothing():
    bus = make_bus()
    assert bus.publish("tick", i=1) is None
    assert bus.publish("tick", i=2) is None
    assert bus.published == 2
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
    failovers = record(bus, kinds="lb.failover.*")
    either = record(bus, kinds=("lb.failover", "x"))
    for kind in ("lb.failover.begin", "lb.failover", "lb.failover.end", "x"):
        bus.publish(kind)
    assert [e.kind for e in failovers] == [
        "lb.failover.begin",
        "lb.failover.end",
    ]
    assert len(either) == 2


def test_flatten_remaps_reserved_payload_keys(tmp_path):
    path = tmp_path / "t.jsonl"
    with capture_to_jsonl(path):
        TraceBus(label="b0").publish("tick", t=99, node="n1")
    [written] = read_timeline(path)
    assert written["bus"] == "b0"
    assert written["kind"] == "tick"
    assert written["node"] == "n1"
    assert written["x_t"] == 99  # payload "t" must not clobber the envelope
    assert written["t"] == 0.0


def test_record_fields_inverts_flatten(tmp_path):
    """Every envelope name a payload may carry comes back under its own
    name (``storm.event`` publishes a ``kind``), and an ``x_`` key that
    remaps no envelope name stays as written."""
    path = tmp_path / "t.jsonl"
    fields = {"kind": "link", "node": "n1", "seq": None, "t": 7.5,
              "bus": "other", "x_node": 3}
    with capture_to_jsonl(path):
        TraceBus(label="b0").publish("chaos.event", **fields)
        TraceBus(label="b1").publish("storm.event", kind="brick", shard=2)
    first, second = read_timeline(path)
    assert record_fields(first) == fields
    assert record_fields(second) == {"kind": "brick", "shard": 2}
    assert (second["kind"], second["x_kind"]) == ("storm.event", "brick")


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


# --- retention -------------------------------------------------------------

def test_an_uncaptured_bus_retains_no_record():
    """An enabled bus that no capture writes routes and forgets: 20,000
    `request.end` publishes, with payloads like a client's, leave nothing
    behind."""
    clock = SimpleNamespace(now=0.0)
    bus = TraceBus(clock, enabled=True)
    operations = ("ViewItem", "BrowseCategories", "AboutMe", "MakeBid")
    n = 20_000

    def publish(i):
        clock.now = i * 0.05
        bus.publish(
            "request.end", client=i % 200, operation=operations[i % 4],
            ok=True, duration=0.01 + i * 1e-6, failure=None, retries=0,
            server="server-1", status=200,
        )

    publish(0)  # routes "request.end"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, n + 1):
            publish(i)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bus.published == n + 1
    assert grown < 1024, grown
