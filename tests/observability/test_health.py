"""Component health: heap trend prediction and blended 0-100 scores."""

import pytest

from repro.observability.estimators import EstimatorHub
from repro.observability.health import (
    HEAP_RESET_FRACTION,
    ComponentHealthRegistry,
    HeapTrendTracker,
)
from repro.telemetry.trace import TraceBus

MB = 1024 * 1024
CAPACITY = 1024 * MB

URL_PATH_MAP = {
    "/ebid/ViewItem": ("EbidWAR", "ViewItem", "Item"),
}


# ----------------------------------------------------------------------
# HeapTrendTracker
# ----------------------------------------------------------------------

def drain(tracker, start=900 * MB, rate=3 * MB, samples=6, t0=0.0, dt=5.0):
    for i in range(samples):
        tracker.observe(t0 + i * dt, start - i * dt * rate, CAPACITY)
    return t0 + (samples - 1) * dt


def test_trend_needs_two_samples():
    tracker = HeapTrendTracker()
    assert tracker.slope() is None
    tracker.observe(0.0, 900 * MB, CAPACITY)
    assert tracker.slope() is None
    assert tracker.time_to_alarm(0.0) is None


def test_linear_drain_extrapolates_to_alarm():
    tracker = HeapTrendTracker(alarm_fraction=0.10)
    last = drain(tracker, start=900 * MB, rate=3 * MB)
    assert tracker.slope() == pytest.approx(-3 * MB, rel=1e-6)
    # From ~825 MB down to the ~102 MB alarm floor at 3 MB/s.
    expected = (825 * MB - 0.10 * CAPACITY) / (3 * MB)
    assert tracker.time_to_alarm(last) == pytest.approx(expected, rel=1e-6)


def test_flat_heap_predicts_no_alarm():
    tracker = HeapTrendTracker()
    for i in range(5):
        tracker.observe(i * 5.0, 900 * MB, CAPACITY)
    assert tracker.time_to_alarm(25.0) is None


def test_already_below_alarm_is_zero():
    tracker = HeapTrendTracker(alarm_fraction=0.10)
    drain(tracker, start=110 * MB, rate=3 * MB, samples=3)
    assert tracker.time_to_alarm(10.0) == 0.0


def test_reclaim_jump_resets_the_trend():
    """A µRB's reclaim would poison a least-squares fit spanning it."""
    tracker = HeapTrendTracker()
    drain(tracker, start=400 * MB, rate=3 * MB, samples=6)
    assert tracker.slope() < 0
    # The reclaim: available jumps by far more than HEAP_RESET_FRACTION.
    jump = 400 * MB + 2 * HEAP_RESET_FRACTION * CAPACITY
    tracker.observe(30.0, jump, CAPACITY)
    assert tracker.slope() is None  # ring cleared; trend restarts
    assert len(tracker.samples) == 1


# ----------------------------------------------------------------------
# ComponentHealthRegistry
# ----------------------------------------------------------------------

def make_registry(**kwargs):
    return ComponentHealthRegistry(**kwargs)


def test_registered_components_start_at_full_health():
    registry = make_registry()
    registry.register("node1", ("Item", "Bid"))
    assert registry.keys() == [("node1", "Bid"), ("node1", "Item")]
    assert registry.score("Item", server="node1") == 100.0


def test_heap_drain_lowers_every_component_on_the_server():
    registry = make_registry()
    registry.register("node1", ("Item",))
    registry.register("node2", ("Item",))
    for i in range(6):
        registry.feed(i * 5.0, "heap.sample",
                      {"server": "node1", "available": (900 - i * 40) * MB,
                       "capacity": CAPACITY})
    sick = registry.score("Item", server="node1")
    healthy = registry.score("Item", server="node2")
    assert sick < healthy == 100.0
    assert registry.heap_time_to_alarm("node1") is not None
    assert registry.heap_time_to_alarm("node2") is None


def test_quarantine_saturates_the_flap_signal():
    registry = make_registry()
    registry.register("node1", ("Item",))
    registry.feed(100.0, "rm.quarantine.begin",
                  {"server": "node1", "component": "Item", "until": 160.0})
    assert registry.health("Item", server="node1")["signals"]["flap"] == 1.0
    registry.feed(160.0, "rm.quarantine.end",
                  {"server": "node1", "component": "Item"})
    signal = registry.health("Item", server="node1", now=160.0)
    assert signal["signals"]["flap"] < 1.0


def test_coarse_backoff_keys_are_not_component_flap_evidence():
    registry = make_registry()
    registry.register("node1", ("Item",))
    registry.feed(50.0, "rm.backoff.set",
                  {"server": "node1", "target": "node", "level": "jvm",
                   "until": 90.0, "repeats": 2})
    # "node" is a rung key, not a component: no phantom ("node1", "node").
    assert registry.keys() == [("node1", "Item")]


def test_slo_burn_penalizes_cluster_wide():
    registry = make_registry()
    registry.register("node1", ("Item",))
    registry.feed(100.0, "slo.violated", {"burn": 8.0})
    burned = registry.score("Item", server="node1")
    assert burned < 100.0
    # The penalty decays as the violation recedes.
    later = registry.score("Item", server="node1", now=160.0)
    assert later > burned


def test_score_stays_bounded_under_every_penalty():
    registry = make_registry()
    registry.register("node1", ("Item",))
    registry.feed(10.0, "slo.violated", {"burn": None})  # saturates burn
    registry.feed(10.0, "rm.quarantine.begin",
                  {"server": "node1", "component": "Item", "until": 1e9})
    for i in range(4):
        registry.feed(10.0 + i, "heap.sample",
                      {"server": "node1", "available": 10 * MB,
                       "capacity": CAPACITY})
    score = registry.score("Item", server="node1")
    assert 0.0 <= score <= 100.0


def test_bus_subscription_feeds_the_registry():
    bus = TraceBus(enabled=True)
    registry = make_registry(bus=bus)
    bus.publish("heap.sample", server="node1", available=500 * MB,
                capacity=CAPACITY)
    bus.publish("rm.report", url="/ebid/ViewItem", server="node1")
    assert registry.events_seen == 1  # only its own kinds


def test_snapshot_includes_hub_mttf():
    hub = EstimatorHub(url_path_map=URL_PATH_MAP)
    registry = make_registry(hub=hub)
    registry.register("node1", ("Item",))
    est = hub._estimator(("node1", "Item"))
    est.record_failure(100.0)
    est.record_failure(160.0)
    rows = registry.snapshot(now=200.0)
    row = next(r for r in rows if r["component"] == "Item")
    assert row["mttf"] == pytest.approx(60.0)
    assert 0.0 <= row["score"] <= 100.0
