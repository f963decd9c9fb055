"""Streaming MTTF/hazard estimators: warm-up, intervals, determinism."""

import pytest

from repro.observability.estimators import (
    WARMUP,
    Ewma,
    FailureRateEstimator,
    MovingAverage,
)
from repro.observability.health import ComponentHealthRegistry
from repro.observability.incidents import IncidentTracker

URL_PATH_MAP = {
    "/ebid/ViewItem": ("EbidWAR", "ViewItem", "Item"),
    "/ebid/CommitBid": ("EbidWAR", "CommitBid", "Bid", "Item"),
}


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------

def test_moving_average_windows_and_evicts():
    ma = MovingAverage(window=3)
    assert ma.value is WARMUP
    ma.observe(10.0)
    assert ma.value == pytest.approx(10.0)
    ma.observe(20.0)
    ma.observe(30.0)
    assert ma.value == pytest.approx(20.0)
    ma.observe(40.0)  # evicts the 10
    assert ma.value == pytest.approx(30.0)


def test_moving_average_rejects_empty_window():
    with pytest.raises(ValueError, match="window"):
        MovingAverage(window=0)


def test_ewma_warm_up_then_smooths():
    ewma = Ewma(alpha=0.5)
    assert ewma.value is WARMUP
    ewma.observe(100.0)
    assert ewma.value == pytest.approx(100.0)  # first sample seeds
    ewma.observe(0.0)
    assert ewma.value == pytest.approx(50.0)


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        Ewma(alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        Ewma(alpha=1.5)


# ----------------------------------------------------------------------
# FailureRateEstimator
# ----------------------------------------------------------------------

def test_single_failure_yields_no_interval():
    est = FailureRateEstimator()
    est.record_failure(100.0)
    # One failure defines no inter-failure interval: everything stays at
    # the warm-up sentinel rather than a fake zero-or-infinite rate.
    assert est.failures == 1
    assert est.mttf() is WARMUP
    assert est.failure_rate() is WARMUP
    assert est.hazard(now=200.0) is WARMUP


def test_two_failures_define_mttf_and_rate():
    est = FailureRateEstimator()
    est.record_failure(100.0)
    est.record_failure(160.0)
    assert est.mttf() == pytest.approx(60.0)
    assert est.failure_rate() == pytest.approx(1.0 / 60.0)


def test_hazard_decays_past_the_mttf():
    est = FailureRateEstimator()
    est.record_failure(0.0)
    est.record_failure(60.0)
    fresh = est.hazard(now=90.0)  # within one MTTF of the last failure
    stale = est.hazard(now=600.0)  # long quiet stretch
    assert fresh > stale > 0.0


def test_estimator_state_is_plain_data():
    est = FailureRateEstimator()
    est.record_failure(10.0)
    est.record_failure(30.0)
    state = est.state()
    assert state["failures"] == 2
    assert state["mttf"] == pytest.approx(20.0)


# ----------------------------------------------------------------------
# The health registry's estimators, fed by incident closures
# ----------------------------------------------------------------------

def make_registry():
    tracker = IncidentTracker(url_path_map=URL_PATH_MAP)
    return tracker, ComponentHealthRegistry(tracker=tracker)


def test_empty_incident_stream_has_empty_state():
    tracker, registry = make_registry()
    tracker.finalize(400.0)
    assert registry.estimators == {}
    assert registry.keys() == []
    assert registry.snapshot() == []
    assert tracker.close_listeners == [registry.on_incident_closed]


def test_incident_closures_feed_per_component_estimators():
    tracker, registry = make_registry()
    for opened in (100.0, 200.0, 300.0):
        tracker.feed(opened, "fault.injected",
                     {"target": "Item", "fault": "x", "server": "node1"})
        tracker.feed(opened + 2.0, "rm.action.end",
                     {"level": "ejb", "target": ("Item",), "ok": True,
                      "duration": 1.0, "server": "node1"})
    tracker.finalize(400.0)
    assert list(registry.estimators) == [("node1", "Item")]
    estimator = registry.estimators[("node1", "Item")]
    assert estimator.failures == 3
    # Failures are stamped at incident *open* times: intervals of 100 s.
    assert estimator.mttf() == pytest.approx(100.0)
    assert estimator.failure_rate() == pytest.approx(0.01)
    [row] = registry.snapshot(now=400.0)
    assert (row["server"], row["component"]) == ("node1", "Item")
    assert row["mttf"] == pytest.approx(100.0)
    assert row["hazard"] > 0.0


def test_same_stream_yields_identical_state():
    """Determinism: two registries fed the same history agree exactly."""
    def feed():
        tracker, registry = make_registry()
        for opened in (50.0, 125.0, 280.0, 333.0):
            tracker.feed(opened, "fault.injected",
                         {"target": "Bid", "fault": "x", "server": "node2"})
            tracker.feed(opened + 1.0, "rm.action.end",
                         {"level": "ejb", "target": ("Bid",), "ok": True,
                          "duration": 1.0, "server": "node2"})
        tracker.finalize(400.0)
        return (
            {key: est.state() for key, est in registry.estimators.items()},
            registry.snapshot(now=400.0),
        )

    assert feed() == feed()
