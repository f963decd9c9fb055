"""Streaming MTTF/hazard estimators: warm-up, intervals, determinism."""

import pytest

from repro.observability.estimators import (
    WARMUP,
    Ewma,
    EstimatorHub,
    FailureRateEstimator,
    MovingAverage,
)
from repro.observability.incidents import IncidentTracker
from repro.telemetry.trace import TraceBus

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
# EstimatorHub
# ----------------------------------------------------------------------

def make_hub(**kwargs):
    kwargs.setdefault("url_path_map", URL_PATH_MAP)
    return EstimatorHub(**kwargs)


def test_empty_incident_stream_has_empty_state():
    hub = make_hub()
    assert hub.keys() == []
    assert hub.failure_keys() == []
    assert hub.state() == {}
    assert hub.mttf("Item", server="node1") is WARMUP


def test_incident_closures_feed_per_component_estimators():
    tracker = IncidentTracker(url_path_map=URL_PATH_MAP)
    hub = make_hub(tracker=tracker)
    for opened in (100.0, 200.0, 300.0):
        tracker.feed(opened, "fault.injected",
                     {"target": "Item", "fault": "x", "server": "node1"})
        tracker.feed(opened + 2.0, "rm.action.end",
                     {"level": "ejb", "target": ("Item",), "ok": True,
                      "duration": 1.0, "server": "node1"})
    tracker.finalize(400.0)
    assert hub.incidents_seen == 3
    # Failures are stamped at incident *open* times: intervals of 100 s.
    assert hub.mttf("Item", server="node1") == pytest.approx(100.0)
    assert hub.failure_rate("Item", server="node1") == pytest.approx(0.01)


def test_report_feed_tracks_rate_but_not_failure_keys():
    hub = make_hub()
    report = {"url": "/ebid/ViewItem", "server": "node1"}
    hub.feed(10.0, "rm.report", report)
    hub.feed(12.0, "rm.report", report)
    assert hub.report_rate("ViewItem", server="node1") == pytest.approx(0.5)
    assert ("node1", "ViewItem") in hub.keys()
    # No incident-attributed failures yet: failure_keys stays empty.
    assert hub.failure_keys() == []


def test_bus_subscription_and_detach():
    bus = TraceBus(enabled=True)
    hub = make_hub(bus=bus)
    bus.publish("rm.report", url="/ebid/ViewItem", server="node1")
    bus.publish("rm.decision", level="ejb", server="node1")  # not a report
    assert hub.reports_seen == 1


def test_same_stream_yields_identical_state():
    """Determinism: two hubs fed the same history agree exactly."""
    def feed(hub):
        tracker = IncidentTracker(url_path_map=URL_PATH_MAP)
        tracker.close_listeners.append(hub.on_incident_closed)
        for opened in (50.0, 125.0, 280.0, 333.0):
            tracker.feed(opened, "fault.injected",
                         {"target": "Bid", "fault": "x", "server": "node2"})
            tracker.feed(opened + 1.0, "rm.action.end",
                         {"level": "ejb", "target": ("Bid",), "ok": True,
                          "duration": 1.0, "server": "node2"})
        tracker.finalize(400.0)
        report = {"url": "/ebid/CommitBid", "server": "node2"}
        hub.feed(60.0, "rm.report", report)
        hub.feed(65.0, "rm.report", report)
        return hub.state()

    assert feed(make_hub()) == feed(make_hub())
