"""Incident stitching: lifecycle, attribution, and the phase invariant."""

import pytest

from repro.observability.incidents import (
    IncidentTracker,
    aggregate_incidents,
    max_concurrent_actions,
    path_for_url,
)
from repro.telemetry.trace import TraceBus

URL_PATH_MAP = {
    "/ebid/ViewItem": ("EbidWAR", "ViewItem", "Item"),
    "/ebid/CommitBid": ("EbidWAR", "CommitBid", "Bid", "Item"),
    "/ebid/RegisterNewUser": ("EbidWAR", "RegisterNewUser", "User"),
}


def tracker(**kwargs):
    kwargs.setdefault("url_path_map", URL_PATH_MAP)
    return IncidentTracker(**kwargs)


def assert_phases_sum_to_span(incident):
    assert sum(incident.phases().values()) == pytest.approx(incident.span)


# ----------------------------------------------------------------------
# Basic lifecycle
# ----------------------------------------------------------------------

def test_fault_report_recovery_becomes_one_incident():
    tr = tracker()
    tr.feed(100.0, "fault.injected", {"target": "Item", "fault": "corrupt-tx",
                                      "server": "node1"})
    tr.feed(103.0, "detector.report", {"url": "/ebid/ViewItem",
                                       "reported": True})
    tr.feed(103.0, "rm.report", {"url": "/ebid/ViewItem", "server": "node1"})
    tr.feed(104.0, "rm.decision", {"level": "ejb", "target": ("Item",),
                                   "server": "node1"})
    tr.feed(106.0, "rm.action.end", {"level": "ejb", "target": ("Item",),
                                     "ok": True, "duration": 2.0,
                                     "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.key == "Item"
    assert incident.server == "node1"
    assert incident.reports == 1
    assert len(incident.actions) == 1
    assert incident.closed_by == "recovered"
    phases = incident.phases()
    assert phases["detection"] == pytest.approx(3.0)
    assert phases["diagnosis"] == pytest.approx(1.0)
    assert phases["recovery"] == pytest.approx(2.0)
    assert_phases_sum_to_span(incident)


def test_quiet_period_closes_and_separates_incidents():
    tr = tracker(quiet_period=30.0)
    tr.feed(10.0, "fault.injected", {"target": "Item", "fault": "x"})
    # Well past the quiet period: the first incident closes, a second opens.
    tr.feed(100.0, "fault.injected", {"target": "Item", "fault": "x"})
    incidents = tr.finalize()
    assert len(incidents) == 2
    assert incidents[0].closed_at == 10.0
    assert incidents[0].closed_by == "quiesced"


def test_pending_decision_pins_the_incident_open():
    """A slow recovery (e.g. an OS reboot) cannot outlive its incident."""
    tr = tracker(quiet_period=30.0)
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(1.0, "rm.decision", {"level": "os", "target": ("Item",),
                                 "server": "node1"})
    # 90 quiet seconds, but the decision is still pending: stays open.
    tr.feed(91.0, "rm.action.end", {"level": "os", "target": ("Item",),
                                    "ok": True, "duration": 90.0,
                                    "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    assert incidents[0].closed_by == "recovered"
    assert_phases_sum_to_span(incidents[0])


# ----------------------------------------------------------------------
# ISSUE edge case: quarantine-suppressed reports open no phantom incidents
# ----------------------------------------------------------------------

def test_suppressed_reports_never_open_phantom_incidents():
    tr = tracker()
    tr.feed(5.0, "rm.report.quarantined", {"url": "/ebid/ViewItem",
                                           "server": "node1"})
    tr.feed(6.0, "rm.report.quarantined", {"url": "/ebid/ViewItem",
                                           "server": "node1"})
    assert tr.finalize() == []


def test_suppressed_reports_count_on_the_existing_incident():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(1.0, "rm.report", {"url": "/ebid/ViewItem", "server": "node1"})
    tr.feed(2.0, "rm.quarantine.begin", {"component": "Item",
                                         "server": "node1"})
    tr.feed(3.0, "rm.report.quarantined", {"url": "/ebid/ViewItem",
                                           "server": "node1"})
    tr.feed(4.0, "rm.report.quarantined", {"url": "/ebid/ViewItem",
                                           "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.reports == 1  # the real report
    assert incident.suppressed_reports == 2
    assert incident.quarantines == 1
    assert incident.closed_by == "quarantine"


def test_forwarded_detector_report_is_evidence_not_a_count():
    """detector.report with reported=True stamps detection; rm.report counts."""
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(2.0, "detector.report", {"url": "/ebid/ViewItem",
                                     "reported": True})
    tr.feed(2.0, "rm.report", {"url": "/ebid/ViewItem", "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    assert incidents[0].reports == 1  # not double-counted
    assert incidents[0].first_report_at == 2.0


def test_forwarded_detector_report_alone_opens_nothing():
    """Forwarded reports defer to the RM's adjudication entirely."""
    tr = tracker()
    tr.feed(2.0, "detector.report", {"url": "/ebid/ViewItem",
                                     "reported": True})
    assert tr.finalize() == []


def test_unforwarded_detector_report_opens_a_detector_incident():
    """With no RM wired, the detector is the only signal there is."""
    tr = tracker()
    tr.feed(2.0, "detector.report", {"url": "/ebid/ViewItem",
                                     "reported": False})
    incidents = tr.finalize()
    assert len(incidents) == 1
    assert incidents[0].trigger == "detector"
    assert incidents[0].reports == 1


# ----------------------------------------------------------------------
# ISSUE edge case: overlapping faults on distinct components
# ----------------------------------------------------------------------

def test_overlapping_faults_on_distinct_components_are_distinct_incidents():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(5.0, "fault.injected", {"target": "User", "fault": "y",
                                    "server": "node2"})
    tr.feed(7.0, "rm.report", {"url": "/ebid/ViewItem", "server": "node1"})
    tr.feed(8.0, "rm.report", {"url": "/ebid/RegisterNewUser",
                               "server": "node2"})
    tr.feed(9.0, "rm.action.end", {"level": "ejb", "target": ("Item",),
                                   "ok": True, "duration": 1.0,
                                   "server": "node1"})
    tr.feed(10.0, "rm.action.end", {"level": "ejb", "target": ("User",),
                                    "ok": True, "duration": 1.0,
                                    "server": "node2"})
    incidents = tr.finalize()
    assert len(incidents) == 2
    by_key = {i.key: i for i in incidents}
    assert set(by_key) == {"Item", "User"}
    for incident in incidents:
        assert incident.reports == 1
        assert len(incident.actions) == 1
        assert incident.closed_by == "recovered"
        assert_phases_sum_to_span(incident)


def test_repeat_fault_on_same_component_joins_the_open_incident():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(5.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    assert len(incidents[0].faults) == 2


def test_shared_path_component_attaches_to_the_earliest_open_incident():
    """/ebid/CommitBid touches Item too: one report, one incident credited."""
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(1.0, "rm.report", {"url": "/ebid/CommitBid", "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    assert incidents[0].reports == 1


# ----------------------------------------------------------------------
# ISSUE edge case: an incident that ends via failover, not recovery
# ----------------------------------------------------------------------

def test_incident_closed_by_failover_when_no_recovery_ran():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "node-crash",
                                    "server": "node1"})
    tr.feed(1.0, "lb.failover.begin", {"node": "node1"})
    tr.feed(4.0, "lb.failover.end", {"node": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.failovers == 1
    assert incident.closed_by == "failover"
    assert incident.recovered is False
    assert_phases_sum_to_span(incident)


def test_failover_on_another_node_is_not_attributed():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(1.0, "lb.failover.begin", {"node": "node2"})
    incidents = tr.finalize()
    assert incidents[0].failovers == 0
    assert incidents[0].closed_by == "quiesced"


def test_recovery_beats_failover_in_closed_by():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(1.0, "lb.failover.begin", {"node": "node1"})
    tr.feed(3.0, "rm.action.end", {"level": "ejb", "target": ("Item",),
                                   "ok": True, "duration": 1.0,
                                   "server": "node1"})
    incidents = tr.finalize()
    assert incidents[0].failovers == 1
    assert incidents[0].closed_by == "recovered"


# ----------------------------------------------------------------------
# Infrastructure (chaos.event) incidents
# ----------------------------------------------------------------------

def test_chaos_link_fault_opens_an_infra_incident_that_absorbs_reports():
    tr = tracker()
    tr.feed(0.0, "chaos.event", {"kind": "link", "node": "node2",
                                 "target": None})
    tr.feed(2.0, "rm.report", {"url": "/not/mapped", "server": "node2"})
    tr.feed(5.0, "chaos.event", {"kind": "link-heal", "node": "node2",
                                 "target": None})
    incidents = tr.finalize()
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.trigger == "chaos"
    assert incident.key == "link:node2"
    assert incident.reports == 1
    assert incident.closed_by == "quiesced"
    assert incident.end == 5.0  # the heal is the last evidence


def test_storm_and_backoff_deferrals_are_attributed():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(1.0, "rm.recovery.deferred", {"targets": ("Item",),
                                          "reason": "backoff",
                                          "server": "node1"})
    tr.feed(2.0, "rm.recovery.deferred", {"targets": ("Item",),
                                          "reason": "storm",
                                          "server": "node1"})
    incidents = tr.finalize()
    assert incidents[0].deferrals == 1
    assert incidents[0].storm_denied == 1


def test_escalation_ladder_stays_on_one_incident():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    for t, level, ok in ((5.0, "ejb", False), (12.0, "app", False),
                         (30.0, "jvm", True)):
        tr.feed(t - 1.0, "rm.decision", {"level": level, "target": ("Item",),
                                         "server": "node1"})
        tr.feed(t, "rm.action.end", {"level": level, "target": ("Item",),
                                     "ok": ok, "duration": 1.0,
                                     "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    incident = incidents[0]
    assert [a["level"] for a in incident.actions] == ["ejb", "app", "jvm"]
    assert incident.closed_by == "recovered"
    # Recovery phase covers the whole ladder, gaps included.
    assert incident.phases()["recovery"] == pytest.approx(30.0 - 4.0)
    assert_phases_sum_to_span(incident)


def test_unattributable_action_opens_a_recovery_incident_at_decision_time():
    tr = tracker()
    tr.feed(50.0, "rm.action.end", {"level": "ejb", "target": ("Item",),
                                    "ok": True, "duration": 2.0,
                                    "server": "node1"})
    incidents = tr.finalize()
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.trigger == "recovery"
    assert incident.opened_at == pytest.approx(48.0)
    assert incident.phases()["recovery"] == pytest.approx(2.0)
    assert_phases_sum_to_span(incident)


# ----------------------------------------------------------------------
# Live mode (bus subscription) and aggregation
# ----------------------------------------------------------------------

def test_live_tracker_subscribes_and_detaches():
    bus = TraceBus(enabled=True)
    tr = IncidentTracker(bus=bus, url_path_map=URL_PATH_MAP)
    bus.publish("fault.injected", target="Item", fault="x", server="node1")
    bus.publish("request.end", operation="ViewItem", ok=True, duration=0.1)
    assert len(tr.open_incidents()) == 1


def test_aggregate_incidents_rollup():
    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(1.0, "rm.report", {"url": "/ebid/ViewItem", "server": "node1"})
    tr.feed(3.0, "rm.action.end", {"level": "ejb", "target": ("Item",),
                                   "ok": True, "duration": 1.0,
                                   "server": "node1"})
    summary = aggregate_incidents(tr.finalize())
    assert summary["count"] == 1
    assert summary["closed_by"] == {"recovered": 1}
    assert summary["actions_attributed"] == 1
    assert summary["reports_attributed"] == 1
    assert summary["mean_span"] == pytest.approx(3.0)
    assert sum(summary["mean_phases"].values()) == pytest.approx(
        summary["mean_span"], abs=1e-3
    )


def test_path_for_url_longest_prefix_wins():
    path_map = {"/ebid": ("EbidWAR",), "/ebid/ViewItem": ("EbidWAR", "Item")}
    assert path_for_url("/ebid/ViewItem?x=1", path_map) == ("EbidWAR", "Item")
    assert path_for_url("/ebid/Other", path_map) == ("EbidWAR",)
    assert path_for_url("/nope", path_map) == ()


def test_quiet_period_must_be_positive():
    with pytest.raises(ValueError):
        IncidentTracker(quiet_period=0.0)


def test_to_dict_is_plain_json_data():
    import json

    tr = tracker()
    tr.feed(0.0, "fault.injected", {"target": "Item", "fault": "x",
                                    "server": "node1"})
    tr.feed(2.5, "rm.action.end", {"level": "ejb", "target": ("Item",),
                                   "ok": True, "duration": 1.0,
                                   "server": "node1"})
    payload = [i.to_dict() for i in tr.finalize()]
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped[0]["key"] == "Item"
    assert round_tripped[0]["phases"].keys() == {
        "detection", "diagnosis", "recovery", "residual"
    }
    assert sum(round_tripped[0]["phases"].values()) == pytest.approx(
        round_tripped[0]["span"], abs=1e-5
    )


def test_max_concurrent_actions_sweeps_half_open_intervals():
    assert max_concurrent_actions([]) == 0
    # Abutting: the first closes at 2.0 before the second opens at 2.0.
    assert max_concurrent_actions([(0.0, 2.0), (2.0, 3.0)]) == 1
    assert max_concurrent_actions(
        [(0.0, 2.0), (1.0, 3.0), (1.5, 1.8), (3.0, 4.0)]
    ) == 3
