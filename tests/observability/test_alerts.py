"""Alert rules and engine: for-duration, dedup, resolve, lead times."""

from types import SimpleNamespace

import pytest

from repro.observability.alerts import (
    AlertEngine,
    AlertRule,
    alert_lead_times,
    default_rules,
    median,
)
from repro.telemetry.trace import TraceBus
from tests.tracing import record


class StubRegistry:
    """Minimal health-registry stand-in: scripted signal values."""

    def __init__(self, components=(("node1", "Item"),), servers=("node1",)):
        self._components = list(components)
        self._servers = list(servers)
        self.scores = {}  # (server, component) -> score
        self.heap_tta = {}  # server -> seconds (or None)
        self.burn = 0.0

    def keys(self):
        return list(self._components)

    def servers(self):
        return list(self._servers)

    def score(self, component, server=None, now=None):
        return self.scores.get((server, component), 100.0)

    def heap_time_to_alarm(self, server, now=None):
        return self.heap_tta.get(server)

    def burn_signal(self, now):
        return self.burn


# ----------------------------------------------------------------------
# AlertRule
# ----------------------------------------------------------------------

def test_rule_rejects_negative_for_duration():
    with pytest.raises(ValueError, match="for_duration"):
        AlertRule(name="x", signal="health", threshold=50.0, for_duration=-1.0)


def test_rule_rejects_unknown_scope():
    with pytest.raises(ValueError, match="scope"):
        AlertRule(name="x", signal="health", threshold=50.0, scope="pod")


def test_rule_condition_directions_and_none():
    below = AlertRule(name="b", signal="health", threshold=50.0, below=True)
    above = AlertRule(name="a", signal="burn", threshold=0.5, below=False)
    assert below.condition(40.0) and not below.condition(60.0)
    assert above.condition(0.9) and not above.condition(0.1)
    # No data is never an alert condition.
    assert not below.condition(None) and not above.condition(None)


def test_default_rules_include_the_proactive_trigger():
    names = {rule.name for rule in default_rules()}
    assert "heap-exhaustion-predicted" in names


# ----------------------------------------------------------------------
# AlertEngine: pending → fire → dedup → resolve
# ----------------------------------------------------------------------

def make_engine(rules, bus=None):
    return AlertEngine(rules=rules, bus=bus)


def test_for_duration_holds_before_firing():
    rule = AlertRule(name="low", signal="health", threshold=50.0,
                     for_duration=10.0)
    engine = make_engine([rule])
    registry = StubRegistry()
    registry.scores[("node1", "Item")] = 30.0
    assert engine.evaluate(0.0, registry) == []  # pending, not fired
    assert engine.evaluate(5.0, registry) == []  # still holding
    fired = engine.evaluate(10.0, registry)
    assert len(fired) == 1
    alert = fired[0]
    assert alert.rule == "low" and alert.active
    assert alert.server == "node1" and alert.component == "Item"
    assert alert.fired_at == 10.0 and alert.pending_since == 0.0


def test_condition_blip_resets_the_pending_clock():
    rule = AlertRule(name="low", signal="health", threshold=50.0,
                     for_duration=10.0)
    engine = make_engine([rule])
    registry = StubRegistry()
    registry.scores[("node1", "Item")] = 30.0
    engine.evaluate(0.0, registry)
    registry.scores[("node1", "Item")] = 90.0  # recovers briefly
    engine.evaluate(5.0, registry)
    registry.scores[("node1", "Item")] = 30.0  # sick again
    engine.evaluate(8.0, registry)
    assert engine.evaluate(17.0, registry) == []  # 9 s held, not 10
    assert len(engine.evaluate(18.0, registry)) == 1


def test_active_alert_dedups_until_resolved():
    rule = AlertRule(name="low", signal="health", threshold=50.0)
    engine = make_engine([rule])
    registry = StubRegistry()
    registry.scores[("node1", "Item")] = 30.0
    assert len(engine.evaluate(0.0, registry)) == 1
    # Condition persists: no duplicate alert objects while active.
    assert engine.evaluate(1.0, registry) == []
    assert engine.evaluate(2.0, registry) == []
    assert len(engine.alerts) == 1
    # Condition clears: the alert resolves.
    registry.scores[("node1", "Item")] = 90.0
    engine.evaluate(3.0, registry)
    assert engine.alerts[0].resolved_at == 3.0
    assert engine.active_alerts() == []
    # Re-firing after resolve creates a fresh alert instance.
    registry.scores[("node1", "Item")] = 30.0
    engine.evaluate(4.0, registry)
    assert len(engine.alerts) == 2


def test_server_scope_keys_and_heap_tta_signal():
    rule = AlertRule(name="heap", signal="heap_tta", threshold=120.0,
                     below=True, scope="server")
    engine = make_engine([rule])
    registry = StubRegistry(servers=("node1", "node2"))
    registry.heap_tta["node1"] = 60.0  # node2 has no trend -> None -> false
    fired = engine.evaluate(0.0, registry)
    assert [(a.server, a.component) for a in fired] == [("node1", None)]


def test_fire_and_resolve_publish_sticky_bus_events():
    bus = TraceBus(enabled=True)
    events = record(bus)
    rule = AlertRule(name="low", signal="health", threshold=50.0)
    engine = make_engine([rule], bus=bus)
    registry = StubRegistry()
    registry.scores[("node1", "Item")] = 30.0
    engine.evaluate(5.0, registry)
    registry.scores[("node1", "Item")] = 90.0
    engine.evaluate(9.0, registry)
    assert [e.kind for e in events] == ["alert.fired", "alert.resolved"]
    fired = events[0].fields
    assert fired["rule"] == "low" and fired["server"] == "node1"
    assert events[1].fields["duration"] == pytest.approx(4.0)


def test_listeners_see_fires_and_resolves():
    rule = AlertRule(name="low", signal="health", threshold=50.0)
    engine = make_engine([rule])
    fired, resolved = [], []
    engine.on_fire.append(fired.append)
    engine.on_resolve.append(resolved.append)
    registry = StubRegistry()
    registry.scores[("node1", "Item")] = 30.0
    engine.evaluate(0.0, registry)
    registry.scores[("node1", "Item")] = 90.0
    engine.evaluate(6.0, registry)
    assert len(fired) == 1 and len(resolved) == 1
    assert fired[0] is resolved[0]


def test_finalize_resolves_everything_still_active():
    rules = [
        AlertRule(name="low", signal="health", threshold=50.0),
        AlertRule(name="burning", signal="burn", threshold=0.5, below=False,
                  scope="global"),
    ]
    engine = make_engine(rules)
    registry = StubRegistry()
    registry.scores[("node1", "Item")] = 30.0
    registry.burn = 0.9
    engine.evaluate(0.0, registry)
    assert len(engine.active_alerts()) == 2
    alerts = engine.finalize(100.0)
    assert engine.active_alerts() == []
    assert all(a.resolved_at == 100.0 for a in alerts)


def test_alert_to_dict_is_json_shaped():
    rule = AlertRule(name="low", signal="health", threshold=50.0)
    engine = make_engine([rule])
    registry = StubRegistry()
    registry.scores[("node1", "Item")] = 30.0
    engine.evaluate(0.0, registry)
    payload = engine.alerts[0].to_dict()
    assert payload["rule"] == "low"
    assert payload["resolved_at"] is None
    assert payload["value"] == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Lead times and the tiny median
# ----------------------------------------------------------------------

def alert_at(t, server="node1"):
    return SimpleNamespace(fired_at=t, server=server)


def incident_at(t, server="node1"):
    return SimpleNamespace(opened_at=t, server=server)


def test_lead_times_pick_earliest_warning_per_incident():
    alerts = [alert_at(100.0), alert_at(150.0)]
    incidents = [incident_at(200.0)]
    assert alert_lead_times(alerts, incidents) == [100.0]


def test_lead_times_respect_server_and_window():
    alerts = [alert_at(100.0, server="node2"),  # wrong server
              alert_at(10.0),  # outside the 300 s window for t=400
              alert_at(390.0)]
    incidents = [incident_at(400.0), incident_at(50.0, server="node3")]
    # Only the t=390 alert warns the t=400 incident; node3 got nothing.
    assert alert_lead_times(alerts, incidents) == [10.0]


def test_serverless_alerts_warn_any_incident():
    alerts = [alert_at(95.0, server=None)]
    incidents = [incident_at(100.0, server="node7")]
    assert alert_lead_times(alerts, incidents) == [5.0]


def test_median_handles_empty_odd_and_even():
    assert median([]) is None
    assert median([3.0]) == 3.0
    assert median([1.0, 9.0, 5.0]) == 5.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
