"""Proactive rejuvenation policy: monitor, targeting, cooldown, shadow."""

from types import SimpleNamespace

import pytest

from repro.appserver.memory import OWNER_SERVER
from repro.core import FailureKind, RecoveryManager
from repro.core.proactive import DEFAULT_TRIGGER_RULES, ProactiveRejuvenationPolicy
from tests.toyapp import URL_PATH_MAP, build_toy_system
from tests.tracing import record

MB = 1024 * 1024


def make_rig(shadow=False, **kwargs):
    system = build_toy_system()
    rm = RecoveryManager(
        system.kernel, system.coordinator, URL_PATH_MAP, score_threshold=3
    )
    rm.start()
    policy = ProactiveRejuvenationPolicy(
        system.kernel, rm, shadow=shadow, **kwargs
    )
    return system, rm, policy


def heap_alert(system, rule="heap-exhaustion-predicted", component=None,
               server=None):
    """A fired-alert stand-in shaped like alerts.Alert."""
    return SimpleNamespace(
        rule=rule,
        server=server if server is not None else system.server.name,
        component=component,
        fired_at=system.kernel.now,
    )


# ----------------------------------------------------------------------
# Construction and the heap monitor
# ----------------------------------------------------------------------

def test_check_interval_and_cooldown_validation():
    system, rm, _policy = make_rig()
    with pytest.raises(ValueError, match="check_interval"):
        ProactiveRejuvenationPolicy(system.kernel, rm, check_interval=0)
    with pytest.raises(ValueError, match="cooldown"):
        ProactiveRejuvenationPolicy(system.kernel, rm, cooldown=-1.0)


def test_start_is_idempotent():
    system, _rm, policy = make_rig()
    first = policy.start()
    again = policy.start()
    assert again is first  # no second monitor process spawned


def test_monitor_publishes_heap_samples():
    system, _rm, policy = make_rig(check_interval=2.0)
    system.kernel.trace.enabled = True
    samples = record(system.kernel.trace, "heap.sample")
    policy.start()
    system.kernel.run(until=7.0)
    assert [e.t for e in samples] == [2.0, 4.0, 6.0]
    assert samples[0].fields["server"] == system.server.name
    assert samples[0].fields["capacity"] == system.server.heap.capacity


# ----------------------------------------------------------------------
# Acting on alerts
# ----------------------------------------------------------------------

def test_heap_alert_preempts_the_biggest_leaker():
    system, rm, policy = make_rig()
    system.server.heap.leak("Greeter", 64 * MB)
    system.server.heap.leak(OWNER_SERVER, 512 * MB)  # not µRB-able: skipped
    action = policy.on_alert(heap_alert(system))
    assert action is not None
    assert action.target == ("Greeter",)
    assert action.trigger is FailureKind.PREDICTED
    system.kernel.run(until=5.0)
    assert action.ok
    assert system.server.heap.leaked_by("Greeter") == 0
    assert policy.stats() == {
        "alerts_seen": 1,
        "preempts_dispatched": 1,
        "preempts_declined": 0,
    }


def test_component_alert_names_its_target_directly():
    system, _rm, policy = make_rig(
        trigger_rules=DEFAULT_TRIGGER_RULES + ("component-health-low",)
    )
    alert = heap_alert(system, rule="component-health-low",
                       component="Greeter")
    action = policy.on_alert(alert)
    assert action is not None and "Greeter" in action.target


def test_non_trigger_rules_and_other_servers_are_ignored():
    system, _rm, policy = make_rig()
    system.server.heap.leak("Greeter", 64 * MB)
    assert policy.on_alert(
        heap_alert(system, rule="error-budget-burning")
    ) is None
    assert policy.on_alert(heap_alert(system, server="elsewhere")) is None
    # Neither counts as a decline: the alert simply wasn't for this policy.
    assert policy.preempts_declined == 0
    assert policy.alerts_seen == 2


def test_no_attributable_leaker_declines():
    system, _rm, policy = make_rig()
    system.server.heap.leak(OWNER_SERVER, 512 * MB)  # only the server leaks
    assert policy.on_alert(heap_alert(system)) is None
    assert policy.preempts_declined == 1


def test_cooldown_bounds_the_preempt_rate():
    system, _rm, policy = make_rig(cooldown=30.0)
    system.server.heap.leak("Greeter", 64 * MB)
    assert policy.on_alert(heap_alert(system)) is not None
    system.kernel.run(until=10.0)
    system.server.heap.leak("Greeter", 64 * MB)
    # Still inside the 30 s cooldown: declined.
    assert policy.on_alert(heap_alert(system)) is None
    assert policy.preempts_declined == 1
    system.kernel.run(until=31.0)
    assert policy.on_alert(heap_alert(system)) is not None
    assert policy.preempts_dispatched == 2


def test_preempts_leave_reactive_backoff_state_alone():
    system, _rm, policy = make_rig()
    rm = policy.rm
    system.server.heap.leak("Greeter", 64 * MB)
    assert policy.on_alert(heap_alert(system)) is not None
    system.kernel.run(until=5.0)
    # Planned maintenance is not flapping: no backoff entry, no strikes.
    assert not rm._in_backoff("Greeter", system.kernel.now)
    assert not rm.active_quarantines()


def test_shadow_policy_counts_alerts_but_never_acts():
    system, rm, policy = make_rig(shadow=True)
    system.server.heap.leak("Greeter", 64 * MB)
    assert policy.on_alert(heap_alert(system)) is None
    assert policy.alerts_seen == 1
    assert policy.preempts_dispatched == 0 and policy.preempts_declined == 0
    system.kernel.run(until=5.0)
    assert rm.actions == []
    assert system.server.heap.leaked_by("Greeter") == 64 * MB
