"""Tests for the hardened recovery pipeline: backoff, flap quarantine,
storm limiting (the knobs in :mod:`repro.core.hardening`)."""

import pytest

from repro.core import FailureKind, FailureReport, RecoveryManager
from repro.core.hardening import HardeningPolicy, RecoveryStormLimiter
from repro.sim import Kernel
from tests.toyapp import URL_PATH_MAP, build_toy_system


def make_rm(system, hardening, **kwargs):
    defaults = dict(score_threshold=3, escalation_window=45.0)
    defaults.update(kwargs)
    rm = RecoveryManager(
        system.kernel, system.coordinator, URL_PATH_MAP,
        hardening=hardening, **defaults,
    )
    rm.start()
    return rm


def report(rm, system, url):
    rm.report(
        FailureReport(
            time=system.kernel.now,
            url=url,
            operation=url.rsplit("/", 1)[-1],
            kind=FailureKind.HTTP_ERROR,
        )
    )


def flap_policy(**overrides):
    knobs = dict(
        enabled=True, backoff_base=60.0, backoff_factor=2.0,
        backoff_max=300.0, flap_threshold=3, flap_window=500.0,
        flap_debounce=0.0, quarantine_ttl=50.0,
    )
    knobs.update(overrides)
    return HardeningPolicy(**knobs)


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
class TestHardeningPolicy:
    def test_constructors(self):
        assert not HardeningPolicy.disabled().enabled
        assert HardeningPolicy.hardened().enabled
        assert HardeningPolicy.parallel().enabled
        assert HardeningPolicy.parallel().parallel_recovery
        assert not HardeningPolicy.hardened().parallel_recovery

    @pytest.mark.parametrize(
        "knobs",
        [
            {"backoff_base": -1.0},
            {"backoff_factor": 0.5},
            {"flap_threshold": 0},
            {"flap_debounce": -0.1},
            {"quarantine_ttl": -5.0},
            {"storm_limit": 0},
            {"storm_window_limit": 0},
            {"shed_latency": -0.4},
            {"latency_samples": 0},
        ],
    )
    def test_bad_knobs_fail_at_construction(self, knobs):
        with pytest.raises(ValueError):
            HardeningPolicy(**knobs)


# ----------------------------------------------------------------------
# Storm limiter
# ----------------------------------------------------------------------
class TestRecoveryStormLimiter:
    def test_concurrent_cap_and_release(self):
        limiter = RecoveryStormLimiter(Kernel(), limit=1)
        assert limiter.admit("rm0")
        assert not limiter.admit("rm1")
        assert limiter.denied == 1
        limiter.release()
        assert limiter.admit("rm1")

    def test_release_without_a_held_slot_raises(self):
        limiter = RecoveryStormLimiter(Kernel(), limit=1)
        with pytest.raises(RuntimeError, match="no slot held"):
            limiter.release()
        assert limiter.admit("rm0")
        limiter.release()
        with pytest.raises(RuntimeError, match="no slot held"):
            limiter.release()
        assert limiter.active == 0

    def test_window_cap_resets_as_time_passes(self):
        kernel = Kernel()
        limiter = RecoveryStormLimiter(
            kernel, limit=2, window=60.0, window_limit=2
        )
        assert limiter.admit()
        limiter.release()
        assert limiter.admit()
        limiter.release()
        # Two starts inside the window: the rapid-fire cap kicks in even
        # though nothing is running concurrently.
        assert not limiter.admit()

        def advance():
            yield kernel.timeout(61.0)

        kernel.process(advance())
        kernel.run()
        assert limiter.admit()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"limit": 0},
            {"window": -1.0},
            {"limit": 4, "window_limit": 2},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryStormLimiter(Kernel(), **kwargs)


# ----------------------------------------------------------------------
# Backoff + flap quarantine in the recovery manager
# ----------------------------------------------------------------------
def drive_waves(system, rm, waves, gap=20.0, url="/toy/greet"):
    """``waves`` rounds of 3 reports each, ``gap`` seconds apart."""

    def driver():
        for _ in range(waves):
            for _ in range(3):
                report(rm, system, url)
            yield system.kernel.timeout(gap)

    system.kernel.process(driver())
    system.kernel.run(until=waves * gap + 50.0)


def test_backoff_defers_rerecovery_of_fresh_target():
    system = build_toy_system()
    rm = make_rm(system, flap_policy())
    drive_waves(system, rm, waves=2)
    # One µRB; the second wave's demand hits the target's backoff and is
    # deferred instead of recycling the component again.
    assert [a.level for a in rm.actions] == ["ejb"]
    assert rm.metrics.counter("rm.backoff.deferred").value >= 1


def test_disabled_policy_recovers_every_wave():
    system = build_toy_system()
    rm = make_rm(system, HardeningPolicy.disabled())
    drive_waves(system, rm, waves=2)
    assert len(rm.actions) >= 2


def test_repeated_flapping_quarantines_the_target():
    system = build_toy_system()
    rm = make_rm(system, flap_policy(quarantine_ttl=1000.0))
    drive_waves(system, rm, waves=4)
    assert "Greeter" in rm.active_quarantines()
    assert system.server.naming.is_sentinel("Greeter")
    assert rm.metrics.counter("rm.quarantine.count").value == 1
    # Still only the one original µRB: the loop was broken, not fed.
    assert len(rm.actions) == 1


def test_quarantine_suppresses_explained_reports():
    system = build_toy_system()
    rm = make_rm(system, flap_policy())
    drive_waves(system, rm, waves=6)
    # Reports whose path contains the quarantined flapper are dropped
    # before scoring — they are already explained.
    assert rm.metrics.counter("rm.reports.quarantined").value > 0
    assert len(rm.actions) == 1


def test_quarantine_listeners_observe_begin_and_lift():
    system = build_toy_system()
    rm = make_rm(system, flap_policy(quarantine_ttl=30.0))
    seen = []
    rm.quarantine_listeners.append(
        lambda name, active: seen.append((name, set(active)))
    )
    drive_waves(system, rm, waves=4)
    system.kernel.run(until=system.kernel.now + 100.0)
    assert ("Greeter", {"Greeter"}) in seen  # begin
    assert ("Greeter", set()) in seen  # lift at ttl expiry
    assert not rm.active_quarantines()
    assert not system.server.naming.is_sentinel("Greeter")


def test_flap_debounce_coalesces_report_bursts():
    system = build_toy_system()
    # Debounce longer than the wave gap: the repeated deferrals collapse
    # into (at most) one counted strike, so no quarantine forms.
    rm = make_rm(system, flap_policy(flap_debounce=400.0))
    drive_waves(system, rm, waves=4)
    assert not rm.active_quarantines()
    assert rm.metrics.counter("rm.quarantine.count").value == 0


def test_storm_limiter_defers_rm_actions():
    system = build_toy_system()
    limiter = RecoveryStormLimiter(
        system.kernel, limit=1, window=10_000.0, window_limit=1
    )
    rm = make_rm(system, flap_policy(), storm_limiter=limiter)
    # Burn the in-window budget so the RM's first action is denied.
    assert limiter.admit("other-node")
    limiter.release()
    drive_waves(system, rm, waves=1)
    assert rm.actions == []
    assert limiter.denied >= 1


def test_errored_action_releases_storm_slot_and_advances_backoff():
    """An action that raises must not leak its storm-limiter slot.

    A ghost URL-map entry names a component the coordinator has never
    deployed, so group expansion raises mid-action.  The slot must be
    released (``active`` back to 0), the errored action recorded, and the
    ghost target's backoff advanced exactly like a completed recovery —
    otherwise a storm of failing actions wedges the limiter while the
    RM replays the same doomed decision forever.
    """
    system = build_toy_system()
    limiter = RecoveryStormLimiter(system.kernel, limit=1)
    rm = RecoveryManager(
        system.kernel,
        system.coordinator,
        {**URL_PATH_MAP, "/toy/ghost": ("ToyWAR", "Ghost")},
        hardening=flap_policy(),
        storm_limiter=limiter,
        score_threshold=3,
        escalation_window=45.0,
    )
    rm.start()
    for _ in range(3):
        report(rm, system, "/toy/ghost")
    system.kernel.run(until=1.0)

    assert len(rm.actions) == 1
    ghost = rm.actions[0]
    assert not ghost.ok
    assert "Ghost" in ghost.error
    assert ghost.finished_at is not None
    # Satellite contract: slot released, per-target backoff advanced.
    assert limiter.active == 0
    assert rm._backoff_until.get("Ghost", 0.0) > system.kernel.now
    assert rm.metrics.counter("rm.actions.errors").value == 1

    # The freed slot keeps the RM functional: once the escalation window
    # lapses, a fresh incident dispatches a real µRB through the limiter.
    system.kernel.run(until=60.0)
    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=70.0)
    assert any(a.ok and a.target == ("Greeter",) for a in rm.actions)
    assert limiter.active == 0


def test_quarantine_boundary_is_half_open():
    """``t == until`` is post-quarantine: half-open ``[begin, until)``.

    A report stamped at exactly the lift instant was observed after the
    sentinel unbound, so it is fresh evidence and must be scored — only
    strictly-earlier reports are explained by the quarantine.
    """
    system = build_toy_system()
    rm = make_rm(system, flap_policy())
    rm.quarantined["Greeter"] = 100.0

    def at(time):
        return FailureReport(
            time=time, url="/toy/greet", operation="greet",
            kind=FailureKind.HTTP_ERROR,
        )

    assert rm._explained_by_quarantine(at(99.9))
    assert not rm._explained_by_quarantine(at(100.0))
    assert not rm._explained_by_quarantine(at(100.1))
    # A different path never intersects the quarantine at any stamp.
    balance = FailureReport(
        time=99.9, url="/toy/balance", operation="balance",
        kind=FailureKind.HTTP_ERROR,
    )
    assert not rm._explained_by_quarantine(balance)


def test_deferred_demand_rediagnoses_from_current_evidence():
    """A deferred recovery re-enters against *current* diagnosis.

    The greet wave's demand is backoff-deferred (Greeter was just
    recovered); by the time the RM acts again the hot evidence points at
    the Account group.  The retry must target what the scores say *now*,
    not the candidate captured when the deferral was issued.
    """
    system = build_toy_system()
    rm = make_rm(system, flap_policy())
    deferred = []
    rm.defer_listeners.append(
        lambda reason, level, targets, ttl: deferred.append(
            (reason, targets)
        )
    )

    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=10.0)
    assert [a.target for a in rm.actions] == [("Greeter",)]

    # Greeter fails again while inside its backoff: deferred, not acted.
    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=20.0)
    assert len(rm.actions) == 1
    assert any(
        reason == "backoff" and "Greeter" in targets
        for reason, targets in deferred
    )

    # The Account group heats up before the deferral clears — still
    # inside the same incident (escalation window), after the greet
    # evidence has aged out of the score window.  The next action is the
    # Account-group µRB, not a replay of the stale Greeter candidate (or
    # a coarse escalation on Greeter's behalf).
    system.kernel.run(until=36.0)
    for _ in range(3):
        report(rm, system, "/toy/balance")
    system.kernel.run(until=40.0)
    assert len(rm.actions) == 2
    assert rm.actions[1].level == "ejb"
    assert rm.actions[1].target == ("Account", "Ledger")
    assert rm.actions[1].ok
