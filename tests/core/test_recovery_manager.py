"""Tests for the recovery manager: diagnosis scores, recursive policy."""

from repro.core import FailureKind, FailureReport, RecoveryManager
from repro.core.recovery_manager import LEVELS
from tests.toyapp import URL_PATH_MAP, build_toy_system


def make_rm(system, **kwargs):
    defaults = dict(score_threshold=3, escalation_window=45.0)
    defaults.update(kwargs)
    rm = RecoveryManager(
        system.kernel, system.coordinator, URL_PATH_MAP, **defaults
    )
    rm.start()
    return rm


def report(rm, system, url, kind=FailureKind.HTTP_ERROR, at=None):
    rm.report(
        FailureReport(
            time=system.kernel.now if at is None else at,
            url=url,
            operation=url.rsplit("/", 1)[-1],
            kind=kind,
        )
    )


def test_levels_ladder_matches_paper():
    assert LEVELS == ("ejb", "war", "application", "jvm", "os", "human")


def test_path_for_url_longest_prefix():
    system = build_toy_system()
    rm = make_rm(system)
    assert rm.path_for_url("/toy/greet?who=x") == ["ToyWAR", "Greeter"]
    assert rm.path_for_url("/unknown") == []


def test_scores_accumulate_along_paths():
    system = build_toy_system()
    rm = make_rm(system, score_threshold=100)
    report(rm, system, "/toy/greet")
    report(rm, system, "/toy/balance")
    system.kernel.run(until=1.0)
    assert rm.scores["ToyWAR"] == 2
    assert rm.scores["Greeter"] == 1
    assert rm.scores["Account"] == 1


def test_threshold_triggers_ejb_microreboot_of_top_scorer():
    system = build_toy_system()
    rm = make_rm(system, score_threshold=3)
    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=5.0)
    assert len(rm.actions) == 1
    action = rm.actions[0]
    assert action.level == "ejb"
    # ToyWAR scores highest overall but EJBs are tried first (recursive
    # policy: cheapest/finest first); Greeter is the top EJB scorer.
    assert action.target == ("Greeter",)
    assert system.coordinator.microreboot_count == 1


def test_group_membership_expands_recovery_target():
    system = build_toy_system()
    rm = make_rm(system)
    for _ in range(3):
        report(rm, system, "/toy/balance")
    system.kernel.run(until=5.0)
    assert rm.actions[0].target == ("Account", "Ledger")


def test_below_threshold_no_action():
    system = build_toy_system()
    rm = make_rm(system, score_threshold=5)
    for _ in range(4):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=5.0)
    assert rm.actions == []


def test_scores_reset_after_action():
    system = build_toy_system()
    rm = make_rm(system)
    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=5.0)
    assert rm.scores == {}


def test_persistent_failures_escalate_through_levels():
    """The recursive policy: EJB µRBs, then WAR, then app, then JVM."""
    system = build_toy_system()
    rm = make_rm(system, escalation_window=1000.0)

    def driver():
        for _ in range(30):
            if rm.human_notified:
                break
            for _ in range(3):
                report(rm, system, "/toy/greet")
            yield system.kernel.timeout(30.0)

    system.kernel.process(driver())
    system.kernel.run(until=2000.0)
    levels = [a.level for a in rm.actions]
    # First attempt is an EJB µRB; escalation then walks the ladder.  A
    # second EJB target (ToyWAR is excluded at level 0, Greeter tried) is
    # unavailable for /toy/greet so the next step is the WAR.
    assert levels[0] == "ejb"
    assert "war" in levels
    assert "application" in levels
    assert "jvm" in levels
    assert levels.index("war") < levels.index("application") < levels.index("jvm")
    assert rm.human_notified


def test_quiet_period_resets_escalation():
    system = build_toy_system()
    rm = make_rm(system, escalation_window=10.0)

    def driver():
        for _ in range(3):
            report(rm, system, "/toy/greet")
        yield system.kernel.timeout(100.0)  # well past the window
        for _ in range(3):
            report(rm, system, "/toy/greet")

    system.kernel.process(driver())
    system.kernel.run(until=200.0)
    assert [a.level for a in rm.actions] == ["ejb", "ejb"]


def test_resource_exhaustion_uses_memory_diagnosis():
    system = build_toy_system()
    rm = make_rm(system)
    system.server.heap.leak("Audit", 50 * 1024 * 1024)
    system.server.heap.leak("Greeter", 1024)
    report(rm, system, "/toy/greet", kind=FailureKind.RESOURCE_EXHAUSTION)
    system.kernel.run(until=5.0)
    assert rm.actions[0].target == ("Audit",)
    assert system.server.heap.leaked_by("Audit") == 0


def test_stale_reports_after_recovery_are_dropped():
    system = build_toy_system()
    rm = make_rm(system)
    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=5.0)
    assert len(rm.actions) == 1
    # Reports stamped before the recovery finished are ignored.
    report(rm, system, "/toy/greet", at=rm.actions[0].finished_at - 0.01)
    report(rm, system, "/toy/greet", at=rm.actions[0].finished_at - 0.01)
    report(rm, system, "/toy/greet", at=rm.actions[0].finished_at - 0.01)
    system.kernel.run(until=10.0)
    assert len(rm.actions) == 1


def test_recurring_failures_notify_human():
    system = build_toy_system()
    rm = make_rm(system, recurring_limit=3, escalation_window=1.0)

    def driver():
        for _ in range(5):
            for _ in range(3):
                report(rm, system, "/toy/greet")
            yield system.kernel.timeout(60.0)

    system.kernel.process(driver())
    system.kernel.run(until=1000.0)
    assert rm.human_notified
    assert len(rm.actions) <= 4  # stopped acting once the human took over


def exploding_microreboot(names, level="ejb"):
    raise RuntimeError("crash during recovery")
    yield  # generator shape: the RM drives this with `yield from`


def test_failed_action_is_recorded_and_rm_survives():
    """An action that raises must not wedge the RM: the action is recorded
    (with its error), incident state resets, and later incidents are
    handled normally."""
    system = build_toy_system()
    rm = make_rm(system)
    original = system.coordinator.microreboot
    system.coordinator.microreboot = exploding_microreboot
    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=5.0)

    assert len(rm.actions) == 1
    failed = rm.actions[0]
    assert failed.level == "ejb"
    assert not failed.ok
    assert "crash during recovery" in failed.error
    assert failed.finished_at is not None
    assert not rm.recovering
    assert rm.scores == {}

    # A fresh incident past the escalation window, with the coordinator
    # working again, recovers normally: the RM process is still alive.
    system.coordinator.microreboot = original

    def driver():
        yield system.kernel.timeout(100.0)
        for _ in range(3):
            report(rm, system, "/toy/greet")

    system.kernel.process(driver())
    system.kernel.run(until=200.0)
    assert [action.ok for action in rm.actions] == [False, True]
    assert rm.actions[1].level == "ejb"
    assert system.coordinator.microreboot_count == 1


def test_failed_ejb_action_escalates_within_incident():
    """After a failed EJB µRB the ladder coarsens instead of replaying the
    same stale escalation state forever."""
    system = build_toy_system()
    rm = make_rm(system)
    system.coordinator.microreboot = exploding_microreboot

    def driver():
        for _ in range(3):
            report(rm, system, "/toy/greet")
        yield system.kernel.timeout(10.0)  # within the escalation window
        for _ in range(3):
            report(rm, system, "/toy/greet")

    system.kernel.process(driver())
    system.kernel.run(until=40.0)
    assert [action.level for action in rm.actions] == ["ejb", "war"]
    assert all(not action.ok for action in rm.actions)


def test_listeners_observe_actions():
    system = build_toy_system()
    rm = make_rm(system)
    seen = []
    rm.listeners.append(lambda action: seen.append(action.level))
    for _ in range(3):
        report(rm, system, "/toy/greet")
    system.kernel.run(until=5.0)
    assert seen == ["ejb"]
