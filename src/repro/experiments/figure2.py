"""Figure 2: functional disruption as perceived by end users.

Zooming in on one recovery event: during a JVM restart the whole service is
down (every functional group gaps); during a microreboot of the faulty
component, operations in the other functional groups keep succeeding, and
many operations within the affected group do too.
"""

from repro.ebid.descriptors import FUNCTIONAL_GROUPS
from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.experiments.plotting import ascii_gap_chart
from repro.faults.corruption import CorruptionMode
from repro.parallel import run_arms

POLICIES = ("process-restart", "microreboot")


def run_one(policy, seed, n_clients, inject_at, duration):
    recovery_policy = "recursive" if policy == "microreboot" else policy
    rig = SingleNodeRig(
        seed=seed, n_clients=n_clients, recovery_policy=recovery_policy
    )

    def driver():
        yield rig.kernel.timeout(inject_at)
        # RegisterNewUser sits in the User Account group: the paper's
        # zoomed figure shows that group (partially) unavailable while the
        # others keep serving.
        rig.injector.corrupt_jndi("RegisterNewUser", CorruptionMode.NULL)

    rig.kernel.process(driver())
    rig.start()
    rig.run_for(duration)
    gaps = {
        group: rig.metrics.group_unavailability(group)
        for group in FUNCTIONAL_GROUPS
    }
    return rig, gaps


def run_arm(policy, seed, n_clients, inject_at, duration):
    """Spawn-safe trial entrypoint: per-group gap spans for one policy.

    Returns only the (picklable) gap spans, not the rig itself.
    """
    _rig, gaps = run_one(policy, seed, n_clients, inject_at, duration)
    return gaps


def total_gap_seconds(spans, window):
    start, end = window
    total = 0.0
    for s, e in spans:
        s, e = max(s, start), min(e, end)
        if e > s:
            total += e - s
    return total


#: Clients, the fault's injection time and the run's length, per scale.
SCALES = {
    "quick": {"n_clients": 150, "inject_at": 120.0, "duration": 240.0},
    "bench": {"n_clients": 300, "inject_at": 240.0, "duration": 480.0},
    "full": {"n_clients": 500, "inject_at": 600.0, "duration": 1200.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Compare per-group unavailability around one recovery event."""
    size = SCALES[scale]
    inject_at, duration = size["inject_at"], size["duration"]
    window = (inject_at - 5.0, duration)

    result = ExperimentResult(
        name="Client-perceived availability by functional group",
        paper_reference="Figure 2",
        headers=("functional group", "restart: gap (s)", "µRB: gap (s)"),
    )
    outcomes = run_arms(
        "repro.experiments.figure2:run_arm",
        POLICIES,
        size,
        seed,
        jobs,
        key="policy",
    )
    restart_gaps = outcomes["process-restart"]
    urb_gaps = outcomes["microreboot"]
    for group in FUNCTIONAL_GROUPS:
        result.rows.append(
            (
                group,
                round(total_gap_seconds(restart_gaps[group], window), 1),
                round(total_gap_seconds(urb_gaps[group], window), 1),
            )
        )
    result.notes.append(
        "µRB case: only the User Account group should show a gap; the JVM "
        "restart gaps every group for the full restart (plus session loss)."
    )
    chart_window = (inject_at - 20.0, min(inject_at + 120.0, duration))
    result.figures["availability by group, PROCESS RESTART"] = ascii_gap_chart(
        restart_gaps, chart_window
    )
    result.figures["availability by group, MICROREBOOT"] = ascii_gap_chart(
        urb_gaps, chart_window
    )
    return result, outcomes
