"""Figure 1: action-weighted throughput, process restart vs microreboot.

The paper's headline experiment: three different faults injected ten
minutes apart into a 500-client single-node system, recovered automatically
either by restarting the JVM process or by microrebooting the implicated
EJBs.  "Overall, 11,752 requests (3,101 actions) failed when recovering
with a process restart ... 233 requests (34 actions) failed when recovering
by microrebooting", i.e. averages of ≈3,917 vs ≈78 failed requests per
recovery — a 98% reduction.

The three faults (paper caption):
  t=T  : corrupt the transaction method map inside EntityGroup (our
         concrete entry: Item.record_bid);
  t=2T : corrupt the JNDI entry for RegisterNewUser (null);
  t=3T : inject a transient exception in BrowseCategories, the
         most-frequently called EJB in the workload.
"""

from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.experiments.plotting import ascii_timeseries
from repro.faults.corruption import CorruptionMode
from repro.observability import aggregate_slo, compute_windows
from repro.parallel import run_arms

POLICIES = ("process-restart", "microreboot")


def inject_schedule(rig, fault_times):
    """Spawn a process injecting the three Figure 1 faults."""

    def driver():
        yield rig.kernel.timeout(fault_times[0])
        rig.injector.corrupt_tx_method_map(
            "Item", "record_bid", CorruptionMode.WRONG
        )
        yield rig.kernel.timeout(fault_times[1] - fault_times[0])
        rig.injector.corrupt_jndi("RegisterNewUser", CorruptionMode.NULL)
        yield rig.kernel.timeout(fault_times[2] - fault_times[1])
        rig.injector.inject_transient_exception("BrowseCategories")

    rig.kernel.process(driver(), name="fault-schedule")


def run_one_policy(policy, seed, n_clients, fault_times, duration):
    """One 40-minute (by default) run under the given recovery policy."""
    recovery_policy = "recursive" if policy == "microreboot" else policy
    rig = SingleNodeRig(
        seed=seed,
        n_clients=n_clients,
        recovery_policy=recovery_policy,
        session_store="fasts",
    )
    inject_schedule(rig, fault_times)
    rig.start()
    rig.run_for(duration)
    metrics = rig.metrics
    recoveries = len(rig.recovery_manager.actions)
    return {
        "policy": policy,
        "good_requests": metrics.good_requests,
        "failed_requests": metrics.failed_requests,
        "failed_actions": metrics.failed_actions,
        "recoveries": recoveries,
        "failed_per_recovery": (
            metrics.failed_requests / recoveries if recoveries else 0.0
        ),
        "good_series": metrics.good_taw_series(),
        "bad_series": metrics.bad_taw_series(),
        "actions": [
            (round(a.decided_at, 1), a.level, "+".join(a.target))
            for a in rig.recovery_manager.actions
        ],
    }


#: Clients and the seconds between the three faults (a run lasts four
#: intervals), per scale.
SCALES = {
    "quick": {"n_clients": 150, "fault_interval": 150.0},
    "bench": {"n_clients": 150, "fault_interval": 150.0},
    "full": {"n_clients": 500, "fault_interval": 600.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Run both policies and compare (Figure 1)."""
    size = SCALES[scale]
    fault_interval = size["fault_interval"]
    fault_times = (fault_interval, 2 * fault_interval, 3 * fault_interval)
    duration = 4 * fault_interval

    outcomes = run_arms(
        "repro.experiments.figure1:run_one_policy",
        POLICIES,
        {
            "n_clients": size["n_clients"],
            "fault_times": fault_times,
            "duration": duration,
        },
        seed,
        jobs,
        key="policy",
    )

    result = ExperimentResult(
        name="Taw under failures: JVM process restart vs EJB microreboot",
        paper_reference="Figure 1 (paper: ≈3,917 vs ≈78 failed requests per recovery)",
        headers=(
            "recovery policy", "good reqs", "failed reqs", "failed actions",
            "recoveries", "failed reqs/recovery",
        ),
    )
    for policy in POLICIES:
        o = outcomes[policy]
        result.rows.append(
            (
                policy,
                o["good_requests"],
                o["failed_requests"],
                o["failed_actions"],
                o["recoveries"],
                round(o["failed_per_recovery"], 1),
            )
        )
        result.series[f"good-taw:{policy}"] = o["good_series"]
        result.series[f"bad-taw:{policy}"] = o["bad_series"]
        result.notes.append(f"{policy} recovery actions: {o['actions']}")
        # Post-hoc rolling SLO over the recorded Taw series: the windowed
        # view of the same comparison — µRBs should go bad in fewer,
        # narrower windows than process restarts on identical faults.
        slo = aggregate_slo(
            compute_windows(o["good_series"], o["bad_series"], [], duration)
        )
        result.notes.append(
            f"{policy} SLO (30s windows): {slo['violations']}/"
            f"{slo['windows']} violated, min availability "
            f"{slo['min_availability']}, mean Gaw {slo['mean_gaw']}/s"
        )
        result.figures[f"good Taw, {policy}"] = ascii_timeseries(
            o["good_series"], label="resp/sec ", height=8
        )

    restart = outcomes["process-restart"]["failed_requests"]
    urb = outcomes["microreboot"]["failed_requests"]
    if restart:
        result.notes.append(
            f"microreboots reduced failed requests by "
            f"{100 * (1 - urb / restart):.1f}% (paper: 98%)"
        )
    return result, outcomes
