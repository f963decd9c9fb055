"""Reactive vs predictive recovery on a leak-heavy schedule.

The paper's recovery pipeline is reactive: it waits for failure reports
and recovers after the fact.  §6.4's microrejuvenation adds a threshold
trigger (memory below ``Malarm``), but still acts only once the node is
already short on heap.  This experiment closes the loop the ROADMAP
asked for — *predict* the exhaustion and recover before it happens —
and A/Bs the idea on :meth:`~repro.faults.chaos.ChaosSpec.leaky`, the
fault shape prediction is for: per-invocation memory leaks that µRBs
reclaim but never cure, draining a node's heap over minutes.

Three arms, identical fault schedule and workload seeds:

* **reactive** — the hardened chaos rig exactly as the chaos campaign
  runs it: leaks drain the heap until requests OOM, the recovery
  manager µRBs the biggest leaker, escalating to WAR/application
  restarts when the leak refills the heap faster than µRBs clear it.
* **shadow** — the same rig plus the full prediction stack (per-node
  heap monitors, online MTTF/hazard estimators, component health
  scores, the alert engine) with the proactive policy in shadow mode:
  alerts fire, nothing acts.  Two measurements come from this arm: the
  **alert lead time** (how long before each incident opened was it
  predicted?) and **passivity** — its workload outcome must be
  *identical* to the reactive arm's, proving the observability layer
  never perturbs the run it watches.
* **proactive** — the policy acts: health alerts schedule preemptive
  µRBs through :meth:`~repro.core.recovery_manager.RecoveryManager.
  preempt`.  The gate: strictly fewer failed requests *and* strictly
  fewer coarse (WAR-and-above) restarts than the reactive arm — paying
  for prediction with cheap sub-second µRBs instead of OOM outages.
"""

from repro.experiments.common import ExperimentResult
from repro.experiments.chaos import ChaosClusterRig
from repro.faults.chaos import ChaosSpec
from repro.parallel import run_arms

ARMS = ("reactive", "shadow", "proactive")

#: Recovery levels the proactive arm is supposed to make unnecessary.
COARSE_LEVELS = ("war", "application", "jvm", "os")

PREDICTION_MODE = {"reactive": None, "shadow": "shadow",
                   "proactive": "proactive"}


def coarse_actions(outcome):
    """WAR-and-above recovery count (the expensive restarts)."""
    by_level = outcome.get("actions_by_level", {})
    return sum(by_level.get(level, 0) for level in COARSE_LEVELS)


def run_one_arm(arm, seed, n_nodes, clients_per_node, leak_bytes, duration,
                tail):
    spec = ChaosSpec.leaky(leak_bytes=leak_bytes, duration=duration)
    rig = ChaosClusterRig(
        seed=seed,
        n_nodes=n_nodes,
        clients_per_node=clients_per_node,
        hardened=True,
        spec=spec,
        prediction=PREDICTION_MODE[arm],
    )
    outcome = rig.run(tail=tail)
    outcome["arm"] = arm
    return outcome


#: Nodes, clients per node, the per-invocation leak of
#: ``ChaosSpec.leaky`` (bytes), its fault window and the quiet tail after
#: it, per scale.
SCALES = {
    "quick": {"n_nodes": 2, "clients_per_node": 20,
              "leak_bytes": 36 * 1024 * 1024, "duration": 300.0,
              "tail": 40.0},
    "bench": {"n_nodes": 2, "clients_per_node": 20,
              "leak_bytes": 36 * 1024 * 1024, "duration": 420.0,
              "tail": 60.0},
    "full": {"n_nodes": 3, "clients_per_node": 30,
             "leak_bytes": 36 * 1024 * 1024, "duration": 420.0,
             "tail": 60.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Run the three arms and compare reactive vs predictive recovery."""
    outcomes = run_arms(
        "repro.experiments.health_prediction:run_one_arm",
        ARMS,
        SCALES[scale],
        seed,
        jobs,
    )

    result = ExperimentResult(
        name="Predictive observability: reactive recovery vs health-alert-"
             "driven proactive microrejuvenation on a leak-heavy schedule",
        paper_reference="§6.4 microrejuvenation, extended to prediction",
        headers=(
            "arm", "good reqs", "failed reqs", "availability",
            "recoveries", "preemptive", "coarse", "alerts",
            "median lead (s)",
        ),
    )
    for arm in ARMS:
        o = outcomes[arm]
        lead = o.get("median_alert_lead")
        result.rows.append(
            (
                arm,
                o["good_requests"],
                o["failed_requests"],
                o["availability"],
                o["recovery_actions"],
                o.get("preemptive_actions", "-"),
                coarse_actions(o),
                o.get("alerts_fired", "-"),
                round(lead, 1) if lead is not None else "-",
            )
        )
        result.notes.append(f"{arm} actions by level: {o['actions_by_level']}")

    reactive = outcomes["reactive"]
    shadow = outcomes["shadow"]
    proactive = outcomes["proactive"]

    passive = all(
        shadow[key] == reactive[key]
        for key in ("good_requests", "failed_requests", "recovery_actions")
    )
    result.notes.append(
        "shadow arm outcome identical to reactive: "
        f"{passive} (the prediction stack observes without perturbing)"
    )
    lead = shadow.get("median_alert_lead")
    if lead is not None:
        leads = shadow.get("alert_lead_times") or []
        result.notes.append(
            f"shadow arm alert lead time over {len(leads)} incident(s): "
            f"median {round(lead, 1)}s before the incident opened"
        )
    if (
        proactive["failed_requests"] < reactive["failed_requests"]
        and coarse_actions(proactive) < coarse_actions(reactive)
    ):
        result.notes.append(
            "proactive arm survived the same leak schedule with "
            f"{reactive['failed_requests'] - proactive['failed_requests']} "
            "fewer failed requests and "
            f"{coarse_actions(reactive) - coarse_actions(proactive)} fewer "
            "coarse restarts — prediction turned OOM outages into "
            "sub-second preemptive µRBs"
        )
    return result, outcomes
