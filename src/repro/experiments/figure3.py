"""Figure 3: failover under normal load, clusters of 2-8 nodes.

Session state is node-local (FastS), the common configuration.  A µRB-
curable fault is injected into the most-frequently called component
(BrowseCategories) on one node; the load balancer fails requests over to
the good nodes while that node recovers by JVM restart or by microreboot.

Paper: recovering with a JVM restart fails on average 2,280 requests,
dominated by the sessions established on the bad node; recovering with a
µRB fails 162, roughly the requests in flight during recovery, so the
count stays flat as the cluster grows while the restart-case count tracks
per-node session population.
"""

from repro.cluster.load_balancer import FailoverMode
from repro.experiments.cluster_common import ClusterRig, failover_sweep
from repro.experiments.common import ExperimentResult


def run_one(n_nodes, recovery, clients_per_node, seed, duration):
    """One cluster run; returns failure and failover counts."""
    rig = ClusterRig(n_nodes, clients_per_node, seed=seed)
    rig.start(warmup=duration * 0.3)
    inject_at = rig.kernel.now
    bad_node = rig.cluster.nodes[0]
    rig.injector_for(0).inject_transient_exception("BrowseCategories")
    rig.script_recovery(
        bad_node,
        recovery,
        components=("BrowseCategories",),
        failover=FailoverMode.FULL,
        inject_at=inject_at,
    )
    baseline_failed = rig.metrics.failed_requests
    rig.run_for(duration * 0.7)
    balancer = rig.cluster.load_balancer
    return {
        "n_nodes": n_nodes,
        "recovery": recovery,
        "failed_requests": rig.metrics.failed_requests - baseline_failed,
        "total_requests": rig.metrics.total_requests,
        "sessions_failed_over": len(balancer.sessions_failed_over),
        "requests_failed_over": balancer.requests_failed_over,
    }


#: Cluster sizes swept, clients per node and each run's length, per scale.
SCALES = {
    "quick": {"cluster_sizes": (2,), "clients_per_node": 150,
              "duration": 600.0},
    "bench": {"cluster_sizes": (2, 4, 6, 8), "clients_per_node": 150,
              "duration": 600.0},
    "full": {"cluster_sizes": (2, 4, 6, 8), "clients_per_node": 500,
             "duration": 600.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Sweep cluster sizes for both recovery schemes (Figure 3).

    Each (cluster size, recovery) pair is one trial of a campaign (see
    :func:`~repro.experiments.cluster_common.failover_sweep`).
    """
    outcomes = failover_sweep(
        "repro.experiments.figure3:run_one", SCALES[scale], seed, jobs
    )
    result = ExperimentResult(
        name="Node failover + recovery under normal load",
        paper_reference="Figure 3 (paper: ≈2,280 failed req/restart vs ≈162 per µRB)",
        headers=(
            "nodes", "recovery", "failed reqs", "% of total",
            "sessions failed over",
        ),
    )
    for outcome in outcomes:
        result.rows.append(
            (
                outcome["n_nodes"],
                outcome["recovery"],
                outcome["failed_requests"],
                round(
                    100 * outcome["failed_requests"]
                    / max(outcome["total_requests"], 1),
                    2,
                ),
                outcome["sessions_failed_over"],
            )
        )
    restart_counts = [
        o["failed_requests"] for o in outcomes if o["recovery"] == "process-restart"
    ]
    urb_counts = [
        o["failed_requests"] for o in outcomes if o["recovery"] == "microreboot"
    ]
    result.notes.append(
        f"mean failed requests: restart {sum(restart_counts) / len(restart_counts):.0f}, "
        f"µRB {sum(urb_counts) / len(urb_counts):.0f}"
    )
    return result, outcomes
