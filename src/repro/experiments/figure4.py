"""Figure 4: response time during failover under doubled load.

Clusters of 2/4/6/8 nodes at 1000 clients/node (twice the normal load),
FastS session state.  When the bad node is failed over for a JVM restart,
the surviving nodes absorb its traffic and saturate; response times spike
for the duration of the restart and drain afterwards.  Microreboots are
fast enough that the spike is unobservable.
"""

from repro.cluster.load_balancer import FailoverMode
from repro.experiments.cluster_common import ClusterRig, failover_sweep
from repro.experiments.common import ExperimentResult
from repro.experiments.plotting import ascii_timeseries


def run_one(n_nodes, recovery, clients_per_node, seed, stabilize, observe):
    """One doubled-load run; returns the response-time series and counts."""
    rig = ClusterRig(n_nodes, clients_per_node, seed=seed)
    # "We allow the system to stabilize at the higher load prior to
    # injecting faults" (§5.3).
    rig.start(warmup=stabilize)
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
    rig.run_for(observe)
    series = rig.metrics.response_time_series(bucket_seconds=1.0)
    # Only the observation window matters for the figure.
    window = {
        t: rt for t, rt in series.items() if t >= inject_at - 30
    }
    return {
        "n_nodes": n_nodes,
        "recovery": recovery,
        "series": window,
        "peak_response_time": max(window.values(), default=0.0),
        "over_8s": rig.metrics.response_times_over(8.0),
        "inject_at": inject_at,
    }


#: Cluster sizes swept, clients per node, the warm-up before the fault and
#: the observation after it, per scale.  Table 4 runs the same sweep.
SCALES = {
    "quick": {"cluster_sizes": (2,), "clients_per_node": 600,
              "stabilize": 120.0, "observe": 240.0},
    "bench": {"cluster_sizes": (2, 4), "clients_per_node": 1000,
              "stabilize": 150.0, "observe": 360.0},
    "full": {"cluster_sizes": (2, 4, 6, 8), "clients_per_node": 1000,
             "stabilize": 300.0, "observe": 480.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Sweep cluster sizes at doubled load (Figure 4 + Table 4 data).

    Each (cluster size, recovery) pair is one trial of a campaign (see
    :func:`~repro.experiments.cluster_common.failover_sweep`).
    """
    outcomes = failover_sweep(
        "repro.experiments.figure4:run_one", SCALES[scale], seed, jobs
    )
    result = ExperimentResult(
        name="Response time during failover under doubled load",
        paper_reference="Figure 4",
        headers=("nodes", "recovery", "peak RT (s)", "requests > 8 s"),
    )
    for outcome in outcomes:
        n_nodes, recovery = outcome["n_nodes"], outcome["recovery"]
        result.rows.append(
            (
                n_nodes,
                recovery,
                round(outcome["peak_response_time"], 2),
                outcome["over_8s"],
            )
        )
        result.series[f"rt:{n_nodes}nodes:{recovery}"] = outcome["series"]
        result.figures[f"response time, {n_nodes} nodes, {recovery}"] = (
            ascii_timeseries(
                outcome["series"], label="seconds ", height=8,
                y_format="{:.2f}",
            )
        )
    return result, outcomes
