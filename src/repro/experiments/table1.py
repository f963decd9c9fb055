"""Table 1: the client workload mix.

"We chose transition probabilities representative of online auction users;
the resulting workload ... mimics the real workload seen by a major
Internet auction site."  This harness runs the emulated population fault-
free and measures the fraction of requests per workload category.
"""

from repro.ebid.descriptors import OPERATIONS, OperationCategory
from repro.experiments.common import ExperimentResult, SingleNodeRig

#: The paper's Table 1 percentages.
PAPER_MIX = {
    OperationCategory.READ_ONLY_DB: 32,
    OperationCategory.SESSION_LIFECYCLE: 23,
    OperationCategory.STATIC: 12,
    OperationCategory.SEARCH: 12,
    OperationCategory.SESSION_UPDATE: 11,
    OperationCategory.DB_UPDATE: 10,
}


def measure_mix(metrics):
    """Category → measured fraction of all requests."""
    by_category = {category: 0.0 for category in OperationCategory}
    for operation, share in metrics.operations_mix().items():
        category, _idempotent, _group = OPERATIONS[operation]
        by_category[category] += share
    return by_category


#: Clients and the length of the fault-free run, per scale.
SCALES = {
    "quick": {"n_clients": 80, "duration": 600.0},
    "bench": {"n_clients": 200, "duration": 1800.0},
    "full": {"n_clients": 500, "duration": 3600.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Measure the workload mix over a steady fault-free run.

    One rig, one trial: ``jobs`` is accepted but there is nothing to fan
    out.
    """
    size = SCALES[scale]
    rig = SingleNodeRig(
        seed=seed, n_clients=size["n_clients"], with_recovery_manager=False
    )
    rig.start()
    rig.run_for(size["duration"])

    measured = measure_mix(rig.metrics)
    result = ExperimentResult(
        name="Client workload mix",
        paper_reference="Table 1",
        headers=("User operation results mostly in...", "paper %", "measured %"),
    )
    for category, paper_pct in PAPER_MIX.items():
        result.rows.append(
            (category.value, paper_pct, round(100 * measured[category], 1))
        )
    result.notes.append(
        f"{rig.metrics.total_requests} requests from {size['n_clients']} "
        f"clients over {size['duration'] / 60:.0f} simulated minutes"
    )
    return result, measured
