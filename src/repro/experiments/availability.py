"""The six-nines availability arithmetic of §5.3 and §6.1.

A telephone-switch-grade cluster must satisfy 99.9999% of requests.  The
paper extrapolates its measured 8-node request rate to a 24-node cluster
over a year (≈53.3 × 10⁹ requests, allowing ≈53.3 × 10³ failed), then
divides the failure budget by the measured failed-requests-per-recovery:

* JVM restart + failover: 3,917 failed/recovery → 23 recoveries/year;
* µRB + failover: 162 → 329 recoveries/year;
* µRB without failover: 78 → 683 recoveries/year, i.e. software that may
  fail almost twice a day and still offer six nines.
"""

from repro.experiments.common import ExperimentResult

#: Paper's measured base rate: 33.8e4 requests served in 10 minutes by the
#: 8-node cluster (§5.3).
PAPER_8NODE_REQUESTS_PER_10MIN = 33.8e4

#: §5.3 uses the *failover-case* averages: 2,280 failed requests per JVM
#: restart with failover (Figure 3), 162 per µRB with failover, and §6.1
#: adds 78 per µRB without failover (Figure 1's average).
PAPER_FAILED_PER_RECOVERY = {
    "JVM restart + failover": 2280,
    "microreboot + failover": 162,
    "microreboot, no failover": 78,
}

SECONDS_PER_YEAR = 365 * 24 * 3600


def allowed_recoveries(
    failed_per_recovery,
    cluster_nodes=24,
    per_node_rate=None,
    nines=6,
):
    """How many recoveries a year fit in the failure budget."""
    if per_node_rate is None:
        per_node_rate = PAPER_8NODE_REQUESTS_PER_10MIN / 600.0 / 8.0
    yearly_requests = per_node_rate * cluster_nodes * SECONDS_PER_YEAR
    budget = yearly_requests * 10 ** (-nines)
    return int(budget / failed_per_recovery), yearly_requests, budget


def run(seed=0, scale="bench", jobs=1, measured_failed_per_recovery=None):
    """Compute the recovery allowances (optionally from measured inputs).

    ``measured_failed_per_recovery`` maps scheme → failed requests per
    recovery, e.g. from Figure 1 / Figure 3 runs; defaults to the paper's
    values so the arithmetic itself is reproducible stand-alone.  This is
    closed-form arithmetic: it draws nothing from ``seed``, renders the
    same table at every ``scale`` and has no trials for ``jobs`` to fan
    out.
    """
    inputs = measured_failed_per_recovery or PAPER_FAILED_PER_RECOVERY
    result = ExperimentResult(
        name="Recoveries permitted per year at six nines (24-node cluster)",
        paper_reference="§5.3/§6.1 (paper: 23 / 329 / 683)",
        headers=(
            "recovery scheme", "failed reqs/recovery",
            "allowed recoveries/year", "per day",
        ),
    )
    details = {}
    for scheme, failed in inputs.items():
        allowed, yearly, budget = allowed_recoveries(failed)
        details[scheme] = {
            "allowed_per_year": allowed,
            "yearly_requests": yearly,
            "failure_budget": budget,
        }
        result.rows.append(
            (scheme, round(failed, 1), allowed, round(allowed / 365.0, 2))
        )
    result.notes.append(
        f"yearly requests at 24 nodes: {details[next(iter(details))]['yearly_requests']:.3g}; "
        f"six-nines budget: {details[next(iter(details))]['failure_budget']:.3g} failed requests"
    )
    return result, details
