"""A pinned per-client failover run: the request path's golden outcome.

The per-client request path (load balancer, application server,
containers, eBid beans, stores and the sim kernel) is tuned for host
speed under one rule: no simulated outcome may move.  This test runs a
small Figure 4-style failover and compares a digest of the run's integer
counters and per-second series with a pin.  A change that moves any
simulated outcome fails here and has to update the pin on purpose.
"""

import hashlib
import json

from repro.cluster.load_balancer import FailoverMode
from repro.experiments.cluster_common import ClusterRig

#: Digest of :func:`outcome` for :func:`run_failover`.  Speed-ups keep it,
#: except that one that steps fewer kernel events (a retired timer, a
#: process hop folded into a callback) moves the step count inside it,
#: :data:`EVENTS`, and nothing else.
PIN = "809f9f6bc35f1f20"
EVENTS = 20_753


def run_failover():
    """2 nodes × 100 clients at seed 3: BrowseCategories fails on node 0
    after a 30 s warm-up, which is failed over and JVM-restarted, and the
    run is observed for 40 s more."""
    rig = ClusterRig(2, 100, seed=3)
    rig.start(warmup=30.0)
    inject_at = rig.kernel.now
    rig.injector_for(0).inject_transient_exception("BrowseCategories")
    rig.script_recovery(
        rig.cluster.nodes[0],
        "process-restart",
        components=("BrowseCategories",),
        failover=FailoverMode.FULL,
        inject_at=inject_at,
    )
    rig.run_for(40.0)
    return rig


def outcome(rig):
    """The run's integer counters and per-second series."""
    metrics = rig.metrics
    balancer = rig.cluster.load_balancer
    servers = [node.system.server for node in rig.cluster.nodes]
    containers = [c for s in servers for c in s.containers.values()]
    return {
        "events": rig.kernel.events_processed,
        "good_requests": metrics.good_requests,
        "failed_requests": metrics.failed_requests,
        "good_actions": metrics.good_actions,
        "failed_actions": metrics.failed_actions,
        "failures_by_kind": metrics.failures_by_kind,
        "good_series": sorted(metrics.good_taw_series().items()),
        "bad_series": sorted(metrics.bad_taw_series().items()),
        "routed": balancer.requests_routed,
        "failed_over": balancer.requests_failed_over,
        "invocations": sum(c.invocation_count for c in containers),
        "failed_invocations": sum(
            c.failed_invocation_count for c in containers
        ),
        "responses_by_status": [
            sorted(s.responses_by_status.items(), key=str) for s in servers
        ],
    }


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_request_path_outcome_matches_pin():
    rig = run_failover()
    result = outcome(rig)
    assert rig.kernel.unhandled_failure_count == 0
    assert result["good_requests"] + result["failed_requests"] == 1722
    assert result["failed_requests"] == 127
    assert result["events"] == EVENTS
    assert digest(result) == PIN, result
