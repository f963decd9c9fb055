"""A pinned elastic storm on the cohort engine: the cohort path's golden
outcome.

Cohort placement, ring routing and the tick loop are tuned for host
speed under one rule: no simulated outcome may move.  Every binomial
and multinomial draw, every float operation and every counter update
has to happen in the same order.  This test runs a small storm with
elastic resharding and compares a digest of the run's counters,
per-shard series, action and operation mixes, migrations and reshard
plans with a pin.  A change that moves any of them fails here and has
to update the pin on purpose.
"""

import hashlib
import json

from repro.experiments.storm import StormRig
from repro.faults.chaos import StormSpec

#: Digest of :func:`outcome` for :func:`run_storm`.  Speed-ups keep it,
#: except that one that steps fewer kernel events (a retired timer, a
#: process hop folded into a callback) moves the step count inside it,
#: :data:`EVENTS`, and nothing else.
PIN = "3395cbd2405de75f"
EVENTS = 4_381


def run_storm():
    """12,000 sessions on 6 shards at seed 1 for 60 s: a K=4 storm
    strikes at 10 s for 30 s and the elastic policy replaces two shards.

    At 12,000 sessions the cells and pools visit all three binomial
    regimes (Bernoulli sum, pmf inversion and the Gaussian tail), so a
    sampler change cannot hide from the pin.
    """
    rig = StormRig(
        seed=1,
        n_sessions=12_000,
        n_shards=6,
        duration=60.0,
        storm=True,
        elastic=True,
        storm_spec=StormSpec(start=10.0, duration=30.0, k_shards=4),
    )
    rig.run()
    return rig


def outcome(rig):
    """The run's integer counters, per-shard series and reshard log."""
    engine = rig.engine
    metrics = engine.metrics
    balancer = rig.cluster.load_balancer
    return {
        "events": rig.kernel.events_processed,
        "good_requests": metrics.good_requests,
        "failed_requests": metrics.failed_requests,
        "good_actions": metrics.good_actions,
        "failed_actions": metrics.failed_actions,
        "ticks": engine.ticks_run,
        "details": engine.total_details,
        "sessions_migrated": engine.sessions_migrated,
        "probes_sent": rig.probe_model.probes_sent,
        "probes_failed": rig.probe_model.probes_failed,
        "routed": balancer.requests_routed,
        "failed_over": balancer.requests_failed_over,
        "shard_sessions": sorted(engine.shard_sessions.items()),
        "good_series": {
            shard: sorted(series.items())
            for shard, series in engine.shard_good_series.items()
        },
        "bad_series": {
            shard: sorted(series.items())
            for shard, series in engine.shard_bad_series.items()
        },
        "ops_issued": engine.ops_issued,
        "actions_finished": engine.actions_finished,
        "migrations": engine.migrations,
        "plans": rig.coordinator.plans,
    }


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_cohort_outcome_matches_pin():
    rig = run_storm()
    result = outcome(rig)
    assert rig.kernel.unhandled_failure_count == 0
    assert rig.engine.population() == 12_000
    assert result["good_requests"] + result["failed_requests"] == 98_872
    assert result["failed_requests"] == 258
    assert [plan["op"] for plan in result["plans"]] == [
        "add", "remove", "add", "remove",
    ]
    assert result["events"] == EVENTS
    assert digest(result) == PIN, result
