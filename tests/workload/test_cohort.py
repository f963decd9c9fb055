"""Tests for the cohort-vectorized workload engine.

The load-bearing contract here is **equivalence**: at small N, where the
per-client engine is affordable, the cohort engine must reproduce its
availability, its action-weighted goodput rate and its action mix within
a documented tolerance on identical seeds.  Everything else (samplers,
conservation, determinism, lazy detail) supports that contract.
"""

from collections import Counter

import pytest

from repro.ebid.schema import DatasetConfig
from repro.experiments.common import SingleNodeRig
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.workload.cohort import (
    SESSION_FATAL_ACTIONS,
    CohortEngine,
    CohortStateSpace,
    binomial,
    multinomial,
    proportional_split,
)
from repro.workload.markov import ACTION_TEMPLATES

#: Documented equivalence tolerances (see the engine's module docstring):
#: the cohort engine discretizes think time into 1 s ticks and pools the
#: Markov transitions, so it agrees with the per-client engine
#: statistically, not draw for draw.
GAW_RELATIVE_TOLERANCE = 0.05
ACTION_MIX_ABSOLUTE_TOLERANCE = 0.02


def _engine(seed=0, n_sessions=200, shards=("s0", "s1"), outcome=None, **kw):
    kernel = Kernel()
    rng = RngRegistry(seed)
    outcome = outcome or (lambda shard, op: (0.0, 0.05))
    return kernel, CohortEngine(kernel, rng, outcome, n_sessions, shards, **kw)


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------
def test_binomial_edges():
    rng = RngRegistry(1).stream("t")
    assert binomial(rng, 0, 0.5) == 0
    assert binomial(rng, 100, 0.0) == 0
    assert binomial(rng, 100, 1.0) == 100
    assert 0 <= binomial(rng, 10, 0.5) <= 10


@pytest.mark.parametrize("n,p", [(10, 0.3), (200, 0.05), (100_000, 0.2)])
def test_binomial_mean_tracks_np(n, p):
    # Covers all three regimes: Bernoulli sum, pmf inversion, Gaussian.
    rng = RngRegistry(2).stream("t")
    draws = [binomial(rng, n, p) for _ in range(400)]
    assert all(0 <= d <= n for d in draws)
    mean = sum(draws) / len(draws)
    sd = (n * p * (1 - p)) ** 0.5
    assert abs(mean - n * p) < 5 * sd / 400**0.5 + 1


# Exact draws from ``RngRegistry(11).stream("pin")``, recorded before the
# tick loop's hot-path pass.  The samplers may get faster, but every draw
# must stay equal: each one feeds every cohort digest.
@pytest.mark.parametrize("n,p,expected", [
    # Bernoulli sum (n < 32).
    (7, 0.3, [2, 4, 3, 5, 1, 0, 4, 3, 0, 3, 2, 6]),
    (31, 0.5, [19, 18, 16, 12, 12, 14, 13, 21, 14, 17, 20, 14]),
    # pmf inversion (n >= 32, mean <= 32).
    (200, 0.05, [13, 4, 11, 14, 8, 14, 20, 8, 4, 10, 13, 9]),
    # pmf inversion where most draws stop at the k == n guard.
    (32, 0.99, [32, 30, 32, 32, 31, 32, 32, 31, 30, 32, 32, 32]),
    # Gaussian tail.
    (100_000, 0.2, [20009, 19975, 19781, 19827, 20004, 20279, 20095,
                    19999, 20147, 20015, 20053, 19898]),
])
def test_binomial_draws_are_pinned(n, p, expected):
    rng = RngRegistry(11).stream("pin")
    assert [binomial(rng, n, p) for _ in range(12)] == expected


def test_multinomial_draws_are_pinned():
    rng = RngRegistry(11).stream("pin")
    probs = (0.5, 0.3, 0.15, 0.05)
    assert [multinomial(rng, 5000, probs) for _ in range(3)] == [
        [2503, 1493, 729, 275],
        [2452, 1530, 794, 224],
        [2526, 1484, 758, 232],
    ]


def test_multinomial_conserves_and_distributes():
    rng = RngRegistry(3).stream("t")
    probs = (0.5, 0.3, 0.15, 0.05)
    for n in (0, 1, 7, 10_000):
        counts = multinomial(rng, n, probs)
        assert sum(counts) == n
        assert all(c >= 0 for c in counts)
    big = multinomial(rng, 1_000_000, probs)
    for share, expected in zip(big, probs):
        assert abs(share / 1_000_000 - expected) < 0.01


# ----------------------------------------------------------------------
# State space
# ----------------------------------------------------------------------
def test_state_space_covers_every_operation_position():
    space = CohortStateSpace()
    assert len(space) == sum(len(ops) for ops in ACTION_TEMPLATES.values())
    for state in space.states:
        assert ACTION_TEMPLATES[state.action][state.op_index] == state.operation


def test_state_space_distributions_are_proper():
    space = CohortStateSpace()
    for indices, probs in (space.entry_dist, space.next_action_dist):
        assert len(indices) == len(probs)
        assert abs(sum(probs) - 1.0) < 1e-9
        # Every target is the first operation of some action.
        assert all(space.states[i].op_index == 0 for i in indices)


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def test_population_is_conserved():
    kernel, engine = _engine(n_sessions=1000)
    assert engine.population() == 1000
    engine.start(120.0)
    kernel.run(until=120.0)
    assert engine.population() == 1000
    assert engine.ticks_run == 120


def test_failures_route_through_taw_and_fatal_actions_restart():
    fail_everything = lambda shard, op: (1.0, 0.05)  # noqa: E731
    kernel, engine = _engine(n_sessions=500, outcome=fail_everything)
    engine.start(60.0)
    kernel.run(until=60.0)
    m = engine.metrics
    assert m.good_requests == 0
    assert m.failed_requests > 0
    assert m.failed_actions > 0
    assert engine.population() == 500
    # With every click failing, only first-op states ever hold sessions
    # (a failure never advances within the action's script).
    for table in engine.counts.values():
        for idx, count in enumerate(table):
            if count:
                assert engine.space.states[idx].op_index == 0
    assert SESSION_FATAL_ACTIONS == {"Login", "Register", "Logout"}


def test_details_are_lazy_and_bounded():
    seen = []
    fail_everything = lambda shard, op: (1.0, 0.05)  # noqa: E731
    kernel, engine = _engine(
        n_sessions=500,
        outcome=fail_everything,
        reporter=seen.append,
        max_details_per_tick=2,
        detail_retention=10,
    )
    engine.start(30.0)
    kernel.run(until=30.0)
    # At most max_details_per_tick per shard per tick were materialized...
    assert engine.total_details <= 2 * len(engine.shards) * engine.ticks_run
    assert engine.total_details == len(seen)
    # ...but the retained list is bounded regardless.
    assert len(engine.details) == 10
    assert engine.details_dropped == engine.total_details - 10
    ids = [d.session_id for d in seen]
    assert len(set(ids)) == len(ids)
    assert all(d.url.startswith("/") for d in engine.details)


def test_same_seed_same_trajectory():
    runs = []
    for _ in range(2):
        kernel, engine = _engine(seed=7, n_sessions=300)
        engine.start(90.0)
        kernel.run(until=90.0)
        runs.append(
            (
                engine.counts,
                engine.shard_good_series,
                engine.actions_finished,
                engine.metrics.good_requests,
            )
        )
    assert runs[0] == runs[1]


def test_ring_placement_covers_all_sessions():
    from repro.cluster.sharding import ShardRing

    shards = [f"s{i}" for i in range(4)]
    ring = ShardRing(shards)
    _kernel, engine = _engine(n_sessions=400, shards=shards, ring=ring)
    assert sum(engine.shard_sessions.values()) == 400
    # Consistent hashing, not round-robin: placement follows the ring.
    assert engine.shard_sessions == ring.counts(range(400))
    # A ring placing sessions on a shard the engine does not run is refused.
    with pytest.raises(ValueError, match="unknown shard"):
        _engine(n_sessions=400, shards=shards[:3], ring=ring)


# ----------------------------------------------------------------------
# Elastic migration: shards join/leave, sessions move with zero loss
# ----------------------------------------------------------------------
def test_proportional_split_conserves_caps_and_is_deterministic():
    counts = [10, 0, 3, 87, 0, 1]
    for take in (0, 1, 7, 50, 101, 500):
        split = proportional_split(counts, take)
        assert sum(split) == min(take, sum(counts))
        assert all(0 <= s <= c for s, c in zip(split, counts))
        assert split == proportional_split(counts, take)  # RNG-free
    assert proportional_split([0, 0], 5) == [0, 0]
    # The big cell contributes proportionally, not everything.
    split = proportional_split(counts, 50)
    assert 0 < split[3] < counts[3]


def test_migration_is_conserved_and_released_after_window():
    kernel, engine = _engine(n_sessions=1000)
    s1_before = engine.shard_sessions["s1"]
    moved = engine.begin_migration("s0", "s1", 200, window=2.0)
    assert moved == 200
    # Copy-then-cutover: extracted but not yet arrived — still counted.
    assert engine.in_transit() == 200
    assert engine.population() == 1000
    assert engine.shard_sessions["s0"] == 500 - 200
    assert engine.migrations == [
        {"source": "s0", "target": "s1", "sessions": 200,
         "at": 0.0, "window": 2.0}
    ]
    engine.start(5.0)
    kernel.run(until=5.0)
    assert engine.in_transit() == 0
    assert engine.population() == 1000
    assert engine.shard_sessions["s1"] == s1_before + 200
    assert engine.sessions_migrated == 200


def test_add_shard_and_retire_shard_guards():
    kernel, engine = _engine(n_sessions=400)
    engine.add_shard("s2")
    assert engine.shard_sessions["s2"] == 0
    with pytest.raises(ValueError):
        engine.add_shard("s2")
    # Retiring refuses while sessions live there or are in flight to it.
    engine.begin_migration("s0", "s2", 50, window=1.0)
    with pytest.raises(ValueError):
        engine.retire_shard("s2")
    engine.start(10.0)
    kernel.run(until=3.0)
    moved_back = engine.begin_migration("s2", "s0", 50, window=1.0)
    assert moved_back == 50
    kernel.run(until=6.0)
    engine.retire_shard("s2")
    assert "s2" not in engine.shards
    assert engine.population() == 400
    with pytest.raises(KeyError):
        engine.begin_migration("s0", "s2", 10)  # retired target
    with pytest.raises(KeyError):
        engine.retire_shard("missing")
    # The retired shard still appears in the accounting summary.
    assert any(r["shard"] == "s2" for r in engine.shard_summary())


def test_migrating_sessions_pause_but_never_fail():
    # In-transit sessions issue no clicks: a migration is a Gaw dip,
    # never a failure burst.  Every s0 click would fail here — but all
    # of s0 is in transit while s0 is sick, and lands on healthy s1.
    fail_s0 = lambda shard, op: (1.0 if shard == "s0" else 0.0, 0.05)  # noqa: E731
    kernel, engine = _engine(n_sessions=600, outcome=fail_s0)
    moved = engine.begin_migration("s0", "s1", 300, window=3.0)
    assert moved == 300
    assert engine.shard_sessions["s0"] == 0
    engine.start(10.0)
    kernel.run(until=10.0)
    assert engine.metrics.failed_requests == 0
    assert engine.metrics.good_requests > 0
    assert engine.population() == 600


# ----------------------------------------------------------------------
# The equivalence contract
# ----------------------------------------------------------------------
def test_small_n_equivalence_with_per_client_engine():
    """Cohort availability, Gaw rate and action mix match the per-client
    engine within the documented tolerances on identical seeds.

    Fault-free at N=150 for 400 simulated seconds; the cohort run is fed
    the per-client run's own measured mean response time, so both engines
    see the same offered click rate 1/(think + RT).
    """
    n, duration = 150, 400.0
    rig = SingleNodeRig(
        seed=3,
        n_clients=n,
        dataset=DatasetConfig.tiny(),
        with_recovery_manager=False,
    )
    rig.start()
    rig.run_for(duration)
    pc = rig.metrics
    pc_availability = pc.good_requests / pc.total_requests
    pc_gaw_rate = pc.good_requests / duration
    mix = Counter(action.name for action in pc.actions)
    pc_mix = {name: c / sum(mix.values()) for name, c in mix.items()}
    mean_rt = pc.mean_response_time()

    kernel = Kernel()
    engine = CohortEngine(
        kernel,
        RngRegistry(3),
        lambda shard, op: (0.0, mean_rt),
        n,
        ["s0"],
    )
    engine.start(duration)
    kernel.run(until=duration)
    cm = engine.metrics
    cohort_availability = cm.good_requests / cm.total_requests
    cohort_gaw_rate = cm.good_requests / duration
    cohort_mix = engine.action_mix()

    assert pc_availability == 1.0 and cohort_availability == 1.0
    assert (
        abs(cohort_gaw_rate - pc_gaw_rate) / pc_gaw_rate
        < GAW_RELATIVE_TOLERANCE
    )
    for action in set(pc_mix) | set(cohort_mix):
        assert (
            abs(pc_mix.get(action, 0.0) - cohort_mix.get(action, 0.0))
            < ACTION_MIX_ABSOLUTE_TOLERANCE
        ), f"action mix diverges at {action}"
