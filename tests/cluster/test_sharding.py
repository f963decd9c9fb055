"""Tests for consistent-hash sharding and replicated SSM brick groups."""

import pytest

from repro.cluster.sharding import BrickGroup, ShardRing, stable_hash
from repro.sim.kernel import Kernel
from repro.stores.sessions import SessionData


# ----------------------------------------------------------------------
# ShardRing
# ----------------------------------------------------------------------
def test_stable_hash_is_process_independent():
    # SHA-256, not hash(): these exact values must hold in every
    # interpreter or the jobs=1 ≡ jobs=N placement contract breaks.
    assert stable_hash("shard000#0") == stable_hash(b"shard000#0")
    assert stable_hash(12345) == stable_hash("12345")
    assert stable_hash("a") != stable_hash("b")


def test_placement_is_deterministic_across_instances():
    shards = [f"shard{i:03d}" for i in range(16)]
    a, b = ShardRing(shards), ShardRing(list(reversed(shards)))
    for key in range(500):
        assert a.shard_for(key) == b.shard_for(key)


def test_placement_is_reasonably_balanced():
    shards = [f"shard{i:03d}" for i in range(16)]
    counts = ShardRing(shards).counts(range(4000))
    mean = 4000 / 16
    assert sum(counts.values()) == 4000
    for shard, count in counts.items():
        assert mean * 0.4 < count < mean * 2.0, (shard, count)


def test_adding_a_shard_only_steals_keys():
    # The defining consistent-hashing property: a new shard takes ~1/n of
    # the keyspace and *no* key moves between pre-existing shards.
    ring = ShardRing([f"shard{i:03d}" for i in range(16)])
    before = {key: ring.shard_for(key) for key in range(4000)}
    ring.add_shard("shard016")
    moved = 0
    for key, owner in before.items():
        now = ring.shard_for(key)
        if now != owner:
            assert now == "shard016"
            moved += 1
    assert 0 < moved < 4000 * 3 / 17


def test_removing_a_shard_only_moves_its_keys():
    ring = ShardRing([f"shard{i:03d}" for i in range(16)])
    before = {key: ring.shard_for(key) for key in range(4000)}
    ring.remove_shard("shard003")
    for key, owner in before.items():
        if owner == "shard003":
            assert ring.shard_for(key) != "shard003"
        else:
            assert ring.shard_for(key) == owner


def test_preference_starts_at_owner_and_is_distinct():
    ring = ShardRing([f"shard{i:03d}" for i in range(8)])
    for key in ("alice", "bob", 42):
        prefs = ring.preference(key)
        assert prefs[0] == ring.shard_for(key)
        assert len(prefs) == len(set(prefs)) == 8
        assert ring.preference(key, limit=3) == prefs[:3]
        assert ring.preference(key, limit=0) == []
        with pytest.raises(ValueError):
            ring.preference(key, limit=-1)


def test_arc_measures_sum_to_one_and_diff_is_minimal():
    ring = ShardRing([f"shard{i:03d}" for i in range(16)])
    before = ring.arc_measures()
    assert set(before) == set(ring.shards)
    assert abs(sum(before.values()) - 1.0) < 1e-12
    assert all(measure > 0 for measure in before.values())
    # Adding a shard: it owns exactly what the incumbents lost, and no
    # incumbent *gains* — the measure-space twin of "only steals keys".
    ring.add_shard("shard016")
    after = ring.arc_measures()
    assert abs(sum(after.values()) - 1.0) < 1e-12
    for shard in before:
        assert after[shard] <= before[shard] + 1e-12
    lost = sum(before[s] - after[s] for s in before)
    assert abs(after["shard016"] - lost) < 1e-12


def test_arc_measures_empty_ring():
    assert ShardRing().arc_measures() == {}


def test_ring_error_contracts():
    with pytest.raises(ValueError):
        ShardRing(vnodes=0)
    ring = ShardRing(["a"])
    with pytest.raises(ValueError):
        ring.add_shard("a")
    with pytest.raises(KeyError):
        ring.remove_shard("missing")
    empty = ShardRing()
    with pytest.raises(ValueError):
        empty.shard_for("key")
    with pytest.raises(ValueError):
        empty.preference("key")


# ----------------------------------------------------------------------
# BrickGroup
# ----------------------------------------------------------------------
def _group(n_bricks=2):
    return BrickGroup(Kernel(), n_bricks=n_bricks, name="g")


def _session(session_id, user_id):
    return SessionData(session_id, user_id)


def test_writes_replicate_to_every_live_brick():
    group = _group()
    group.write("s1", _session("s1", user_id=7))
    for brick in group.bricks:
        assert brick.read("s1").user_id == 7
    assert len(group) == 1
    assert group.session_ids() == ["s1"]


def test_single_brick_crash_keeps_sessions_available():
    group = _group()
    group.write("s1", _session("s1", user_id=7))
    group.crash_brick(0)
    assert not group.crashed
    assert group.read("s1").user_id == 7
    group.crash_brick(1)
    assert group.crashed


def test_read_falls_through_a_live_miss():
    # A brick that was down during the write rejoins *empty*; a read must
    # not stop at its miss.
    group = _group()
    group.crash_brick(0)
    group.write("s1", _session("s1", user_id=7))
    group.restart_brick(0)
    assert not group.bricks[0].crashed
    assert group.bricks[0].read("s1") is None
    assert group.read("s1").user_id == 7


def test_crashed_brick_drops_writes_until_rewritten():
    group = _group()
    group.crash_brick(1)
    group.write("s1", _session("s1", user_id=1))
    group.restart_brick(1)
    assert group.bricks[1].read("s1") is None
    # The next write (a lease renewal, in SSM terms) resyncs the rejoiner.
    group.write("s1", _session("s1", user_id=2))
    assert group.bricks[1].read("s1").user_id == 2


def test_restarted_brick_never_serves_stale_objects():
    # Regression: a brick that crashed, missed writes, and restarted used
    # to rejoin with its pre-crash contents — and, being brick 0, served
    # the *stale* object on the next read.  Crash-only semantics: restart
    # wipes, the miss falls through to a live replica, and the next
    # write-all-live backfills the rejoiner.
    group = _group()
    group.write("s1", _session("s1", user_id=1))
    group.crash_brick(0)
    group.write("s1", _session("s1", user_id=2))
    group.restart_brick(0)
    assert group.bricks[0].read("s1") is None  # wiped, not stale
    assert group.read("s1").user_id == 2
    group.write("s1", _session("s1", user_id=3))
    assert group.bricks[0].read("s1").user_id == 3  # backfilled


def test_delete_removes_everywhere():
    group = _group()
    group.write("s1", _session("s1", user_id=1))
    group.delete("s1")
    assert group.read("s1") is None
    assert len(group) == 0


def test_group_survives_microreboots_and_jvm_exits():
    group = _group()
    assert group.survives_microreboot and group.survives_jvm_restart
    group.write("s1", _session("s1", user_id=1))
    group.notify_jvm_exit(server=None)
    assert group.read("s1").user_id == 1


def test_access_time_fans_out_to_bricks():
    group = _group()
    group.access_time = 0.004
    assert group.access_time == 0.004
    assert all(brick.access_time == 0.004 for brick in group.bricks)


def test_group_requires_at_least_one_brick():
    with pytest.raises(ValueError):
        _group(n_bricks=0)
