"""Consistent-hash session sharding and replicated SSM brick groups.

Growing the cluster past a handful of nodes (§5.3 stops at 8) needs two
pieces the paper's deployment never had to name:

* a :class:`ShardRing` — the classic consistent-hash ring with virtual
  nodes.  Placement is derived from SHA-256 digests of ``"shard#vnode"``
  strings, so it is deterministic across processes and runs (no reliance
  on Python's per-process string hashing), spreads keys evenly at ~64
  virtual nodes per shard, and moves only ``~1/n`` of the keys when a
  shard joins or leaves;
* a :class:`BrickGroup` — SSM already claims its bricks replicate session
  state ([26]); at one-brick scale that replication was invisible.  A
  brick group makes it real: writes go to every live brick, reads fall
  through to the first live brick that still has the object, and a single
  brick crash therefore no longer loses session availability for the
  whole shard.

The :class:`~repro.cluster.load_balancer.LoadBalancer` consults the ring
for session→shard routing (cookie-less requests hash their ``client_id``;
established sessions keep cookie affinity) and uses the ring's preference
order for shard-aware failover: reroute within the shard group first —
the replicated brick group means any node of the group can serve the
session — then walk the ring's successor shards.
"""

import hashlib
from bisect import bisect_right
from itertools import repeat

from repro.stores.ssm import SSM

#: (shard set, vnodes, n) -> {shard: how many of ``range(n)`` it owns},
#: filled by :meth:`ShardRing.placement`.  Keyed on what fixes a ring's
#: points rather than on a ring, so every rig built on an identical ring
#: shares one entry and no dead rig's ring is kept alive.
_PLACEMENTS = {}
#: Placements kept; the oldest entry goes first.
_PLACEMENTS_KEPT = 8


def stable_hash(key):
    """A 64-bit integer hash of ``key``, stable across processes.

    ``hash()`` would be cheaper but strings are salted per interpreter;
    determinism across spawn workers is part of the jobs=1 ≡ jobs=N
    contract, so placement has to come from a real digest.
    """
    if isinstance(key, bytes):
        data = key
    else:
        data = str(key).encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class ShardRing:
    """Consistent-hash ring mapping session keys to named shards."""

    def __init__(self, shards=(), vnodes=64):
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._points = []  # sorted [(hash, shard)]
        self._hashes = []  # parallel list of hashes, for bisect
        self._shards = []
        self._walks = {}  # start index -> distinct-shard walk from there
        for shard in shards:
            self.add_shard(shard)

    def __len__(self):
        return len(self._shards)

    @property
    def shards(self):
        """Shard names in insertion order."""
        return tuple(self._shards)

    def add_shard(self, shard):
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.append(shard)
        for i in range(self.vnodes):
            point = (stable_hash(f"{shard}#{i}"), shard)
            self._points.append(point)
        self._points.sort()
        self._hashes = [h for h, _ in self._points]
        self._walks = {}

    def remove_shard(self, shard):
        if shard not in self._shards:
            raise KeyError(shard)
        self._shards.remove(shard)
        self._points = [p for p in self._points if p[1] != shard]
        self._hashes = [h for h, _ in self._points]
        self._walks = {}

    def shard_for(self, key):
        """The shard owning ``key`` (deterministic placement)."""
        if not self._points:
            raise ValueError("shard_for on an empty ring")
        index = bisect_right(self._hashes, stable_hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def preference(self, key, limit=None):
        """Distinct shards in ring order starting at ``key``'s owner.

        The first entry is :meth:`shard_for`; the rest are the successor
        shards a shard-aware failover walks when the owner is unavailable.
        ``limit`` keeps the first ``limit`` of them.  The walk from each
        ring point is computed once and cached until the ring changes.
        """
        if not self._points:
            raise ValueError("preference on an empty ring")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        start = bisect_right(self._hashes, stable_hash(key))
        walk = self._walks.get(start)
        if walk is None:
            ordered = self._points[start:] + self._points[:start]
            walk = list(dict.fromkeys(shard for _h, shard in ordered))
            self._walks[start] = walk
        return walk[:limit]

    def counts(self, keys):
        """Shard → how many of ``keys`` it owns, in insertion order.

        Each key is hashed once and tallied on the ring point it bisects
        to; the point tallies are then folded per shard.
        """
        hashes = self._hashes
        tally = [0] * (len(hashes) + 1)
        for index in map(bisect_right, repeat(hashes), map(stable_hash, keys)):
            tally[index] += 1
        # Past the last point, bisect_right wraps around to the first.
        wrapped = tally.pop()
        if wrapped:
            if not hashes:
                raise ValueError("counts on an empty ring")
            tally[0] += wrapped
        owned = dict.fromkeys(self._shards, 0)
        for (_h, shard), n in zip(self._points, tally):
            owned[shard] += n
        return owned

    def placement(self, n):
        """Shard → how many of the keys ``0 .. n-1`` it owns.

        The cohort engine places session ``i`` on ``shard_for(i)``.  The
        count is a pure function of the ring's shard set and vnode count
        (which fix its points) and of ``n``, so it is memoized on exactly
        those: every arm of a scenario that builds the same ring in one
        process hashes its sessions once.
        """
        key = (frozenset(self._shards), self.vnodes, n)
        owned = _PLACEMENTS.get(key)
        if owned is None:
            owned = self.counts(range(n))
            if len(_PLACEMENTS) >= _PLACEMENTS_KEPT:
                del _PLACEMENTS[next(iter(_PLACEMENTS))]
            _PLACEMENTS[key] = owned
        return {shard: owned[shard] for shard in self._shards}

    def arc_measures(self):
        """Shard → fraction of the 2^64 hash space it owns.

        The exact stationary key share of each shard under uniform
        hashing, computed by walking the sorted ring once — no key
        enumeration.  Elastic resharding diffs these measures before and
        after a churn to plan the *minimal* session delta: a joining
        shard's intake from each donor is exactly the measure the donor
        lost, and a leaving shard's keys land on each survivor in
        proportion to the measure it gained.
        """
        if not self._points:
            return {}
        space = 1 << 64
        owned = {shard: 0 for shard in self._shards}
        # bisect_right routing means the point at hash h owns the arc
        # (prev_h, h]; the first point also owns the wraparound arc past
        # the last point, which the negative prev handles.
        prev = self._points[-1][0] - space
        for h, shard in self._points:
            owned[shard] += h - prev
            prev = h
        return {shard: arc / space for shard, arc in owned.items()}


class BrickGroup:
    """A replicated group of SSM bricks serving one shard's sessions.

    Presents the same store interface as a single :class:`SSM` (the
    application server neither knows nor cares), but writes replicate to
    every live brick and reads fall through the replicas, so the group
    stays available while *any* brick lives.  ``crashed`` in the
    single-brick sense maps to "every brick crashed".
    """

    survives_microreboot = True
    survives_jvm_restart = True

    def __init__(self, kernel, n_bricks=2, name="BrickGroup"):
        if n_bricks <= 0:
            raise ValueError(f"a brick group needs >=1 brick, got {n_bricks}")
        self.kernel = kernel
        self.name = name
        self.bricks = [
            SSM(kernel, name=f"{name}/brick{i}")
            for i in range(n_bricks)
        ]
        self._access_time = 0.0

    # ``access_time`` is assigned by build_ebid_system the same way it is
    # for a bare SSM; fan it out so per-brick accounting stays coherent.
    @property
    def access_time(self):
        return self._access_time

    @access_time.setter
    def access_time(self, value):
        self._access_time = value
        for brick in self.bricks:
            brick.access_time = value

    @property
    def crashed(self):
        return all(brick.crashed for brick in self.bricks)

    def __len__(self):
        ids = set()
        for brick in self.bricks:
            ids.update(brick.session_ids())
        return len(ids)

    # ------------------------------------------------------------------
    # Store API (same contract as SSM)
    # ------------------------------------------------------------------
    def read(self, session_id):
        """First live replica's copy, or None when every replica misses.

        A crashed brick is skipped, not consulted: its reads would miss
        anyway.  Falling through on a *live* miss matters too — a brick
        that was down during the session's write rejoins empty, and the
        read must not stop there.
        """
        for brick in self.bricks:
            if brick.crashed:
                continue
            data = brick.read(session_id)
            if data is not None:
                return data
        return None

    def write(self, session_id, data):
        """Replicate to every live brick (crashed bricks drop the write)."""
        for brick in self.bricks:
            if not brick.crashed:
                brick.write(session_id, data)

    def delete(self, session_id):
        for brick in self.bricks:
            brick.delete(session_id)

    def session_ids(self):
        ids = set()
        for brick in self.bricks:
            ids.update(brick.session_ids())
        return sorted(ids)

    # ------------------------------------------------------------------
    # Chaos surface
    # ------------------------------------------------------------------
    def crash_brick(self, index):
        """One brick of the group becomes unreachable."""
        self.bricks[index].crash()

    def restart_brick(self, index):
        """The brick rejoins *empty* (crash-only semantics).

        Whatever the brick held when it crashed is stale by exactly the
        writes it missed while down; serving that copy as the group's
        first live hit would hand the application old session state.
        Wiping on rejoin makes the next read fall through to a current
        replica, and the next write-all-live replication backfills this
        brick — the lease renewals of active sessions do that for free.
        """
        brick = self.bricks[index]
        if brick.crashed:
            brick.wipe()
        brick.restart()

    # ------------------------------------------------------------------
    # Lifecycle notifications
    # ------------------------------------------------------------------
    def notify_jvm_exit(self, server):
        """Bricks live outside every JVM: nothing is lost."""
