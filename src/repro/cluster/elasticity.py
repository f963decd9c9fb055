"""Elastic resharding: shards join and leave a *live* sharded cluster.

The ShardRing's minimal-remapping guarantee is only useful at scale if
the cluster can act on it mid-run: add capacity under load, drain a sick
shard during a fault storm, and never lose a session doing it.  Two
pieces deliver that:

* :class:`ReshardCoordinator` — executes one shard add/remove as a
  copy-then-cutover transaction.  It diffs the ring's
  :meth:`~repro.cluster.sharding.ShardRing.arc_measures` before and
  after the churn to plan the **minimal** session delta (exactly the
  hash-space measure that actually moved, nothing else), boots or
  drains application-server nodes, migrates the cohort population
  (largest-remainder proportional, deterministic) and the brick groups'
  concrete SSM sessions, updates the load balancer's routing atomically
  with the ring, and emits ``reshard.*`` bus events so incidents/SLO
  attribute the migration cost correctly.  Migrated sessions ride an
  in-transit window — briefly unavailable, never lost — and every
  operation appends a JSON-able plan record, which the benchmarks gate
  for same-seed and jobs=1 ≡ jobs=N determinism;
* :class:`ElasticPolicy` — the controller that makes resharding
  *elastic*: it watches each shard's probe-grounded failure EWMA and,
  after a confirmation streak, replaces the sick shard (boot a fresh
  shard, then drain the sick one onto the ring's new layout).  During a
  multi-shard fault storm this is the scale-out-beats-static-capacity
  arm: the static cluster pays every re-injected fault pulse, the
  elastic one pays a bounded migration window instead.

Ordering matters and is fixed here once: on **add**, nodes register with
the balancer *before* the ring learns the shard (the first rerouted
request already has somewhere to go); on **remove**, the ring changes
*first* so the survivors own the keys before the balancer forgets the
departed nodes.  Both directions finish by re-keying the probe model —
ring churn can silently re-route an existing probe id, so every probe id
is recomputed from the new ring.
"""

import re

from repro.cluster.cluster import boot_shard

_SHARD_NAME = re.compile(r"^shard(\d+)$")

#: Sickness signal at or above which :class:`ElasticPolicy` counts a
#: check towards replacing the shard.
SICK_THRESHOLD = 0.3


def apportion(weights, total):
    """Split integer ``total`` across ``weights`` (largest remainder).

    The remove-side twin of the cohort engine's ``proportional_split``:
    weights are hash-space measures (floats), not capped cell counts.
    Deterministic and RNG-free; ties go to the lower index.
    """
    mass = sum(weights)
    out = [0] * len(weights)
    if total <= 0 or mass <= 0:
        return out
    remainders = []
    assigned = 0
    for i, weight in enumerate(weights):
        exact = total * weight / mass
        base = int(exact)
        out[i] = base
        assigned += base
        remainders.append((exact - base, i))
    remainders.sort(key=lambda r: (-r[0], r[1]))
    for _frac, i in remainders[: total - assigned]:
        out[i] += 1
    return out


class ReshardCoordinator:
    """Adds/removes shards on a live cluster with zero session loss."""

    def __init__(
        self,
        cluster,
        engine,
        probe_model=None,
        migration_window=2.0,
        on_shard_added=None,
        on_shard_removed=None,
    ):
        """Args:
            cluster: a :class:`~repro.cluster.cluster.ShardedCluster`.
            engine: the :class:`~repro.workload.cohort.CohortEngine`
                carrying the session population.
            probe_model: optional outcome model with ``add_shard`` /
                ``remove_shard`` hooks (re-keyed after every churn).
            on_shard_added: ``f(shard, nodes)`` called after the new
                nodes exist but *before* traffic shifts — the rig wires
                recovery managers and health registration here.
            on_shard_removed: ``f(shard, nodes)`` called after cutover.
        """
        self.cluster = cluster
        self.engine = engine
        self.probe_model = probe_model
        self.migration_window = migration_window
        self.on_shard_added = on_shard_added
        self.on_shard_removed = on_shard_removed
        self.plans = []
        self.retired_groups = {}
        serials = [0]
        for name in cluster.shard_names:
            match = _SHARD_NAME.match(name)
            if match:
                serials.append(int(match.group(1)) + 1)
        self._serial = max(serials)

    @property
    def kernel(self):
        return self.cluster.kernel

    def next_shard_name(self):
        name = f"shard{self._serial:03d}"
        self._serial += 1
        return name

    # ------------------------------------------------------------------
    def add_shard(self, name=None):
        """Scale out by one shard; migrate exactly the stolen keyspace.

        Returns the new shard's name.
        """
        cluster = self.cluster
        ring = cluster.ring
        name = name or self.next_shard_name()
        if name in ring.shards:
            raise ValueError(f"shard {name!r} already on the ring")
        self.kernel.trace.publish("reshard.begin", op="add", shard=name)
        before = ring.arc_measures()

        # 1. Boot the shard: brick group + application-server nodes, warm
        # (zero simulated boot time), against the shared database; once
        # built they are in the cluster's shard maps and node list.
        members = boot_shard(cluster, name)

        # 2. Register everywhere traffic is steered from, then let the
        # rig wire recovery managers — all before the ring shifts a key.
        cluster.shard_names = tuple(cluster.shard_names) + (name,)
        cluster.load_balancer.add_shard_nodes(name, members)
        if self.on_shard_added is not None:
            self.on_shard_added(name, members)

        # 3. Atomic cutover: the ring update is one synchronous call; the
        # next routed request already resolves to the new layout.
        ring.add_shard(name)
        after = ring.arc_measures()
        if self.probe_model is not None:
            self.probe_model.add_shard(name)
        self.engine.add_shard(name)

        # 4. Migrate the minimal cohort delta: each donor loses exactly
        # the hash-space measure the ring took from it.
        sources = {}
        for shard in list(self.engine.shards):
            if shard == name:
                continue
            lost = before.get(shard, 0.0) - after.get(shard, 0.0)
            if lost <= 1e-12:
                continue
            population = sum(self.engine.counts[shard])
            take = int(population * (lost / before[shard]) + 0.5)
            moved = self.engine.begin_migration(
                shard, name, take, window=self.migration_window
            )
            if moved:
                sources[shard] = moved
                self.kernel.trace.publish(
                    "reshard.migrate", source=shard, target=name,
                    sessions=moved, window=self.migration_window,
                )

        # 5. Copy-then-cutover for the concrete store sessions whose keys
        # now hash to the new shard.
        store_moved = self._migrate_store_to(name)

        plan = {
            "op": "add",
            "shard": name,
            "at": round(self.kernel.now, 6),
            "sessions": sum(sources.values()),
            "store_sessions": store_moved,
            "sources": dict(sorted(sources.items())),
            "window": self.migration_window,
        }
        self.plans.append(plan)
        self.kernel.trace.publish(
            "reshard.end", op="add", shard=name,
            sessions=plan["sessions"], store_sessions=store_moved,
        )
        return name

    def _migrate_store_to(self, name):
        """Move every stored session the new ring assigns to ``name``."""
        cluster = self.cluster
        target_group = cluster.shard_groups[name]
        moved = 0
        dropped_pins = []
        for shard in cluster.shard_names:
            if shard == name:
                continue
            group = cluster.shard_groups[shard]
            for sid in group.session_ids():
                if cluster.ring.shard_for(sid) != name:
                    continue
                data = group.read(sid)
                if data is None:  # every replica crashed or lease lapsed
                    continue
                target_group.write(sid, data)
                group.delete(sid)
                dropped_pins.append(sid)
                moved += 1
        cluster.load_balancer.drop_affinity(dropped_pins)
        return moved

    # ------------------------------------------------------------------
    def remove_shard(self, shard):
        """Drain ``shard`` and hand its sessions to the ring's survivors.

        Returns the drained plan record.
        """
        cluster = self.cluster
        ring = cluster.ring
        if shard not in ring.shards:
            raise KeyError(shard)
        if len(ring.shards) <= 1:
            raise ValueError("cannot remove the last shard")
        self.kernel.trace.publish("reshard.begin", op="remove", shard=shard)
        before = ring.arc_measures()
        population = sum(self.engine.counts[shard])

        # 1. The ring forgets the shard first: survivors own the keys
        # before any session moves, so every copy lands where the next
        # request will look for it.
        ring.remove_shard(shard)
        after = ring.arc_measures()

        # 2. Cohort sessions: split the drained population across the
        # survivors in proportion to the hash-space measure each gained.
        survivors = [s for s in self.engine.shards if s != shard]
        gains = [
            max(0.0, after.get(s, 0.0) - before.get(s, 0.0))
            for s in survivors
        ]
        targets = {}
        for s, take in zip(survivors, apportion(gains, population)):
            if take <= 0:
                continue
            moved = self.engine.begin_migration(
                shard, s, take, window=self.migration_window
            )
            if moved:
                targets[s] = moved
                self.kernel.trace.publish(
                    "reshard.migrate", source=shard, target=s,
                    sessions=moved, window=self.migration_window,
                )

        # 3. Concrete store sessions follow the ring's verdict key by key.
        group = cluster.shard_groups[shard]
        store_moved = 0
        store_unreadable = 0
        dropped_pins = []
        for sid in group.session_ids():
            data = group.read(sid)
            if data is None:
                store_unreadable += 1
                continue
            cluster.shard_groups[ring.shard_for(sid)].write(sid, data)
            group.delete(sid)
            dropped_pins.append(sid)
            store_moved += 1
        cluster.load_balancer.drop_affinity(dropped_pins)

        # 4. Cutover: the balancer forgets the shard's nodes (cursors,
        # degraded marks, affinity — everything), then the cluster
        # bookkeeping and the probe/cohort models follow.
        members = cluster.load_balancer.remove_shard(shard)
        cluster.shard_names = tuple(
            s for s in cluster.shard_names if s != shard
        )
        cluster.shard_nodes.pop(shard, None)
        self.retired_groups[shard] = cluster.shard_groups.pop(shard)
        member_names = {node.name for node in members}
        cluster.nodes = [
            node for node in cluster.nodes if node.name not in member_names
        ]
        # shard_of_node keeps the departed entries: incidents that opened
        # while the shard lived still attribute to it.
        if self.probe_model is not None:
            self.probe_model.remove_shard(shard)
        self.engine.retire_shard(shard)
        if self.on_shard_removed is not None:
            self.on_shard_removed(shard, members)

        plan = {
            "op": "remove",
            "shard": shard,
            "at": round(self.kernel.now, 6),
            "sessions": sum(targets.values()),
            "store_sessions": store_moved,
            "store_unreadable": store_unreadable,
            "targets": dict(sorted(targets.items())),
            "window": self.migration_window,
        }
        self.plans.append(plan)
        self.kernel.trace.publish(
            "reshard.end", op="remove", shard=shard,
            sessions=plan["sessions"], store_sessions=store_moved,
        )
        return plan


class ElasticPolicy:
    """Replace persistently failing shards with fresh capacity, live.

    Watches the probe model's per-shard failure EWMA every
    ``check_interval`` simulated seconds.  A shard whose worst probe
    class stays at or above ``threshold`` for ``confirm`` consecutive
    checks is *replaced*: a fresh shard is added (scale-out during the
    storm), then the sick shard is drained through the coordinator —
    sessions migrate, nothing is lost, and the fault's blast radius goes
    to zero instead of recurring for the rest of the storm.
    """

    def __init__(
        self,
        kernel,
        coordinator,
        probe_model,
        confirm=2,
        check_interval=2.0,
        cooldown=10.0,
        max_replacements=8,
        signal=None,
    ):
        """``signal(shard) -> float`` overrides the default sickness
        signal (the probe model's ``shard_fail_rate``); rigs combine the
        probe EWMA with user-visible failure counts here."""
        self.kernel = kernel
        self.coordinator = coordinator
        self.probe_model = probe_model
        self.signal = signal or probe_model.shard_fail_rate
        self.threshold = SICK_THRESHOLD
        self.confirm = confirm
        self.check_interval = check_interval
        self.cooldown = cooldown
        self.max_replacements = max_replacements
        self.replacements = []
        self._streak = {}
        self._next_allowed = 0.0
        self._process = None

    def start(self, duration):
        self._process = self.kernel.process(
            self._run(duration), name="elastic-policy"
        )
        return self._process

    def _run(self, duration):
        end = self.kernel.now + duration
        while self.kernel.now < end - 1e-9:
            yield self.kernel.timeout(
                min(self.check_interval, end - self.kernel.now)
            )
            self._check()

    def _check(self):
        if len(self.replacements) >= self.max_replacements:
            return
        now = self.kernel.now
        for shard in list(self.probe_model.shards):
            rate = self.signal(shard)
            if rate >= self.threshold:
                self._streak[shard] = self._streak.get(shard, 0) + 1
            else:
                self._streak.pop(shard, None)
                continue
            if self._streak[shard] < self.confirm or now < self._next_allowed:
                continue
            self._replace(shard, rate)
            return  # one replacement per check bounds the churn rate

    def _replace(self, shard, rate):
        self.kernel.trace.publish(
            "reshard.policy", shard=shard, fail_rate=round(rate, 4)
        )
        fresh = self.coordinator.add_shard()
        self.coordinator.remove_shard(shard)
        self._streak.pop(shard, None)
        self._next_allowed = self.kernel.now + self.cooldown
        self.replacements.append(
            {
                "at": round(self.kernel.now, 6),
                "replaced": shard,
                "with": fresh,
                "fail_rate": round(rate, 4),
            }
        )
