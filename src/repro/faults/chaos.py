"""Deterministic, seed-driven fault schedules and their one executor.

The paper's evaluation (§5.1) injects one fault at a time and waits for the
pipeline to recover.  This module schedules *correlated and overlapping*
faults over simulated time — the adversarial conditions the hardened
recovery pipeline (:mod:`repro.core.hardening`) exists to survive:

* **flap trains** — the same component is re-broken every few seconds,
  faster than the quarantine-less pipeline can usefully microreboot it;
* **correlated bursts** — several components across several nodes break at
  the same instant (a bad deploy, a poisoned cache), pushing every node's
  recovery manager over threshold at once;
* **infrastructure faults** — LB→node link degradation (forward delay +
  drops), node-level CPU slowdown from a process outside the JVM, and SSM
  brick outages that make *every* node's sessions temporarily unreadable.

A schedule is plain data: a time-sorted list of frozen :class:`ChaosEvent`
built by a pure function of a spec, an RNG stream and a topology snapshot
(:func:`chaos_schedule`, :func:`storm_schedule`), with every draw made in
a fixed order.  One :class:`FaultExecutor` applies any schedule at its
simulated times.  Same seed → same schedule → same simulation, which is
what lets the parallel campaign runner merge ``--jobs N`` output
byte-identically with ``--jobs 1``.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

from repro.faults.injector import FaultInjector

#: Front-line session beans whose URL paths clients actually exercise —
#: breaking these produces detectable end-to-end failures quickly.
COMPONENT_TARGETS = (
    "BrowseCategories",
    "BrowseRegions",
    "ViewItem",
    "SearchItemsByCategory",
    "ViewUserInfo",
)

#: Component-level fault kinds the engine draws from (all curable by µRB).
COMPONENT_FAULTS = ("transient-exception", "deadlock", "infinite-loop")


def _require(spec, name, ok, rule):
    """Raise ``ValueError`` naming field ``name`` of ``spec`` unless ok."""
    if not ok:
        raise ValueError(
            f"{type(spec).__name__}.{name} must be {rule}, "
            f"not {getattr(spec, name)!r}"
        )


@dataclass(frozen=True)
class ChaosSpec:
    """Knobs for one chaos campaign (all times in simulated seconds)."""

    duration: float = 480.0  # fault window length
    start: float = 30.0  # quiet warmup before the first fault
    flap_trains: int = 1  # re-broken-component sequences
    flap_pulses: int = 6  # re-injections per train
    flap_interval: float = 12.0  # seconds between re-injections
    bursts: int = 2  # correlated multi-component bursts
    burst_size: int = 3  # simultaneous faults per burst
    link_faults: int = 1  # LB→node link degradations
    link_delay: float = 0.25  # extra forward delay while degraded
    link_drop_rate: float = 0.25  # forward drop probability
    link_duration: float = 45.0
    slowdowns: int = 1  # node-level CPU slowdowns
    slowdown_hogs: int = 3  # external hog processes per slowdown
    slowdown_duration: float = 60.0
    ssm_outages: int = 1  # SSM brick crashes (needs an SSM cluster)
    ssm_outage_duration: float = 40.0
    #: Concentrate each burst on a single node with *distinct* components —
    #: the multi-component-failure shape whose recovery the dependency-aware
    #: parallel scheduler overlaps.  Off by default so existing campaign
    #: schedules (and their seeds) are untouched.
    burst_same_node: bool = False
    #: Pin every burst fault to one kind instead of drawing from
    #: ``COMPONENT_FAULTS`` (None = draw, the historical behaviour).
    burst_fault: str = None
    #: Memory-leak injections (§6.4's fault class): each picks a node and
    #: a front-line component whose every invocation then leaks
    #: ``leak_bytes`` until the JVM restarts.  µRBs reclaim what has
    #: leaked so far but the code bug persists — the fault shape that
    #: separates reactive recovery (wait for OOM) from predictive
    #: (µRB the leaker before exhaustion).  Zero by default so existing
    #: campaign schedules (and their RNG draw order) are untouched.
    leak_faults: int = 0
    leak_bytes: int = 0  # bytes leaked per invocation
    #: Fraction of the fault window within which leaks start (early, so
    #: slow-burn exhaustion has room to play out before the horizon).
    leak_start_fraction: float = 0.15

    def __post_init__(self):
        for name in ("duration", "flap_interval", "link_duration",
                     "slowdown_duration", "ssm_outage_duration"):
            _require(self, name, getattr(self, name) >= 0, ">= 0")
        _require(self, "leak_start_fraction",
                 0 <= self.leak_start_fraction <= 1, "in [0, 1]")
        _require(self, "burst_fault",
                 self.burst_fault in COMPONENT_FAULTS + (None,),
                 f"one of {COMPONENT_FAULTS} or None")

    @classmethod
    def smoke(cls):
        """A short mix exercising every fault class (CI-sized)."""
        return cls(
            duration=240.0,
            flap_trains=1,
            flap_pulses=4,
            bursts=1,
            burst_size=2,
            link_faults=1,
            link_duration=30.0,
            slowdowns=1,
            slowdown_duration=40.0,
            ssm_outages=1,
            ssm_outage_duration=25.0,
        )

    @classmethod
    def standard(cls):
        """The default full campaign."""
        return cls()

    @classmethod
    def multiburst(cls):
        """Pure multi-component bursts on one node, no infrastructure noise.

        The shape that isolates the recovery *scheduler*: several distinct
        components on the same node fail at one instant, so serial recovery
        pays the full ladder one component at a time while the parallel
        scheduler overlaps the independent microreboots.  The fault kind is
        pinned to ``transient-exception`` — it fails fast (dense detection
        signal) and is cured exactly by a µRB of the faulted bean, so the
        arms differ only in how recovery is *scheduled*.
        """
        return cls(
            duration=180.0,
            flap_trains=0,
            bursts=2,
            burst_size=3,
            burst_same_node=True,
            burst_fault="transient-exception",
            link_faults=0,
            slowdowns=0,
            ssm_outages=0,
        )

    @classmethod
    def leaky(cls, leak_bytes=36 * 1024 * 1024, duration=420.0):
        """Pure slow-burn memory leaks, no other fault noise.

        The schedule that isolates *prediction*: three distinct front-line
        components start leaking early in the window, heap drains over
        minutes, and nothing else breaks — so a reactive arm's failures
        are exactly the OOM exhaustion events a predictive arm should
        see coming and preempt.  The default per-invocation leak drains
        a node's ~890 MB of free heap in two-to-three minutes of
        traffic: fast enough that the reactive pipeline pays repeated
        OOM episodes (escalating to WAR/application restarts when µRBs
        of the leaker can't keep up), slow enough that the heap-trend
        alert fires minutes ahead of each exhaustion.
        """
        return cls(
            duration=duration,
            flap_trains=0,
            bursts=0,
            link_faults=0,
            slowdowns=0,
            ssm_outages=0,
            leak_faults=3,
            leak_bytes=leak_bytes,
        )


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled injection or heal: plain data, never written after it
    is built (an executor keeps applied times in its own log)."""

    time: float
    kind: str  # one of EVENT_KINDS
    node: int = None  # node index, or None for shard and cluster-wide faults
    target: str = None  # component name, for component-level faults
    params: dict = field(default_factory=dict)
    shard: str = None  # owning shard, for shard-targeted storm events


def chaos_schedule(spec, rng, n_nodes, with_ssm):
    """A chaos campaign over ``n_nodes`` nodes (SSM outages only
    ``with_ssm``), sorted by time; every draw from ``rng``, in order."""
    events = []

    def when(fraction_of_window=1.0):
        return spec.start + rng.uniform(
            0, spec.duration * fraction_of_window
        )

    for _train in range(spec.flap_trains):
        node = rng.randrange(n_nodes)
        component = rng.choice(COMPONENT_TARGETS)
        start = when(0.5)  # leave room for every pulse
        for pulse in range(spec.flap_pulses):
            events.append(
                ChaosEvent(
                    time=start + pulse * spec.flap_interval,
                    kind="transient-exception",
                    node=node,
                    target=component,
                    params={"train": True, "pulse": pulse},
                )
            )

    for _burst in range(spec.bursts):
        start = when()
        if spec.burst_same_node:
            # One node, distinct components: the multi-component shape
            # the parallel scheduler recovers concurrently.
            node = rng.randrange(n_nodes)
            components = rng.sample(
                COMPONENT_TARGETS,
                min(spec.burst_size, len(COMPONENT_TARGETS)),
            )
            for component in components:
                events.append(
                    ChaosEvent(
                        time=start,
                        kind=(
                            spec.burst_fault
                            or rng.choice(COMPONENT_FAULTS)
                        ),
                        node=node,
                        target=component,
                        params={"burst": True},
                    )
                )
        else:
            for _i in range(spec.burst_size):
                node = rng.randrange(n_nodes)
                component = rng.choice(COMPONENT_TARGETS)
                kind = spec.burst_fault or rng.choice(COMPONENT_FAULTS)
                events.append(
                    ChaosEvent(
                        time=start, kind=kind, node=node,
                        target=component, params={"burst": True},
                    )
                )

    for _fault in range(spec.link_faults):
        node = rng.randrange(n_nodes)
        start = when(0.8)
        events.append(
            ChaosEvent(
                time=start, kind="link", node=node,
                params={
                    "delay": spec.link_delay,
                    "drop_rate": spec.link_drop_rate,
                },
            )
        )
        events.append(
            ChaosEvent(
                time=start + spec.link_duration, kind="link-heal",
                node=node,
            )
        )

    for _slowdown in range(spec.slowdowns):
        node = rng.randrange(n_nodes)
        start = when(0.8)
        events.append(
            ChaosEvent(
                time=start, kind="slowdown", node=node,
                params={"hogs": spec.slowdown_hogs},
            )
        )
        events.append(
            ChaosEvent(
                time=start + spec.slowdown_duration,
                kind="slowdown-heal", node=node,
            )
        )

    leak_targets = set()
    for _leak in range(spec.leak_faults):
        node = rng.randrange(n_nodes)
        component = rng.choice(COMPONENT_TARGETS)
        if (node, component) in leak_targets:
            continue  # same component twice = double rate, skip it
        leak_targets.add((node, component))
        events.append(
            ChaosEvent(
                time=when(spec.leak_start_fraction),
                kind="memory-leak",
                node=node,
                target=component,
                params={"bytes": spec.leak_bytes},
            )
        )

    if with_ssm:
        for _outage in range(spec.ssm_outages):
            start = when(0.8)
            events.append(ChaosEvent(time=start, kind="ssm-crash"))
            events.append(
                ChaosEvent(
                    time=start + spec.ssm_outage_duration,
                    kind="ssm-restart",
                )
            )

    # Stable order: by time, ties broken by construction order (the
    # sort is stable), so identical seeds replay identically.
    events.sort(key=lambda event: event.time)
    return events


# ----------------------------------------------------------------------
# Shard-targeted storms over a consistent-hash sharded cluster
# ----------------------------------------------------------------------

#: Shard-level fault kinds a storm cycles through.  ``deadlock`` is a
#: pulse train the recovery pipeline must repeatedly cure; ``link``
#: degrades every LB→node link of the shard (the LB's degradation marks
#: and ring failover contain it); ``brick-crash`` takes one SSM brick
#: (the replica absorbs it); ``slowdown`` saturates the shard's nodes
#: with external CPU hogs.
STORM_KINDS = ("deadlock", "link", "brick-crash", "slowdown")

#: The event that undoes each healable fault kind.
HEALS = {"link": "link-heal", "slowdown": "slowdown-heal",
         "brick-crash": "brick-heal", "ssm-crash": "ssm-restart"}


@dataclass(frozen=True)
class StormSpec:
    """Knobs for one multi-shard storm (times in simulated seconds)."""

    start: float = 60.0  # quiet warmup before the storm front
    duration: float = 120.0  # how long injected conditions persist
    k_shards: int = 8  # how many shards the storm hits
    #: 0 = all K shards fault at the same instant; >0 = a rolling wave,
    #: shard i faulting at ``start + i * wave_interval``.
    wave_interval: float = 0.0
    kinds: tuple = STORM_KINDS  # cycled over the struck shards, in order
    deadlock_target: str = "BrowseCategories"
    pulse_interval: float = 15.0  # deadlock re-injection cadence
    link_delay: float = 0.2  # extra forward delay on faulted links
    link_drop_rate: float = 0.35  # forward drop probability
    slowdown_hogs: int = 3

    def __post_init__(self):
        _require(self, "pulse_interval", self.pulse_interval > 0, "> 0")
        _require(self, "kinds",
                 bool(self.kinds) and set(self.kinds) <= set(STORM_KINDS),
                 f"a non-empty subset of {STORM_KINDS}")
        _require(self, "duration", self.duration > 0, "> 0")
        # Every onset before the horizon, or a fault outlives its heal.
        last_onset = (self.k_shards - 1) * self.wave_interval
        _require(self, "wave_interval",
                 self.wave_interval >= 0 and last_onset < self.duration,
                 "in [0, duration / (k_shards - 1))")

    @classmethod
    def smoke(cls):
        """CI-sized: four shards, one of each fault kind."""
        return cls(start=20.0, duration=60.0, k_shards=4)

    @classmethod
    def standard(cls):
        """The acceptance configuration: K=8 simultaneous shards."""
        return cls()


def storm_schedule(spec, struck_shards):
    """A storm over ``struck_shards``, sorted by time; draws nothing.
    Struck shard i faults at ``spec.start + i * spec.wave_interval``."""
    events = []
    horizon = spec.start + spec.duration
    for i, shard in enumerate(struck_shards):
        kind = spec.kinds[i % len(spec.kinds)]
        onset = spec.start + i * spec.wave_interval
        if kind == "deadlock":
            # A pulse train: recovery cures each pulse, the storm
            # re-breaks it — the sustained-pressure shape quarantine
            # and the storm limiter exist for.
            t = onset
            pulse = 0
            while t < horizon:
                events.append(
                    ChaosEvent(
                        time=t, kind="deadlock", shard=shard,
                        target=spec.deadlock_target,
                        params={"pulse": pulse},
                    )
                )
                t += spec.pulse_interval
                pulse += 1
        else:  # fault at the onset, heal at the horizon
            params = {"link": {"delay": spec.link_delay,
                               "drop_rate": spec.link_drop_rate},
                      "slowdown": {"hogs": spec.slowdown_hogs}}.get(kind, {})
            events += [
                ChaosEvent(time=onset, kind=kind, shard=shard, params=params),
                ChaosEvent(time=horizon, kind=HEALS[kind], shard=shard),
            ]
    events.sort(key=lambda event: event.time)
    return events


#: Kinds injected into a component through its node's FaultInjector.
COMPONENT_KINDS = COMPONENT_FAULTS + ("memory-leak",)
#: Every event kind an executor applies.
EVENT_KINDS = COMPONENT_KINDS + tuple(HEALS) + tuple(HEALS.values())

#: One entry of an executor's log: when ``event`` was applied.
AppliedEvent = namedtuple("AppliedEvent", ("applied_at", "event"))


class FaultExecutor:
    """Applies an immutable fault schedule over simulated time.

    One kernel process applies the events in (time, schedule) order; an
    event strikes one node by index, every node of its shard, or none.
    Nodes and brick groups are snapshotted and every event is checked at
    construction, so a heal still finds a drained shard and a malformed
    event raises ``ValueError`` here, not mid-run.  ``trace`` prefixes
    the ``.begin``/``.event``/``.end`` records (None publishes no begin
    or end, and a subclass overrides :meth:`_announce`); ``where`` is the
    event field, ``node`` or ``shard``, that records and rows carry.
    """

    def __init__(self, cluster, schedule, trace=None, where="node",
                 drop_rng=None, name="faults"):
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.schedule = tuple(sorted(schedule, key=lambda event: event.time))
        self.trace = trace
        self.where = where
        self.name = name
        #: Link drop draws, kept apart from any schedule stream.
        self._drop_rng = drop_rng or cluster.rng.stream(f"{name}-link-drops")
        self._nodes = tuple(cluster.nodes)
        shard_nodes = getattr(cluster, "shard_nodes", {})
        self._shard_nodes = {
            event.shard: tuple(shard_nodes[event.shard])
            for event in self.schedule if event.shard in shard_nodes
        }
        self._groups = {s: cluster.shard_groups[s] for s in self._shard_nodes}
        for event in self.schedule:
            self._check(event)
        self.injectors = {
            node.name: FaultInjector(node.system) for node in self._nodes
        }
        self.applied = []
        self.counts = {}
        self._process = None

    def _nodes_of(self, event):
        if event.node is not None:
            return (self._nodes[event.node],)
        return self._shard_nodes.get(event.shard, ())

    def _check(self, event):
        kind = event.kind
        if kind not in EVENT_KINDS:
            problem = "is not a fault kind"
        elif not math.isfinite(event.time):
            problem = "needs a finite time"
        elif event.node not in (None, *range(len(self._nodes))):
            problem = f"names a node outside 0..{len(self._nodes) - 1}"
        elif event.shard is not None and event.shard not in self._groups:
            problem = "names a shard the cluster does not have"
        elif kind in COMPONENT_KINDS and (event.target is None or any(
                event.target not in node.system.server.containers
                for node in self._nodes_of(event))):
            problem = "needs a target component its nodes deploy"
        elif kind.startswith("brick-") and event.shard is None:
            problem = "needs a shard"
        elif kind.startswith("ssm-") and self.cluster.ssm is None:
            problem = "needs a cluster with an SSM"
        else:
            return
        raise ValueError(f"{kind!r} event at t={event.time} {problem}")

    # ------------------------------------------------------------------
    def start(self, **begin):
        """Spawn the kernel process that applies the schedule (once).

        ``begin`` is the ``<trace>.begin`` payload.  Each engine passes it
        from a ``start`` in its own class body: perfbench's tracer wraps
        ``vars(cls)["start"]``, which an inherited ``start`` is not in.
        """
        if self._process is None or not self._process.is_alive:
            self._process = self.kernel.process(
                self._run(begin), name=f"{self.name}-engine"
            )
        return self._process

    def _run(self, begin):
        if self.trace is not None:
            self.kernel.trace.publish(f"{self.trace}.begin", **begin)
        for event in self.schedule:
            delay = event.time - self.kernel.now
            if delay > 0:
                yield self.kernel.timeout(delay)
            self._apply(event)
        if self.trace is not None:
            self.kernel.trace.publish(f"{self.trace}.end",
                                      applied=len(self.applied))

    def _apply(self, event):
        kind = event.kind
        nodes = self._nodes_of(event)
        balancer = self.cluster.load_balancer
        for node in nodes:
            injector = self.injectors[node.name]
            if kind == "transient-exception":
                injector.inject_transient_exception(event.target)
            elif kind == "deadlock":
                injector.inject_deadlock(event.target)
            elif kind == "infinite-loop":
                injector.inject_infinite_loop(event.target)
            elif kind == "memory-leak":
                injector.inject_memory_leak(
                    event.target, event.params["bytes"]
                )
            elif kind == "link":
                balancer.inject_link_fault(
                    node,
                    delay=event.params["delay"],
                    drop_rate=event.params["drop_rate"],
                    rng=self._drop_rng,
                )
            elif kind == "link-heal":
                balancer.clear_link_fault(node)
            elif kind == "slowdown":
                node.inject_slowdown(hogs=event.params["hogs"])
            elif kind == "slowdown-heal":
                node.clear_slowdown()
        if kind == "brick-crash":
            self._groups[event.shard].crash_brick(0)
        elif kind == "brick-heal":
            self._groups[event.shard].restart_brick(0)
        elif kind == "ssm-crash":
            self.cluster.ssm.crash()
        elif kind == "ssm-restart":
            self.cluster.ssm.restart()
        self.applied.append(AppliedEvent(self.kernel.now, event))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._announce(event, nodes)

    def _announce(self, event, nodes):
        """Publish ``<trace>.event``: the node's *name*, or the shard."""
        place = event.shard if self.where == "shard" else (
            nodes[0].name if nodes else None)
        self.kernel.trace.publish(
            f"{self.trace}.event", kind=event.kind, **{self.where: place},
            target=event.target,
        )

    def _rows(self, timed_events):
        """``(time, event)`` pairs as plain dicts (node *index* or shard)."""
        return [
            {"time": round(at, 6), "kind": event.kind,
             self.where: getattr(event, self.where), "target": event.target}
            for at, event in timed_events
        ]

    def timeline(self):
        """Applied events as plain dicts (for JSON-able campaign output)."""
        return self._rows(self.applied)


class ChaosEngine(FaultExecutor):
    """A chaos campaign: :func:`chaos_schedule` of ``spec``, drawn from
    the ``chaos`` stream and applied by the executor."""

    def __init__(self, cluster, spec=None):
        self.spec = spec or ChaosSpec.standard()
        self.rng = cluster.rng.stream("chaos")
        schedule = chaos_schedule(self.spec, self.rng, len(cluster.nodes),
                                  with_ssm=cluster.ssm is not None)
        super().__init__(
            cluster, schedule, trace="chaos", name="chaos",
            drop_rng=cluster.rng.stream("chaos-link-drops"),
        )

    def start(self):
        """Spawn the engine's kernel process."""
        return super().start(
            events=len(self.schedule),
            horizon=self.spec.start + self.spec.duration,
        )


class ShardStormEngine(FaultExecutor):
    """Correlated multi-shard faults on a sharded cluster: ``k_shards``
    distinct shards drawn from the ``storm`` stream, each given the next
    of ``spec.kinds`` in turn by :func:`storm_schedule`."""

    def __init__(self, cluster, spec=None):
        self.spec = spec or StormSpec.standard()
        self.rng = cluster.rng.stream("storm")
        if self.spec.k_shards > len(cluster.shard_names):
            raise ValueError(
                f"storm wants {self.spec.k_shards} shards but the cluster "
                f"has {len(cluster.shard_names)}"
            )
        self.storm_shards = tuple(
            self.rng.sample(list(cluster.shard_names), self.spec.k_shards)
        )
        super().__init__(
            cluster, storm_schedule(self.spec, self.storm_shards),
            trace="storm", where="shard", name="storm",
            drop_rng=cluster.rng.stream("storm-link-drops"),
        )

    def start(self):
        """Spawn the engine's kernel process."""
        return super().start(
            shards=self.storm_shards,
            events=len(self.schedule),
            horizon=self.spec.start + self.spec.duration,
        )

    def shard_kind(self, shard):
        """The fault kind the storm assigned to ``shard`` (or None)."""
        for i, struck in enumerate(self.storm_shards):
            if struck == shard:
                return self.spec.kinds[i % len(self.spec.kinds)]
        return None

    def planned_schedule(self):
        """The precomputed schedule as plain dicts (determinism gating)."""
        return self._rows((event.time, event) for event in self.schedule)
