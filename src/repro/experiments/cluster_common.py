"""Shared scaffolding for the cluster experiments (§5.3).

The LB-wired rigs (chaos, prediction, megascale, storm) share two parts:
:class:`RecoveryPipeline` and :func:`end_run`.  Their live consumers come
from :func:`~repro.observability.exporter.predictive_chain`, as replay's do.
The Figure 3 and Figure 4 sweeps share :class:`ClusterRig` and
:func:`failover_sweep`.  Every rig here ends its runs with the same audit
(:func:`~repro.experiments.common.audit_run`) as the single-node rig.
"""

from collections import Counter

from repro.cluster.cluster import build_cluster
from repro.cluster.load_balancer import FailoverMode
from repro.core.hardening import RecoveryStormLimiter
from repro.core.recovery_manager import NODE_WIDE_LEVELS, RecoveryManager
from repro.ebid.descriptors import URL_PATH_MAP
from repro.experiments.common import audit_run
from repro.faults.injector import FaultInjector
from repro.parallel import TrialSpec, run_campaign
from repro.telemetry.spans import SpanCollector
from repro.workload.client import ClientPopulation
from repro.workload.markov import WorkloadProfile


def wire_recovery_failover(rm, node, balancer):
    """LB coordination (§5.3): full failover for node-wide recoveries,
    component-scoped MICRO failover for µRBs — and for quarantines.

    A quarantined component answers fast 503s on its own node, but in a
    cluster the other nodes are healthy: keeping a MICRO failover window
    open for the quarantined components (§6.1) turns the quarantine from
    "requests fail fast" into "requests go elsewhere".

    The balancer holds one failover record per node, so with the parallel
    scheduler several overlapping µRBs must *union* their target sets:
    each begin/end re-asserts the union of every in-flight action's
    targets plus the active quarantines, and the window closes only when
    both are empty.

    :meth:`RecoveryPipeline.add` wires every manager it starts this way.
    """
    active_micro = {}

    def micro_union():
        union = set(rm.active_quarantines())
        for targets in active_micro.values():
            union |= targets
        return union

    def sync_micro(_name=None, _active=None):
        union = micro_union()
        if union:
            balancer.begin_failover(
                node, mode=FailoverMode.MICRO, components=union
            )
        else:
            balancer.end_failover(node)

    def begin(action):
        if action.level in NODE_WIDE_LEVELS:
            balancer.begin_failover(node, mode=FailoverMode.FULL)
        elif action.level in ("ejb", "war") and action.target:
            active_micro[id(action)] = set(action.target)
            sync_micro()

    def end(action):
        # Closing this action's failover window must not strand a
        # concurrent action's redirect or an active quarantine's:
        # re-assert the remaining union.
        active_micro.pop(id(action), None)
        sync_micro()

    def deferred(reason, level, targets, ttl):
        # A deferred coarse recovery = the RM knows this node is sick but
        # is letting it breathe.  Meanwhile, route traffic around it
        # (sessions live in the external store, so they can be served
        # anywhere) instead of feeding requests to a broken node — for
        # the whole backoff, not just one degraded-ttl window.
        if level != "ejb":
            balancer.note_degraded(
                node, f"recovery-deferred-{reason}", ttl=ttl
            )

    rm.begin_listeners.append(begin)
    rm.listeners.append(end)
    rm.quarantine_listeners.append(sync_micro)
    rm.defer_listeners.append(deferred)


class RecoveryPipeline:
    """One started, LB-coordinated recovery manager per node (§4, §5.3).

    The managers share one :class:`RecoveryStormLimiter` exactly when
    ``hardening`` is enabled; it is the only state they share, as in a
    deployment that runs one manager per node.  The rig keeps routing
    failure reports to the manager of the node (or shard) they concern.
    """

    def __init__(self, cluster, hardening):
        self.kernel = cluster.kernel
        self.balancer = cluster.load_balancer
        self.hardening = hardening
        self.storm_limiter = RecoveryStormLimiter(
            self.kernel,
            limit=hardening.storm_limit,
            window=hardening.storm_window,
            window_limit=hardening.storm_window_limit,
        ) if hardening.enabled else None
        #: Every manager ever added, in the order added (a drained shard's
        #: managers stay here, so their past actions stay counted).
        self.rms = []

    def add(self, nodes):
        """Start one manager per node; returns them in node order.

        Also the elastic scale-out path: a shard added mid-run gets the
        managers the boot-time shards got.
        """
        added = []
        for node in nodes:
            rm = RecoveryManager(
                self.kernel,
                node.system.coordinator,
                URL_PATH_MAP,
                node_controller=node,
                # High enough that the blunt §4 notify-a-human cutoff does
                # not end a campaign early: the comparison is between the
                # graduated safeguards, with the same limit in every arm.
                recurring_limit=60,
                hardening=self.hardening,
                storm_limiter=self.storm_limiter,
            )
            wire_recovery_failover(rm, node, self.balancer)
            rm.start()
            added.append(rm)
        self.rms.extend(added)
        return added

    def actions(self):
        """Every manager's recovery actions, manager by manager."""
        return [action for rm in self.rms for action in rm.actions]

    def outcome(self):
        """The ``recovery_actions`` and ``actions_by_level`` outcome keys."""
        actions = self.actions()
        by_level = Counter(action.level for action in actions)
        return {
            "recovery_actions": len(actions),
            "actions_by_level": dict(sorted(by_level.items())),
        }


def end_run(kernel, horizon, tracker=None, slo_engine=None, registry=None):
    """The LB-wired rigs' one end-of-run step, at simulated ``horizon``.

    First the run audit (:func:`audit_run`).  Then the consumers given
    close open incidents, judge the canonical SLO windows and resolve the
    alerts still firing.
    """
    audit_run(kernel)
    if tracker is not None:
        tracker.finalize(horizon)
    if slo_engine is not None:
        slo_engine.evaluate(horizon)
    if registry is not None:
        registry.alert_engine.finalize(horizon)


#: Failure reports that make :meth:`ClusterRig.script_recovery` act.
DETECTION_THRESHOLD = 6


class ClusterRig:
    """N nodes + load balancer + clients, with scripted recovery."""

    def __init__(
        self,
        n_nodes,
        clients_per_node,
        seed=0,
        dataset=None,
    ):
        self.cluster = build_cluster(n_nodes, seed=seed, dataset=dataset)
        self.kernel = self.cluster.kernel
        # One collector for the whole cluster: traces start at the LB and
        # are tagged (by the admitting server) with the node that actually
        # served the request — failover redirects stay visible per-path.
        # Enabled only via the spans default (e.g. `repro run --trace`).
        self.span_collector = SpanCollector()
        self.cluster.load_balancer.span_collector = self.span_collector
        for node in self.cluster.nodes:
            node.system.server.span_collector = self.span_collector
        self.reports = []
        self.population = ClientPopulation(
            self.kernel,
            self.cluster.load_balancer,
            self.cluster.dataset,
            n_clients=n_nodes * clients_per_node,
            rng_registry=self.cluster.rng,
            profile=WorkloadProfile(),
            reporter=self.reports.append,
        )
        self.metrics = self.population.metrics

    def start(self, warmup=0.0):
        """Start the clients and run ``warmup`` seconds, then audit."""
        self.population.start()
        if warmup:
            self.kernel.run(until=self.kernel.now + warmup)
        audit_run(self.kernel)

    def run_for(self, seconds):
        """Run ``seconds`` more, then audit (:func:`audit_run`)."""
        self.kernel.run(until=self.kernel.now + seconds)
        audit_run(self.kernel)

    def injector_for(self, node_index):
        return FaultInjector(self.cluster.nodes[node_index].system)

    # ------------------------------------------------------------------
    def script_recovery(
        self,
        bad_node,
        recovery,  # "microreboot" or "process-restart"
        components=("BrowseCategories",),
        failover=FailoverMode.FULL,
        inject_at=None,
    ):
        """Spawn a watcher that performs one recovery once failures appear.

        Mirrors §5.3's flow: detectors report failures; once
        ``DETECTION_THRESHOLD`` of them arrived since ``inject_at``, the
        RM decides to recover: it first notifies the LB (failover begins),
        recovers the node, then notifies the LB again (affinity
        restored).  Returns a dict filled with recovery timestamps.
        """
        outcome = {"recovered_at": None, "detected_at": None}
        balancer = self.cluster.load_balancer

        def watcher():
            while True:
                fresh = [
                    r for r in self.reports
                    if inject_at is None or r.time >= inject_at
                ]
                if len(fresh) >= DETECTION_THRESHOLD:
                    break
                yield self.kernel.timeout(0.5)
            outcome["detected_at"] = self.kernel.now
            if failover is not FailoverMode.NONE:
                balancer.begin_failover(
                    bad_node, mode=failover, components=components
                )
            if recovery == "microreboot":
                yield from bad_node.system.coordinator.microreboot(
                    list(components)
                )
            else:
                yield from bad_node.restart_jvm()
            balancer.end_failover(bad_node)
            outcome["recovered_at"] = self.kernel.now

        self.kernel.process(watcher(), name="recovery-script")
        return outcome


#: The recovery schemes a failover sweep compares at every cluster size.
RECOVERIES = ("process-restart", "microreboot")

#: Outcomes of the sweeps this process has run, keyed by every input:
#: task, row contents, seed and jobs.  Table 4 is a column of the Figure 4
#: sweep, so ``repro run all`` and the paper benchmarks run it once.
_SWEEPS = {}


def failover_sweep(task, size, seed, jobs):
    """Run ``task`` once per (cluster size, recovery) of a ``SCALES`` row.

    Each pair is one trial of a campaign, so ``jobs>1`` fans the sweep out
    with identical output.  The row's ``cluster_sizes`` lists the sizes;
    its other entries are every trial's kwargs.  Returns the outcomes in
    sweep order.  A sweep this process already ran with the same task,
    row contents, seed and jobs is not run again: its outcome dicts are
    returned again (read them, do not change them), and it publishes no
    trace records the second time.
    """
    key = (task, tuple(sorted(size.items())), seed, jobs)
    outcomes = _SWEEPS.get(key)
    if outcomes is None:
        kwargs = {name: value for name, value in size.items()
                  if name != "cluster_sizes"}
        specs = [
            TrialSpec(
                task=task,
                kwargs={"n_nodes": n_nodes, "recovery": recovery, **kwargs},
                tag=f"{n_nodes}/{recovery}",
                seed=seed,
            )
            for n_nodes in size["cluster_sizes"]
            for recovery in RECOVERIES
        ]
        outcomes = _SWEEPS[key] = [
            trial.value for trial in run_campaign(specs, jobs=jobs)
        ]
    return list(outcomes)
