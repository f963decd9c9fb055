"""Megascale: ~1M concurrent sessions on a consistent-hash sharded cluster.

The paper's evaluation tops out at hundreds of emulated clients on 8
nodes; the ROADMAP's north star is the regime real WAN services live in —
millions of sessions, hundreds of nodes, where recovery choices are made
*per shard* and observed through aggregates.  This scenario couples:

* the cohort-vectorized workload engine
  (:class:`~repro.workload.cohort.CohortEngine`) carrying the million
  sessions as per-(shard, state) count tables;
* a 100+-node sharded cluster
  (:func:`~repro.cluster.cluster.build_sharded_cluster`): consistent-hash
  ring, one replicated SSM brick group per shard, shard-aware failover at
  the load balancer;
* a **probe-grounded outcome model**: every tick each shard is probed
  with real HTTP requests through the real LB → application-server stack.
  The probes' failure rate and latency (EWMA per shard and request class)
  drive the cohort's success/latency draws — so an injected fault, the
  LB's failover, and the recovery managers' real µRBs all show up in the
  million-session aggregates with live-measured timing, without
  simulating a million individual requests;
* the full recovery pipeline per node (hardened RMs + storm limiter +
  §5.3 LB coordination), fed by probe failure reports *and* the cohort's
  lazily materialized per-session details;
* observability attributing per shard: node names embed their shard, so
  stitched incidents, health scores, and the engine's per-shard
  availability series all aggregate along shard lines.

Two arms from the same seed: ``steady`` (fault-free) and ``shardfault``
(a BrowseCategories deadlock plus an SSM brick crash at one shard), so
the headline is blast-radius: the faulted shard's availability dips and
recovers while the other ~127 shards never notice.
"""

import resource
import time

from repro.appserver.http import HttpRequest
from repro.cluster.cluster import build_sharded_cluster
from repro.core.hardening import HardeningPolicy, RecoveryStormLimiter
from repro.core.recovery_manager import FailureKind, FailureReport, RecoveryManager
from repro.core.retry import RetryPolicy
from repro.detection.simple import SimpleDetector
from repro.ebid.descriptors import OPERATIONS, URL_PATH_MAP, operation_url
from repro.ebid.schema import DatasetConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.cluster_common import wire_recovery_failover
from repro.faults.chaos import COMPONENT_TARGETS, ChaosEvent, FaultExecutor
from repro.observability import (
    ClusterIncidentCorrelator,
    ComponentHealthRegistry,
    EstimatorHub,
    IncidentTracker,
    ShardMetricsAggregator,
    SloEngine,
    aggregate_incidents,
    aggregate_slo,
)
from repro.parallel import TrialSpec, run_campaign
from repro.workload.cohort import CohortEngine

ARMS = ("steady", "shardfault")

#: Operations probed per shard (rotating, one class per tick).  Each class
#: stands in for the operations sharing its failure domain: Authenticate
#: for the session-lifecycle ops, BrowseCategories for itself (the
#: most-invoked component and this scenario's fault target), ViewItem for
#: the remaining dynamic operations.
PROBE_OPS = ("BrowseCategories", "Authenticate", "ViewItem")

#: Deterministic probe parameters (probes are synthetic monitors, not
#: dataset-consistent users; the servlets only need well-formed ids).
PROBE_PARAMS = {
    "Authenticate": {"user_id": 1, "password": "pw1"},
    "ViewItem": {"item_id": 1},
}


def _probe_class(operation):
    """Map any of the 29 operations onto its probe class."""
    if operation == "BrowseCategories":
        return "BrowseCategories"
    if operation in ("Authenticate", "RegisterUserForm", "RegisterNewUser",
                     "Logout", "LoginForm"):
        return "Authenticate"
    return "ViewItem"


OP_PROBE_CLASS = {op: _probe_class(op) for op in OPERATIONS}


class ProbeOutcomeModel:
    """Grounds the cohort's outcome probabilities in real probe traffic.

    Each probe round sends one request per shard (rotating through
    :data:`PROBE_OPS`) through the load balancer, keyed so the ring routes
    it to that shard.  Outcomes update an EWMA failure rate and latency
    per ``(shard, probe class)``; :meth:`outcome` serves those numbers to
    the :class:`~repro.workload.cohort.CohortEngine`.  Probe failures are
    also reported to the shard's recovery manager — the probes *are* the
    §4 client-like end-to-end monitors, just deployed per shard instead
    of per client.
    """

    def __init__(self, kernel, balancer, ring, shards, reporter=None,
                 probe_timeout=8.0, alpha=0.4, base_latency=0.05,
                 load_skew=0.0):
        self.kernel = kernel
        self.balancer = balancer
        self.ring = ring
        self.shards = list(shards)
        self.reporter = reporter
        self.probe_timeout = probe_timeout
        self.alpha = alpha
        self.base_latency = base_latency
        #: Optional passive hook ``observer(t, shard, op, ok, latency)``:
        #: the cluster observability plane samples per-probe outcomes here
        #: (the EWMAs keep no history, so p50/p99 need live observation).
        #: None by default — a run without the plane pays one ``is None``.
        self.observer = None
        #: Per-shard load-skew weighting (the --full unlock): >0 scales a
        #: shard's modeled latency by how far its session load sits from
        #: the cluster mean, so consistent-hash imbalance shows up in the
        #: cohort's response times instead of every shard pretending to
        #: run at mean load.  0 keeps the historical flat model.
        self.load_skew = load_skew
        self._load_factor = {}
        self.detector = SimpleDetector()
        #: (shard, probe class) -> [ewma fail probability, ewma latency]
        self._stats = {
            (shard, op): [0.0, base_latency]
            for shard in self.shards
            for op in PROBE_OPS
        }
        #: Last failure kind seen per shard (colors the cohort's reports).
        self.last_failure_kind = {}
        self._probe_ids = self._assign_probe_ids(ring)
        self.probes_sent = 0
        self.probes_failed = 0

    def _assign_probe_ids(self, ring):
        """One client_id per shard that the ring routes to that shard.

        Searched from a high base so probe ids never collide with session
        indices; deterministic (pure hashing), so jobs=1 ≡ jobs=N holds.
        """
        ids = {}
        pending = set(self.shards)
        candidate = 1_000_000_000
        while pending:
            shard = ring.shard_for(candidate)
            if shard in pending:
                ids[shard] = candidate
                pending.discard(shard)
            candidate += 1
        return ids

    # ------------------------------------------------------------------
    # Elastic resharding hooks
    # ------------------------------------------------------------------
    def add_shard(self, shard):
        """A shard joined the ring: probe it, and re-key *every* probe.

        Ring churn can silently re-route an existing probe id to the new
        shard, so the whole id set is recomputed from the new ring — a
        pure function of ring + shard set, preserving determinism.
        """
        self.shards.append(shard)
        for op in PROBE_OPS:
            self._stats[(shard, op)] = [0.0, self.base_latency]
        self._probe_ids = self._assign_probe_ids(self.ring)

    def remove_shard(self, shard):
        """A shard left: stop probing it, re-key the survivors."""
        self.shards.remove(shard)
        for op in PROBE_OPS:
            self._stats.pop((shard, op), None)
        self.last_failure_kind.pop(shard, None)
        self._load_factor.pop(shard, None)
        self._probe_ids = self._assign_probe_ids(self.ring)

    def shard_fail_rate(self, shard):
        """Worst probe-class failure EWMA for ``shard`` (policy input)."""
        return max(
            (
                stats[0]
                for (s, _op), stats in self._stats.items()
                if s == shard
            ),
            default=0.0,
        )

    def update_load_skew(self, sessions_by_shard):
        """Recompute per-shard latency factors from current session load."""
        if self.load_skew <= 0.0 or not sessions_by_shard:
            self._load_factor = {}
            return
        mean = sum(sessions_by_shard.values()) / len(sessions_by_shard)
        if mean <= 0:
            self._load_factor = {}
            return
        self._load_factor = {
            shard: 1.0 + self.load_skew * (count / mean - 1.0)
            for shard, count in sessions_by_shard.items()
        }

    # ------------------------------------------------------------------
    def start(self, duration, interval=1.0):
        return self.kernel.process(
            self._run(duration, interval), name="probe-model"
        )

    def _run(self, duration, interval):
        end = self.kernel.now + duration
        rounds = 0
        while self.kernel.now < end - 1e-9:
            yield self.kernel.timeout(min(interval, end - self.kernel.now))
            op = PROBE_OPS[rounds % len(PROBE_OPS)]
            for shard in self.shards:
                self.kernel.process(
                    self._probe(shard, op), name=f"probe-{shard}"
                )
            rounds += 1

    def _probe(self, shard, op):
        client_id = self._probe_ids.get(shard)
        if client_id is None:
            # The shard was removed between this probe's spawn and its
            # first step (both in one tick): nothing is left to probe.
            return
        request = HttpRequest(
            url=operation_url(op),
            operation=op,
            params=dict(PROBE_PARAMS.get(op, {})),
            cookie=None,
            idempotent=True,
            client_id=client_id,
        )
        self.probes_sent += 1
        issued = self.kernel.now
        event = self.balancer.handle_request(request)
        patience = self.kernel.timeout(self.probe_timeout)
        try:
            yield self.kernel.any_of([event, patience])
        except Exception:  # noqa: BLE001 - a dead forward = failed probe
            event = None
        if event is not None and event.triggered:
            response = event.value
        else:
            response = None
        elapsed = self.kernel.now - issued
        failure = self.detector.evaluate(request, response)
        stats = self._stats.get((shard, op))
        if stats is None:
            return  # the shard was drained while this probe was in flight
        failed = 1.0 if failure is not None else 0.0
        if self.observer is not None:
            self.observer(
                self.kernel.now, shard, op, failure is None, elapsed
            )
        stats[0] += self.alpha * (failed - stats[0])
        # A timed-out probe's only latency information is the censoring
        # point itself; feeding it keeps the cohort's modeled RT honest
        # about how long failing clicks hold users.
        stats[1] += self.alpha * (elapsed - stats[1])
        if failure is not None:
            self.probes_failed += 1
            self.last_failure_kind[shard] = failure
            if self.reporter is not None:
                self.reporter(
                    FailureReport(
                        time=self.kernel.now,
                        url=request.url,
                        operation=op,
                        kind=failure,
                        detail=(
                            response.body[:80]
                            if response is not None else "probe timeout"
                        ),
                        client_id=request.client_id,
                        cookie=None,
                    ),
                    shard,
                )

    # ------------------------------------------------------------------
    def outcome(self, shard, operation):
        """(fail probability, latency seconds) for one cohort cell."""
        fail_p, latency = self._stats[(shard, OP_PROBE_CLASS[operation])]
        if self._load_factor:
            latency *= self._load_factor.get(shard, 1.0)
        return fail_p, latency


class ShardFault(FaultExecutor):
    """The shardfault arm's schedule, announced as ``megascale.fault``
    (deadlock and brick crash in) and ``megascale.brick.heal``."""

    def _announce(self, event, nodes):
        if event.kind == "brick-crash":
            self.kernel.trace.publish("megascale.fault", shard=event.shard,
                                      fault="deadlock+brick-crash")
        elif event.kind == "brick-heal":
            self.kernel.trace.publish("megascale.brick.heal",
                                      shard=event.shard)


class MegascaleRig:
    """Sharded cluster × cohort engine × probes × recovery pipeline."""

    def __init__(
        self,
        seed=0,
        n_sessions=1_000_000,
        n_shards=128,
        nodes_per_shard=1,
        bricks_per_shard=2,
        duration=240.0,
        tick=1.0,
        fault=False,
        fault_at=60.0,
        fault_shard_index=None,
        brick_heal_after=60.0,
        observability=True,
        cluster_plane=True,
        load_skew=0.0,
    ):
        self.duration = duration
        self.hardening = HardeningPolicy.hardened()
        self.cluster = build_sharded_cluster(
            n_shards,
            nodes_per_shard=nodes_per_shard,
            bricks_per_shard=bricks_per_shard,
            seed=seed,
            dataset=DatasetConfig.tiny(),
            retry_policy=RetryPolicy.retry_only(),
            hardening=self.hardening,
        )
        self.kernel = self.cluster.kernel
        balancer = self.cluster.load_balancer
        shards = self.cluster.shard_names
        self.fault_shard = (
            shards[fault_shard_index if fault_shard_index is not None
                   else len(shards) // 3]
            if fault else None
        )
        shard = self.fault_shard
        self.shard_fault = ShardFault(self.cluster, [
            ChaosEvent(fault_at, "deadlock", shard=shard,
                       target="BrowseCategories"),
            ChaosEvent(fault_at, "brick-crash", shard=shard),
            ChaosEvent(fault_at + brick_heal_after, "brick-heal", shard=shard),
        ], name="megascale") if fault else None

        self.storm_limiter = RecoveryStormLimiter(
            self.kernel,
            limit=self.hardening.storm_limit,
            window=self.hardening.storm_window,
            window_limit=self.hardening.storm_window_limit,
        )
        #: shard -> [RecoveryManager per node of the shard]
        self.rms_by_shard = {}
        self.rms = []
        for shard in shards:
            self._wire_shard_rms(shard, self.cluster.shard_nodes[shard])

        self.reports = 0
        self._rm_cursor = {}
        self.probe_model = ProbeOutcomeModel(
            self.kernel,
            balancer,
            self.cluster.ring,
            shards,
            reporter=self._dispatch_report,
            load_skew=load_skew,
        )
        self.engine = CohortEngine(
            self.kernel,
            self.cluster.rng,
            self.probe_model.outcome,
            n_sessions=n_sessions,
            shards=shards,
            ring=self.cluster.ring,
            tick=tick,
            reporter=self._cohort_report,
        )
        self.metrics = self.engine.metrics

        # Observability: passive TraceBus subscribers; node names embed
        # their shard, so incidents and health scores attribute per shard.
        self.incident_tracker = None
        self.slo_engine = None
        self.health_registry = None
        self.shard_metrics = None
        self.correlator = None
        if observability:
            bus = self.kernel.trace
            bus.enabled = True
            self.incident_tracker = IncidentTracker(
                bus=bus, url_path_map=URL_PATH_MAP
            )
            self.slo_engine = SloEngine(self.metrics, bus=bus)
            hub = EstimatorHub(
                bus=bus,
                tracker=self.incident_tracker,
                url_path_map=URL_PATH_MAP,
            )
            self.health_registry = ComponentHealthRegistry(bus=bus, hub=hub)
            for node in self.cluster.nodes:
                self.health_registry.register(
                    node.system.server.name, COMPONENT_TARGETS
                )
            if cluster_plane:
                self.shard_metrics = ShardMetricsAggregator(
                    bus=bus, cluster=self.cluster
                )
                self.probe_model.observer = self.shard_metrics.observe_probe
                self.correlator = ClusterIncidentCorrelator()

    # ------------------------------------------------------------------
    def _wire_shard_rms(self, shard, nodes):
        """One hardened RecoveryManager per node, LB-coordinated.

        Also the elastic scale-out path: a shard added mid-run gets the
        identical pipeline the boot-time shards got.
        """
        balancer = self.cluster.load_balancer
        members = []
        for node in nodes:
            rm = RecoveryManager(
                self.kernel,
                node.system.coordinator,
                URL_PATH_MAP,
                node_controller=node,
                recurring_limit=60,
                hardening=self.hardening,
                storm_limiter=self.storm_limiter,
            )
            wire_recovery_failover(rm, node, balancer)
            rm.start()
            members.append(rm)
            self.rms.append(rm)
        self.rms_by_shard[shard] = members
        return members

    def _rm_for_shard(self, shard):
        """Rotate reports across the shard's recovery managers."""
        members = self.rms_by_shard[shard]
        cursor = self._rm_cursor.get(shard, 0)
        self._rm_cursor[shard] = (cursor + 1) % len(members)
        return members[cursor % len(members)]

    def _dispatch_report(self, report, shard):
        members = self.rms_by_shard.get(shard)
        if not members:
            return  # the shard was drained while this report was in flight
        self.reports += 1
        self._rm_for_shard(shard).report(report)

    def _cohort_report(self, detail):
        """A materialized cohort failure becomes a real failure report."""
        kind = self.probe_model.last_failure_kind.get(
            detail.shard, FailureKind.HTTP_ERROR
        )
        self._dispatch_report(
            FailureReport(
                time=detail.at,
                url=detail.url,
                operation=detail.operation,
                kind=kind,
                detail=f"cohort session {detail.session_id}@{detail.shard}",
                client_id=detail.session_id,
                cookie=None,
            ),
            detail.shard,
        )

    # ------------------------------------------------------------------
    def _spawn_scenario(self):
        """Hook: start this scenario's fault machinery (subclasses
        override — the storm rig spawns its storm engine and elastic
        policy here)."""
        if self.shard_fault is not None:
            self.shard_fault.start()

    def run(self):
        self.probe_model.update_load_skew(self.engine.shard_sessions)
        self.probe_model.start(self.duration)
        self.engine.start(self.duration)
        self._spawn_scenario()
        horizon = self.duration
        self.kernel.run(until=horizon)
        if self.incident_tracker is not None:
            self.incident_tracker.finalize(horizon)
        if self.slo_engine is not None:
            self.slo_engine.evaluate(horizon)
        if self.shard_metrics is not None:
            self.shard_metrics.collect(self.engine, duration=horizon)
        return self.outcome()

    # ------------------------------------------------------------------
    def shard_health(self):
        """Shard → minimum component health score over its nodes."""
        if self.health_registry is None:
            return {}
        out = {}
        for shard in self.cluster.shard_names:
            scores = [
                self.health_registry.score(component, server=node.name)
                for node in self.cluster.shard_nodes[shard]
                for component in COMPONENT_TARGETS
            ]
            scores = [s for s in scores if s is not None]
            if scores:
                out[shard] = round(min(scores), 1)
        return out

    def outcome(self):
        metrics = self.metrics
        engine = self.engine
        total = metrics.total_requests
        actions = [a for rm in self.rms for a in rm.actions]
        by_level = {}
        for action in actions:
            by_level[action.level] = by_level.get(action.level, 0) + 1
        balancer = self.cluster.load_balancer
        worst = engine.worst_shard()
        shard_rows = engine.shard_summary()
        availabilities = [
            r["availability"] for r in shard_rows
            if r["availability"] is not None
        ]
        out = {
            "sessions": engine.n_sessions,
            "population": engine.population(),
            "shards": len(self.cluster.shard_names),
            "nodes": len(self.cluster.nodes),
            "good_requests": metrics.good_requests,
            "failed_requests": metrics.failed_requests,
            "availability": (
                round(metrics.good_requests / total, 6) if total else None
            ),
            "gaw_per_second": (
                round(metrics.good_requests / self.duration, 1)
                if self.duration else None
            ),
            "worst_shard": worst,
            "healthy_shard_availability": (
                round(
                    sorted(availabilities)[len(availabilities) // 2], 6
                ) if availabilities else None
            ),
            "fault_shard": self.fault_shard,
            "recovery_actions": len(actions),
            "actions_by_level": dict(sorted(by_level.items())),
            "reports": self.reports,
            "cohort_details": engine.total_details,
            "probes_sent": self.probe_model.probes_sent,
            "probes_failed": self.probe_model.probes_failed,
            "requests_failed_over": balancer.requests_failed_over,
            "shard_failover_local": int(
                balancer.metrics.counter("lb.shard.failover.local").value
            ),
            "shard_failover_cross": int(
                balancer.metrics.counter("lb.shard.failover.cross").value
            ),
            "action_mix": {
                name: round(share, 4)
                for name, share in sorted(engine.action_mix().items())
            },
        }
        if self.incident_tracker is not None:
            out["incidents"] = aggregate_incidents(
                self.incident_tracker.incidents
            )
            out["incident_shards"] = sorted(
                {
                    self.cluster.shard_of_node[i.server]
                    for i in self.incident_tracker.incidents
                    if i.server in self.cluster.shard_of_node
                }
            )
        if self.slo_engine is not None:
            out["slo"] = aggregate_slo(self.slo_engine.windows)
        if self.shard_metrics is not None:
            out["cluster"] = self._cluster_outcome()
        health = self.shard_health()
        if health:
            sick = {s: h for s, h in health.items() if h < 100.0}
            out["sick_shards_health"] = dict(sorted(sick.items()))
        return out

    def _cluster_outcome(self):
        """The observability plane's view: rollups and correlation.

        Everything here is derived by passive observers — popping the
        ``cluster`` key must leave an outcome byte-identical to a
        plane-off run (the benchmark gate).
        """
        plane = self.shard_metrics
        policy = getattr(self, "policy", None)
        replacements = (
            [dict(r) for r in policy.replacements] if policy is not None
            else []
        )
        metas = self.correlator.correlate(
            self.incident_tracker.incidents,
            replacements=replacements,
            migrations=plane.migrations,
            shard_of_node=self.cluster.shard_of_node,
            storm=plane.storm,
        )
        return {
            "rollup": plane.rows(),
            "summary": plane.cluster_summary(),
            "meta_incidents": [m.to_dict() for m in metas],
            "unclustered_incidents": self.correlator.unclustered,
        }


def run_one_arm(arm, seed, n_sessions, n_shards, nodes_per_shard, duration):
    rig = MegascaleRig(
        seed=seed,
        n_sessions=n_sessions,
        n_shards=n_shards,
        nodes_per_shard=nodes_per_shard,
        duration=duration,
        fault=(arm == "shardfault"),
    )
    outcome = rig.run()
    outcome["arm"] = arm
    return outcome


#: (sessions, shards, nodes_per_shard, duration) per scale name.
SCALES = {
    "smoke": (50_000, 16, 1, 90.0),
    "standard": (1_000_000, 128, 1, 240.0),
    "full": (2_000_000, 128, 2, 300.0),
}


def run(seed=0, full=False, quick=False, jobs=1, scale=None):
    """Run both megascale arms and render the blast-radius comparison."""
    if scale is None:
        scale = "smoke" if quick else ("full" if full else "standard")
    n_sessions, n_shards, nodes_per_shard, duration = SCALES[scale]

    started = time.monotonic()
    specs = [
        TrialSpec(
            task="repro.experiments.megascale:run_one_arm",
            kwargs={
                "arm": arm,
                "n_sessions": n_sessions,
                "n_shards": n_shards,
                "nodes_per_shard": nodes_per_shard,
                "duration": duration,
            },
            tag=arm,
            seed=seed,
        )
        for arm in ARMS
    ]
    trials = run_campaign(specs, jobs=jobs)
    outcomes = {arm: trial.value for arm, trial in zip(ARMS, trials)}
    wall = time.monotonic() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = ExperimentResult(
        name=f"Megascale: {n_sessions:,} sessions on {n_shards} shards "
             f"({n_shards * nodes_per_shard} nodes), cohort-vectorized "
             "workload, fault at one shard",
        paper_reference="§4 workload + §5.3 failover, at WAN-service scale",
        headers=(
            "arm", "sessions", "availability", "Gaw/s", "worst shard",
            "worst avail", "recoveries", "failovers",
        ),
    )
    for arm in ARMS:
        o = outcomes[arm]
        worst = o["worst_shard"] or {}
        result.rows.append(
            (
                arm,
                f"{o['sessions']:,}",
                o["availability"],
                o["gaw_per_second"],
                worst.get("shard"),
                worst.get("availability"),
                o["recovery_actions"],
                o["requests_failed_over"],
            )
        )
        result.notes.append(
            f"{arm}: {o['probes_sent']} probes ({o['probes_failed']} "
            f"failed), {o['reports']} failure reports "
            f"({o['cohort_details']} from cohort details), recoveries by "
            f"level {o['actions_by_level']}"
        )
        incidents = o.get("incidents")
        if incidents and incidents.get("count"):
            result.notes.append(
                f"{arm}: {incidents['count']} incident(s) at shard(s) "
                f"{o.get('incident_shards')}, mean MTTR "
                f"{incidents['mean_span']}s"
            )
        slo = o.get("slo")
        if slo:
            result.notes.append(
                f"{arm} SLO (30s windows): {slo['violations']}/"
                f"{slo['windows']} violated, min availability "
                f"{slo['min_availability']}"
            )
        sick = o.get("sick_shards_health")
        if sick:
            result.notes.append(f"{arm}: shard health dips {sick}")
        cluster = o.get("cluster")
        if cluster:
            summary = cluster["summary"]
            result.notes.append(
                f"{arm} rollup: cluster probe p50/p99 "
                f"{summary['probe_p50']}/{summary['probe_p99']}s, "
                f"{summary['slo_violations']} shard-SLO window violation(s)"
            )
    steady, faulted = outcomes["steady"], outcomes["shardfault"]
    if steady["availability"] and faulted["availability"]:
        blast = faulted.get("worst_shard") or {}
        result.notes.append(
            "blast radius: cluster availability "
            f"{steady['availability']} → {faulted['availability']} under "
            f"the shard fault; healthy-shard median stayed at "
            f"{faulted['healthy_shard_availability']} while "
            f"{blast.get('shard')} dipped to {blast.get('availability')}"
        )
    result.notes.append(
        f"scale={scale}: wall {wall:.1f}s, peak RSS "
        f"{peak_rss_kb / 1024:.0f} MiB (driver process)"
    )
    return result, outcomes


if __name__ == "__main__":
    print(run(quick=True)[0].render())
