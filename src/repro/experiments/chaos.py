"""Chaos campaign: the seed recovery pipeline vs the hardened one.

The paper's evaluation injects one fault at a time; this experiment runs
the :mod:`repro.faults.chaos` engine against a 3-node SSM cluster — flap
trains, correlated fault bursts, LB link degradation, node slowdown, and an
SSM brick outage, all overlapping — twice, from the same seed:

* **seed** arm: the paper's pipeline exactly as §4 describes it (per-node
  recovery managers, no backoff, no quarantine, no storm limiting, no load
  shedding);
* **hardened** arm: identical rig, but with
  :class:`~repro.core.hardening.HardeningPolicy` enabled — exponential
  per-target µRB backoff, flap-detection quarantine, one cluster-wide
  :class:`~repro.core.hardening.RecoveryStormLimiter`, and graceful
  degradation at the load balancer;
* **parallel-recovery** arm: the hardened rig with the recovery managers
  running the dependency-aware parallel scheduler
  (:class:`~repro.core.recovery_graph.RecoveryGraph`), so independent
  components on one node microreboot concurrently instead of queueing
  behind each other's escalation ladder.

Every arm replays the *identical* precomputed fault schedule (the chaos
engine draws from dedicated RNG streams), so the only difference is how
the recovery pipeline responds.  The headline comparison is goodput: the
hardened pipeline should fail fewer client requests *and* execute fewer
recovery actions — recovering less, and recovering better — while the
parallel arm should additionally shrink the recovery phase of
multi-component incidents.
"""

from repro.cluster.cluster import build_cluster
from repro.core.hardening import HardeningPolicy
from repro.core.proactive import ProactiveRejuvenationPolicy
from repro.core.recovery_manager import FailureKind
from repro.core.retry import RetryPolicy
from repro.ebid.descriptors import URL_PATH_MAP
from repro.experiments.common import ExperimentResult
from repro.experiments.cluster_common import RecoveryPipeline, end_run
from repro.faults.chaos import COMPONENT_TARGETS, ChaosEngine, ChaosSpec
from repro.observability import (
    IncidentTracker,
    SloEngine,
    aggregate_incidents,
    aggregate_slo,
    alert_lead_times,
    max_concurrent_actions,
    median,
    predictive_chain,
)
from repro.parallel import run_arms
from repro.workload.client import ClientPopulation
from repro.workload.markov import WorkloadProfile

ARMS = ("seed", "hardened", "parallel-recovery")


class ChaosClusterRig:
    """N nodes + LB + SSM + per-node recovery managers + chaos engine."""

    def __init__(
        self,
        seed=0,
        n_nodes=3,
        clients_per_node=30,
        hardened=False,
        parallel=False,
        spec=None,
        observability=True,
        prediction=None,
    ):
        if prediction not in (None, "shadow", "proactive"):
            raise ValueError(f"unknown prediction mode {prediction!r}")
        if prediction is not None and not observability:
            raise ValueError("prediction requires observability")
        if parallel:
            # The parallel scheduler rides on the hardened safeguards (the
            # storm limiter is its global concurrency cap).
            hardening = HardeningPolicy.parallel()
        elif hardened:
            hardening = HardeningPolicy.hardened()
        else:
            hardening = HardeningPolicy.disabled()
        self.cluster = build_cluster(
            n_nodes,
            seed=seed,
            session_store="ssm",
            retry_policy=RetryPolicy.retry_only(),
            hardening=hardening,
        )
        self.kernel = self.cluster.kernel
        self.recovery = RecoveryPipeline(self.cluster, hardening)
        self.rms = self.recovery.add(self.cluster.nodes)

        self.reports = []
        self.population = ClientPopulation(
            self.kernel,
            self.cluster.load_balancer,
            self.cluster.dataset,
            n_clients=n_nodes * clients_per_node,
            rng_registry=self.cluster.rng,
            profile=WorkloadProfile(),
            reporter=self._dispatch_report,
        )
        self.metrics = self.population.metrics

        self.engine = ChaosEngine(self.cluster, spec=spec)

        # Incident stitching + rolling SLOs, and with prediction the
        # estimators → health scores → alert rules behind them.  All are
        # passive TraceBus subscribers, so turning them on changes what
        # the run *reports*, never what it *does* — the determinism and
        # hardening-gate contracts hold with observability enabled.  They
        # need the bus publishing, so enabling them enables tracing on
        # this kernel.
        self.incident_tracker = None
        self.slo_engine = None
        self.health_registry = None
        self.alert_engine = None
        bus = self.kernel.trace
        if observability:
            bus.enabled = True
            if prediction is None:
                self.incident_tracker = IncidentTracker(
                    bus=bus, url_path_map=URL_PATH_MAP
                )
            else:
                self.incident_tracker, _hub, self.health_registry = (
                    predictive_chain(URL_PATH_MAP, bus=bus)
                )
                self.alert_engine = self.health_registry.alert_engine
            self.slo_engine = SloEngine(self.metrics, bus=bus)

        # The proactive policy turns alerts into RecoveryManager.preempt()
        # calls.  In "shadow" mode the stack observes and alerts but the
        # policy never acts, so the workload outcome must be
        # byte-identical to the plain arm — that passivity is what the
        # prediction benchmark gates on.
        self.prediction = prediction
        self.policies = []
        if prediction is not None:
            for node in self.cluster.nodes:
                self.health_registry.register(
                    node.system.server.name, COMPONENT_TARGETS
                )
            for rm in self.rms:
                policy = ProactiveRejuvenationPolicy(
                    self.kernel,
                    rm,
                    engine=self.alert_engine,
                    shadow=(prediction == "shadow"),
                )
                policy.start()
                self.policies.append(policy)

    def _dispatch_report(self, report):
        """Deliver a failure report to the node that served the client."""
        self.reports.append(report)
        node = self.cluster.load_balancer.node_for_session(report.cookie)
        if node is None:
            index = report.client_id % len(self.cluster.nodes)
        else:
            index = self.cluster.nodes.index(node)
        self.rms[index].report(report)

    # ------------------------------------------------------------------
    def run(self, tail=60.0):
        """Start clients + chaos, run past the fault window, return stats."""
        spec = self.engine.spec
        self.population.start()
        self.engine.start()
        horizon = spec.start + spec.duration + tail
        self.kernel.run(until=horizon)
        end_run(self.kernel, horizon, self.incident_tracker,
                self.slo_engine, self.health_registry)
        return self.outcome()

    def outcome(self):
        metrics = self.metrics
        balancer = self.cluster.load_balancer
        registries = [rm.metrics for rm in self.rms]
        total = metrics.total_requests
        storm_limiter = self.recovery.storm_limiter
        return {
            "good_requests": metrics.good_requests,
            "failed_requests": metrics.failed_requests,
            "availability": (
                round(metrics.good_requests / total, 4) if total else None
            ),
            **self.recovery.outcome(),
            "errored_actions": sum(
                1 for a in self.recovery.actions() if not a.ok
            ),
            "reports": len(self.reports),
            "deferred": sum(
                int(r.counter("rm.backoff.deferred").value)
                for r in registries
            ),
            "quarantines": sum(
                int(r.counter("rm.quarantine.count").value)
                for r in registries
            ),
            "storm_denied": (
                storm_limiter.denied if storm_limiter is not None else 0
            ),
            "requests_shed": balancer.requests_shed,
            "link_dropped": int(
                balancer.metrics.counter("lb.link.dropped").value
            ),
            "humans_notified": sum(1 for rm in self.rms if rm.human_notified),
            "max_concurrent_recoveries": max(
                (
                    max_concurrent_actions(
                        (a.decided_at, a.finished_at)
                        for a in rm.actions
                        if a.finished_at is not None
                    )
                    for rm in self.rms
                ),
                default=0,
            ),
            "chaos_events": dict(sorted(self.engine.counts.items())),
            "chaos_timeline": self.engine.timeline(),
            **self._observability_outcome(),
        }

    def _observability_outcome(self):
        if self.incident_tracker is None:
            return {}
        incidents = self.incident_tracker.incidents
        windows = self.slo_engine.windows
        return {
            "incidents": aggregate_incidents(incidents),
            "incident_records": [i.to_dict() for i in incidents],
            "slo": aggregate_slo(windows),
            "slo_violations_live": len(self.slo_engine.live_violations),
            **self._prediction_outcome(incidents),
        }

    def _prediction_outcome(self, incidents):
        if self.alert_engine is None:
            return {}
        alerts = self.alert_engine.alerts
        leads = alert_lead_times(alerts, incidents)
        preemptive = sum(
            1 for a in self.recovery.actions()
            if a.trigger is FailureKind.PREDICTED
        )
        return {
            "prediction_mode": self.prediction,
            "alerts_fired": len(alerts),
            "alert_records": [a.to_dict() for a in alerts],
            "alert_lead_times": leads,
            "median_alert_lead": median(leads),
            "preemptive_actions": preemptive,
            "policy_stats": [p.stats() for p in self.policies],
        }


def run_one_arm(arm, seed, n_nodes, clients_per_node, spec_name, tail):
    specs = {"smoke": ChaosSpec.smoke, "standard": ChaosSpec.standard}
    spec = specs[spec_name]()
    rig = ChaosClusterRig(
        seed=seed,
        n_nodes=n_nodes,
        clients_per_node=clients_per_node,
        hardened=(arm != "seed"),
        parallel=(arm == "parallel-recovery"),
        spec=spec,
    )
    outcome = rig.run(tail=tail)
    outcome["arm"] = arm
    return outcome


#: Nodes, clients per node, the chaos preset (``ChaosSpec.smoke`` or
#: ``.standard``) and the quiet tail after its fault window, per scale.
SCALES = {
    "quick": {"n_nodes": 2, "clients_per_node": 20, "spec_name": "smoke",
              "tail": 40.0},
    "bench": {"n_nodes": 3, "clients_per_node": 30, "spec_name": "standard",
              "tail": 60.0},
    "full": {"n_nodes": 3, "clients_per_node": 60, "spec_name": "standard",
             "tail": 60.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Run the chaos campaign under both pipelines and compare goodput."""
    outcomes = run_arms(
        "repro.experiments.chaos:run_one_arm",
        ARMS,
        SCALES[scale],
        seed,
        jobs,
    )

    result = ExperimentResult(
        name="Availability under correlated chaos: seed pipeline vs "
             "hardened pipeline (backoff + quarantine + storm limiting + "
             "load shedding) vs hardened + parallel recovery",
        paper_reference="§5.1 fault model, extended to correlated faults",
        headers=(
            "pipeline", "good reqs", "failed reqs", "availability",
            "recoveries", "max conc", "deferred", "quarantines",
            "storm denied", "shed",
        ),
    )
    for arm in ARMS:
        o = outcomes[arm]
        result.rows.append(
            (
                arm,
                o["good_requests"],
                o["failed_requests"],
                o["availability"],
                o["recovery_actions"],
                o["max_concurrent_recoveries"],
                o["deferred"],
                o["quarantines"],
                o["storm_denied"],
                o["requests_shed"],
            )
        )
        result.notes.append(
            f"{arm} actions by level: {o['actions_by_level']}"
        )
        incidents = o.get("incidents")
        if incidents:
            means = incidents["mean_phases"]
            result.notes.append(
                f"{arm} incidents: {incidents['count']} "
                f"(closed by {incidents['closed_by']}), mean MTTR "
                f"{incidents['mean_span']}s = {means.get('detection')}s "
                f"detect + {means.get('diagnosis')}s diagnose + "
                f"{means.get('recovery')}s recover + "
                f"{means.get('residual')}s residual"
            )
        slo = o.get("slo")
        if slo:
            result.notes.append(
                f"{arm} SLO (30s windows): {slo['violations']}/"
                f"{slo['windows']} violated, min availability "
                f"{slo['min_availability']}, mean Gaw {slo['mean_gaw']}/s, "
                f"max burn {slo['max_burn']}"
            )

    seed_arm, hardened = outcomes["seed"], outcomes["hardened"]
    result.notes.append(
        "chaos schedule ({} events): {}".format(
            sum(seed_arm["chaos_events"].values()),
            seed_arm["chaos_events"],
        )
    )
    if (
        hardened["failed_requests"] < seed_arm["failed_requests"]
        and hardened["recovery_actions"] < seed_arm["recovery_actions"]
    ):
        result.notes.append(
            "hardened pipeline survived the same fault schedule with "
            f"{seed_arm['failed_requests'] - hardened['failed_requests']} "
            "fewer failed requests and "
            f"{seed_arm['recovery_actions'] - hardened['recovery_actions']} "
            "fewer recovery actions"
        )
    par = outcomes["parallel-recovery"]
    par_means = (par.get("incidents") or {}).get("mean_phases", {})
    hard_means = (hardened.get("incidents") or {}).get("mean_phases", {})
    if (
        par_means.get("recovery") is not None
        and hard_means.get("recovery") is not None
    ):
        result.notes.append(
            "parallel-recovery arm: peak within-node recovery concurrency "
            f"{par['max_concurrent_recoveries']} "
            f"(hardened {hardened['max_concurrent_recoveries']}), mean "
            f"recovery phase {par_means['recovery']}s vs hardened "
            f"{hard_means['recovery']}s"
        )
    return result, outcomes
