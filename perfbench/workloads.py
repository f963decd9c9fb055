"""The benchmark's workloads, built from the public experiment rigs.

Each workload is a closed loop inside the simulation (every emulated
client or cohort session waits for its reply and a think time before its
next click) and is a list of arms.  An arm builds one rig from the seed
(the set-up phase), runs it to its outcome (the run phase), and reads the
program's own counters afterwards.  Sizes are fixed here so that a
repetition takes a few host seconds; they are not the paper's sizes.
"""

from repro.cluster.load_balancer import FailoverMode
from repro.experiments.chaos import ChaosClusterRig
from repro.experiments.cluster_common import ClusterRig
from repro.experiments.storm import StormRig
from repro.faults.chaos import ChaosSpec, StormSpec

# paper_failover: Figure 4 / Table 4 shape at doubled load, scaled down.
FAILOVER_NODES = 2
FAILOVER_CLIENTS_PER_NODE = 600
FAILOVER_WARMUP = 45.0
FAILOVER_OBSERVE = 75.0

# chaos_recovery: the chaos campaign's and prediction experiment's sizes.
CHAOS_NODES, CHAOS_CLIENTS_PER_NODE, CHAOS_TAIL = 3, 30, 60.0
LEAKY_NODES, LEAKY_CLIENTS_PER_NODE, LEAKY_TAIL = 2, 20, 60.0
LEAKY_BYTES, LEAKY_DURATION = 36 * 1024 * 1024, 420.0

# cohort_storm: sessions and shards sized so set-up and run take seconds.
STORM_SESSIONS = 150_000
STORM_SHARDS = 24
STORM_DURATION = 100.0
STORM_K_SHARDS = 4

#: Chaos and storm event kinds that undo a fault rather than inject one.
HEAL_KINDS = frozenset(
    {"link-heal", "slowdown-heal", "brick-heal", "ssm-restart"}
)


class Arm:
    """One rig of a workload: ``build`` then ``run``, then counters."""

    name = None
    rig = None

    def build(self, seed):
        raise NotImplementedError

    def run(self):
        """Drive the rig to completion; returns its outcome dict."""
        raise NotImplementedError

    def injected(self):
        """Fault injections applied during the run."""
        return 0

    def cohort(self):
        """The arm's cohort engine, or None for per-client arms."""
        return None

    def check(self, outcome):
        """Names of the output invariants this arm's run violates."""
        metrics = self.rig.metrics
        problems = []
        if metrics.total_requests <= 0:
            problems.append("no requests completed")
        good = sum(metrics.good_taw_series().values())
        bad = sum(metrics.bad_taw_series().values())
        if (good, bad) != (outcome["good_requests"], outcome["failed_requests"]):
            problems.append(
                f"good+failed != total: per-second series hold {good}+{bad}, "
                f"outcome says {outcome['good_requests']}"
                f"+{outcome['failed_requests']}"
            )
        return problems


class _PerClientArm(Arm):
    def check(self, outcome):
        problems = super().check(outcome)
        recorded = sum(len(a.operations) for a in self.rig.metrics.actions)
        if recorded != self.rig.metrics.total_requests:
            problems.append(
                f"good+failed != total: {recorded} operations recorded, "
                f"{self.rig.metrics.total_requests} accounted"
            )
        return problems


class FailoverArm(_PerClientArm):
    """Node 0 fails BrowseCategories, is failed over and JVM-restarted."""

    name = "restart"

    def build(self, seed):
        self.rig = ClusterRig(
            FAILOVER_NODES, FAILOVER_CLIENTS_PER_NODE, seed=seed
        )
        self.injector = None

    def run(self):
        rig = self.rig
        rig.start(warmup=FAILOVER_WARMUP)
        inject_at = rig.kernel.now
        self.injector = rig.injector_for(0)
        self.injector.inject_transient_exception("BrowseCategories")
        recovery = rig.script_recovery(
            rig.cluster.nodes[0],
            "process-restart",
            components=("BrowseCategories",),
            failover=FailoverMode.FULL,
            inject_at=inject_at,
        )
        rig.run_for(FAILOVER_OBSERVE)
        metrics = rig.metrics
        balancer = rig.cluster.load_balancer
        return {
            "good_requests": metrics.good_requests,
            "failed_requests": metrics.failed_requests,
            "good_actions": metrics.good_actions,
            "failed_actions": metrics.failed_actions,
            "failures_by_kind": metrics.failures_by_kind,
            "over_8s": metrics.response_times_over(8.0),
            "mean_response_time": metrics.mean_response_time(),
            "response_time_series": metrics.response_time_series(1.0),
            "good_series": metrics.good_taw_series(),
            "bad_series": metrics.bad_taw_series(),
            "inject_at": inject_at,
            "recovery": dict(recovery),
            "routed": balancer.requests_routed,
            "failed_over": balancer.requests_failed_over,
            "responses_by_status": [
                node.system.server.responses_by_status
                for node in rig.cluster.nodes
            ],
        }

    def injected(self):
        return len(self.injector.injected) if self.injector else 0


class ChaosArm(_PerClientArm):
    """One arm of the chaos campaign or of the prediction experiment."""

    def __init__(self, name, hardened=False, parallel=False, leaky=False):
        self.name = name
        self.hardened = hardened
        self.parallel = parallel
        self.leaky = leaky

    def build(self, seed):
        if self.leaky:
            self.rig = ChaosClusterRig(
                seed=seed,
                n_nodes=LEAKY_NODES,
                clients_per_node=LEAKY_CLIENTS_PER_NODE,
                hardened=True,
                spec=ChaosSpec.leaky(
                    leak_bytes=LEAKY_BYTES, duration=LEAKY_DURATION
                ),
                prediction="proactive",
            )
        else:
            self.rig = ChaosClusterRig(
                seed=seed,
                n_nodes=CHAOS_NODES,
                clients_per_node=CHAOS_CLIENTS_PER_NODE,
                hardened=self.hardened,
                parallel=self.parallel,
                spec=ChaosSpec.standard(),
            )

    def run(self):
        return self.rig.run(tail=LEAKY_TAIL if self.leaky else CHAOS_TAIL)

    def injected(self):
        return _injections(self.rig.engine)


class StormArm(Arm):
    """One arm of the storm scenario on the cohort engine."""

    def __init__(self, name, storm=False, elastic=False):
        self.name = name
        self.storm = storm
        self.elastic = elastic

    def build(self, seed):
        self.rig = StormRig(
            seed=seed,
            n_sessions=STORM_SESSIONS,
            n_shards=STORM_SHARDS,
            duration=STORM_DURATION,
            storm=self.storm,
            elastic=self.elastic,
            storm_spec=StormSpec(
                start=20.0, duration=60.0, k_shards=STORM_K_SHARDS
            ),
        )

    def run(self):
        return self.rig.run()

    def injected(self):
        engine = self.rig.storm_engine
        return _injections(engine) if engine is not None else 0

    def cohort(self):
        return self.rig.engine

    def check(self, outcome):
        problems = super().check(outcome)
        engine = self.rig.engine
        population = engine.population()
        if population != engine.n_sessions:
            problems.append(
                f"population not conserved: {population} sessions "
                f"(in transit {engine.in_transit()}) of {engine.n_sessions}"
            )
        rows = engine.shard_summary()
        clicks = sum(r["good"] + r["bad"] for r in rows)
        if clicks != outcome["good_requests"] + outcome["failed_requests"]:
            problems.append(
                f"good+failed != total: shards hold {clicks} clicks"
            )
        return problems


def _injections(engine):
    return sum(
        n for kind, n in engine.counts.items() if kind not in HEAL_KINDS
    )


#: workload -> factory of its arms (BENCHMARK.json says why each exists).
WORKLOADS = {
    "paper_failover": lambda: [FailoverArm()],
    "chaos_recovery": lambda: [
        ChaosArm("seed"),
        ChaosArm("hardened", hardened=True),
        ChaosArm("parallel-recovery", parallel=True),
        ChaosArm("proactive", leaky=True),
    ],
    "cohort_storm": lambda: [
        StormArm("steady"),
        StormArm("storm", storm=True),
        StormArm("storm+elastic", storm=True, elastic=True),
    ],
}
