"""The LB-wired rigs' shared parts: the recovery pipeline and the
end-of-run step with its run audit, which `ClusterRig` and
`SingleNodeRig` run too."""

import pytest

from repro.cluster import FailoverMode, build_cluster
from repro.core.hardening import HardeningPolicy
from repro.ebid.schema import DatasetConfig
from repro.experiments import table3
from repro.experiments.chaos import ChaosClusterRig
from repro.experiments.cluster_common import (
    ClusterRig,
    RecoveryPipeline,
    end_run,
)
from repro.experiments.common import (
    RunAuditError,
    SingleNodeRig,
    first_failure,
)
from repro.experiments.megascale import MegascaleRig
from repro.experiments.storm import StormRig
from repro.faults.chaos import COMPONENT_TARGETS, ChaosSpec
from repro.sim import Kernel


def _pipeline(hardening, n_nodes=2):
    cluster = build_cluster(n_nodes, dataset=DatasetConfig.tiny(), seed=3)
    pipeline = RecoveryPipeline(cluster, hardening)
    return cluster, pipeline, pipeline.add(cluster.nodes)


def _failover_records(kernel):
    records = []
    kernel.trace.enabled = True
    kernel.trace.subscribe(
        lambda t, kind, fields: records.append((kind, dict(fields))),
        kinds="lb.failover.*",
    )
    return records


# --- recovery pipeline -------------------------------------------------------

def test_disabled_hardening_builds_no_storm_limiter():
    _cluster, pipeline, rms = _pipeline(HardeningPolicy.disabled())
    assert pipeline.storm_limiter is None
    assert [rm.storm_limiter for rm in rms] == [None, None]


@pytest.mark.parametrize(
    "hardening", [HardeningPolicy.hardened(), HardeningPolicy.parallel()]
)
def test_enabled_hardening_shares_one_storm_limiter(hardening):
    _cluster, pipeline, rms = _pipeline(hardening, n_nodes=3)
    assert pipeline.storm_limiter is not None
    assert all(rm.storm_limiter is pipeline.storm_limiter for rm in rms)
    assert all(rm.hardening is hardening for rm in rms)


def test_add_starts_one_manager_per_node_in_node_order():
    cluster, pipeline, rms = _pipeline(HardeningPolicy.hardened(), n_nodes=3)
    assert [rm.node_controller for rm in rms] == cluster.nodes
    assert pipeline.rms == rms
    more = pipeline.add(cluster.nodes[:1])
    assert pipeline.rms == rms + more
    assert pipeline.outcome() == {
        "recovery_actions": 0, "actions_by_level": {},
    }


def test_each_manager_opens_a_micro_window_for_its_own_node_only():
    cluster, pipeline, rms = _pipeline(HardeningPolicy.hardened())
    kernel, balancer = cluster.kernel, cluster.load_balancer
    records = _failover_records(kernel)
    kernel.run(until=5.0)
    assert records == [] and balancer.recovering_nodes() == set()

    action = rms[1].preempt("ViewItem")
    assert action is not None and action.level == "ejb"
    kernel.run(until=kernel.now + 1e-6)
    assert balancer.recovering_nodes() == {cluster.nodes[1].name}
    kernel.run(until=30.0)
    assert action.finished_at is not None
    assert records == [
        ("lb.failover.begin", {
            "node": cluster.nodes[1].name,
            "mode": FailoverMode.MICRO.value,
            "components": ("ViewItem",),
        }),
        ("lb.failover.end", {"node": cluster.nodes[1].name}),
    ]
    assert balancer.recovering_nodes() == set()
    assert pipeline.outcome() == {
        "recovery_actions": 1, "actions_by_level": {"ejb": 1},
    }


def test_a_shard_added_mid_run_gets_managers_and_health_keys():
    rig = StormRig(
        seed=0, n_sessions=2000, n_shards=4, duration=60.0, elastic=True,
    )
    rig.kernel.run(until=5.0)
    booted = list(rig.rms)
    shard = rig.coordinator.add_shard()
    nodes = rig.cluster.shard_nodes[shard]
    added = rig.rms_by_shard[shard]
    assert [rm.node_controller for rm in added] == nodes
    assert rig.rms == booted + added  # the pipeline's one list
    assert all(
        rm.storm_limiter is rig.recovery.storm_limiter for rm in added
    )
    keys = set(rig.health_registry.keys())
    for node in nodes:
        assert {
            (node.system.server.name, component)
            for component in COMPONENT_TARGETS
        } <= keys

    records = _failover_records(rig.kernel)
    assert added[0].preempt("ViewItem") is not None
    rig.kernel.run(until=rig.kernel.now + 1e-6)
    assert records == [("lb.failover.begin", {
        "node": nodes[0].name, "mode": "micro", "components": ("ViewItem",),
    })]


# --- end-of-run step and run audit -------------------------------------------

def _die(kernel, at=1.0):
    def dies():
        yield kernel.timeout(at)
        raise ZeroDivisionError("probe arithmetic")

    kernel.process(dies(), name="doomed")


def _cluster_rig():
    return ClusterRig(2, 2, seed=0, dataset=DatasetConfig.tiny())


def _single_node_rig():
    return SingleNodeRig(seed=0, n_clients=4, dataset=DatasetConfig.tiny())


#: name -> (build the rig, run it past t = 1 s).
RIGS = {
    "chaos": (lambda: ChaosClusterRig(
        n_nodes=2, clients_per_node=2,
        spec=ChaosSpec(start=5.0, duration=20.0, flap_trains=0, bursts=0,
                       link_faults=0, slowdowns=0, ssm_outages=0),
    ), lambda rig: rig.run(tail=5.0)),
    "chaos-unobserved": (lambda: ChaosClusterRig(
        n_nodes=2, clients_per_node=2, observability=False,
        spec=ChaosSpec(start=5.0, duration=20.0, flap_trains=0, bursts=0,
                       link_faults=0, slowdowns=0, ssm_outages=0),
    ), lambda rig: rig.run(tail=5.0)),
    "megascale": (lambda: MegascaleRig(
        n_sessions=500, n_shards=2, duration=20.0,
    ), lambda rig: rig.run()),
    "cluster-warmup": (_cluster_rig, lambda rig: rig.start(warmup=5.0)),
    "cluster-run-for": (
        _cluster_rig, lambda rig: (rig.start(), rig.run_for(5.0)),
    ),
    "single-node-warmup": (
        _single_node_rig, lambda rig: rig.start(warmup=5.0),
    ),
    "single-node-run-for": (
        _single_node_rig, lambda rig: (rig.start(), rig.run_for(5.0)),
    ),
}


@pytest.mark.parametrize("name", list(RIGS))
def test_run_fails_when_a_kernel_process_died(name):
    build, run = RIGS[name]
    rig = build()
    _die(rig.kernel)
    with pytest.raises(RunAuditError) as excinfo:
        run(rig)
    message = str(excinfo.value)
    assert message.startswith(
        "run audit: 1 kernel process(es) died unhandled; first: "
        "ZeroDivisionError: probe arithmetic at "
    )
    assert "test_cluster_common.py:" in message


def test_table3_audits_its_last_recovery(monkeypatch):
    """A process that dies during the last trial of the last row (a JVM
    restart, which no ``run_for`` follows) fails the run."""

    def rig_dying_in_restarts(**kwargs):
        rig = SingleNodeRig(
            dataset=DatasetConfig.tiny(), **{**kwargs, "n_clients": 4}
        )
        restart = rig.node.restart_jvm

        def restart_jvm():
            _die(rig.kernel)
            yield from restart()

        rig.node.restart_jvm = restart_jvm
        return rig

    monkeypatch.setattr(table3, "SingleNodeRig", rig_dying_in_restarts)
    with pytest.raises(RunAuditError, match="ZeroDivisionError"):
        table3.run(scale="quick")


def test_clean_run_passes_the_audit():
    rig = RIGS["chaos-unobserved"][0]()
    outcome = rig.run(tail=5.0)
    assert rig.kernel.unhandled_failure_count == 0
    assert outcome["good_requests"] > 0


def test_end_run_audits_before_closing_the_consumers():
    kernel = Kernel()
    assert first_failure(kernel) is None

    class Tracker:
        closed_at = None

        def finalize(self, now):
            self.closed_at = now

    tracker = Tracker()
    end_run(kernel, 7.0, tracker)
    assert tracker.closed_at == 7.0

    _die(kernel, at=0.5)
    _die(kernel, at=0.5)
    kernel.run(until=1.0)
    assert first_failure(kernel).startswith(
        "ZeroDivisionError: probe arithmetic at "
    )
    late = Tracker()
    with pytest.raises(RunAuditError, match=r"^run audit: 2 kernel process"):
        end_run(kernel, 1.0, late)
    assert late.closed_at is None
