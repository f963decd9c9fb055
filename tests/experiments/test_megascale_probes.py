"""The per-shard probe model under ring churn."""

from repro.cluster.sharding import ShardRing
from repro.experiments.megascale import PROBE_OPS, ProbeOutcomeModel
from repro.sim import Kernel


class UnusedBalancer:
    def handle_request(self, request):
        raise AssertionError(f"probe of a removed shard sent {request.url}")


def test_probe_of_a_shard_removed_before_its_first_step_exits_quietly():
    """A probe spawned in the tick its shard leaves must not die.

    The probe round spawns one probe process per shard; elastic
    resharding can remove a shard in the same tick, before the probe's
    first step runs.
    """
    kernel = Kernel()
    shards = ["shard000", "shard001", "shard002"]
    ring = ShardRing(shards)
    model = ProbeOutcomeModel(kernel, UnusedBalancer(), ring, shards)
    probe = kernel.process(model._probe("shard001", PROBE_OPS[0]))
    model.remove_shard("shard001")
    kernel.run()
    assert kernel.unhandled_failure_count == 0
    assert probe.ok
    assert model.probes_sent == 0
