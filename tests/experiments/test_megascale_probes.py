"""The per-shard probe model under ring churn, and the shardfault arm's
fault from injection to brick heal."""

import hashlib
import json

from repro.cluster.sharding import ShardRing
from repro.experiments.megascale import (
    PROBE_OPS,
    MegascaleRig,
    ProbeOutcomeModel,
)
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


def canonical(value):
    """JSON-ready copy of an outcome with string keys, for digesting."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def digest(value):
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_shard_fault_injects_then_heals_its_brick():
    """The only run that reaches the brick heal: quick megascale ends at
    90 s, before the heal at 120 s.  Records, kernel event count and
    outcome digest were recorded before the fault became a schedule on
    the shared fault executor."""
    rig = MegascaleRig(
        seed=0, n_sessions=2000, n_shards=4, duration=130.0, fault=True
    )
    records = []

    def record(t, kind, fields):
        records.append((t, kind, list(fields.items())))

    rig.kernel.trace.subscribe(
        record, kinds=("fault.injected", "ssm.*", "megascale.*")
    )
    outcome = rig.run()
    assert records == [
        (60.0, "fault.injected", [
            ("fault", "deadlock"), ("target", "BrowseCategories"),
            ("server", "shard001-n1"),
        ]),
        (60.0, "ssm.crash", [("store", "shard001/ssm/brick0")]),
        (60.0, "megascale.fault", [
            ("shard", "shard001"), ("fault", "deadlock+brick-crash"),
        ]),
        (120.0, "ssm.restart", [
            ("store", "shard001/ssm/brick0"), ("missed_reads", 0),
            ("dropped_writes", 0),
        ]),
        (120.0, "megascale.brick.heal", [("shard", "shard001")]),
    ]
    assert rig.kernel.unhandled_failure_count == 0
    assert rig.kernel.events_processed == 9923
    assert digest(outcome) == "9e94e0acf7647d55"
