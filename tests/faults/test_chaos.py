"""Tests for the fault executor and its engines: deterministic schedules,
applied faults, construction-time validation, pins of every shipped
schedule, and the injector's timestamped ``fault.injected`` log."""

import dataclasses
import hashlib

import pytest

from repro.cluster import build_cluster
from repro.core import RetryPolicy
from repro.ebid.schema import DatasetConfig
from repro.faults.chaos import (
    ChaosEngine,
    ChaosEvent,
    ChaosSpec,
    FaultExecutor,
    ShardStormEngine,
    StormSpec,
    chaos_schedule,
    storm_schedule,
)
from repro.faults.injector import FaultInjector, InjectedFault
from repro.sim.rng import RngRegistry


def make_cluster(seed=0):
    return build_cluster(
        2, dataset=DatasetConfig.tiny(), seed=seed, session_store="ssm",
        retry_policy=RetryPolicy.retry_only(),
    )


def schedule_key(engine):
    return [
        (round(e.time, 9), e.kind, e.node, e.target)
        for e in engine.schedule
    ]


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = ChaosEngine(make_cluster(seed=7), spec=ChaosSpec.smoke())
        b = ChaosEngine(make_cluster(seed=7), spec=ChaosSpec.smoke())
        assert schedule_key(a) == schedule_key(b)

    def test_different_seed_different_schedule(self):
        a = ChaosEngine(make_cluster(seed=7), spec=ChaosSpec.smoke())
        b = ChaosEngine(make_cluster(seed=8), spec=ChaosSpec.smoke())
        assert schedule_key(a) != schedule_key(b)

    def test_smoke_spec_covers_every_fault_class(self):
        engine = ChaosEngine(make_cluster(), spec=ChaosSpec.smoke())
        kinds = {e.kind for e in engine.schedule}
        assert {"link", "link-heal", "slowdown", "slowdown-heal",
                "ssm-crash", "ssm-restart"} <= kinds
        # Flap trains and bursts draw from the component fault kinds.
        assert kinds & {"transient-exception", "deadlock", "infinite-loop"}

    def test_schedule_is_sorted_and_inside_window(self):
        spec = ChaosSpec.smoke()
        engine = ChaosEngine(make_cluster(), spec=spec)
        times = [e.time for e in engine.schedule]
        assert times == sorted(times)
        assert all(t >= spec.start for t in times)


class TestEngineRun:
    def test_engine_applies_whole_schedule(self):
        cluster = make_cluster()
        spec = ChaosSpec.smoke()
        engine = ChaosEngine(cluster, spec=spec)
        engine.start()
        cluster.kernel.run(until=spec.start + spec.duration + 60.0)
        assert len(engine.applied) == len(engine.schedule)
        assert sum(engine.counts.values()) == len(engine.schedule)
        assert all(e.applied_at is not None for e in engine.applied)
        timeline = engine.timeline()
        assert len(timeline) == len(engine.schedule)
        assert all(
            entry["time"] >= spec.start for entry in timeline
        )

    def test_component_faults_land_in_injector_logs(self):
        cluster = make_cluster()
        spec = ChaosSpec.smoke()
        engine = ChaosEngine(cluster, spec=spec)
        expected = sum(
            1 for e in engine.schedule
            if e.kind in ("transient-exception", "deadlock", "infinite-loop")
        )
        engine.start()
        cluster.kernel.run(until=spec.start + spec.duration + 60.0)
        logged = [
            entry
            for injector in engine.injectors.values()
            for entry in injector.injected
        ]
        assert len(logged) == expected


class TestInjectorLog:
    def test_injection_is_timestamped_and_published(self):
        cluster = make_cluster()
        kernel = cluster.kernel
        injector = FaultInjector(cluster.nodes[0].system)
        published = []
        kernel.trace.enabled = True
        kernel.trace.subscribe(
            lambda t, kind, fields: published.append(fields),
            kinds=("fault.injected",),
        )

        def driver():
            yield kernel.timeout(12.5)
            injector.inject_transient_exception("ViewItem")

        kernel.process(driver())
        kernel.run(until=20.0)

        assert injector.injected == [
            InjectedFault("transient-exception", "ViewItem", 12.5)
        ]
        assert published and published[0]["target"] == "ViewItem"


# ----------------------------------------------------------------------
# Multi-shard storms
# ----------------------------------------------------------------------
def make_sharded(seed=0, n_shards=8):
    from repro.cluster.cluster import build_sharded_cluster

    return build_sharded_cluster(
        n_shards, seed=seed, dataset=DatasetConfig.tiny(),
        retry_policy=RetryPolicy.retry_only(),
    )


class TestShardStorm:
    def test_same_seed_same_storm_schedule(self):
        from repro.faults.chaos import ShardStormEngine, StormSpec

        spec = StormSpec.smoke()
        a = ShardStormEngine(make_sharded(seed=11), spec=spec)
        b = ShardStormEngine(make_sharded(seed=11), spec=spec)
        c = ShardStormEngine(make_sharded(seed=12), spec=spec)
        assert a.storm_shards == b.storm_shards
        assert a.planned_schedule() == b.planned_schedule()
        assert a.planned_schedule() != c.planned_schedule()

    def test_storm_strikes_k_distinct_shards_with_cycled_kinds(self):
        from repro.faults.chaos import STORM_KINDS, ShardStormEngine, StormSpec

        spec = StormSpec.smoke()
        engine = ShardStormEngine(make_sharded(), spec=spec)
        assert len(set(engine.storm_shards)) == spec.k_shards == 4
        kinds = [engine.shard_kind(s) for s in engine.storm_shards]
        assert kinds == list(STORM_KINDS)  # one of each at K=4
        assert engine.shard_kind("not-struck") is None
        # Every event inside the storm window; heals exactly at horizon.
        horizon = spec.start + spec.duration
        for entry in engine.planned_schedule():
            if entry["kind"].endswith("-heal"):
                assert entry["time"] == horizon
            else:
                assert spec.start <= entry["time"] < horizon

    def test_rolling_wave_staggered_onsets(self):
        from repro.faults.chaos import ShardStormEngine, StormSpec

        spec = StormSpec(start=10.0, duration=40.0, k_shards=4,
                         wave_interval=5.0)
        engine = ShardStormEngine(make_sharded(), spec=spec)
        onsets = {}
        for entry in engine.planned_schedule():
            if not entry["kind"].endswith("-heal"):
                onsets.setdefault(entry["shard"], entry["time"])
        assert sorted(onsets.values()) == [10.0, 15.0, 20.0, 25.0]

    def test_storm_applies_and_heals_on_a_live_cluster(self):
        from repro.faults.chaos import ShardStormEngine, StormSpec

        cluster = make_sharded()
        spec = StormSpec(start=5.0, duration=30.0, k_shards=4)
        engine = ShardStormEngine(cluster, spec=spec)
        engine.start()
        cluster.kernel.run(until=60.0)
        assert len(engine.applied) == len(engine.schedule)
        assert {"deadlock", "link", "link-heal", "brick-crash",
                "brick-heal", "slowdown", "slowdown-heal"} <= set(
                    engine.counts)
        # Deadlock re-injected as a pulse train, not a one-shot.
        assert engine.counts["deadlock"] == len(
            [e for e in engine.schedule if e.kind == "deadlock"]
        ) >= 2
        # Everything healed: no link faults or hogs left behind.
        assert not cluster.load_balancer._link_faults
        for shard in engine.storm_shards:
            assert not cluster.shard_groups[shard].crashed
        assert engine.timeline()[-1]["time"] == spec.start + spec.duration

    def test_storm_rejects_k_beyond_cluster(self):
        import pytest

        from repro.faults.chaos import ShardStormEngine, StormSpec

        with pytest.raises(ValueError):
            ShardStormEngine(
                make_sharded(n_shards=2),
                spec=StormSpec(k_shards=4),
            )


# ----------------------------------------------------------------------
# Malformed specs and schedules fail at construction
# ----------------------------------------------------------------------
class TestValidation:
    def test_chaos_spec_rejects_an_unknown_burst_fault(self):
        # Unchecked, the engine process died at the first burst and
        # applied none of the schedule.
        with pytest.raises(ValueError, match="burst_fault"):
            ChaosSpec(burst_fault="deadlok")

    @pytest.mark.parametrize("interval", [0, 0.0, -15.0])
    def test_storm_spec_rejects_a_non_positive_pulse_interval(self, interval):
        # Unchecked, the deadlock pulse loop never advanced.
        with pytest.raises(ValueError, match="pulse_interval"):
            StormSpec(pulse_interval=interval)

    @pytest.mark.parametrize("kinds", [(), ("deadlock", "meteor")])
    def test_storm_spec_rejects_empty_or_unknown_kinds(self, kinds):
        with pytest.raises(ValueError, match="kinds"):
            StormSpec(kinds=kinds)

    def test_storm_spec_rejects_a_wave_past_the_horizon(self):
        # Shard 7 would fault at 60 + 7 * 20 s, after its heal at 180 s.
        with pytest.raises(ValueError, match="wave_interval"):
            StormSpec(wave_interval=20.0)

    @pytest.mark.parametrize("name", ["link_duration", "flap_interval"])
    def test_chaos_spec_rejects_a_negative_duration(self, name):
        with pytest.raises(ValueError, match=name):
            ChaosSpec(**{name: -1.0})

    def test_executor_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="not a fault kind"):
            FaultExecutor(make_cluster(), [
                ChaosEvent(5.0, "deadlok", node=0, target="ViewItem"),
            ])

    def test_executor_rejects_a_component_fault_without_target(self):
        with pytest.raises(ValueError, match="target"):
            FaultExecutor(make_cluster(), [
                ChaosEvent(5.0, "deadlock", node=0),
            ])

    def test_executor_rejects_a_node_outside_the_cluster(self):
        for node in (2, -1):
            with pytest.raises(ValueError, match="node"):
                FaultExecutor(make_cluster(), [
                    ChaosEvent(5.0, "slowdown-heal", node=node),
                ])

    def test_executor_rejects_a_brick_fault_without_shard(self):
        with pytest.raises(ValueError, match="shard"):
            FaultExecutor(make_sharded(n_shards=2), [
                ChaosEvent(5.0, "brick-crash"),
            ])

    @pytest.mark.parametrize("time", [float("inf"), float("nan")])
    def test_executor_rejects_a_time_it_would_never_reach(self, time):
        with pytest.raises(ValueError, match="finite time"):
            FaultExecutor(make_cluster(), [
                ChaosEvent(time, "link-heal", node=0),
            ])

    def test_executor_rejects_an_unknown_shard_or_a_missing_ssm(self):
        with pytest.raises(ValueError, match="shard"):
            FaultExecutor(make_cluster(), [
                ChaosEvent(5.0, "link-heal", shard="shard000"),
            ])
        with pytest.raises(ValueError, match="SSM"):
            FaultExecutor(make_sharded(n_shards=2), [
                ChaosEvent(5.0, "ssm-crash"),
            ])

    def test_events_are_frozen_and_timed_in_the_executor_log(self):
        cluster = make_cluster()
        event = ChaosEvent(5.0, "link-heal", node=1)
        executor = FaultExecutor(cluster, [event])
        executor.start()
        cluster.kernel.run(until=10.0)
        assert executor.applied == [(5.0, event)]
        assert executor.timeline() == [
            {"time": 5.0, "kind": "link-heal", "node": 1, "target": None}
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 6.0


# ----------------------------------------------------------------------
# Every shipped schedule, pinned
# ----------------------------------------------------------------------
def schedule_digest(events, struck=()):
    """Times (as ``repr``), kinds, places, targets, params and the struck
    shards of a schedule."""
    digest = hashlib.sha256(repr(tuple(struck)).encode())
    for e in events:
        digest.update(repr((
            repr(e.time), e.kind, e.node, e.shard, e.target,
            sorted(e.params.items()),
        )).encode())
    return digest.hexdigest()[:16]


#: (preset, seed) -> digest, recorded before the chaos engine, the storm
#: engine and megascale's fault script became one executor.
CHAOS_PINS = {
    ("smoke", 0): "45816cbe786b5780",
    ("standard", 0): "9f824df4e6e198b6",
    ("multiburst", 0): "296a77ce7f4918fa",
    ("leaky", 0): "167799f605d725af",
    ("smoke", 7): "c383e360868f5c83",
    ("standard", 7): "7f21c69bed093667",
    ("multiburst", 7): "dcd4823ed2b8d9cf",
    ("leaky", 7): "4b546eb10a771382",
}
STORM_SPECS = {
    "smoke": StormSpec.smoke(),
    "standard": StormSpec.standard(),
    "wave": StormSpec(start=10.0, duration=40.0, k_shards=4,
                      wave_interval=5.0),
}
STORM_PINS = {
    ("smoke", 0): "2abee988a87dce52",
    ("standard", 0): "e016006177cd2682",
    ("wave", 0): "26151d78851cafe1",
    ("smoke", 7): "fb8355afcbdcc9b4",
    ("standard", 7): "d352c005c62565f0",
    ("wave", 7): "1f1f1ab4ab564fc7",
}


@pytest.mark.parametrize("preset,seed", sorted(CHAOS_PINS))
def test_shipped_chaos_schedule_matches_its_pin(preset, seed):
    """On a 3-node SSM cluster; the pure builder gives the same list."""
    cluster = build_cluster(
        3, dataset=DatasetConfig.tiny(), seed=seed, session_store="ssm",
    )
    spec = getattr(ChaosSpec, preset)()
    engine = ChaosEngine(cluster, spec=spec)
    assert schedule_digest(engine.schedule) == CHAOS_PINS[preset, seed]
    rng = RngRegistry(seed).stream("chaos")
    assert chaos_schedule(spec, rng, 3, with_ssm=True) == list(
        engine.schedule)


@pytest.mark.parametrize("preset,seed", sorted(STORM_PINS))
def test_shipped_storm_schedule_matches_its_pin(preset, seed):
    """On a 16-shard cluster; the builder draws nothing itself."""
    spec = STORM_SPECS[preset]
    engine = ShardStormEngine(make_sharded(seed=seed, n_shards=16), spec)
    assert schedule_digest(
        engine.schedule, engine.storm_shards
    ) == STORM_PINS[preset, seed]
    assert storm_schedule(spec, engine.storm_shards) == list(engine.schedule)
