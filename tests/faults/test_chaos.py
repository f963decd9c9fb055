"""Tests for the chaos engine: deterministic schedules, applied faults,
and the injector's timestamped ``fault.injected`` log."""

from repro.cluster import build_cluster
from repro.core import RetryPolicy
from repro.ebid.schema import DatasetConfig
from repro.faults.chaos import ChaosEngine, ChaosSpec
from repro.faults.injector import FaultInjector, InjectedFault


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
            for injector in engine.injectors
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
