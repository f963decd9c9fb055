"""Property-based tests: fault schedules are plain data, one executor
applies them.

Schedules are drawn directly as lists of :class:`ChaosEvent` (every kind,
node or shard targets, short horizons, each fault optionally followed by
its heal) and run on tiny client-free clusters, so an example costs a few
milliseconds.  Whatever the list, the executor applies every event once,
in (time, schedule) order, announces each between ``begin`` and ``end``,
and leaves nothing broken once every fault has been healed.  Events are
never written to, so one list replays identically on a second cluster
without disturbing the first executor's timeline.

The schedule builders get the same treatment from drawn spec fields:
valid fields give a sorted schedule inside the fault window plus its
longest tail, and invalid fields raise ``ValueError`` when the spec is
built.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import build_cluster
from repro.cluster.cluster import build_sharded_cluster
from repro.core import RetryPolicy
from repro.ebid.schema import DatasetConfig
from repro.faults.chaos import (
    COMPONENT_FAULTS,
    COMPONENT_KINDS,
    COMPONENT_TARGETS,
    HEALS,
    STORM_KINDS,
    ChaosEvent,
    ChaosSpec,
    FaultExecutor,
    StormSpec,
    chaos_schedule,
    storm_schedule,
)

HORIZON = 30.0
SHARDS = ("shard000", "shard001", "shard002")
PARAMS = {
    "memory-leak": {"bytes": 1024},
    "link": {"delay": 0.1, "drop_rate": 0.5},
    "slowdown": {"hogs": 2},
}


def ssm_cluster():
    """Two nodes sharing one SSM, no clients."""
    return build_cluster(
        2, dataset=DatasetConfig.tiny(), seed=0, session_store="ssm",
        retry_policy=RetryPolicy.retry_only(),
    )


def sharded_cluster():
    """Three one-node shards, two bricks each, no clients."""
    return build_sharded_cluster(
        len(SHARDS), dataset=DatasetConfig.tiny(), seed=0,
        retry_policy=RetryPolicy.retry_only(),
    )


TOPOLOGIES = {
    # name -> (cluster factory, node-level places, store fault kinds)
    "ssm": (ssm_cluster, [{"node": 0}, {"node": 1}], ("ssm-crash",)),
    "sharded": (
        sharded_cluster,
        [{"node": i} for i in range(len(SHARDS))]
        + [{"shard": shard} for shard in SHARDS],
        ("brick-crash",),
    ),
}

times = st.floats(min_value=0.0, max_value=HORIZON)


@st.composite
def schedules(draw, topology):
    """(events, every fault healed?) for one topology of TOPOLOGIES."""
    _factory, places, store_kinds = TOPOLOGIES[topology]
    kinds = COMPONENT_KINDS + ("link", "slowdown")
    events, healed = [], True
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(kinds + store_kinds))
        if kind == "brick-crash":
            place = {"shard": draw(st.sampled_from(SHARDS))}
        elif kind == "ssm-crash":
            place = {}
        else:
            place = draw(st.sampled_from(places))
        at = draw(times)
        events.append(ChaosEvent(
            at, kind, params=PARAMS.get(kind, {}),
            target=(
                draw(st.sampled_from(COMPONENT_TARGETS))
                if kind in COMPONENT_KINDS else None
            ),
            **place,
        ))
        if kind in HEALS:
            if draw(st.booleans()):
                heal_at = at + draw(st.floats(min_value=0.0, max_value=10.0))
                events.append(ChaosEvent(heal_at, HEALS[kind], **place))
            else:
                healed = False
    return events, healed


def run(cluster, events, offset=0.0):
    """Apply ``events`` on ``cluster`` from ``offset``; (executor, trace)."""
    records = []
    bus = cluster.kernel.trace
    bus.enabled = True
    bus.subscribe(
        lambda t, kind, fields: records.append((t, kind, fields)),
        kinds="faults.*",
    )
    cluster.kernel.run(until=offset)
    executor = FaultExecutor(
        cluster, events, trace="faults",
        drop_rng=random.Random(0),
    )
    executor.start(events=len(executor.schedule))
    cluster.kernel.run(until=2 * HORIZON + 20.0)
    return executor, records


def nothing_left_broken(cluster):
    assert not cluster.load_balancer._link_faults
    for node in cluster.nodes:
        assert node.slowdown_hogs == 0
        assert node.system.server.cpu.active_jobs == 0
    if cluster.ssm is not None:
        assert not cluster.ssm.crashed
    for group in getattr(cluster, "shard_groups", {}).values():
        assert not any(brick.crashed for brick in group.bricks)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), topology=st.sampled_from(sorted(TOPOLOGIES)))
def test_executor_applies_a_drawn_schedule_once_in_order(data, topology):
    events, healed = data.draw(schedules(topology))
    factory = TOPOLOGIES[topology][0]
    cluster = factory()
    executor, records = run(cluster, events)

    order = sorted(range(len(events)), key=lambda i: events[i].time)
    assert [entry.event for entry in executor.applied] == [
        events[i] for i in order
    ]
    assert all(
        entry.event is events[i] for entry, i in zip(executor.applied, order)
    )
    assert all(
        math.isclose(entry.applied_at, entry.event.time, abs_tol=1e-9)
        for entry in executor.applied
    )
    assert sum(executor.counts.values()) == len(events)
    assert [kind for _t, kind, _f in records] == (
        ["faults.begin"] + ["faults.event"] * len(events) + ["faults.end"]
    )
    assert [f["kind"] for _t, kind, f in records[1:-1]] == [
        events[i].kind for i in order
    ]
    if healed:
        nothing_left_broken(cluster)

    # Events are plain data: the same list replays identically on a
    # fresh cluster, and a replay that applies it at other times (from
    # t=HORIZON on, so early events land late) leaves the first
    # executor's timeline as it was.
    first = executor.timeline()
    assert run(factory(), events)[0].timeline() == first
    late, _records = run(factory(), events, offset=HORIZON)
    assert all(entry.applied_at >= HORIZON for entry in late.applied)
    assert executor.timeline() == first


# ----------------------------------------------------------------------
# Builders from drawn spec fields
# ----------------------------------------------------------------------
durations = st.floats(min_value=0.0, max_value=120.0)

chaos_specs = st.builds(
    ChaosSpec,
    duration=st.floats(min_value=0.0, max_value=600.0),
    start=st.floats(min_value=0.0, max_value=60.0),
    flap_trains=st.integers(min_value=0, max_value=3),
    flap_pulses=st.integers(min_value=0, max_value=8),
    flap_interval=st.floats(min_value=0.0, max_value=20.0),
    bursts=st.integers(min_value=0, max_value=3),
    burst_size=st.integers(min_value=0, max_value=6),
    link_faults=st.integers(min_value=0, max_value=2),
    link_duration=durations,
    slowdowns=st.integers(min_value=0, max_value=2),
    slowdown_duration=durations,
    ssm_outages=st.integers(min_value=0, max_value=2),
    ssm_outage_duration=durations,
    burst_same_node=st.booleans(),
    burst_fault=st.sampled_from((None,) + COMPONENT_FAULTS),
    leak_faults=st.integers(min_value=0, max_value=4),
    leak_bytes=st.integers(min_value=0, max_value=1 << 20),
    leak_start_fraction=st.floats(min_value=0.0, max_value=1.0),
)


def assert_sorted_inside(events, start, end):
    times = [event.time for event in events]
    assert times == sorted(times)
    assert all(start <= t <= end + 1e-9 for t in times)


@settings(max_examples=60, deadline=None)
@given(
    spec=chaos_specs,
    seed=st.integers(min_value=0, max_value=2**32),
    n_nodes=st.integers(min_value=1, max_value=4),
    with_ssm=st.booleans(),
)
def test_chaos_schedule_is_sorted_inside_its_window(spec, seed, n_nodes,
                                                    with_ssm):
    events = chaos_schedule(spec, random.Random(seed), n_nodes, with_ssm)
    # The longest tail past the window: a heal's delay, or a flap train's
    # pulses after its start (drawn in the window's first half).
    tail = max(
        spec.link_duration, spec.slowdown_duration,
        spec.ssm_outage_duration,
        (spec.flap_pulses - 1) * spec.flap_interval,
    )
    assert_sorted_inside(events, spec.start, spec.start + spec.duration + tail)
    assert all(0 <= event.node < n_nodes
               for event in events if event.node is not None)
    assert with_ssm or not any(e.kind.startswith("ssm-") for e in events)
    # Pure: the same stream state gives the same list.
    again = chaos_schedule(spec, random.Random(seed), n_nodes, with_ssm)
    assert again == events


@st.composite
def storm_specs(draw):
    k_shards = draw(st.integers(min_value=0, max_value=6))
    duration = draw(st.floats(min_value=1.0, max_value=300.0))
    # Short enough that the last onset precedes the horizon.
    limit = 0.999 * duration / (k_shards - 1) if k_shards > 1 else 60.0
    wave = draw(st.floats(min_value=0.0, max_value=limit))
    return StormSpec(
        start=draw(st.floats(min_value=0.0, max_value=100.0)),
        duration=duration,
        k_shards=k_shards,
        wave_interval=wave,
        kinds=tuple(draw(st.lists(
            st.sampled_from(STORM_KINDS), min_size=1, max_size=6,
        ))),
        pulse_interval=draw(st.floats(min_value=0.5, max_value=60.0)),
    )


@settings(max_examples=60, deadline=None)
@given(spec=storm_specs())
def test_storm_schedule_is_sorted_inside_its_window(spec):
    struck = [f"shard{i:03d}" for i in range(spec.k_shards)]
    events = storm_schedule(spec, struck)
    # Heals land exactly at the horizon: no tail past the window.
    assert_sorted_inside(events, spec.start, spec.start + spec.duration)
    assert {event.shard for event in events} <= set(struck)
    for event in events:
        if event.kind in HEALS:
            heals = [e for e in events if e.kind == HEALS[event.kind]
                     and e.shard == event.shard]
            assert heals and heals[0].time >= event.time


invalid_fields = st.one_of(
    st.tuples(st.just(ChaosSpec), st.just("burst_fault"),
              st.text(max_size=12).filter(
                  lambda s: s not in COMPONENT_FAULTS)),
    st.tuples(st.just(ChaosSpec), st.sampled_from(
        ("duration", "flap_interval", "link_duration", "slowdown_duration",
         "ssm_outage_duration", "leak_start_fraction")),
        st.floats(max_value=-1e-3)),
    st.tuples(st.just(ChaosSpec), st.just("leak_start_fraction"),
              st.floats(min_value=1.001, max_value=10.0)),
    st.tuples(st.just(StormSpec), st.just("pulse_interval"),
              st.floats(max_value=0.0)),
    st.tuples(st.just(StormSpec), st.just("duration"),
              st.floats(max_value=0.0)),
    st.tuples(st.just(StormSpec), st.just("kinds"), st.one_of(
        st.just(()),
        st.lists(st.text(max_size=10), min_size=1, max_size=3).filter(
            lambda kinds: not set(kinds) <= set(STORM_KINDS)).map(tuple),
    )),
    st.tuples(st.just(StormSpec), st.just("wave_interval"), st.one_of(
        st.floats(max_value=-1e-3),
        # The default K=8 storm of 120 s: a wave of 120/7 s or more puts
        # the last onset at or past the horizon.
        st.floats(min_value=18.0, max_value=1e6),
    )),
)


@settings(max_examples=60, deadline=None)
@given(case=invalid_fields)
def test_invalid_spec_fields_raise_naming_the_field(case):
    spec_class, name, value = case
    with pytest.raises(ValueError, match=name):
        spec_class(**{name: value})
