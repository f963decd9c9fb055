"""The trace rings' flat rows against a reference that keeps each record as
a `TraceEvent` and its payload dict: drawn records must read back the same,
from `events()` and from `write_timeline`."""

import os
import tempfile
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.telemetry.export import write_timeline
from repro.telemetry.trace import (
    STICKY_PREFIXES,
    TraceBus,
    TraceEvent,
    _Subscription,
)


class Clock:
    """Stands in for a kernel: only ``now`` is read."""

    now = 0.0


class ReferenceBus:
    """The rings as they were: one `TraceEvent` with its dict per record."""

    def __init__(self, clock, capacity, sticky_capacity, label):
        self.clock = clock
        self.label = label
        self._buffer = deque(maxlen=capacity)
        self._sticky = deque(maxlen=sticky_capacity)
        self._seq = 0
        self.published = 0

    def publish(self, kind, /, **fields):
        event = TraceEvent(self.clock.now, self._seq, kind, fields)
        self._seq += 1
        self.published += 1
        self._buffer.append(event)
        if kind.startswith(STICKY_PREFIXES):
            self._sticky.append(event)
        return event

    @property
    def dropped(self):
        return self.published - len(self._buffer)

    @property
    def complete_from(self):
        return self._buffer[0].t if self._buffer else 0.0

    def events(self, kinds=None):
        if not self._sticky:
            ordered = list(self._buffer)
        else:
            merged = {event.seq: event for event in self._sticky}
            merged.update((event.seq, event) for event in self._buffer)
            ordered = [merged[seq] for seq in sorted(merged)]
        if kinds is None:
            return ordered
        matcher = _Subscription(None, kinds)
        return [e for e in ordered if matcher.matches(e.kind)]


KINDS = (
    "rm.decision", "lb.failover", "alert.fired", "chaos.burst",  # sticky
    "request.end", "span", "path.end", "x",
)
KEYS = ("t", "seq", "kind", "bus", "x_t", "node", "ok", "duration", "url")
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
#: A record: time step, kind, then its payload in publication order.
RECORDS = st.tuples(
    st.sampled_from((0.0, 0.0, 0.25, 1.5)),
    st.sampled_from(KINDS),
    st.lists(st.tuples(st.sampled_from(KEYS), VALUES),
             max_size=5, unique_by=lambda item: item[0]),
)
FILTERS = (
    None, "rm.*", "request.end", ("lb.failover", "x"), ("span", "chaos.*"),
)


def view(events):
    """What a reader sees: envelope, payload pairs in order, and types."""
    return [
        (type(e), e.t, e.seq, e.kind, list(e.fields.items())) for e in events
    ]


def timeline(bus):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "timeline.jsonl")
        written = write_timeline(path, [bus])
        with open(path, "rb") as fh:
            return written, fh.read()


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(RECORDS, max_size=40),
    capacity=st.integers(min_value=1, max_value=12),
    sticky_capacity=st.integers(min_value=1, max_value=6),
)
def test_rows_read_back_as_the_reference_records(
    records, capacity, sticky_capacity
):
    clock = Clock()
    small = type("SmallBus", (TraceBus,), {"STICKY_CAPACITY": sticky_capacity})
    bus = small(clock, capacity=capacity, enabled=True, label="b")
    reference = ReferenceBus(clock, capacity, sticky_capacity, label="b")
    for step, kind, payload in records:
        clock.now += step
        published = bus.publish(kind, **dict(payload))
        expected = reference.publish(kind, **dict(payload))
        assert view([published]) == view([expected])

    for kinds in FILTERS:
        assert view(bus.events(kinds)) == view(reference.events(kinds))
    assert bus.published == reference.published
    assert bus.dropped == reference.dropped
    assert bus.complete_from == reference.complete_from
    assert timeline(bus) == timeline(reference)

    # Each read builds its own payload dicts.
    first = bus.events()
    for event in first:
        event.fields["scribble"] = 1
    assert view(bus.events()) == view(reference.events())
