"""Property tests for `capture_to_jsonl`: whatever the buses built inside a
capture publish, in whatever interleaving, the file holds each bus's
records as its own section in bus-creation order, each record where it
was published, in the timeline line format; nothing published outside
the block, or by a bus built before it, is written."""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.telemetry import TraceBus, capture_to_jsonl

#: A subscriber on every bus answers this kind by publishing NESTED.
NEST, NESTED = "nest", "nested"
KINDS = ("request.end", "rm.decision", "span", NEST)
KEYS = ("t", "seq", "kind", "bus", "x_t", "node", "ok", "duration")
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
PAYLOADS = st.lists(
    st.tuples(st.sampled_from(KEYS), VALUES),
    max_size=5, unique_by=lambda item: item[0],
)
#: One step: build a bus (with a label or none), or publish on one of the
#: buses built so far (picked modulo their count) at a time step.
STEPS = st.one_of(
    st.tuples(st.just("new"), st.sampled_from((None, "", "run", "b1"))),
    st.tuples(
        st.just("publish"), st.integers(min_value=0, max_value=7),
        st.sampled_from((0.0, 0.0, 0.25, 1.5)), st.sampled_from(KINDS),
        PAYLOADS,
    ),
)


class Clock:
    now = 0.0


def reference(sections):
    """The timeline of ``[(bus id, [(t, kind, payload pairs)])]``."""
    lines = []
    for bus_id, records in sections:
        for seq, (t, kind, payload) in enumerate(records):
            line = {"t": t, "seq": seq, "kind": kind, "bus": bus_id}
            for key, value in payload:
                line["x_" + key if key in ("t", "seq", "kind", "bus")
                     else key] = value
            lines.append(json.dumps(line) + "\n")
    return "".join(lines).encode()


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(STEPS, max_size=40), nested=PAYLOADS)
def test_capture_writes_what_a_reference_writer_writes(steps, nested):
    clock = Clock()
    before = TraceBus(clock, enabled=True)
    buses, sections = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "timeline.jsonl")
        with capture_to_jsonl(path):
            for step in steps:
                if step[0] == "new":
                    bus = TraceBus(clock, label=step[1])
                    bus.subscribe(
                        lambda t, kind, fields, bus=bus: bus.publish(
                            NESTED, **dict(nested)),
                        kinds=NEST,
                    )
                    buses.append(bus)
                    sections.append((step[1] or len(buses) - 1, []))
                    continue
                if not buses:
                    continue
                _, which, dt, kind, payload = step
                which %= len(buses)
                clock.now += dt
                buses[which].publish(kind, **dict(payload))
                before.publish(kind, **dict(payload))
                records = sections[which][1]
                records.append((clock.now, kind, payload))
                if kind == NEST:
                    records.append((clock.now, NESTED, nested))
        assert [bus.published for bus in buses] == [
            len(records) for _bus_id, records in sections
        ]
        for bus in buses:  # the writers are detached: nothing more lands
            bus.publish(NEST)
        with open(path, "rb") as fh:
            written = fh.read()
        assert os.listdir(tmp) == ["timeline.jsonl"]
    assert written == reference(sections)
