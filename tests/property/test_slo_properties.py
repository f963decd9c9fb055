"""Property-based tests: the live SLO judge reads each record once.

``SloEngine`` judges window ``k`` from the response times recorded since
its previous window plus those it read before and that a later window can
still hold.  Each window must be judged on exactly the set a scan over
every record of the run would give at the same moment.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.observability import slo
from repro.observability.slo import SloEngine, SloPolicy
from repro.workload.metrics import ActionRecord, OperationRecord, TawAccounting


@st.composite
def runs(draw):
    """Steps of a run: clock advances, each maybe landing an action."""
    width = draw(st.sampled_from((0.5, 1.0, 3.0, 7.5, 30.0)))
    t_start = draw(st.sampled_from((0.0, 0.25, 4.0)))
    op = st.tuples(
        # How far back the operation is stamped: up to three windows
        # (actions land after their operations), or exactly on the start
        # of the window 0..3 windows back.
        st.floats(min_value=0.0, max_value=3.0) | st.integers(0, 3),
        st.booleans(),  # completed (else stamped at issue)
        st.booleans(),  # ok
        st.none() | st.floats(0.0, 20.0),  # response time
    )
    steps = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=3.0 * width),
            st.none() | st.lists(op, max_size=3),
        ),
        max_size=40,
    )
    return width, t_start, draw(steps)


def operation(clock, width, t_start, back, completed, ok, response_time):
    if isinstance(back, int):
        stamp = t_start + (int((clock - t_start) // width) - back) * width
    else:
        stamp = clock - back * width
    return OperationRecord(
        operation="X", url="/x", issued_at=stamp,
        completed_at=stamp if completed else None,
        ok=ok, response_time=response_time,
    )


@settings(max_examples=300, deadline=None)
@given(run=runs())
def test_incremental_judge_sees_what_a_full_scan_sees(run):
    width, t_start, steps = run
    taw = TawAccounting()
    engine = SloEngine(taw, policy=SloPolicy(window=width), t_start=t_start)
    judged = []
    build_window = slo._build_window

    def checked(start, end, good_series, bad_series, window_rts, policy):
        scanned = [rt for when, rt in taw.response_times if start <= when < end]
        judged.append((start, sorted(window_rts), sorted(scanned)))
        return build_window(start, end, good_series, bad_series,
                            window_rts, policy)

    clock = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slo, "_build_window", checked)
        for i, (advance, ops) in enumerate(steps):
            clock += advance
            if ops is not None:
                action = ActionRecord(name=f"A{i}", client_id=i, started_at=0.0)
                action.operations = [
                    operation(clock, width, t_start, *spec) for spec in ops
                ]
                taw.record_action(action)
            engine.feed(clock, "request.end", {})

    assert [start for start, _, _ in judged] == [
        t_start + k * width for k in range(len(judged))
    ]
    for _start, incremental, scanned in judged:
        assert incremental == scanned
