"""Property-based tests: Taw accounting invariants."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.metrics import ActionRecord, OperationRecord, TawAccounting


@st.composite
def action_batches(draw):
    n_actions = draw(st.integers(min_value=0, max_value=25))
    actions = []
    clock = 0.0
    for i in range(n_actions):
        n_ops = draw(st.integers(min_value=1, max_value=5))
        action = ActionRecord(name=f"A{i}", client_id=i, started_at=clock)
        for _ in range(n_ops):
            issued = clock
            clock += draw(st.floats(min_value=0.01, max_value=5.0))
            record = OperationRecord(
                operation=draw(
                    st.sampled_from(("Op", "ViewItem", "CommitBid"))
                ),
                url="/x",
                issued_at=issued,
                completed_at=clock,
                ok=draw(st.booleans()),
                response_time=clock - issued,
                failure_kind=draw(
                    st.sampled_from((None, "", "http-error", "timeout"))
                ),
                functional_group="G",
            )
            action.operations.append(record)
        actions.append(action)
    return actions


@settings(max_examples=150, deadline=None)
@given(actions=action_batches())
def test_every_operation_is_counted_exactly_once(actions):
    metrics = TawAccounting()
    for action in actions:
        metrics.record_action(action)
    total_ops = sum(len(a.operations) for a in actions)
    assert metrics.total_requests == total_ops
    series_total = sum(metrics.good_taw_series().values()) + sum(
        metrics.bad_taw_series().values()
    )
    assert series_total == total_ops
    # The failure dicts are counted from the failed rows: same counts, in
    # the order each operation or kind first failed; no kind, no count.
    failed = [
        op for action in metrics.actions for op in action.operations
        if not op.ok
    ]
    by_operation = Counter(op.operation for op in failed)
    by_kind = Counter(op.failure_kind for op in failed if op.failure_kind)
    assert metrics.failures_by_operation == by_operation
    assert list(metrics.failures_by_operation) == list(by_operation)
    assert metrics.failures_by_kind == by_kind
    assert list(metrics.failures_by_kind) == list(by_kind)


def accounting_state(metrics):
    """Everything a refused action must leave as it was."""
    return (
        [(a.name, a.client_id, a.started_at, a.operations)
         for a in metrics.actions],
        metrics.good_requests, metrics.failed_requests,
        metrics.good_actions, metrics.failed_actions,
        metrics.good_taw_series(), metrics.bad_taw_series(),
    )


@settings(max_examples=150, deadline=None)
@given(
    actions=action_batches(),
    bad=action_batches().filter(bool).map(lambda batch: batch[0]),
    data=st.data(),
)
def test_a_non_finite_time_is_refused_whole(actions, bad, data):
    metrics = TawAccounting()
    for action in actions:
        metrics.record_action(action)
    before = accounting_state(metrics)
    op = data.draw(st.sampled_from(bad.operations))
    field = data.draw(
        st.sampled_from(("issued_at", "completed_at", "response_time"))
    )
    setattr(op, field, data.draw(st.sampled_from((math.inf, -math.inf,
                                                  math.nan))))
    with pytest.raises(ValueError):
        metrics.record_action(bad)
    assert accounting_state(metrics) == before


@settings(max_examples=150, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.floats(0.0, 100.0), st.integers(0, 1_000)),
        max_size=8,
    ),
    idle=st.floats(0.0, 100.0),
    at=st.integers(0, 8),
)
def test_batch_mean_is_the_sum_of_times_over_their_count(calls, idle, at):
    calls.insert(min(at, len(calls)), (idle, 0))
    metrics = TawAccounting()
    for seconds, n in calls:
        metrics.record_response_times(seconds, n)
    # Added one call at a time, in call order (3.12's sum() would
    # compensate the rounding and move the last bits).
    total = 0.0
    for seconds, n in calls:
        total += seconds * n
    count = sum(n for _seconds, n in calls)
    expected = total / count if count else None
    assert metrics.mean_response_time() == expected
    assert metrics.response_times == []


@settings(max_examples=150, deadline=None)
@given(actions=action_batches())
def test_atomicity_any_failure_poisons_the_action(actions):
    metrics = TawAccounting()
    for action in actions:
        metrics.record_action(action)
    expected_good = sum(
        len(a.operations) for a in actions if all(o.ok for o in a.operations)
    )
    assert metrics.good_requests == expected_good
    assert metrics.good_actions + metrics.failed_actions == len(actions)


@settings(max_examples=150, deadline=None)
@given(actions=action_batches())
def test_windows_tile_the_series(actions):
    metrics = TawAccounting()
    for action in actions:
        metrics.record_action(action)
    completed = [
        op.completed_at for a in actions for op in a.operations
    ]
    horizon = int(max(completed, default=0)) + 20
    good = bad = 0
    for start in range(0, horizon + 10, 10):
        g, b = metrics.requests_in_window(start, start + 10)
        good += g
        bad += b
    assert good == metrics.good_requests
    assert bad == metrics.failed_requests


@settings(max_examples=150, deadline=None)
@given(actions=action_batches())
def test_group_unavailability_spans_are_disjoint_and_ordered(actions):
    metrics = TawAccounting()
    for action in actions:
        metrics.record_action(action)
    spans = metrics.group_unavailability("G")
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 < s2  # disjoint, sorted
    for start, end in spans:
        assert end > start


# ----------------------------------------------------------------------
# Per-request views are derived from ``actions``
# ----------------------------------------------------------------------

@st.composite
def varied_operations(draw):
    """An operation that may lack a completion, a response time, or both."""
    issued = draw(st.floats(min_value=0.0, max_value=500.0))
    completed = draw(
        st.none() | st.floats(min_value=issued, max_value=issued + 40.0)
    )
    return OperationRecord(
        operation=draw(st.sampled_from(("ViewItem", "CommitBid"))),
        url="/x",
        issued_at=issued,
        completed_at=completed,
        ok=draw(st.booleans()),
        response_time=draw(st.none() | st.floats(0.0, 40.0)),
        functional_group=draw(st.sampled_from(("G", "H"))),
    )


@st.composite
def varied_actions(draw):
    actions = []
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        action = ActionRecord(name=f"A{i}", client_id=i, started_at=0.0)
        action.operations = draw(st.lists(varied_operations(), max_size=4))
        actions.append(action)
    return actions


def reference_views(actions):
    """The lists ``record_action`` used to append to, built the same way."""
    response_times, failure_intervals = [], []
    for action in actions:
        for op in action.operations:
            when = op.completed_at if op.completed_at is not None else op.issued_at
            if op.response_time is not None:
                response_times.append((when, op.response_time))
            if not op.ok:
                failure_intervals.append(
                    (op.functional_group, op.issued_at, when)
                )
    return response_times, failure_intervals


@settings(max_examples=150, deadline=None)
@given(actions=varied_actions(), start=st.integers(min_value=0, max_value=14))
def test_views_equal_the_lists_record_action_used_to_build(actions, start):
    metrics = TawAccounting()
    for action in actions:
        metrics.record_action(action)
    response_times, failure_intervals = reference_views(actions)
    assert metrics.response_times == response_times
    assert metrics.failure_intervals == failure_intervals
    assert list(metrics.timed_requests(start)) == (
        reference_views(actions[start:])[0]
    )


# ----------------------------------------------------------------------
# The columns give back what was recorded
# ----------------------------------------------------------------------

#: The Taw loop buckets every stamp with int(), so times are finite.
times = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**40), 2**40)
)


@st.composite
def any_operations(draw):
    """An operation with every field drawn, None wherever one may be."""
    return OperationRecord(
        operation=draw(st.sampled_from(("ViewItem", "CommitBid", ""))),
        url=draw(st.sampled_from(("/ebid/ViewItem", "/x"))),
        issued_at=draw(times),
        completed_at=draw(st.none() | times),
        ok=draw(st.booleans()),
        response_time=draw(st.none() | times),
        failure_kind=draw(st.sampled_from((None, "", "http-500", "timeout"))),
        functional_group=draw(st.sampled_from((None, "G", "H"))),
        retries=draw(st.integers(min_value=0, max_value=65_535)),
    )


@st.composite
def any_actions(draw):
    return [
        ActionRecord(
            name=draw(st.sampled_from(("Login", "PlaceBid", ""))),
            client_id=draw(st.integers(-(2**63), 2**63 - 1)),
            started_at=draw(times),
            operations=draw(st.lists(any_operations(), max_size=4)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=12)))
    ]


FIELDS = (
    "operation", "url", "issued_at", "completed_at", "ok", "response_time",
    "failure_kind", "functional_group", "retries",
)


def assert_same_action(got, want):
    assert (got.name, got.client_id, got.started_at) == (
        want.name, want.client_id, want.started_at
    )
    assert len(got.operations) == len(want.operations)
    for got_op, want_op in zip(got.operations, want.operations):
        for name in FIELDS:
            value, expected = getattr(got_op, name), getattr(want_op, name)
            if expected is None:
                assert value is None, name
            else:
                # Integer times read back as equal floats; nothing else
                # may change, not even None into "" or a bool into an int.
                assert value == expected, name
                assert type(value) is type(expected) or (
                    type(expected) is int and type(value) is float
                ), name


@settings(max_examples=150, deadline=None)
@given(actions=any_actions())
def test_actions_read_back_what_was_recorded(actions):
    metrics = TawAccounting()
    for action in actions:
        metrics.record_action(action)
    view = metrics.actions
    assert len(view) == len(actions)
    for got, want in zip(view, actions):
        assert_same_action(got, want)
    for i in range(1, len(actions) + 1):
        assert_same_action(view[-i], actions[-i])
        assert_same_action(view[len(actions) - i], actions[-i])
    for bad in (len(actions), -len(actions) - 1):
        with pytest.raises(IndexError):
            view[bad]
    # Fresh copies: changing one writes nothing back.
    if actions and actions[0].operations:
        view[0].operations[0].ok = not actions[0].operations[0].ok
        view[0].operations.clear()
        assert_same_action(view[0], actions[0])
