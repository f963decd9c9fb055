"""Unit tests for the heap model and leak attribution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.appserver.errors import OutOfMemoryError_
from repro.appserver.memory import OWNER_SERVER, HeapModel

MB = 1024 * 1024


def make_heap(capacity=100 * MB, baseline=10 * MB):
    return HeapModel(capacity=capacity, baseline=baseline)


def test_initial_accounting():
    heap = make_heap()
    assert heap.available == 90 * MB
    assert heap.used == 10 * MB
    assert heap.leaked_total == 0


def test_baseline_cannot_exceed_capacity():
    with pytest.raises(ValueError):
        HeapModel(capacity=10, baseline=11)


def test_default_baseline_is_fraction_of_capacity():
    heap = HeapModel(capacity=1000)
    assert heap.baseline == 130


def test_leak_reduces_available():
    heap = make_heap()
    heap.leak("ViewItem", 5 * MB)
    assert heap.available == 85 * MB
    assert heap.leaked_by("ViewItem") == 5 * MB


def test_negative_leak_rejected():
    with pytest.raises(ValueError):
        make_heap().leak("X", -1)


def test_leaks_accumulate_per_owner():
    heap = make_heap()
    heap.leak("A", MB)
    heap.leak("A", 2 * MB)
    heap.leak("B", 4 * MB)
    assert heap.leaked_by("A") == 3 * MB
    assert heap.leaked_by("B") == 4 * MB
    assert heap.leaked_total == 7 * MB


def test_owners_sorted_by_leak():
    heap = make_heap()
    heap.leak("small", MB)
    heap.leak("big", 10 * MB)
    heap.leak("mid", 5 * MB)
    assert heap.owners_by_leak() == ["big", "mid", "small"]


def test_release_owner_frees_and_reports():
    heap = make_heap()
    heap.leak("A", 8 * MB)
    assert heap.release_owner("A") == 8 * MB
    assert heap.leaked_by("A") == 0
    assert heap.available == 90 * MB


def test_release_unknown_owner_is_zero():
    assert make_heap().release_owner("ghost") == 0


def test_release_application_frees_only_listed():
    heap = make_heap()
    heap.leak("A", MB)
    heap.leak("B", MB)
    heap.leak(OWNER_SERVER, MB)
    freed = heap.release_application(["A", "B"])
    assert freed == 2 * MB
    assert heap.leaked_by(OWNER_SERVER) == MB


def test_release_all_frees_server_leaks_too():
    heap = make_heap()
    heap.leak("A", MB)
    heap.leak(OWNER_SERVER, 2 * MB)
    assert heap.release_all() == 3 * MB
    assert heap.leaked_total == 0


def test_check_allocation_raises_when_exhausted():
    heap = make_heap()
    heap.leak("A", 90 * MB)  # exactly exhausts the heap
    with pytest.raises(OutOfMemoryError_):
        heap.check_allocation()


def test_check_allocation_accounts_for_request_size():
    heap = make_heap()
    heap.leak("A", 85 * MB)
    heap.check_allocation(4 * MB)  # still fits
    with pytest.raises(OutOfMemoryError_):
        heap.check_allocation(5 * MB)


def test_leak_on_exhausted_heap_raises_but_records():
    heap = make_heap()
    heap.leak("A", 90 * MB)
    with pytest.raises(OutOfMemoryError_):
        heap.leak("A", MB)
    assert heap.leaked_by("A") == 91 * MB


OWNERS = ("A", "B", OWNER_SERVER)

heap_ops = st.lists(
    st.one_of(
        st.tuples(st.just("leak"), st.sampled_from(OWNERS),
                  st.integers(0, 40 * MB)),
        st.tuples(st.just("release"), st.sampled_from(OWNERS), st.just(0)),
        st.tuples(st.just("release_all"), st.just(None), st.just(0)),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(ops=heap_ops, request=st.integers(0, 100 * MB))
def test_running_total_tracks_every_leak_and_release(ops, request):
    """``leaked_total`` is the per-owner sum after any sequence, and the
    allocation check fails exactly when ``available - request <= 0``."""
    heap = make_heap()
    for op, owner, nbytes in ops:
        if op == "leak":
            try:
                heap.leak(owner, nbytes)
            except OutOfMemoryError_:
                pass
        elif op == "release":
            heap.release_owner(owner)
        else:
            heap.release_all()
        per_owner = sum(heap.leaked_by(o) for o in OWNERS)
        assert heap.leaked_total == per_owner
        available = heap.capacity - (heap.baseline + per_owner)
        assert heap.available == available
        if available - request <= 0:
            with pytest.raises(OutOfMemoryError_):
                heap.check_allocation(request)
        else:
            heap.check_allocation(request)
