"""Property-based tests: the database's transactional invariants.

Random interleavings of inserts/updates/deletes across several concurrent
transactions, with arbitrary commit/rollback/crash decisions, must always
leave the database equal to "replay only the committed operations".
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.stores.database import Database, DatabaseError, DuplicateKeyError

pks = st.integers(min_value=1, max_value=12)
values = st.integers(min_value=0, max_value=100)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 3), pks, values),
        st.tuples(st.just("update"), st.integers(1, 3), pks, values),
        st.tuples(st.just("delete"), st.integers(1, 3), pks, values),
    ),
    max_size=30,
)
outcomes = st.tuples(st.booleans(), st.booleans(), st.booleans())


def apply_ops(database, ops, use_tx):
    """Apply ops; returns the per-tx op log of operations that succeeded."""
    applied = {1: [], 2: [], 3: []}
    for op, tx, pk, value in ops:
        tx_id = tx if use_tx else None
        try:
            if op == "insert":
                database.insert("t", {"id": pk, "v": value}, tx_id=tx_id)
            elif op == "update":
                database.update("t", pk, {"v": value}, tx_id=tx_id)
            else:
                database.delete("t", pk, tx_id=tx_id)
        except (DuplicateKeyError, DatabaseError):
            continue
        applied[tx].append((op, pk, value))
    return applied


def stored_rows(database):
    """A deep copy of table ``t``'s stored rows.

    ``Database.snapshot`` shares the stored row dicts, so a reference taken
    with it would follow an (illegal) in-place write and hide it.
    """
    return {pk: dict(row) for pk, row in database.tables["t"].rows.items()}


@settings(max_examples=120, deadline=None)
@given(ops=operations, commit=outcomes)
def test_rollback_equals_never_happened(ops, commit):
    """Rolled-back transactions leave no trace; committed ones all land.

    Each transaction works on its own disjoint row range (as row locking
    would enforce in the real platform — our container-managed persistence
    never lets two live transactions write the same row), so the reference
    outcome is simply "replay exactly the committed transactions".
    """
    database = Database(Kernel())
    database.create_table("t")
    # Partition the key space per transaction: tx N owns [N*100, N*100+12).
    ops = [(op, tx, tx * 100 + pk, value) for op, tx, pk, value in ops]
    apply_ops_disjoint = [
        (op, tx, pk, value) for op, tx, pk, value in ops
    ]
    applied = apply_ops(database, apply_ops_disjoint, use_tx=True)
    for tx_id, committed in zip((1, 2, 3), commit):
        if committed:
            database.commit_transaction(tx_id)
        else:
            database.rollback_transaction(tx_id)

    # Replay only the committed transactions' successful ops on a fresh db.
    reference = Database(Kernel())
    reference.create_table("t")
    committed_txs = {t for t, c in zip((1, 2, 3), commit) if c}
    for tx in sorted(committed_txs):
        for op, pk, value in applied[tx]:
            if op == "insert":
                reference.insert("t", {"id": pk, "v": value})
            elif op == "update":
                reference.update("t", pk, {"v": value})
            else:
                reference.delete("t", pk)

    assert database.snapshot("t") == reference.snapshot("t")


@settings(max_examples=100, deadline=None)
@given(ops=operations)
def test_crash_recovery_rolls_back_everything_in_flight(ops):
    kernel = Kernel()
    database = Database(kernel, recovery_time=0.1)
    database.create_table("t")
    database.insert("t", {"id": 99, "v": 1})  # pre-existing committed row
    before = stored_rows(database)
    apply_ops(database, ops, use_tx=True)  # never committed
    database.crash()
    kernel.run_until_triggered(kernel.process(database.recover()))
    assert database.snapshot("t") == before
    assert database.in_flight_transactions == 0


@settings(max_examples=100, deadline=None)
@given(ops=operations)
def test_auto_commit_is_durable_through_crash(ops):
    kernel = Kernel()
    database = Database(kernel, recovery_time=0.1)
    database.create_table("t")
    apply_ops(database, ops, use_tx=False)
    before = stored_rows(database)
    database.crash()
    kernel.run_until_triggered(kernel.process(database.recover()))
    assert database.snapshot("t") == before


@settings(max_examples=100, deadline=None)
@given(ops=operations, limit=st.none() | st.integers(min_value=0, max_value=6))
def test_indexes_always_agree_with_scans(ops, limit):
    """Hash-index lookups must equal a brute-force scan at every point.

    A limited and ordered select equals the full select sorted and sliced,
    and the rows it returns are copies.
    """
    database = Database(Kernel())
    database.create_table("t")
    database.tables["t"].ensure_index("v")  # build the index up front
    apply_ops(database, ops, use_tx=False)
    for value in range(0, 101):
        indexed = {row["id"] for row in database.select("t", v=value)}
        scanned = {
            pk for pk, row in database.tables["t"].rows.items()
            if row.get("v") == value
        }
        assert indexed == scanned

    def descending_v(row):
        return -row["v"]

    for value in {row["v"] for row in database.tables["t"].rows.values()}:
        for equals in ({}, {"v": value}, {"v": value, "id": 5}):
            full = database.select("t", **equals)
            limited = database.select("t", limit=limit, **equals)
            assert limited == full[:limit]
            full.sort(key=descending_v)
            ordered = database.select(
                "t", limit=limit, key=descending_v, **equals
            )
            assert ordered == full[:limit]
    before = stored_rows(database)
    for row in database.select("t", limit=limit, key=descending_v):
        row["v"] = -1
    assert database.snapshot("t") == before


restore_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "update", "delete", "set_column", "rollback", "commit")
        ),
        pks,
        values,
    ),
    max_size=30,
)


def apply_to_restored(database, ops):
    """Apply ops in one transaction at a time; ``set_column`` is the
    fault-injection surface (not undo-logged, like a real corruption)."""
    tx_id = 1
    for op, pk, value in ops:
        try:
            if op == "insert":
                database.insert("t", {"id": pk, "v": value}, tx_id=tx_id)
            elif op == "update":
                database.update("t", pk, {"v": value}, tx_id=tx_id)
            elif op == "delete":
                database.delete("t", pk, tx_id=tx_id)
            elif op == "set_column":
                database._corrupt_row("t", pk, "v", -value)
            elif op == "rollback":
                database.rollback_transaction(tx_id)
                tx_id += 1
            else:
                database.commit_transaction(tx_id)
                tx_id += 1
        except (DuplicateKeyError, DatabaseError):
            continue


@settings(max_examples=120, deadline=None)
@given(
    initial=st.dictionaries(pks, values, max_size=12),
    ops=restore_ops,
    indexed=st.booleans(),
)
def test_writes_to_a_restored_table_never_reach_its_source(
    initial, ops, indexed
):
    """Restored tables share the source's row dicts and none of its fate.

    Whatever a restored table goes through, the rows it was restored
    from stay as they were, and it ends exactly where a table restored
    from a deep copy ends.
    """
    source = Database(Kernel())
    source.create_table("t")
    for pk, value in initial.items():
        source.insert("t", {"id": pk, "v": value})
    rows = source.snapshot("t")
    expected = stored_rows(source)

    ends = []
    deep_copy = stored_rows(source)
    for restore_from in (rows, deep_copy):
        restored = Database(Kernel())
        restored.create_table("t")
        restored.tables["t"].replace_all(restore_from)
        if indexed:
            restored.tables["t"].ensure_index("v")
        apply_to_restored(restored, ops)
        ends.append(restored.snapshot("t"))
        assert {
            row["id"] for row in restored.select("t", v=-1)
        } == {pk for pk, row in restored.tables["t"].rows.items()
              if row["v"] == -1}

    assert rows == expected
    assert source.snapshot("t") == expected
    assert ends[0] == ends[1]
