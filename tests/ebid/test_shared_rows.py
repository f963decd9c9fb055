"""Copies of a table share its row dicts, so no write may reach another copy.

Stored rows are never mutated (see :mod:`repro.stores.database`): the
dataset snapshot cache, every database restored from it, a shadow's
resync and ``Database.snapshot`` share the rows of the table they came
from.  A corruption or a manual repair in one rig must therefore leave
the cache, later rigs and earlier snapshots as they were.
"""

import pytest

from repro.ebid import app
from repro.ebid.audit import manual_repair
from repro.ebid.schema import DatasetConfig
from repro.experiments.common import SingleNodeRig

SEED = 11


def make_rig(**kwargs):
    return SingleNodeRig(
        seed=SEED, n_clients=1, dataset=DatasetConfig.tiny(),
        with_recovery_manager=False, **kwargs,
    )


def tables(database):
    return {name: table.rows for name, table in database.tables.items()}


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty dataset snapshot cache for this test alone."""
    cache = {}
    monkeypatch.setattr(app, "_dataset_snapshots", cache)
    return cache


def fresh_populate(monkeypatch):
    """The rows of a populate that no snapshot cache can serve."""
    with monkeypatch.context() as patch:
        patch.setattr(app, "_dataset_snapshots", {})
        return tables(make_rig().system.database)


def test_corruption_and_repair_reach_neither_cache_nor_later_rigs(
    fresh_cache, monkeypatch
):
    first = make_rig()
    database = first.system.database
    assert len(fresh_cache) == 1  # the first build populated and cached
    (snapshot,) = fresh_cache.values()
    reference = {name: database.snapshot(name) for name in database.tables}
    original = reference["items"][3]["max_bid"]

    database._corrupt_row("items", 2, "name", None)
    database._corrupt_row("items", 3, "max_bid", "garbage")
    database._corrupt_row("items", 4, "nb_of_bids", 999)
    assert database.tables["items"].rows[3]["max_bid"] == "garbage"
    # A snapshot taken before the corruption still holds the old values.
    assert reference["items"][3]["max_bid"] == original
    assert reference["items"][2]["name"] == "item2"

    assert manual_repair(database, reference) > 0

    second = make_rig()
    expected = fresh_populate(monkeypatch)
    assert tables(second.system.database) == expected
    assert snapshot["rows"] == expected
    assert reference == expected


def test_restored_tables_share_rows_with_the_snapshot(fresh_cache):
    first = make_rig()
    second = make_rig()
    (snapshot,) = fresh_cache.values()
    for name, rows in snapshot["rows"].items():
        for database in (first.system.database, second.system.database):
            stored = database.tables[name].rows
            assert stored == rows
            assert stored is not rows
            assert all(stored[pk] is row for pk, row in rows.items())


def test_shadow_resync_shares_rows_but_not_later_writes(fresh_cache):
    rig = make_rig(with_comparison_detector=True)
    main, shadow = rig.system.database, rig.shadow.database
    main.update("items", 5, {"max_bid": 1_000_000})
    rig.resync_shadow()
    assert shadow.tables["items"].rows[5] is main.tables["items"].rows[5]

    main._corrupt_row("items", 5, "name", "CORRUPT")
    main.update("items", 6, {"max_bid": 1_000_001})
    assert shadow.read("items", 5)["name"] == "item5"
    assert shadow.read("items", 5)["max_bid"] == 1_000_000
    assert shadow.read("items", 6)["max_bid"] != 1_000_001
