"""Unit tests for the lease table."""

import pytest

from repro.sim import Kernel
from repro.stores.leases import LeaseTable


def make_table(ttl=10.0):
    kernel = Kernel()
    return kernel, LeaseTable(kernel, default_ttl=ttl)


def test_ttl_must_be_positive():
    with pytest.raises(ValueError):
        LeaseTable(Kernel(), default_ttl=0)


def test_grant_makes_live():
    _, table = make_table()
    table.grant("k")
    assert table.is_live("k")


def test_lease_expires_with_the_clock():
    kernel, table = make_table(ttl=10.0)
    table.grant("k")
    kernel.run(until=9.9)
    assert table.is_live("k")
    kernel.run(until=10.0)
    assert not table.is_live("k")


def test_renew_extends():
    kernel, table = make_table(ttl=10.0)
    table.grant("k")
    kernel.run(until=8.0)
    assert table.renew("k")
    kernel.run(until=15.0)
    assert table.is_live("k")


def test_renew_unknown_key_fails():
    _, table = make_table()
    assert not table.renew("never-granted")


def test_explicit_release():
    _, table = make_table()
    table.grant("k")
    table.release("k")
    assert not table.is_live("k")
    assert len(table) == 0


def test_collect_expired_removes_and_counts():
    kernel, table = make_table(ttl=5.0)
    table.grant("a")
    table.grant("b", ttl=50.0)
    kernel.run(until=6.0)
    assert table.collect_expired() == ["a"]
    assert table.expired_count == 1
    assert table.is_live("b")


def test_custom_ttl_overrides_default():
    kernel, table = make_table(ttl=5.0)
    table.grant("k", ttl=100.0)
    kernel.run(until=50.0)
    assert table.is_live("k")


def test_renew_of_a_lapsed_uncollected_lease_fails_and_does_not_revive():
    kernel, table = make_table(ttl=5.0)
    table.grant("k")
    kernel.run(until=5.0)  # lapsed (expiry <= now), not yet collected
    assert not table.renew("k")
    assert not table.is_live("k")
    assert table.collect_expired() == ["k"]


@pytest.mark.parametrize("ttl", [0, 0.0, -1.0])
def test_grant_and_renew_reject_non_positive_ttl(ttl):
    _, table = make_table()
    table.grant("k")
    with pytest.raises(ValueError):
        table.grant("k", ttl=ttl)
    with pytest.raises(ValueError):
        table.renew("k", ttl=ttl)
    with pytest.raises(ValueError):
        table.renew("never-granted", ttl=ttl)


def test_collect_expired_waits_for_the_earliest_expiry():
    kernel, table = make_table(ttl=10.0)
    table.grant("a", ttl=3.0)
    table.grant("b")
    table.grant("a", ttl=20.0)  # re-granted later: "b" is now the earliest
    kernel.run(until=5.0)
    assert table.collect_expired() == []
    kernel.run(until=10.0)
    assert table.collect_expired() == ["b"]
    kernel.run(until=19.0)
    assert table.collect_expired() == []
    table.grant("c", ttl=0.5)  # lowers the bound below "a"
    kernel.run(until=19.5)
    assert table.collect_expired() == ["c"]
    kernel.run(until=20.0)
    assert table.collect_expired() == ["a"]
    assert table.expired_count == 3
    assert len(table) == 0
