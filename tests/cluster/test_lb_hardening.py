"""Tests for the load balancer's hardening surface: link faults, degraded
marks, session rerouting, and the latency-only shed rule."""

import pytest

from repro.appserver.http import HttpRequest, HttpStatus
from repro.cluster import FailoverMode, build_cluster
from repro.cluster.load_balancer import LinkDropError
from repro.core.hardening import HardeningPolicy
from repro.core.retry import RetryPolicy
from repro.ebid.schema import DatasetConfig
from repro.sim import RngRegistry


def make_cluster(n=2, hardened=True, **kwargs):
    hardening = (
        HardeningPolicy.hardened() if hardened
        else HardeningPolicy.disabled()
    )
    return build_cluster(
        n, dataset=DatasetConfig.tiny(), seed=5, session_store="ssm",
        retry_policy=RetryPolicy.retry_only(), hardening=hardening,
        **kwargs,
    )


def issue(cluster, url, params=None, cookie=None):
    request = HttpRequest(
        url=url, operation=url.rsplit("/", 1)[-1], params=params or {},
        cookie=cookie,
    )
    return cluster.kernel.run_until_triggered(
        cluster.load_balancer.handle_request(request)
    )


def login(cluster, user_id=1):
    response = issue(
        cluster, "/ebid/Authenticate",
        {"user_id": user_id, "password": f"pw{user_id}"},
    )
    return response.payload["cookie"]


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
def test_link_fault_delays_forwards():
    cluster = make_cluster(n=1, hardened=False)
    balancer = cluster.load_balancer
    node = cluster.nodes[0]
    before = cluster.kernel.now
    issue(cluster, "/ebid/BrowseCategories")
    baseline = cluster.kernel.now - before

    balancer.inject_link_fault(node, delay=2.0)
    before = cluster.kernel.now
    issue(cluster, "/ebid/BrowseCategories")
    assert cluster.kernel.now - before >= baseline + 2.0

    balancer.clear_link_fault(node)
    before = cluster.kernel.now
    issue(cluster, "/ebid/BrowseCategories")
    assert cluster.kernel.now - before < 2.0


def test_link_fault_drops_forwards():
    cluster = make_cluster(n=1, hardened=False)
    balancer = cluster.load_balancer
    rng = RngRegistry(root_seed=11).stream("drops")
    balancer.inject_link_fault(cluster.nodes[0], drop_rate=1.0, rng=rng)
    try:
        issue(cluster, "/ebid/BrowseCategories")
        raised = False
    except Exception:
        raised = True
    assert raised
    assert int(balancer.metrics.counter("lb.link.dropped").value) == 1


def browse():
    return HttpRequest(
        url="/ebid/BrowseCategories", operation="BrowseCategories"
    )


def test_a_delayed_forward_is_admitted_when_the_delay_ends():
    """The fault is read at routing time: healing the link after a request
    was routed does not spare that request its delay."""
    cluster = make_cluster(n=1, hardened=False)
    balancer, node, kernel = (
        cluster.load_balancer, cluster.nodes[0], cluster.kernel
    )
    accepted = node.server.requests_accepted
    balancer.inject_link_fault(node, delay=2.0)
    start = kernel.now
    reply = balancer.handle_request(browse())
    balancer.clear_link_fault(node)
    kernel.run(until=start + 1.9)
    assert node.server.requests_accepted == accepted
    assert not reply.triggered
    assert kernel.run_until_triggered(reply).status == HttpStatus.OK
    assert node.server.requests_accepted == accepted + 1
    assert kernel.now - start > 2.0


def test_a_delayed_drop_is_drawn_when_the_delay_ends():
    cluster = make_cluster(n=1, hardened=False)
    balancer, node, kernel = (
        cluster.load_balancer, cluster.nodes[0], cluster.kernel
    )
    draws = []

    class Draws:
        def random(self):
            draws.append(kernel.now)
            return 0.0

    balancer.inject_link_fault(node, delay=1.0, drop_rate=0.5, rng=Draws())
    start = kernel.now
    request = browse()
    reply = balancer.handle_request(request)
    balancer.clear_link_fault(node)
    assert draws == []
    with pytest.raises(LinkDropError):
        kernel.run_until_triggered(reply)
    assert draws == [start + 1.0]
    assert request.server is None  # no server saw it
    assert int(balancer.metrics.counter("lb.link.dropped").value) == 1
    assert not kernel.unhandled_failures


def test_forward_latency_is_timed_from_routing():
    """The latency the shedding rule judges includes the link's delay."""
    cluster = make_cluster(n=1)
    balancer, node, kernel = (
        cluster.load_balancer, cluster.nodes[0], cluster.kernel
    )
    balancer.inject_link_fault(node, delay=2.0)
    start = kernel.now
    issue(cluster, "/ebid/BrowseCategories")
    assert balancer._latency[node.name] == [kernel.now - start]
    assert kernel.now - start > 2.0


# ----------------------------------------------------------------------
# Degraded marks and session rerouting
# ----------------------------------------------------------------------
def test_note_degraded_marks_and_expires():
    cluster = make_cluster()
    balancer = cluster.load_balancer
    node = cluster.nodes[0]
    balancer.note_degraded(node, "recovery-deferred-backoff", ttl=25.0)
    assert node.name in balancer.degraded_nodes()

    def advance():
        yield cluster.kernel.timeout(26.0)

    cluster.kernel.run_until_triggered(cluster.kernel.process(advance()))
    assert node.name not in balancer.degraded_nodes()


def test_note_degraded_is_inert_without_hardening():
    cluster = make_cluster(hardened=False)
    balancer = cluster.load_balancer
    balancer.note_degraded(cluster.nodes[0], "whatever")
    assert balancer.degraded_nodes() == set()


def test_degraded_session_requests_reroute():
    cluster = make_cluster()
    balancer = cluster.load_balancer
    cookie = login(cluster)
    home = balancer.node_for_session(cookie)
    balancer.note_degraded(home, "recovery-deferred-backoff")

    response = issue(cluster, "/ebid/BrowseCategories", cookie=cookie)
    # Session state lives in the SSM: the request is served fine by a
    # healthy node instead of queueing behind the degraded one.
    assert response.status == HttpStatus.OK
    assert cookie in balancer.sessions_failed_over


def test_cookieless_requests_avoid_degraded_nodes():
    cluster = make_cluster()
    balancer = cluster.load_balancer
    degraded = cluster.nodes[0]
    balancer.note_degraded(degraded, "recovery-deferred-backoff")
    for user_id in range(1, 5):
        cookie = login(cluster, user_id=user_id)
        assert balancer.node_for_session(cookie) is not degraded


# ----------------------------------------------------------------------
# The latency-only shed rule
# ----------------------------------------------------------------------
def test_all_nodes_latency_degraded_sheds_fast():
    cluster = make_cluster()
    balancer = cluster.load_balancer
    for node in cluster.nodes:
        balancer._mark_degraded(node.name, "latency")
    response = issue(cluster, "/ebid/BrowseCategories")
    assert response.status == HttpStatus.SERVICE_UNAVAILABLE
    assert response.retry_after == balancer.hardening.shed_retry_after
    assert balancer.requests_shed == 1


def test_mixed_degradation_routes_best_effort():
    cluster = make_cluster()
    balancer = cluster.load_balancer
    balancer._mark_degraded(cluster.nodes[0].name, "latency")
    balancer._mark_degraded(
        cluster.nodes[1].name, "recovery-deferred-backoff"
    )
    # Not a cluster-wide slowdown: refusing service would be strictly
    # worse than trying a node, so the request is served, not shed.
    response = issue(cluster, "/ebid/BrowseCategories")
    assert response.status == HttpStatus.OK
    assert balancer.requests_shed == 0


# ----------------------------------------------------------------------
# MICRO failover eligibility
# ----------------------------------------------------------------------
def test_micro_recovering_node_serves_non_touching_requests():
    cluster = make_cluster()
    balancer = cluster.load_balancer
    micro, other = cluster.nodes
    balancer.begin_failover(
        micro, mode=FailoverMode.MICRO, components={"ViewItem"}
    )
    balancer.begin_failover(other, mode=FailoverMode.FULL)
    # Only the MICRO node is available — and it may serve requests whose
    # path avoids the recovering component.
    response = issue(cluster, "/ebid/BrowseCategories")
    assert response.status == HttpStatus.OK
