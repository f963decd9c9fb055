"""Tests for the load balancer: affinity, failover, microfailover."""

from types import SimpleNamespace

import pytest

from repro.appserver.http import HttpRequest, HttpStatus
from repro.cluster import FailoverMode, LoadBalancer, build_cluster
from repro.ebid.schema import DatasetConfig
from repro.sim import Kernel
from tests.tracing import record


@pytest.fixture
def cluster():
    return build_cluster(3, dataset=DatasetConfig.tiny(), seed=2)


def issue(cluster, url, params=None, cookie=None):
    request = HttpRequest(
        url=url, operation=url.rsplit("/", 1)[-1], params=params or {},
        cookie=cookie,
    )
    event = cluster.load_balancer.handle_request(request)
    return cluster.kernel.run_until_triggered(event)


def login(cluster, user_id):
    response = issue(
        cluster, "/ebid/Authenticate",
        {"user_id": user_id, "password": f"pw{user_id}"},
    )
    return response.payload["cookie"]


def served_by(cluster, cookie):
    """Which node's FastS holds this cookie's session."""
    return [
        node.name
        for node in cluster.nodes
        if cluster.kernel and node.system.session_store.read(cookie)
    ]


def test_logins_spread_over_nodes(cluster):
    cookies = [login(cluster, uid) for uid in range(1, 7)]
    homes = {served_by(cluster, c)[0] for c in cookies}
    assert len(homes) == 3  # every node got some logins


def test_session_affinity_sticks(cluster):
    cookie = login(cluster, 1)
    home = served_by(cluster, cookie)[0]
    for _ in range(4):
        response = issue(cluster, "/ebid/AboutMe", cookie=cookie)
        assert response.payload.get("nickname") == "user1"
    # Still exactly one copy of the session, on the home node.
    assert served_by(cluster, cookie) == [home]


def test_full_failover_redirects_affine_requests(cluster):
    cookie = login(cluster, 1)
    home_name = served_by(cluster, cookie)[0]
    bad = cluster.find_node(home_name)
    cluster.load_balancer.begin_failover(bad, FailoverMode.FULL)
    response = issue(cluster, "/ebid/AboutMe", cookie=cookie)
    # With FastS the session is node-local: the good node cannot find it.
    assert response.payload.get("login_required")
    assert cookie in cluster.load_balancer.sessions_failed_over
    assert cluster.load_balancer.requests_failed_over == 1


def test_end_failover_restores_affinity(cluster):
    cookie = login(cluster, 1)
    bad = cluster.find_node(served_by(cluster, cookie)[0])
    cluster.load_balancer.begin_failover(bad, FailoverMode.FULL)
    issue(cluster, "/ebid/AboutMe", cookie=cookie)
    cluster.load_balancer.end_failover(bad)
    response = issue(cluster, "/ebid/AboutMe", cookie=cookie)
    assert response.payload.get("nickname") == "user1"  # home node again


def test_failover_none_keeps_routing_to_bad_node(cluster):
    cookie = login(cluster, 1)
    bad = cluster.find_node(served_by(cluster, cookie)[0])
    cluster.load_balancer.begin_failover(bad, FailoverMode.NONE)
    response = issue(cluster, "/ebid/AboutMe", cookie=cookie)
    assert response.payload.get("nickname") == "user1"
    assert cluster.load_balancer.requests_failed_over == 0


def test_microfailover_redirects_only_touching_requests(cluster):
    cookie = login(cluster, 1)
    bad = cluster.find_node(served_by(cluster, cookie)[0])
    cluster.load_balancer.begin_failover(
        bad, FailoverMode.MICRO, components=("ViewItem",)
    )
    # AboutMe does not touch ViewItem: stays on the recovering node.
    response = issue(cluster, "/ebid/AboutMe", cookie=cookie)
    assert response.payload.get("nickname") == "user1"
    # ViewItem-path requests are redirected.
    before = cluster.load_balancer.requests_failed_over
    issue(cluster, "/ebid/ViewItem", params={"item_id": 1}, cookie=cookie)
    assert cluster.load_balancer.requests_failed_over == before + 1


def test_new_logins_avoid_recovering_nodes(cluster):
    bad = cluster.nodes[0]
    cluster.load_balancer.begin_failover(bad, FailoverMode.FULL)
    cookies = [login(cluster, uid) for uid in range(1, 7)]
    for cookie in cookies:
        assert served_by(cluster, cookie)[0] != bad.name


def test_nodes_share_one_database(cluster):
    cookie = login(cluster, 1)
    response = issue(
        cluster, "/ebid/RegisterNewItem",
        {"name": "shared", "category_id": 1, "region_id": 1,
         "initial_price": 10},
        cookie,
    )
    item_id = response.payload["item_id"]
    # Any node sees the row (single shared persistence tier).
    view = issue(cluster, "/ebid/ViewItem", {"item_id": item_id})
    assert view.status == HttpStatus.OK


class FailingServer:
    """A backend whose response event fails instead of succeeding."""

    def __init__(self, kernel, exc):
        self.kernel = kernel
        self.exc = exc

    def handle_request(self, request):
        event = self.kernel.event()

        def die():
            yield self.kernel.timeout(0.01)
            event.fail(self.exc)

        self.kernel.process(die())
        return event


def test_forward_failure_fails_client_visible_event():
    """A dying backend must fail `done`, not leave the client hanging."""
    kernel = Kernel()
    node = SimpleNamespace(
        name="n0", server=FailingServer(kernel, RuntimeError("backend died"))
    )
    lb = LoadBalancer(kernel, [node])
    request = HttpRequest(url="/ebid/ViewItem", operation="ViewItem")

    done = lb.handle_request(request)
    with pytest.raises(RuntimeError, match="backend died"):
        kernel.run_until_triggered(done)
    assert lb.forward_failures == 1
    assert not kernel.unhandled_failures


def test_forward_failure_reaches_waiting_process():
    """A process yielding the routed event sees the failure raised into it."""
    kernel = Kernel()
    node = SimpleNamespace(
        name="n0", server=FailingServer(kernel, RuntimeError("backend died"))
    )
    lb = LoadBalancer(kernel, [node])
    outcomes = []

    def client():
        try:
            yield lb.handle_request(HttpRequest(url="/x", operation="x"))
        except RuntimeError as exc:
            outcomes.append(str(exc))

    kernel.process(client())
    kernel.run(until=1.0)
    assert outcomes == ["backend died"]


class RaisingServer:
    """A backend whose ``handle_request`` raises before returning an event."""

    def handle_request(self, request):
        raise RuntimeError("accept() blew up")


def test_a_backend_raising_at_once_fails_the_balancer_event():
    kernel = Kernel()
    node = SimpleNamespace(name="n0", server=RaisingServer())
    lb = LoadBalancer(kernel, [node])
    done = lb.handle_request(HttpRequest(url="/x", operation="x"))
    with pytest.raises(RuntimeError, match="accept"):
        kernel.run_until_triggered(done)
    assert lb.forward_failures == 1
    assert not kernel.unhandled_failures


def test_the_balancer_reply_triggers_after_affinity_is_set(cluster):
    request = HttpRequest(
        url="/ebid/Authenticate", operation="Authenticate",
        params={"user_id": 1, "password": "pw1"},
    )
    response = cluster.kernel.run_until_triggered(
        cluster.load_balancer.handle_request(request)
    )
    cookie = response.payload["cookie"]
    home = cluster.load_balancer.node_for_session(cookie)
    assert home is not None
    assert served_by(cluster, cookie) == [home.name]


def test_a_microreboot_mid_call_reaches_a_client_behind_the_balancer(cluster):
    """The shepherd killed by a µRB answers with a dropped connection, and
    the balancer hands that answer to its client as it is."""
    kernel = cluster.kernel
    stuck = []

    def hang(container, ctx, method):
        stuck.append(container.server)
        yield kernel.event()  # a deadlock: only a kill ends it

    for node in cluster.nodes:
        node.server.containers["BrowseCategories"].invocation_hooks.append(
            hang
        )
    replies = []

    def client():
        request = HttpRequest(
            url="/ebid/BrowseCategories", operation="BrowseCategories"
        )
        replies.append((yield cluster.load_balancer.handle_request(request)))

    kernel.process(client())
    kernel.run(until=kernel.now + 1.0)
    assert replies == [] and len(stuck) == 1
    node = cluster.find_node(stuck[0].name)
    kernel.process(node.system.coordinator.microreboot(["BrowseCategories"]))
    kernel.run(until=kernel.now + 5.0)
    (response,) = replies
    assert response.network_error
    assert response.body == (
        "network error: connection reset (microreboot:BrowseCategories)"
    )


def ring_nodes(n=3):
    return [SimpleNamespace(name=f"n{i}") for i in range(n)]


def test_round_robin_spreads_evenly():
    lb = LoadBalancer(Kernel(), ring_nodes())
    picks = [lb._next_good_node().name for _ in range(30)]
    assert all(picks.count(name) == 10 for name in ("n0", "n1", "n2"))


def test_round_robin_spread_during_failover():
    nodes = ring_nodes()
    lb = LoadBalancer(Kernel(), nodes)
    lb.begin_failover(nodes[1], FailoverMode.FULL)
    picks = [lb._next_good_node().name for _ in range(10)]
    assert picks.count("n0") == picks.count("n2") == 5
    assert "n1" not in picks


def test_round_robin_rotation_survives_failover_churn():
    """The cursor walks a stable ring: a failover window must not reseat
    the rotation (the old `% len(candidates)` restarted it whenever the
    candidate list changed length, skewing the spread)."""
    nodes = ring_nodes()
    lb = LoadBalancer(Kernel(), nodes)
    assert [lb._next_good_node().name for _ in range(4)] == [
        "n0", "n1", "n2", "n0",
    ]
    lb.begin_failover(nodes[1], FailoverMode.FULL)
    # Rotation continues from where it left off, skipping n1 in place.
    assert [lb._next_good_node().name for _ in range(3)] == ["n2", "n0", "n2"]
    lb.end_failover(nodes[1])
    # Rejoining picks the rotation back up rather than restarting it.
    assert [lb._next_good_node().name for _ in range(3)] == ["n0", "n1", "n2"]


def test_failover_begin_publishes_components_sorted():
    """Callers pass sets; the timeline must not follow string hashing."""
    kernel = Kernel()
    kernel.trace.enabled = True
    begins = record(kernel.trace, "lb.failover.begin")
    nodes = ring_nodes()
    lb = LoadBalancer(kernel, nodes)
    lb.begin_failover(nodes[0], FailoverMode.MICRO, components=("Item", "Bid"))
    (begin,) = begins
    assert begin.fields["components"] == ("Bid", "Item")


def test_cluster_ids_never_collide(cluster):
    """The high-low key blocks keep concurrent nodes collision-free."""
    cookies = [login(cluster, uid) for uid in range(1, 10)]
    item_ids = []
    for i, cookie in enumerate(cookies):
        response = issue(
            cluster, "/ebid/RegisterNewItem",
            {"name": f"w{i}", "category_id": 1, "region_id": 1,
             "initial_price": 5},
            cookie,
        )
        assert response.status == HttpStatus.OK
        item_ids.append(response.payload["item_id"])
    assert len(set(item_ids)) == len(item_ids)
