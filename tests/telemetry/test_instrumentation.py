"""Integration tests: the built-in instrumentation publishes real events."""

from collections import Counter

from repro.appserver.http import HttpRequest
from repro.cluster import FailoverMode, build_cluster
from repro.core import FailureKind, FailureReport, RecoveryManager
from repro.ebid.schema import DatasetConfig
from repro.experiments.cluster_common import ClusterRig
from repro.experiments.common import SingleNodeRig
from repro.telemetry import set_default_tracing
from tests.cluster.test_load_balancer import issue, login, served_by
from tests.toyapp import URL_PATH_MAP, build_toy_system
from tests.tracing import record

#: Per-request kinds the stack no longer publishes: a client request's one
#: record is its ``request.end``.
REMOVED_KINDS = ("request.start", "server.request.start", "server.request.end")


def test_server_names_itself_on_admission_and_publishes_nothing():
    system = build_toy_system()
    system.kernel.trace.enabled = True
    events = record(system.kernel.trace)
    request = HttpRequest(url="/toy/greet", operation="greet",
                          params={"who": "x"})
    system.kernel.run_until_triggered(system.server.handle_request(request))
    assert events == []
    assert request.server == system.server.name


def test_microreboot_publishes_begin_and_end():
    system = build_toy_system()
    system.kernel.trace.enabled = True
    begin = record(system.kernel.trace, "component.microreboot.begin")
    end = record(system.kernel.trace, "component.microreboot.end")
    system.kernel.run_until_triggered(
        system.kernel.process(system.coordinator.microreboot(["Greeter"]))
    )
    assert len(begin) == len(end) == 1
    assert begin[0].fields["components"] == ("Greeter",)
    assert begin[0].fields["level"] == "ejb"
    assert end[0].fields["duration"] > 0


def test_recovery_manager_publishes_decision_and_action():
    system = build_toy_system()
    system.kernel.trace.enabled = True
    trace = system.kernel.trace
    reports = record(trace, "rm.report")
    decisions = record(trace, "rm.decision")
    ends = record(trace, "rm.action.end")
    rm = RecoveryManager(
        system.kernel, system.coordinator, URL_PATH_MAP, score_threshold=3
    )
    rm.start()
    for _ in range(3):
        rm.report(
            FailureReport(
                time=system.kernel.now,
                url="/toy/greet",
                operation="greet",
                kind=FailureKind.HTTP_ERROR,
            )
        )
    system.kernel.run(until=5.0)
    assert len(reports) == 3
    assert [e.fields["level"] for e in decisions] == ["ejb"]
    assert len(ends) == 1
    assert ends[0].fields["ok"] is True


def test_load_balancer_publishes_failover_events():
    cluster = build_cluster(3, dataset=DatasetConfig.tiny(), seed=2)
    cluster.kernel.trace.enabled = True
    trace = cluster.kernel.trace
    begins = record(trace, "lb.failover.begin")
    redirects = record(trace, "lb.failover")
    ends = record(trace, "lb.failover.end")
    cookie = login(cluster, 1)
    bad = cluster.find_node(served_by(cluster, cookie)[0])

    cluster.load_balancer.begin_failover(bad, FailoverMode.FULL)
    issue(cluster, "/ebid/AboutMe", cookie=cookie)
    cluster.load_balancer.end_failover(bad)
    cluster.load_balancer.end_failover(bad)  # idempotent: no second event

    assert len(begins) == len(ends) == 1
    assert begins[0].fields["node"] == bad.name
    assert len(redirects) == 1
    assert redirects[0].fields["from_node"] == bad.name
    assert redirects[0].fields["to_node"] != bad.name


def test_traced_rig_emits_client_events_and_untraced_rig_none():
    previous = set_default_tracing(True)
    try:
        rig = SingleNodeRig(seed=0, n_clients=5)
    finally:
        set_default_tracing(previous)
    events = record(rig.kernel.trace)
    rig.start()
    rig.run_for(30.0)
    seen = {event.kind for event in events}
    assert "request.end" in seen
    assert not seen & set(REMOVED_KINDS)
    assert rig.kernel.trace.published > 0
    for event in (e for e in events if e.kind == "request.end"):
        assert event.fields["server"] == rig.system.server.name
        if event.fields["ok"]:
            assert event.fields["status"] == 200

    quiet = SingleNodeRig(seed=0, n_clients=5)
    quiet.start()
    quiet.run_for(30.0)
    assert quiet.kernel.trace.published == 0


def test_one_request_end_per_operation_on_a_faulty_cluster():
    """Each client request publishes one record, naming the node that
    admitted its last attempt and the status the client judged."""
    previous = set_default_tracing(True)
    try:
        rig = ClusterRig(2, 10, seed=0, dataset=DatasetConfig.tiny())
    finally:
        set_default_tracing(previous)
    first, second = rig.cluster.nodes
    # Hung requests on the second node outlast the client's patience.
    second.system.server.request_lease_ttl = 1e9
    removed = record(rig.kernel.trace, REMOVED_KINDS)
    ends = record(rig.kernel.trace, "request.end")
    rig.start()
    rig.run_for(20.0)
    # The first node refuses connections while its JVM reboots; the second
    # hangs BrowseCategories until a µRB resets the requests it holds.
    rig.kernel.process(first.restart_jvm())
    rig.injector_for(1).inject_deadlock("BrowseCategories")
    rig.run_for(45.0)
    rig.kernel.process(
        second.system.coordinator.microreboot(["BrowseCategories"])
    )
    rig.run_for(30.0)

    assert not removed
    recorded = Counter(
        (action.client_id, op.operation, op.completed_at)
        for action in rig.metrics.actions
        for op in action.operations
    )
    published = Counter(
        (e.fields["client"], e.fields["operation"], e.t) for e in ends
    )
    assert sum(recorded.values()) == rig.metrics.total_requests
    assert all(published[key] == n for key, n in recorded.items())
    # The rest belong to actions still open at the horizon.
    last = {}
    for client, _operation, t in recorded:
        last[client] = max(last.get(client, t), t)
    assert all(
        t > last.get(client, -1.0)
        for client, _operation, t in published - recorded
    )

    names = {node.name for node in rig.cluster.nodes}
    fields = [e.fields for e in ends]
    ok = [f for f in fields if f["ok"]]
    assert ok and all(f["status"] == 200 and f["server"] in names for f in ok)
    failed = {(f["failure"], f["status"], f["server"]) for f in fields
              if not f["ok"]}
    assert ("network", "network", None) in failed  # refused: not admitted
    assert ("network", "network", second.name) in failed  # reset by the µRB
    assert ("timeout", None, second.name) in failed  # the client gave up
