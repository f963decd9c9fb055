"""Integration tests for the application server's request path."""

import pytest

from repro.appserver.errors import AppServerError
from repro.appserver.http import HttpRequest, HttpStatus
from repro.appserver.memory import OWNER_SERVER
from repro.appserver.server import ApplicationServer, ServerState
from repro.experiments.common import SingleNodeRig
from repro.sim import Kernel
from repro.sim.kernel import INFINITY
from tests.toyapp import build_toy_system, issue, toy_descriptors


def test_successful_request_roundtrip():
    system = build_toy_system()
    response = issue(system, "/toy/greet", {"who": "osdi"})
    assert response.status == HttpStatus.OK
    assert response.body == "hello osdi"


def test_unknown_url_is_404():
    system = build_toy_system()
    response = issue(system, "/toy/nothing-here")
    assert response.status == HttpStatus.NOT_FOUND


def test_servlet_registered_after_a_lookup_takes_effect():
    """The WAR memoizes URL → servlet; registering a servlet resets it."""
    system = build_toy_system()
    assert issue(system, "/toy/nothing-here").status == HttpStatus.NOT_FOUND
    war = system.server.containers["ToyWAR"].instances[0]
    war.register_servlet("/toy/nothing", war.greet_servlet)
    response = issue(system, "/toy/nothing-here", {"who": "again"})
    assert response.status == HttpStatus.OK
    assert response.body == "hello again"
    assert issue(system, "/toy/elsewhere").status == HttpStatus.NOT_FOUND


def test_application_exception_becomes_500_with_keywords():
    system = build_toy_system()
    response = issue(system, "/toy/balance", {"account_id": 999})
    assert response.status == HttpStatus.INTERNAL_SERVER_ERROR
    assert "exception" in response.body


def test_stopped_server_refuses_connections():
    system = build_toy_system()
    system.server.kill()
    response = issue(system, "/toy/greet")
    assert getattr(response, "network_error", False)


def test_accept_fault_surfaces_as_network_error():
    """Bad syscall returns break the accept path (§5.1 low-level faults)."""
    system = build_toy_system()
    system.server.accept_fault = "accept() returned EBADF"
    response = issue(system, "/toy/greet")
    assert response.network_error
    assert "EBADF" in response.body


def test_double_deploy_rejected():
    system = build_toy_system()
    with pytest.raises(AppServerError):
        system.server.deploy("toy", toy_descriptors())


def test_boot_twice_rejected():
    system = build_toy_system()

    def reboot():
        yield from system.server.boot(cold=False)

    process = system.kernel.process(reboot())
    system.kernel.run()
    assert isinstance(process.value, AppServerError)


def test_kill_aborts_active_transactions():
    system = build_toy_system()
    tx = system.server.transactions.begin("orphan")
    system.server.kill()
    assert not tx.is_active
    assert system.server.transactions.active_transactions == []


def test_kill_clears_fasts_but_cold_boot_restores_service():
    system = build_toy_system()
    system.server.session_store.write(
        "cookie-1",
        __import__("repro.stores.sessions", fromlist=["SessionData"]).SessionData(
            "cookie-1", 7
        ),
    )
    system.server.kill()
    assert len(system.server.session_store) == 0

    def restart():
        yield from system.server.boot(cold=True)

    start = system.kernel.now
    system.kernel.run_until_triggered(system.kernel.process(restart()))
    # Cold boot charges the full 19 s JVM restart time (§5.2).
    assert system.kernel.now - start == pytest.approx(19.08, rel=0.01)
    response = issue(system, "/toy/greet")
    assert response.status == HttpStatus.OK


def test_jvm_restart_frees_server_leaks():
    system = build_toy_system()
    system.server.heap.leak(OWNER_SERVER, 1024)

    def restart():
        yield from system.server.restart_jvm()

    system.kernel.run_until_triggered(system.kernel.process(restart()))
    assert system.server.heap.leaked_total == 0
    assert system.server.state is ServerState.RUNNING


def test_request_lease_purges_stuck_request():
    system = build_toy_system()
    system.server.request_lease_ttl = 0.5
    container = system.server.containers["Greeter"]

    def stuck_hook(container_, ctx, method):
        yield system.kernel.event()  # never triggers: a hung computation

    container.invocation_hooks.append(stuck_hook)
    start = system.kernel.now
    response = issue(system, "/toy/greet")
    assert response.network_error
    assert "request-lease-expired" in response.body
    assert system.kernel.now - start == pytest.approx(0.5, abs=0.01)


# --- one process per request: the shepherd and its lease -------------------

def _hang_greeter(system):
    """A deadlock lodged in the Greeter: every invocation waits forever."""

    def stuck_hook(container_, ctx, method):
        yield system.kernel.event()

    system.server.containers["Greeter"].invocation_hooks.append(stuck_hook)


def test_lease_purges_a_deadlocked_shepherd_and_counts_it_once():
    system = build_toy_system()
    server = system.server
    server.request_lease_ttl = 0.5
    _hang_greeter(system)
    response = issue(system, "/toy/greet")
    assert response.body == (
        "network error: connection reset (request-lease-expired)"
    )
    system.kernel.run(until=system.kernel.now + 5.0)
    assert server.responses_by_status == {"network": 1}
    assert server.requests_completed == server.requests_accepted == 1


def test_a_request_that_beats_its_lease_retires_it_unstepped():
    system = build_toy_system()
    kernel = system.kernel
    assert issue(system, "/toy/greet").status == HttpStatus.OK
    kernel.run(until=kernel.now)  # the events due now: the reply's waiters
    # Nothing is left to fire: the lease was retired, not left to expire.
    assert kernel.peek() == INFINITY
    steps = kernel.events_processed
    kernel.run(until=kernel.now + 2 * system.server.request_lease_ttl)
    assert kernel.events_processed == steps


def test_the_reply_triggers_after_the_response_is_counted():
    system = build_toy_system()
    server = system.server
    reply = server.handle_request(
        HttpRequest(url="/toy/greet", operation="greet")
    )
    assert system.kernel.run_until_triggered(reply).status == HttpStatus.OK
    assert server.requests_completed == 1
    assert server.responses_by_status == {200: 1}


def test_a_shepherd_that_dies_uncleanly_answers_thread_died():
    """An error raised while the shepherd builds its response (here by an
    exception whose message cannot be rendered) still answers the client,
    once, and kills no kernel process."""
    system = build_toy_system()

    class Unprintable(Exception):
        def __str__(self):
            raise RuntimeError("no message")

    def failing_hook(container_, ctx, method):
        raise Unprintable()
        yield  # pragma: no cover - makes this a generator

    system.server.containers["Greeter"].invocation_hooks.append(failing_hook)
    response = issue(system, "/toy/greet")
    assert response.body == "network error: connection reset (thread died)"
    assert system.server.responses_by_status == {"network": 1}
    assert system.kernel.unhandled_failure_count == 0


def test_response_accounting_by_status():
    system = build_toy_system()
    issue(system, "/toy/greet")
    issue(system, "/toy/balance", {"account_id": 999})
    assert system.server.responses_by_status[200] == 1
    assert system.server.responses_by_status[500] == 1
    assert system.server.requests_accepted == 2
    assert system.server.requests_completed == 2


def test_classloader_statics_survive_microreboot_not_app_restart():
    system = build_toy_system()
    loader = system.server.containers["Greeter"].classloader
    loader.statics["hits"] = 42

    def urb():
        yield from system.coordinator.microreboot(["Greeter"])

    system.kernel.run_until_triggered(system.kernel.process(urb()))
    assert system.server.containers["Greeter"].classloader.statics["hits"] == 42

    def app_restart():
        yield from system.coordinator.restart_application()

    system.kernel.run_until_triggered(system.kernel.process(app_restart()))
    assert system.server.containers["Greeter"].classloader.statics == {}


def test_concurrent_requests_all_complete():
    system = build_toy_system()
    responses = []

    def client(i):
        event = system.server.handle_request(
            HttpRequest(url="/toy/greet", operation="greet", params={"who": str(i)})
        )
        response = yield event
        responses.append(response)

    for i in range(50):
        system.kernel.process(client(i))
    system.kernel.run(until=30.0)
    assert len(responses) == 50
    assert all(r.status == HttpStatus.OK for r in responses)


def test_unnamed_servers_are_numbered_per_kernel():
    """Default names depend on the simulation alone, not on what the
    process built before it."""
    first, second = (
        SingleNodeRig(seed=0, n_clients=1, with_recovery_manager=False)
        for _ in range(2)
    )
    assert first.system.server.name == second.system.server.name == "server-1"

    kernel = Kernel()
    names = [ApplicationServer(kernel, rng=None).name for _ in range(2)]
    names.append(ApplicationServer(kernel, rng=None, name="node7").name)
    names.append(ApplicationServer(Kernel(), rng=None).name)
    assert names == ["server-1", "server-2", "node7", "server-1"]
