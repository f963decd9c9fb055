"""The tracer's wrappers are transparent, and its self times add up."""

import itertools

import pytest

import tracer as tracing
from repro.appserver.http import HttpRequest
from repro.ebid.app import build_ebid_system
from repro.ebid.descriptors import operation_url
from repro.ebid.schema import DatasetConfig
from repro.faults.injector import FaultInjector


class FakeClock:
    """Advances one tick per reading, so every span has a known length."""

    def __init__(self):
        self._ticks = itertools.count()

    def __call__(self):
        return float(next(self._ticks))


def conversation(log):
    """A generator that echoes sends, handles one error and returns."""
    try:
        received = yield "ready"
        log.append(("sent", received))
        try:
            yield "again"
        except KeyError as exc:
            log.append(("caught", exc.args[0]))
        received = yield "last"
        return ("done", received)
    finally:
        log.append("finally")


def drive(factory, script):
    """Apply (op, arg) steps to a fresh generator; record what comes out."""
    log = []
    gen = factory(log)
    out = []
    for op, arg in script:
        try:
            if op == "send":
                out.append(("yield", gen.send(arg)))
            elif op == "throw":
                out.append(("yield", gen.throw(arg)))
            else:
                gen.close()
                out.append(("closed",))
        except StopIteration as stop:
            out.append(("return", stop.value))
        except Exception as exc:  # noqa: BLE001 - compared below
            out.append(("raised", type(exc).__name__, exc.args))
    return out, log


SCRIPTS = {
    "return": [("send", None), ("send", 1), ("throw", KeyError("k")),
               ("send", 2)],
    "uncaught throw": [("send", None), ("send", 1), ("send", None),
                       ("throw", ValueError("v"))],
    "close": [("send", None), ("send", 1), ("close", None)],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_wrapped_generator_passes_everything_through(script):
    tracer = tracing.Tracer(clock=FakeClock())
    wrapped = tracing.timed_generator(tracer, "layer", conversation)
    tracer.begin("run")
    assert drive(wrapped, SCRIPTS[script]) == drive(
        conversation, SCRIPTS[script]
    )
    tracer.end()
    assert tracer.calls == {"layer": 1}
    assert not tracer._stack


def test_wrapped_generator_keeps_its_name():
    tracer = tracing.Tracer(clock=FakeClock())
    gen = tracing.timed_generator(tracer, "layer", conversation)([])
    assert gen.__name__ == "conversation"


def test_nested_self_times_sum_to_the_root_span():
    tracer = tracing.Tracer(clock=FakeClock())

    def leaf():
        return "leaf"

    def inner():
        return timed_leaf() + timed_leaf()

    def outer():
        return timed_inner() + timed_leaf()

    timed_leaf = tracing.timed(tracer, "stores", leaf)
    timed_inner = tracing.timed(tracer, "appserver", inner)
    timed_outer = tracing.timed(tracer, "sim", outer)
    start = tracer.begin("run")
    assert timed_outer() == "leafleafleaf"
    end = tracer.end()
    times = tracer.layer_times("run")
    assert sum(times.values()) == end - start
    assert tracer.calls == {"sim": 1, "appserver": 1, "stores": 3}
    assert tracer.edges == {
        ("experiments", "sim"): 1, ("sim", "appserver"): 1,
        ("appserver", "stores"): 2, ("sim", "stores"): 1,
    }
    # Each leaf span is exactly one tick wide; the rest is nesting overhead.
    assert times["stores"] == 3.0


def test_phases_are_kept_apart():
    tracer = tracing.Tracer(clock=FakeClock())
    work = tracing.timed(tracer, "cohort", lambda: None)
    for phase in ("setup", "run", "run"):
        tracer.begin(phase)
        work()
        tracer.end()
    assert tracer.layer_times("setup")["cohort"] == 1.0
    assert tracer.layer_times("run")["cohort"] == 2.0


def _interrupted_request():
    """A request deadlocked in BrowseCategories, freed by a microreboot."""
    system = build_ebid_system(dataset=DatasetConfig.tiny())
    kernel = system.kernel
    FaultInjector(system).inject_deadlock("BrowseCategories")
    request = HttpRequest(
        url=operation_url("BrowseCategories"), operation="BrowseCategories",
        params={}, cookie=None, idempotent=True, client_id=1,
    )
    done = system.server.handle_request(request)
    kernel.run(until=kernel.now + 1.0)
    container = system.server.containers["BrowseCategories"]
    stuck = (done.triggered, len(container.active_invocations))
    kernel.process(system.coordinator.microreboot(["BrowseCategories"]))
    kernel.run(until=kernel.now + 10.0)
    response = done.value
    return {
        "stuck": stuck,
        "status": response.status,
        "body": response.body,
        "failed_invocations": container.failed_invocation_count,
        "active": len(container.active_invocations),
        "deaths": kernel.unhandled_failure_count,
        "events": kernel.events_processed,
    }


def test_interrupt_lands_in_a_wrapped_container_invoke():
    plain = _interrupted_request()
    assert plain["stuck"] == (False, 1)
    assert "microreboot:BrowseCategories" in plain["body"]

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.begin("run")
        traced = _interrupted_request()
        tracer.end()
    finally:
        uninstall()
    assert traced == plain
    assert tracer.calls["appserver"] >= 3  # handle_request + two invokes
    assert tracer.calls["core"] == 1


def test_uninstall_restores_every_entry_point():
    from repro.appserver.container import Container
    from repro.telemetry.trace import TraceBus

    before = (Container.invoke, TraceBus.subscribe, TraceBus.publish)
    uninstall = tracing.install(tracing.Tracer())
    assert Container.invoke is not before[0]
    uninstall()
    assert (Container.invoke, TraceBus.subscribe, TraceBus.publish) == before
