"""Per-layer host-time tracing for the benchmark's traced run.

The program under test is not edited: :func:`install` wraps each layer's
public entry points (the table in :data:`LAYERS`) with timing wrappers
defined here, and the returned callable puts the originals back.

A :class:`Tracer` keeps a stack of open spans.  On every transition
(span entered or left) the host time since the previous transition is
charged to the layer on top of the stack, so each layer's total is its
*self* time: span time minus the time covered by child spans.  The self
times of one phase therefore sum exactly to the phase's duration.
Generator entry points are timed once per resumption (each ``send``,
``throw`` or ``close``) and counted once per call.
"""

import functools
import importlib
import inspect
import time

#: layer -> [(module, class, attribute)] of the public entry points timed.
#: ``TraceBus.subscribe`` is special: the callbacks handed to it are timed
#: (as ``observability``), not the subscription call itself.
LAYERS = {
    "sim": [("repro.sim.kernel", "Kernel", "run")],
    "workload": [
        ("repro.workload.client", "EmulatedClient", "run"),
        ("repro.workload.metrics", "TawAccounting", "record_action"),
        ("repro.workload.metrics", "TawAccounting", "record_batch"),
    ],
    "cohort": [
        ("repro.workload.cohort", "CohortEngine", "__init__"),
        ("repro.workload.cohort", "CohortEngine", "run_tick"),
        ("repro.workload.cohort", "CohortEngine", "begin_migration"),
    ],
    "cluster": [
        ("repro.cluster.load_balancer", "LoadBalancer", "handle_request"),
        ("repro.cluster.load_balancer", "LoadBalancer", "begin_failover"),
        ("repro.cluster.load_balancer", "LoadBalancer", "end_failover"),
    ],
    "sharding": [
        ("repro.cluster.sharding", "ShardRing", "shard_for"),
        ("repro.cluster.sharding", "ShardRing", "preference"),
        ("repro.cluster.sharding", "BrickGroup", "read"),
        ("repro.cluster.sharding", "BrickGroup", "write"),
        ("repro.cluster.elasticity", "ReshardCoordinator", "add_shard"),
        ("repro.cluster.elasticity", "ReshardCoordinator", "remove_shard"),
    ],
    "appserver": [
        ("repro.appserver.server", "ApplicationServer", "handle_request"),
        ("repro.appserver.container", "Container", "invoke"),
    ],
    "stores": [
        ("repro.stores.database", "Database", name)
        for name in ("read", "select", "insert", "update", "delete",
                     "commit_transaction", "rollback_transaction")
    ] + [
        ("repro.stores.fasts", "FastS", "read"),
        ("repro.stores.fasts", "FastS", "write"),
        ("repro.stores.ssm", "SSM", "read"),
        ("repro.stores.ssm", "SSM", "write"),
    ],
    "core": [
        ("repro.core.recovery_manager", "RecoveryManager", "report"),
        ("repro.core.recovery_manager", "RecoveryManager", "preempt"),
        ("repro.core.microreboot", "MicrorebootCoordinator", "microreboot"),
    ],
    "detection": [("repro.detection.simple", "SimpleDetector", "evaluate")],
    "faults": [
        ("repro.faults.chaos", "ChaosEngine", "start"),
        ("repro.faults.chaos", "ShardStormEngine", "start"),
        ("repro.faults.injector", "FaultInjector", "*"),
    ],
    "telemetry": [("repro.telemetry.trace", "TraceBus", "publish")],
    "observability": [
        ("repro.telemetry.trace", "TraceBus", "subscribe"),
        ("repro.observability.incidents", "IncidentTracker", "finalize"),
        ("repro.observability.slo", "SloEngine", "evaluate"),
        ("repro.observability.cluster", "ShardMetricsAggregator", "collect"),
    ],
    "experiments": [
        ("repro.experiments.cluster_common", "ClusterRig", "__init__"),
        ("repro.experiments.chaos", "ChaosClusterRig", "__init__"),
        ("repro.experiments.chaos", "ChaosClusterRig", "outcome"),
        ("repro.experiments.megascale", "MegascaleRig", "__init__"),
        ("repro.experiments.megascale", "MegascaleRig", "outcome"),
        ("repro.experiments.megascale", "ProbeOutcomeModel", "outcome"),
        ("repro.experiments.storm", "StormRig", "__init__"),
        ("repro.experiments.storm", "StormRig", "outcome"),
    ],
}

#: Layer charged for time inside a phase that no entry point covers: the
#: benchmark's own calls into the rigs, i.e. rig glue.
ROOT_LAYER = "experiments"


class Tracer:
    """Span stack that accumulates self time per (phase, layer)."""

    def __init__(self, clock=time.process_time):
        self._clock = clock
        self._stack = []
        self._phase = None
        self._last = 0.0
        #: (phase, layer) -> host seconds of self time.
        self.self_s = {}
        #: layer -> boundary calls (generators count once per call).
        self.calls = {}
        #: (calling layer, called layer) -> boundary calls.
        self.edges = {}

    def _charge(self):
        now = self._clock()
        if self._stack:
            key = (self._phase, self._stack[-1])
            self.self_s[key] = self.self_s.get(key, 0.0) + (now - self._last)
        self._last = now

    def push(self, layer):
        """Open a span of ``layer`` (a resumption; not counted as a call)."""
        self._charge()
        self._stack.append(layer)

    def pop(self):
        """Close the innermost span."""
        self._charge()
        self._stack.pop()

    def call(self, layer):
        """Open a span of ``layer`` for one boundary call."""
        self.count(layer)
        self.push(layer)

    def count(self, layer):
        """Count one boundary call into ``layer`` from the current span."""
        self.calls[layer] = self.calls.get(layer, 0) + 1
        edge = (self._stack[-1] if self._stack else None, layer)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    def begin(self, phase):
        """Open the root span of ``phase``; returns the phase's start time."""
        if self._stack:
            raise RuntimeError(f"phase {phase!r} begun inside open spans")
        self._phase = phase
        self._last = self._clock()
        self._stack.append(ROOT_LAYER)
        return self._last

    def end(self):
        """Close the phase root; returns the phase's end time."""
        self._charge()
        self._stack.pop()
        if self._stack:
            raise RuntimeError(f"unbalanced spans at end of {self._phase!r}")
        self._phase = None
        return self._last

    def layer_times(self, phase):
        """layer -> self seconds within ``phase``."""
        return {
            layer: seconds
            for (p, layer), seconds in self.self_s.items()
            if p == phase
        }


def timed(tracer, layer, fn):
    """Wrap a plain function: one span per call."""
    call, pop = tracer.call, tracer.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        call(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            pop()

    return wrapper


def _resumed(tracer, layer, gen):
    """Drive ``gen`` like ``yield from`` would, one span per resumption."""
    push, pop = tracer.push, tracer.pop
    value = error = None
    while True:
        push(layer)
        try:
            if error is None:
                target = gen.send(value)
            else:
                target = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            pop()
        error = None
        try:
            value = yield target
        except GeneratorExit:
            push(layer)
            try:
                gen.close()
            finally:
                pop()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            error = exc


def timed_generator(tracer, layer, fn):
    """Wrap a generator function: counted per call, timed per resumption."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        tracer.count(layer)
        proxy = _resumed(tracer, layer, gen)
        proxy.__name__ = gen.__name__
        proxy.__qualname__ = gen.__qualname__
        return proxy

    return wrapper


def _timed_subscribe(tracer, layer, subscribe):
    @functools.wraps(subscribe)
    def wrapper(bus, callback, *args, **kwargs):
        return subscribe(bus, timed(tracer, layer, callback), *args, **kwargs)

    return wrapper


def _targets(module_name, class_name, attribute):
    cls = getattr(importlib.import_module(module_name), class_name)
    if attribute == "*":
        names = [
            name for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)
        ]
    else:
        names = [attribute]
    for name in names:
        fn = vars(cls).get(name)
        if not inspect.isfunction(fn):
            raise AttributeError(
                f"{module_name}.{class_name}.{name} is not a function "
                "defined on the class"
            )
        yield cls, name, fn


def install(tracer):
    """Wrap every entry point in :data:`LAYERS`; returns an undo callable."""
    saved = []
    for layer, entries in LAYERS.items():
        for module_name, class_name, attribute in entries:
            for cls, name, fn in _targets(module_name, class_name, attribute):
                if (class_name, name) == ("TraceBus", "subscribe"):
                    wrapped = _timed_subscribe(tracer, layer, fn)
                elif inspect.isgeneratorfunction(fn):
                    wrapped = timed_generator(tracer, layer, fn)
                else:
                    wrapped = timed(tracer, layer, fn)
                saved.append((cls, name, fn))
                setattr(cls, name, wrapped)

    def uninstall():
        for cls, name, fn in reversed(saved):
            setattr(cls, name, fn)

    return uninstall
