"""The trace bus: typed, timestamped events in a bounded ring buffer.

Every simulation kernel owns one bus (``kernel.trace``); instrumented
components publish events through it.  Publishing is O(1) and the buffer is
bounded, so million-request runs stay O(1) memory; a disabled bus costs one
attribute check per publish and records nothing, keeping the hot path clean
for runs that do not opt in.

Event taxonomy (the kinds published by the built-in instrumentation):

========================================  =====================================
kind                                      published by / payload highlights
========================================  =====================================
``request.end``                           workload client, once per request:
                                          client, operation, ok, duration,
                                          failure kind, retries, server (that
                                          admitted the last attempt, or None)
                                          and status (HTTP status, "network",
                                          or None when the client gave up)
``component.destroy``                     container teardown; cause
``component.microreboot.begin`` / ``.end``  microreboot coordinator; level,
                                          components, duration
``detector.report``                       client-side detector flagged a
                                          response; kind, url
``rm.report`` / ``rm.decision`` /         recovery manager: report received,
``rm.action.end``                         action chosen, action finished
                                          (ok/error)
``lb.failover.begin`` / ``lb.failover``   load balancer: failover window
/ ``lb.failover.end``                     opened, one request redirected,
                                          window closed
``node.restart``                          node controller; action jvm|os
``trace.evicted``                         not published: ``write_timeline``
                                          puts it first in the section of a
                                          bus that lost records; evicted
                                          count, ``t`` from which the bus
                                          kept every record
========================================  =====================================
"""

import weakref
from collections import deque, namedtuple

#: Keys reserved for the envelope when events are flattened to JSONL.
RESERVED_KEYS = ("t", "seq", "kind", "bus")

#: Prefix of the kinds that describe a capture rather than the run
#: (``trace.evicted``): no component publishes one, and replay feeds none
#: to a consumer.
CAPTURE_PREFIX = "trace."

#: Rare-but-load-bearing kinds kept in a separate reserved ring: a long run
#: floods the main buffer with per-request events, and without this the
#: recovery story (a handful of events per incident) would be evicted first.
STICKY_PREFIXES = (
    "rm.",
    "component.microreboot.",
    "lb.failover",
    "lb.forward.error",
    "lb.link.",
    "lb.degraded",
    "lb.shed",
    "node.restart",
    "node.slowdown",
    "detector.mismatch",
    "fault.injected",
    "chaos.",
    "ssm.crash",
    "ssm.restart",
    "slo.",
    "alert.",
    "heap.",
    "shard.",
    "storm.",
    "reshard.",
    "cohort.migrate",
)

#: Whether newly constructed buses start enabled (see set_default_tracing).
_default_enabled = False

#: Every live bus, so an exporter can collect a whole run's timelines even
#: when the kernels are buried inside experiment rigs.
_buses = weakref.WeakSet()

#: Active capture scopes: each holds STRONG references to buses created
#: while it is open, so a timeline survives its kernel being garbage
#: collected before the capture exports it.
_capture_scopes = []


def begin_capture():
    """Start collecting strong refs to new buses; returns the scope list."""
    scope = []
    _capture_scopes.append(scope)
    return scope


def end_capture(scope):
    try:
        _capture_scopes.remove(scope)
    except ValueError:
        pass


def set_default_tracing(enabled):
    """Make buses created from now on start enabled; returns the old value.

    This is how the CLI turns on tracing for experiment runs without
    threading a flag through every rig constructor.
    """
    global _default_enabled
    previous = _default_enabled
    _default_enabled = bool(enabled)
    return previous


def tracing_enabled_by_default():
    return _default_enabled


def all_buses():
    """Every live TraceBus, in no particular order."""
    return list(_buses)


class TraceEvent(namedtuple("TraceEvent", ("t", "seq", "kind", "fields"))):
    """One published event: simulation time (seconds), per-bus publication
    sequence number, dotted event type (e.g. ``"request.end"``) and payload.

    The rings keep no events: each record is one flat row (see
    :class:`TraceBus`), and an event is built from it only when
    :meth:`TraceBus.events` reads it back.  :meth:`TraceBus.publish`
    returns one around the payload it was given.
    """

    __slots__ = ()

    def flatten(self, bus=None):
        """Envelope + payload as one flat dict (for JSONL export)."""
        record = {"t": self.t, "seq": self.seq, "kind": self.kind}
        if bus is not None:
            record["bus"] = bus
        for key, value in self.fields.items():
            record[key if key not in RESERVED_KEYS else f"x_{key}"] = value
        return record


def record_fields(record):
    """A flattened record's payload as published: the inverse of
    :meth:`TraceEvent.flatten` (envelope dropped, ``x_`` remaps undone)."""
    return {
        key[2:] if key[:2] == "x_" and key[2:] in RESERVED_KEYS else key: value
        for key, value in record.items()
        if key not in RESERVED_KEYS
    }


def _normalize_kinds(kinds):
    """(exact kinds frozenset, prefix tuple) from a str or iterable.

    A kind ending in ``*`` subscribes to the whole prefix, e.g.
    ``"component.*"``.
    """
    if kinds is None:
        return None, ()
    if isinstance(kinds, str):
        kinds = (kinds,)
    exact, prefixes = set(), []
    for kind in kinds:
        if kind.endswith("*"):
            prefixes.append(kind[:-1])
        else:
            exact.add(kind)
    return frozenset(exact), tuple(prefixes)


class _Subscription:
    """One subscriber: callback plus its kind filter."""

    __slots__ = ("callback", "exact", "prefixes")

    def __init__(self, callback, kinds):
        self.callback = callback
        self.exact, self.prefixes = _normalize_kinds(kinds)

    def matches(self, kind):
        if self.exact is None:
            return True
        return kind in self.exact or any(
            kind.startswith(prefix) for prefix in self.prefixes
        )


class TraceBus:
    """Bounded publish/subscribe event log attached to one kernel."""

    DEFAULT_CAPACITY = 65536
    STICKY_CAPACITY = 8192

    def __init__(self, kernel=None, capacity=DEFAULT_CAPACITY, enabled=None,
                 label=None):
        self.kernel = kernel
        self.label = label
        self.enabled = _default_enabled if enabled is None else bool(enabled)
        #: The two rings hold rows, one flat tuple per record:
        #: ``(t, seq, kind, keys, *values)``.  ``keys`` is the payload's key
        #: tuple, shared through ``_keysets`` by every row whose payload has
        #: the same keys in the same order; a sticky row is one object in
        #: both rings.
        self._buffer = deque(maxlen=capacity)
        self._sticky = deque(maxlen=self.STICKY_CAPACITY)
        self._keysets = {}
        self._subscriptions = []
        #: kind -> (sticky?, matching callbacks): built on a kind's first
        #: publish, dropped whenever the subscriptions change.
        self._routes = {}
        self._seq = 0
        #: Total events ever published (buffered or since evicted).
        self.published = 0
        _buses.add(self)
        for scope in _capture_scopes:
            scope.append(self)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, kind, /, **fields):
        """Record one event; returns it, or None when the bus is disabled."""
        if not self.enabled:
            return None
        t = self.kernel.now if self.kernel is not None else 0.0
        seq = self._seq
        self._seq = seq + 1
        self.published += 1
        keys = tuple(fields)
        row = (t, seq, kind, self._keysets.setdefault(keys, keys),
               *fields.values())
        self._buffer.append(row)
        route = self._routes.get(kind)
        if route is None:
            route = self._route(kind)
        sticky, callbacks = route
        if sticky:
            self._sticky.append(row)
        for callback in callbacks:
            callback(t, kind, fields)
        return TraceEvent(t, seq, kind, fields)

    def _route(self, kind):
        """Build and cache ``kind``'s (sticky?, matching callbacks) route."""
        route = self._routes[kind] = (
            kind.startswith(STICKY_PREFIXES),
            tuple(
                subscription.callback
                for subscription in self._subscriptions
                if subscription.matches(kind)
            ),
        )
        return route

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------
    def subscribe(self, callback, kinds=None):
        """Call ``callback(t, kind, fields)`` on every matching publish.

        ``kinds`` is a kind, an iterable of kinds, or None for everything;
        a trailing ``*`` matches a prefix (``"rm.*"``).  Returns a token
        for :meth:`unsubscribe`.

        Callbacks run in subscription order.  A publish delivers to the
        subscribers as they stood when it began: a callback that subscribes
        or unsubscribes during a publish takes effect from the next one.
        """
        subscription = _Subscription(callback, kinds)
        self._subscriptions.append(subscription)
        self._routes.clear()
        return subscription

    def unsubscribe(self, token):
        try:
            self._subscriptions.remove(token)
        except ValueError:
            pass
        self._routes.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def capacity(self):
        return self._buffer.maxlen

    @property
    def dropped(self):
        """Events evicted from the ring buffer by newer ones."""
        return self.published - len(self._buffer)

    @property
    def complete_from(self):
        """Time of the main ring's oldest event (0.0 when it is empty):
        every event published since is buffered.  Sticky events kept from
        before it are what survived of the earlier ones."""
        return self._buffer[0][0] if self._buffer else 0.0

    def __len__(self):
        return len(self._buffer)

    def events(self, kinds=None):
        """Buffered events, oldest first, optionally filtered like subscribe.

        Merges the main ring with the reserved sticky ring (recovery /
        failover kinds survive request floods), deduplicated by sequence.
        Each event is built from its row here, with a fresh payload dict.
        """
        if not self._sticky:
            rows = self._buffer
        else:
            merged = {row[1]: row for row in self._sticky}
            merged.update((row[1], row) for row in self._buffer)
            rows = [merged[seq] for seq in sorted(merged)]
        if kinds is not None:
            matcher = _Subscription(None, kinds)
            rows = [row for row in rows if matcher.matches(row[2])]
        return [
            TraceEvent(row[0], row[1], row[2], dict(zip(row[3], row[4:])))
            for row in rows
        ]

    def clear(self):
        self._buffer.clear()
        self._sticky.clear()

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<TraceBus {self.label or ''} {state} "
            f"{len(self._buffer)}/{self.capacity} events>"
        )
