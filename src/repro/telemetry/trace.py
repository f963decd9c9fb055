"""The trace bus: typed, timestamped events routed to subscribers.

Every simulation kernel owns one bus (``kernel.trace``); instrumented
components publish events through it.  The bus stores no event: an enabled
publish stamps the event with the simulation time, counts it and calls the
matching subscribers, so a run's memory does not grow with its event count;
a disabled bus costs one attribute check per publish and counts nothing,
keeping the hot path clean for runs that do not opt in.  A capture
(:func:`repro.telemetry.export.capture_to_jsonl`) is what records events:
it subscribes a writer to every bus constructed inside it.

Event taxonomy (the kinds published by the built-in instrumentation):

========================================  =====================================
kind                                      published by / payload highlights
========================================  =====================================
``request.end``                           workload client, once per request:
                                          client, operation, ok, duration,
                                          failure kind, retries, server (that
                                          admitted the last attempt, or None)
                                          and status (HTTP status, "network",
                                          or None when the client gave up);
                                          a request the span layer traced
                                          adds calls (one (parent span index
                                          or None, component) pair per span),
                                          failed_in (components whose call
                                          raised) and, only when the span cap
                                          cut the trace, truncated=True
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
========================================  =====================================
"""

#: Keys reserved for the envelope when events are written as JSONL.
RESERVED_KEYS = ("t", "seq", "kind", "bus")

#: Whether newly constructed buses start enabled (see set_default_tracing).
_default_enabled = False

#: Open captures: each is called with every bus constructed while it is
#: registered (see :func:`begin_capture`).
_capture_hooks = []


def begin_capture(on_bus):
    """Call ``on_bus(bus)`` with every bus constructed from now until
    :func:`end_capture` is given the same callable; returns it."""
    _capture_hooks.append(on_bus)
    return on_bus


def end_capture(on_bus):
    try:
        _capture_hooks.remove(on_bus)
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


#: ``(written name, payload name)`` of a payload key named like an
#: envelope key: a capture writes it with an ``x_`` prefix.
_REMAPS = tuple((f"x_{key}", key) for key in RESERVED_KEYS)


def record_fields(record):
    """A timeline record's payload as published: the envelope dropped and
    the ``x_`` remaps of payload keys named like envelope keys undone
    (a remapped key moves to the end of the payload)."""
    fields = dict(record)
    for key in RESERVED_KEYS:
        fields.pop(key, None)
    for written, key in _REMAPS:
        if written in fields:
            fields[key] = fields.pop(written)
    return fields


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
    """Publish/subscribe event router attached to one kernel."""

    #: The bus keeps no event, so it never drops one: always 0.
    dropped = 0

    def __init__(self, kernel=None, enabled=None, label=None):
        self.kernel = kernel
        self.label = label
        self.enabled = _default_enabled if enabled is None else bool(enabled)
        self._subscriptions = []
        #: kind -> matching callbacks: built on a kind's first publish,
        #: dropped whenever the subscriptions change.
        self._routes = {}
        #: Events published so far; an event's sequence number is the
        #: count before it.
        self.published = 0
        for on_bus in _capture_hooks:
            on_bus(self)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, kind, /, **fields):
        """Stamp one event and call the subscribers that match ``kind``."""
        if not self.enabled:
            return
        t = self.kernel.now if self.kernel is not None else 0.0
        self.published += 1
        callbacks = self._routes.get(kind)
        if callbacks is None:
            callbacks = self._route(kind)
        for callback in callbacks:
            callback(t, kind, fields)

    def _route(self, kind):
        """Build and cache ``kind``'s matching callbacks."""
        callbacks = self._routes[kind] = tuple(
            subscription.callback
            for subscription in self._subscriptions
            if subscription.matches(kind)
        )
        return callbacks

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

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<TraceBus {self.label or ''} {state} "
            f"{self.published} published>"
        )
