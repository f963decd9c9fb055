"""Test helper: the events a trace bus publishes, kept by a subscriber."""

from collections import namedtuple

#: One published event as a subscriber received it.
Event = namedtuple("Event", ("t", "kind", "fields"))


def record(bus, kinds=None):
    """Subscribe a list to ``bus`` and return it.

    Every matching event published from now on is appended as an
    :class:`Event`.  A subscriber sees an event after those subscribed
    before it, so a nested publish from one of them lands ahead of the
    event that caused it: subscribe first to keep publish order.
    """
    events = []
    bus.subscribe(
        lambda t, kind, fields: events.append(Event(t, kind, fields)), kinds
    )
    return events
