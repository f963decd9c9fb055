"""HTTP request/response types for the simulated web tier.

Responses carry both a rendered ``body`` (scanned for failure keywords by
the simple detector, §4) and a canonical ``payload`` mapping (compared
field-by-field against a known-good instance by the comparison detector,
ignoring volatile fields to account for timing nondeterminism).
"""

import enum
from dataclasses import dataclass, field
from itertools import count


class HttpStatus(enum.IntEnum):
    OK = 200
    NOT_FOUND = 404
    INTERNAL_SERVER_ERROR = 500
    SERVICE_UNAVAILABLE = 503


_request_ids = count(1)


def longest_prefix(url, prefixes):
    """The longest of ``prefixes`` that ``url`` starts with, or None.

    This is the one URL-prefix rule shared by servlet routing, the load
    balancer's micro-failover check and the recovery manager's URL →
    call-path diagnosis.  On a tie the first such prefix in iteration
    order wins.
    """
    best = None
    for prefix in prefixes:
        if url.startswith(prefix) and (best is None or len(prefix) > len(best)):
            best = prefix
    return best


@dataclass(slots=True)
class HttpRequest:
    """One user operation's HTTP request.

    Attributes:
        url: path, e.g. ``/ebid/ViewItem``; the recovery manager's diagnosis
            maps URL prefixes to servlet→EJB call paths.
        operation: the logical end-user operation name (ViewItem, MakeBid,
            ...), used for workload accounting.
        params: operation parameters (item id, bid amount, ...).
        cookie: the HTTP session cookie, or None before login.
        idempotent: whether the operation can be safely re-issued; drives
            the transparent call-retry machinery of §6.2.
        client_id: issuing emulated client (for metrics attribution).
        trace: the :class:`~repro.telemetry.spans.TraceContext` attached at
            admission (LB or server), or None when spans are disabled.  The
            issuing client finishes it with the detector verdict.
        server: name of the server that admitted the current attempt, or
            None until one does.  The issuing client resets it before each
            attempt and reports it in its ``request.end`` record.
    """

    url: str
    operation: str
    params: dict = field(default_factory=dict)
    cookie: str = None
    idempotent: bool = True
    client_id: int = 0
    request_id: int = field(default_factory=_request_ids.__next__)
    trace: object = None
    server: str = None


@dataclass(slots=True)
class HttpResponse:
    """The reply to one request."""

    status: HttpStatus
    body: str = ""
    payload: dict = field(default_factory=dict)
    retry_after: float = None  # seconds, for 503 responses (§6.2)
    #: True when the client never got an HTTP reply at all (connection
    #: refused/reset); the simple detector treats this as a network-level
    #: error, its strongest failure signal.
    network_error: bool = False

    #: Payload keys excluded from known-good comparison (timing-dependent).
    VOLATILE_KEYS = ("elapsed", "timestamp", "served_by", "session_age")

    @property
    def is_error_status(self):
        return int(self.status) >= 400

    def comparable_payload(self):
        """Payload with volatile fields stripped, for the §4 comparator."""
        return {
            key: value
            for key, value in self.payload.items()
            if key not in self.VOLATILE_KEYS
        }


def status_key(response):
    """How telemetry names a response's status: the integer HTTP status,
    ``"network"`` for a network error, or None for no response at all."""
    if response is None:
        return None
    return "network" if response.network_error else int(response.status)


def error_response(status, message):
    """A failure response whose body carries detectable keywords."""
    return HttpResponse(status=status, body=f"<html>error: {message}</html>")


def exception_page(message):
    """A 200 page produced by *incorrect* exception handling (§5.1).

    Some eBid servlets swallow application exceptions and render a polite
    page; the simple detector only notices these through its keyword scan.
    """
    return HttpResponse(
        status=HttpStatus.OK,
        body=f"<html>We are sorry, an exception occurred: {message}</html>",
    )
