"""Causal request-path spans: who actually called whom, per request.

The :class:`~repro.telemetry.trace.TraceBus` records flat events; this
layer adds *causality*.  A per-request :class:`TraceContext` travels on the
:class:`~repro.appserver.http.HttpRequest` through the load balancer, the
application server, and every container invocation, recording one
:class:`Span` per component call (the calling span, the component, and
whether the call raised).  When the request finishes — the issuing client
knows the detector verdict, so it closes the trace — :meth:`TraceContext
.finish` returns the fields the client's ``request.end`` record carries:
``calls`` (one ``[parent, component]`` pair per span, ``parent`` being the
calling span's index or null), ``failed_in`` and, when the span cap cut
the trace, ``truncated``.  That record is the only way a path leaves the
layer: ``repro paths`` renders the call trees from a ``--trace`` timeline,
and the live :class:`~repro.diagnosis.PathAnalyzer` reads the same record
off the bus for Pinpoint-style fault localization.

The collector itself publishes nothing.  Memory stays bounded: spans live
only inside their trace context, which is dropped when the request
finishes, a per-trace span cap guards against runaway recursion, and the
collector holds no references to open traces — an abandoned request's
context is garbage the moment its request object is.

A disabled collector (the default) costs one attribute check per request
at the server edge and one ``ctx.trace is None`` check per component call,
mirroring the disabled-TraceBus contract that keeps the telemetry layer
inside its <10% overhead budget.
"""

#: Whether newly constructed collectors start enabled (see
#: :func:`set_default_spans`); flipped by the CLI for ``--trace`` runs.
_default_enabled = False


def set_default_spans(enabled):
    """Make collectors created from now on start enabled; returns the old
    value.  The span analogue of ``trace.set_default_tracing``."""
    global _default_enabled
    previous = _default_enabled
    _default_enabled = bool(enabled)
    return previous


def spans_enabled_by_default():
    return _default_enabled


class Span:
    """One component call in one request."""

    __slots__ = ("span_id", "parent_id", "component", "failed")

    def __init__(self, span_id, parent_id, component):
        self.span_id = span_id
        self.parent_id = parent_id
        self.component = component
        #: Set when the call raises.  A span the request abandons open (a
        #: deadlocked component holds its span until the thread is killed,
        #: and the trace may finish first) has not failed.
        self.failed = False

    def __repr__(self):
        state = " failed" if self.failed else ""
        return f"<Span {self.span_id} {self.component}{state}>"


class TraceContext:
    """Per-request span book-keeping, carried on the HttpRequest."""

    __slots__ = ("max_spans", "spans", "finished", "truncated")

    def __init__(self, max_spans):
        self.max_spans = max_spans
        self.spans = []
        self.finished = False
        self.truncated = False

    def start_span(self, component, parent=None):
        """Open a span for ``component``; returns None past the span cap.

        Callers must tolerate None: a trace that blew its cap keeps its
        truncation visible instead of growing without bound under runaway
        recursion, and a finished trace records no more calls.  The
        container marks the span ``failed`` if the call raises.
        """
        if self.finished:
            return None
        if len(self.spans) >= self.max_spans:
            self.truncated = True
            return None
        span = Span(
            span_id=len(self.spans),
            parent_id=parent.span_id if parent is not None else None,
            component=component,
        )
        self.spans.append(span)
        return span

    def finish(self):
        """Close the trace; returns the fields its ``request.end`` adds:
        ``calls`` in span order, ``failed_in`` (the components whose call
        raised, first failure first) and ``truncated`` only when the span
        cap cut the trace."""
        self.finished = True
        spans = self.spans
        observed = {
            "calls": tuple((span.parent_id, span.component) for span in spans),
            "failed_in": tuple(dict.fromkeys(
                span.component for span in spans if span.failed
            )),
        }
        if self.truncated:
            observed["truncated"] = True
        return observed

    def __repr__(self):
        return f"<TraceContext {len(self.spans)} spans>"


class SpanCollector:
    """Starts request traces while enabled."""

    MAX_SPANS_PER_TRACE = 256

    def __init__(self, enabled=None, max_spans_per_trace=MAX_SPANS_PER_TRACE):
        self.enabled = _default_enabled if enabled is None else bool(enabled)
        self.max_spans_per_trace = max_spans_per_trace
        self.traces_started = 0

    def start_trace(self):
        """New TraceContext (even when disabled — use :meth:`attach`)."""
        self.traces_started += 1
        return TraceContext(self.max_spans_per_trace)

    def attach(self, request):
        """Ensure ``request`` carries a trace context; no-op when disabled.

        Idempotent across hops: the load balancer and the server may both
        call this, and only the first creates the context.
        """
        if not self.enabled:
            return None
        if request.trace is None:
            request.trace = self.start_trace()
        return request.trace

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"<SpanCollector {state} traces={self.traces_started}>"
