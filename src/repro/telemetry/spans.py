"""Causal request-path spans: who actually called whom, per request.

The :class:`~repro.telemetry.trace.TraceBus` records flat events; this
layer adds *causality*.  A per-request :class:`TraceContext` travels on the
:class:`~repro.appserver.http.HttpRequest` through the load balancer, the
application server, and every container invocation, recording one
:class:`Span` per component call (the calling span, the component, and
whether the call raised).  When the request finishes — the issuing client
knows the detector verdict, so it closes the trace — the completed
:class:`RequestPath` goes two ways:

* the client's ``request.end`` record carries its ``calls`` (one
  ``[parent, component]`` pair per span, ``parent`` being the calling
  span's index or null) and ``failed_in``, so ``--trace`` JSONL timelines
  carry observed call trees that ``repro paths`` can render;
* registered *path sinks* (the :class:`~repro.diagnosis.PathAnalyzer`)
  aggregate failed-vs-successful path membership for Pinpoint-style
  fault localization feeding the recovery manager.

The collector itself publishes nothing.  Memory stays bounded: spans live
only inside their trace context, which is dropped when the request
finishes (sinks receive a compact :class:`RequestPath`, never the span
objects), a per-trace span cap guards against runaway recursion, and the
collector holds no references to open traces — an abandoned request's
context is garbage the moment its request object is.

A disabled collector (the default) costs one attribute check per request
at the server edge and one ``ctx.trace is None`` check per component call,
mirroring the disabled-TraceBus contract that keeps the telemetry layer
inside its <10% overhead budget.
"""

from itertools import count

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


class RequestPath:
    """Compact record of one completed request's observed call path.

    This — not the span objects — is what path sinks receive: the calls in
    span order, component membership in first-call order, the observed
    parent→child call edges, the components whose call raised, and the
    client-side verdict.
    """

    __slots__ = ("trace_id", "operation", "ok", "failure", "finished_at",
                 "calls", "components", "edges", "failed_in", "truncated")

    def __init__(self, trace_id, operation, ok, failure, finished_at, calls,
                 components, edges, failed_in, truncated):
        self.trace_id = trace_id
        self.operation = operation
        self.ok = ok
        self.failure = failure
        self.finished_at = finished_at
        self.calls = calls  # tuple of (parent span index or None, component)
        self.components = components  # tuple, first-call order, unique
        self.edges = edges  # tuple of (parent_component, child_component)
        self.failed_in = failed_in  # components whose call raised
        self.truncated = truncated  # the span cap cut the trace

    def __repr__(self):
        state = "ok" if self.ok else f"FAILED({self.failure})"
        return (
            f"<RequestPath {self.trace_id} {self.operation} "
            f"{'>'.join(self.components)} {state}>"
        )


class TraceContext:
    """Per-request span book-keeping, carried on the HttpRequest."""

    __slots__ = ("collector", "trace_id", "operation", "spans", "finished",
                 "truncated")

    def __init__(self, collector, trace_id, operation):
        self.collector = collector
        self.trace_id = trace_id
        self.operation = operation
        self.spans = []
        self.finished = False
        self.truncated = False

    def start_span(self, component, parent=None):
        """Open a span for ``component``; returns None past the span cap.

        Callers must tolerate None: a trace that blew its cap keeps its
        truncation visible instead of growing without bound under runaway
        recursion.  The container marks the span ``failed`` if the call
        raises.
        """
        if self.finished:
            return None
        if len(self.spans) >= self.collector.max_spans_per_trace:
            self.truncated = True
            return None
        span = Span(
            span_id=len(self.spans),
            parent_id=parent.span_id if parent is not None else None,
            component=component,
        )
        self.spans.append(span)
        return span

    def finish(self, ok, failure=None):
        """Close the trace with the client-side verdict; returns the
        :class:`RequestPath` delivered to the sinks (or None if already
        closed)."""
        if self.finished:
            return None
        self.finished = True
        return self.collector._finish(self, bool(ok), failure)

    def __repr__(self):
        return (
            f"<TraceContext {self.trace_id} {self.operation} "
            f"{len(self.spans)} spans>"
        )


class SpanCollector:
    """Creates, completes, and fans out request traces for one kernel."""

    MAX_SPANS_PER_TRACE = 256

    def __init__(self, kernel=None, enabled=None,
                 max_spans_per_trace=MAX_SPANS_PER_TRACE):
        self.kernel = kernel
        self.enabled = _default_enabled if enabled is None else bool(enabled)
        self.max_spans_per_trace = max_spans_per_trace
        #: Callables invoked with each completed RequestPath.
        self.sinks = []
        self.traces_started = 0
        self.paths_recorded = 0
        self._trace_ids = count(1)

    @property
    def now(self):
        return self.kernel.now if self.kernel is not None else 0.0

    def add_sink(self, sink):
        """Register ``sink(request_path)``; returns it for unregistering."""
        self.sinks.append(sink)
        return sink

    def remove_sink(self, sink):
        try:
            self.sinks.remove(sink)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Trace creation
    # ------------------------------------------------------------------
    def start_trace(self, operation):
        """New TraceContext (even when disabled — use :meth:`attach`)."""
        self.traces_started += 1
        return TraceContext(self, next(self._trace_ids), operation)

    def attach(self, request):
        """Ensure ``request`` carries a trace context; no-op when disabled.

        Idempotent across hops: the load balancer and the server may both
        call this, and only the first creates the context.
        """
        if not self.enabled:
            return None
        if request.trace is None:
            request.trace = self.start_trace(request.operation)
        return request.trace

    # ------------------------------------------------------------------
    # Trace completion
    # ------------------------------------------------------------------
    def _finish(self, trace, ok, failure):
        spans = trace.spans
        components, edges, failed_in = [], [], []
        for span in spans:
            component = span.component
            if component not in components:
                components.append(component)
            if span.parent_id is not None:
                edge = (spans[span.parent_id].component, component)
                if edge not in edges:
                    edges.append(edge)
            if span.failed and component not in failed_in:
                failed_in.append(component)
        path = RequestPath(
            trace_id=trace.trace_id,
            operation=trace.operation,
            ok=ok,
            failure=failure,
            finished_at=self.now,
            calls=tuple((span.parent_id, span.component) for span in spans),
            components=tuple(components),
            edges=tuple(edges),
            failed_in=tuple(failed_in),
            truncated=trace.truncated,
        )
        self.paths_recorded += 1
        for sink in self.sinks:
            sink(path)
        return path

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<SpanCollector {state} traces={self.traces_started} "
            f"paths={self.paths_recorded}>"
        )
