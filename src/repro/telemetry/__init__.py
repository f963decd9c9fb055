"""Structured tracing and metrics for the whole stack.

The paper's argument is quantitative — Taw dips, per-component microreboot
times, detection latency — so the reproduction carries a first-class,
zero-dependency observability layer instead of per-experiment ad-hoc
counters:

* :class:`TraceBus` — every :class:`~repro.sim.kernel.Kernel` owns one.
  Components publish typed, timestamped events (``request.end``, one per
  client request; ``component.microreboot.begin`` …) to subscriber
  callbacks; the bus itself stores none.  Disabled by default: a run that
  does not opt in counts zero events and pays one attribute check per
  publish.
* :class:`MetricsRegistry` — named counters, gauges, counter families and
  streaming histograms (p50/p95/p99 without storing samples) that back the
  counters of ``cluster.load_balancer`` and ``core.recovery_manager``.
* JSONL timeline capture (:func:`capture_to_jsonl` writes every event of
  the buses built inside it as it is published), the streaming reader
  every timeline subcommand replays through (:func:`read_timeline`), and
  :class:`TimelineSummary`, behind ``python -m repro trace <file>``: per
  bus, the recovery timeline, failover windows and slowest requests.
"""

from repro.telemetry.export import (
    TimelineError,
    TimelineSummary,
    capture_to_jsonl,
    read_timeline,
)
from repro.telemetry.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    RequestPath,
    Span,
    SpanCollector,
    TraceContext,
    set_default_spans,
    spans_enabled_by_default,
)
from repro.telemetry.trace import (
    TraceBus,
    set_default_tracing,
    tracing_enabled_by_default,
)

__all__ = [
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "MetricsRegistry",
    "RequestPath",
    "Span",
    "SpanCollector",
    "TimelineError",
    "TimelineSummary",
    "TraceBus",
    "TraceContext",
    "capture_to_jsonl",
    "read_timeline",
    "set_default_spans",
    "set_default_tracing",
    "spans_enabled_by_default",
    "tracing_enabled_by_default",
]
