"""Bench: wall-clock cost of the telemetry layer on the Figure 1 scenario.

Three configurations of the same scaled-down Figure 1 microreboot run are
timed:

* ``plain`` — tracing and spans disabled (the default).  Instrumentation
  publishes unconditionally and the bus/collector no-op, so no events
  exist afterwards; this run pins the *disabled-mode* overhead budget.
* ``spans`` — the causal span layer enabled (per-request call trees
  feeding a PathAnalyzer), TraceBus still off.
* ``traced`` — the TraceBus enabled, spans off: every event is published
  and routed, none is written.

Wall-clock comparisons are noisy, so the three are timed back to back in
each of ``ROUNDS`` rounds, the one going first rotating from round to
round, and each overhead is the median over rounds of that round's ratio
to ``plain``: a change in host speed lands on the configurations of one
round alike, and a round that a burst of load hit counts once.  The
measured numbers are written to ``BENCH_telemetry.json`` at the
repository root so the perf trajectory is tracked across PRs.
"""

import json
import statistics
import time

from benchmarks import gates
from repro.experiments.figure1 import run_one_policy
from repro.telemetry import set_default_spans, set_default_tracing
from repro.telemetry.trace import begin_capture, end_capture

ROUNDS = 15
N_CLIENTS = 60
FAULT_TIMES = (60.0, 120.0, 180.0)
DURATION = 240.0
MAX_OVERHEAD = 0.10
CONFIGS = (
    ("plain", {}),
    ("spans", {"spans": True}),
    ("traced", {"traced": True}),
)


def timed_run(traced=False, spans=False):
    previous_trace = set_default_tracing(traced)
    previous_spans = set_default_spans(spans)
    buses = []  # counted, never written
    hook = begin_capture(buses.append)
    started = time.perf_counter()
    try:
        run_one_policy("microreboot", 0, N_CLIENTS, FAULT_TIMES, DURATION)
    finally:
        elapsed = time.perf_counter() - started
        set_default_tracing(previous_trace)
        set_default_spans(previous_spans)
        end_capture(hook)
    return elapsed, sum(bus.published for bus in buses)


def test_telemetry_overhead_under_budget():
    timed_run()  # warm up imports, JIT-less but caches still matter
    times = {config: [] for config, _kwargs in CONFIGS}
    events = dict.fromkeys(times, 0)
    for round_ in range(ROUNDS):
        first = round_ % len(CONFIGS)
        for config, kwargs in CONFIGS[first:] + CONFIGS[:first]:
            elapsed, published = timed_run(**kwargs)
            times[config].append(elapsed)
            events[config] += published

    # Disabled telemetry records nothing at all; enabled records plenty.
    assert events["plain"] == 0
    assert events["traced"] > 0

    def overhead(config):
        return statistics.median(
            t / plain for t, plain in zip(times[config], times["plain"])
        ) - 1

    trace_overhead = overhead("traced")
    span_overhead = overhead("spans")
    median = {
        config: statistics.median(series) for config, series in times.items()
    }
    events_per_sec = events["traced"] / ROUNDS / median["traced"]

    report = {
        "scenario": "figure1-microreboot",
        "n_clients": N_CLIENTS,
        "sim_duration_s": DURATION,
        "rounds": ROUNDS,
        "plain_s": round(median["plain"], 4),
        "traced_s": round(median["traced"], 4),
        "spans_s": round(median["spans"], 4),
        "trace_overhead_pct": round(100 * trace_overhead, 2),
        "span_overhead_pct": round(100 * span_overhead, 2),
        "events_per_run": events["traced"] // ROUNDS,
        "events_per_sec": round(events_per_sec),
    }
    print("\n" + json.dumps(report, indent=2))

    if gates.enabled():
        assert trace_overhead < MAX_OVERHEAD, (
            f"tracing added {100 * trace_overhead:.1f}% wall-clock overhead "
            f"(budget {100 * MAX_OVERHEAD:.0f}%)"
        )
        # The span layer does strictly more bookkeeping per request than
        # the bus (object per component call), so its enabled budget is
        # looser — what must stay tight is the *disabled* path, covered by
        # "plain" being the baseline every overhead above is measured
        # against.
        assert span_overhead < 2 * MAX_OVERHEAD, (
            f"spans added {100 * span_overhead:.1f}% wall-clock overhead "
            f"(budget {100 * 2 * MAX_OVERHEAD:.0f}%)"
        )
    gates.record("BENCH_telemetry.json", report)
