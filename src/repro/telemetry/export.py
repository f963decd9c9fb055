"""JSONL timeline export and the run summarizer behind ``repro trace``.

One JSONL line per event, envelope keys ``t``/``seq``/``kind``/``bus`` plus
the event's own payload fields flattened alongside.  A timeline may contain
events from several buses (figure-1 runs two kernels, one per policy); the
``bus`` field keeps them tellable-apart while the summary stays readable.
"""

import json
from contextlib import contextmanager
from pathlib import Path

from repro.telemetry.spans import set_default_spans
from repro.telemetry.trace import (
    CAPTURE_PREFIX,
    all_buses,
    begin_capture,
    end_capture,
    set_default_tracing,
)

#: The record :func:`write_timeline` puts first in the section of a bus
#: whose rings evicted records: ``evicted`` of them are lost, and its ``t``
#: is the time from which the bus kept every record
#: (:attr:`~repro.telemetry.trace.TraceBus.complete_from`).
EVICTED = "trace.evicted"


def write_timeline(path, buses=None):
    """Write every buffered event of ``buses`` to ``path`` as JSONL.

    Events are grouped by bus (in the given order) and time-ordered within
    each bus.  A bus that published more records than it kept starts its
    section with one :data:`EVICTED` record.  Returns the number of lines
    written.
    """
    if buses is None:
        buses = all_buses()
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for index, bus in enumerate(buses):
            bus_id = bus.label or index
            events = bus.events()
            evicted = bus.published - len(events)
            if evicted:
                note = {"t": bus.complete_from, "kind": EVICTED,
                        "bus": bus_id, "evicted": evicted}
                fh.write(json.dumps(note) + "\n")
                written += 1
            for event in events:
                fh.write(json.dumps(event.flatten(bus=bus_id)) + "\n")
                written += 1
    return written


def split_capture_notes(records):
    """(the run's records, one warning line per bus that lost records).

    The ``trace.*`` records describe the capture, not the run; each
    :data:`EVICTED` one becomes a warning naming its bus.
    """
    kept, warnings = [], []
    for record in records:
        kind = record["kind"]
        if not kind.startswith(CAPTURE_PREFIX):
            kept.append(record)
        elif kind == EVICTED:
            warnings.append(
                f"warning: bus {record.get('bus')} evicted "
                f"{record['evicted']} records; its timeline is complete "
                f"from t={record['t']:.3f}s"
            )
    return kept, warnings


class TimelineError(Exception):
    """A JSONL timeline file is corrupt or not a trace timeline at all."""


def read_timeline(path):
    """Parse a JSONL timeline back into a list of flat dicts.

    Raises :class:`TimelineError` (with the offending line number) on
    malformed JSON or on records missing the ``t``/``kind`` envelope, so
    the CLI can report corrupt files as one-line errors.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TimelineError(
                    f"{path}:{lineno}: not valid JSONL ({exc.msg})"
                ) from exc
            if not isinstance(record, dict) or "t" not in record \
                    or "kind" not in record:
                raise TimelineError(
                    f"{path}:{lineno}: not a trace timeline record "
                    "(missing 't'/'kind' envelope)"
                )
            records.append(record)
    return records


def load_timeline(path):
    """Read a timeline for a CLI subcommand, with uniform error handling.

    Wraps :func:`read_timeline` so every timeline-consuming subcommand
    (``trace``, ``paths``, ``incidents``, ``slo``) reports bad input the
    same way: missing, unreadable, corrupt, and empty files all raise
    :class:`TimelineError` with a one-line message the CLI can print
    verbatim (prefixed ``error:``) instead of a traceback.
    """
    if not Path(path).exists():
        raise TimelineError(f"no such trace file: {path}")
    try:
        records = read_timeline(path)
    except OSError as exc:
        raise TimelineError(
            f"cannot read {path}: {exc.strerror}"
        ) from exc
    if not records:
        raise TimelineError(f"{path} is an empty timeline (0 events)")
    return records


@contextmanager
def capture_to_jsonl(path):
    """Enable tracing for buses created inside the block; export on exit.

    Only buses *created during* the block are exported, so timelines do not
    pick up stray events from unrelated kernels alive in the process.  The
    capture scope holds strong references: a kernel garbage-collected
    mid-run still gets its timeline written.
    """
    scope = begin_capture()
    previous = set_default_tracing(True)
    previous_spans = set_default_spans(True)
    try:
        yield scope
    finally:
        set_default_tracing(previous)
        set_default_spans(previous_spans)
        end_capture(scope)
        write_timeline(path, scope)


# ----------------------------------------------------------------------
# Summarization (the `python -m repro trace` subcommand)
# ----------------------------------------------------------------------

#: Kinds that make up the recovery timeline section.
RECOVERY_KINDS = (
    "rm.decision",
    "rm.action.end",
    "component.microreboot.begin",
    "component.microreboot.end",
    "node.restart",
)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value)
    return str(value)


def describe_record(record):
    """Payload fields of one record as `key=value` text, stable order."""
    skip = {"t", "seq", "kind", "bus"}
    return " ".join(
        f"{key}={_fmt(record[key])}"
        for key in sorted(record)
        if key not in skip and record[key] is not None
    )


_describe = describe_record  # internal alias kept for the summarizer below


def summarize_timeline(records, slowest=5):
    """Human-readable summary of a JSONL timeline; returns one string."""
    lines = []
    records, warnings = split_capture_notes(records)
    if not records:
        return "empty timeline (0 events)"

    buses = sorted({str(r.get("bus", "")) for r in records})
    t_low = min(r["t"] for r in records)
    t_high = max(r["t"] for r in records)
    lines.append(
        f"{len(records)} events from {len(buses)} bus(es), "
        f"t={t_low:.3f}..{t_high:.3f}s"
    )
    lines.extend(warnings)

    counts = {}
    for record in records:
        counts[record["kind"]] = counts.get(record["kind"], 0) + 1
    lines.append("")
    lines.append("events by kind:")
    for kind, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {count:>8}  {kind}")

    recovery = [r for r in records if r["kind"] in RECOVERY_KINDS]
    lines.append("")
    lines.append(f"recovery timeline ({len(recovery)} events):")
    for record in sorted(recovery, key=lambda r: (r["t"], r.get("seq", 0))):
        bus = record.get("bus", "")
        lines.append(
            f"  [{bus}] t={record['t']:9.3f}  {record['kind']:<28} "
            f"{_describe(record)}"
        )

    lines.append("")
    lines.extend(_failover_windows(records))

    lines.append("")
    lines.extend(_slowest_requests(records, slowest))
    return "\n".join(lines)


def _failover_windows(records):
    """Pair lb.failover.begin/end per (bus, node) into windows."""
    lines = ["failover windows:"]
    open_windows = {}  # (bus, node) -> (t, mode)
    windows = []
    redirected = sum(1 for r in records if r["kind"] == "lb.failover")
    for record in sorted(records, key=lambda r: (r["t"], r.get("seq", 0))):
        key = (record.get("bus"), record.get("node"))
        if record["kind"] == "lb.failover.begin":
            open_windows[key] = (record["t"], record.get("mode"))
        elif record["kind"] == "lb.failover.end" and key in open_windows:
            start, mode = open_windows.pop(key)
            windows.append((key[0], key[1], mode, start, record["t"]))
    for bus, node, mode, start, end in windows:
        lines.append(
            f"  [{bus}] {node}: {mode} failover "
            f"t={start:.3f}..{end:.3f}s ({end - start:.3f}s)"
        )
    for (bus, node), (start, mode) in sorted(
        open_windows.items(), key=lambda kv: kv[1][0]
    ):
        lines.append(
            f"  [{bus}] {node}: {mode} failover began t={start:.3f}s, "
            "never ended (wedged?)"
        )
    if not windows and not open_windows:
        lines.append("  (none)")
    lines.append(f"  requests redirected during failover: {redirected}")
    return lines


def _slowest_requests(records, limit):
    ends = [
        r for r in records
        if r["kind"] == "request.end" and r.get("duration") is not None
    ]
    lines = [f"slowest requests (of {len(ends)} completed):"]
    if not ends:
        lines.append("  (none)")
        return lines
    ends.sort(key=lambda r: -r["duration"])
    for record in ends[:limit]:
        ok = "ok" if record.get("ok") else f"FAILED({record.get('failure')})"
        lines.append(
            f"  [{record.get('bus', '')}] t={record['t']:9.3f}  "
            f"{record['duration']:7.3f}s  {record.get('operation')}  "
            f"{record.get('server') or '-'}  {ok}"
        )
    return lines
