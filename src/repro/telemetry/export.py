"""JSONL timeline capture and the run summarizer behind ``repro trace``.

One JSONL line per event, envelope keys ``t``/``seq``/``kind``/``bus`` plus
the event's own payload fields flattened alongside.  A timeline may contain
events from several buses (figure-1 runs two kernels, one per policy); the
``bus`` field keeps them tellable-apart while the summary stays readable.
"""

import json
import shutil
import tempfile
import weakref
from contextlib import contextmanager
from pathlib import Path

from repro.telemetry.spans import set_default_spans
from repro.telemetry.trace import (
    RESERVED_KEYS,
    begin_capture,
    end_capture,
    set_default_tracing,
)


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


class _Section:
    """One bus's records in a capture, appended to a file as published.

    The writer subscribes when its bus is constructed, before any other
    subscriber, so it sees every event in publish order (a subscriber's
    nested publish lands after the event that caused it) and counting them
    gives each its ``seq``.  It holds its bus only weakly: the file closes
    when the bus is collected, or when the capture ends.
    """

    def __init__(self, bus, bus_id, path):
        self.bus_id = bus_id
        self.seq = 0
        self.file = open(path, "w", encoding="utf-8")
        self.bus = weakref.ref(bus)
        self.token = bus.subscribe(self.write)
        self.close = weakref.finalize(bus, self.file.close)

    def write(self, t, kind, fields):
        record = {"t": t, "seq": self.seq, "kind": kind, "bus": self.bus_id}
        self.seq += 1
        for key, value in fields.items():
            record[key if key not in RESERVED_KEYS else f"x_{key}"] = value
        self.file.write(json.dumps(record) + "\n")

    def detach(self):
        bus = self.bus()
        if bus is not None:
            bus.unsubscribe(self.token)
        self.close()


@contextmanager
def capture_to_jsonl(path):
    """Enable tracing for buses created inside the block and write every
    event they publish in it to ``path``.

    Each bus constructed in the block writes its own section, one line per
    event as it is published; at exit the sections are joined into
    ``path`` in bus-creation order, each bus named by its label or else by
    its position among them.  Buses created before the block, and events
    published after it, are not written.  The capture holds no bus: a
    kernel collected mid-run keeps what it wrote.
    """
    path = Path(path)
    sections = []
    with tempfile.TemporaryDirectory(
        dir=path.parent, prefix=f".{path.name}."
    ) as parts:

        def attach(bus):
            index = len(sections)
            sections.append(
                _Section(bus, bus.label or index, Path(parts) / f"{index}")
            )

        begin_capture(attach)
        previous = set_default_tracing(True)
        previous_spans = set_default_spans(True)
        try:
            yield
        finally:
            set_default_tracing(previous)
            set_default_spans(previous_spans)
            end_capture(attach)
            for section in sections:
                section.detach()
            with open(path, "wb") as out:
                for section in sections:
                    with open(section.file.name, "rb") as part:
                        shutil.copyfileobj(part, out)


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

#: Kinds that open and close a failover window.
FAILOVER_BOUNDS = ("lb.failover.begin", "lb.failover.end")


def timeline_order(record):
    """Sort key that lists the records of several buses together.

    ``seq`` counts one bus's records, so it orders records of one bus
    only: same-time records are ordered by bus (compared as ``str``, the
    order :func:`~repro.observability.exporter.replay` feeds buses in)
    and then by ``seq``.  Records published elsewhere on either bus then
    cannot move them.
    """
    return (record["t"], str(record.get("bus", "")), record.get("seq", 0))


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
    if not records:
        return "empty timeline (0 events)"

    buses = sorted({str(r.get("bus", "")) for r in records})
    t_low = min(r["t"] for r in records)
    t_high = max(r["t"] for r in records)
    lines.append(
        f"{len(records)} events from {len(buses)} bus(es), "
        f"t={t_low:.3f}..{t_high:.3f}s"
    )

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
    for record in sorted(recovery, key=timeline_order):
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
    bounds = [r for r in records if r["kind"] in FAILOVER_BOUNDS]
    for record in sorted(bounds, key=timeline_order):
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
