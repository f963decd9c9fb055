"""JSONL timeline capture, the streaming reader, and ``repro trace``.

One JSONL line per event, envelope keys ``t``/``seq``/``kind``/``bus`` plus
the event's own payload fields flattened alongside.  A timeline may contain
events from several buses (figure-1 runs two kernels, one per policy); the
``bus`` field keeps them apart, and the timeline subcommands replay each
bus on its own (:func:`repro.observability.replay`).
"""

import heapq
import json
import math
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
    """Yield a JSONL timeline's records one at a time, as flat dicts.

    A capture writes each bus's records in ``(t, seq)`` order, the order
    its subscribers saw them, so a reader can feed them on as they come
    and hold none.  A missing, unreadable or empty file, a line that is
    not JSON, a malformed envelope and a bus whose ``(t, seq)`` goes
    backwards (two captures concatenated, a hand-edited file) each raise
    :class:`TimelineError`, one line naming the file and the line.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise TimelineError(f"no such trace file: {path}") from None
    except OSError as exc:
        raise TimelineError(f"cannot read {path}: {exc.strerror}") from exc
    last = {}  # bus -> (t, seq) of its latest record
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TimelineError(
                        f"{path}:{lineno}: not valid JSONL ({exc.msg})"
                    ) from exc
                problem = _envelope_problem(record, last)
                if problem:
                    raise TimelineError(f"{path}:{lineno}: {problem}")
                yield record
        except UnicodeDecodeError as exc:
            raise TimelineError(f"{path}: not UTF-8 ({exc.reason})") from exc
    if not last:
        raise TimelineError(f"{path} is an empty timeline (0 events)")


def _envelope_problem(record, last):
    """What is wrong with a record's envelope, or None once its ``(t,
    seq)`` is in ``last``, the latest of each bus so far."""
    if not isinstance(record, dict) or "t" not in record \
            or "kind" not in record:
        return "not a trace timeline record (missing 't'/'kind' envelope)"
    t, seq, bus = record["t"], record.get("seq", 0), record.get("bus")
    if type(t) not in (int, float) or not abs(t) < math.inf:
        return f"'t' is not a finite number: {t!r}"
    if type(record["kind"]) is not str:
        return f"'kind' is not a string: {record['kind']!r}"
    if type(seq) is not int:
        return f"'seq' is not an integer: {seq!r}"
    if type(bus) not in (int, str, type(None)):
        return f"'bus' is not an integer or a string: {bus!r}"
    if (t, seq) < last.get(bus, (t, seq)):
        return (f"bus {bus}'s (t, seq) goes backwards: ({t}, {seq}) after "
                f"{last[bus]}")
    last[bus] = (t, seq)
    return None


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


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value)
    return str(value)


def describe_fields(fields):
    """An event's payload fields as `key=value` text, stable order."""
    return " ".join(
        f"{key}={_fmt(value)}"
        for key, value in sorted(fields.items())
        if value is not None
    )


class TimelineSummary:
    """``repro trace`` for one bus: a replay consumer fed every record.

    Keeps counts, the recovery timeline, the failover windows and the
    ``slowest`` slowest requests, never the records themselves;
    :meth:`render` returns the summary as one string.  A bus's records
    arrive in time order, so its first and last give the span.
    """

    kinds = None

    def __init__(self, slowest=5):
        self.slowest = slowest
        self.first = self.last = None
        self.counts = {}
        self.recovery = []
        #: Failover windows: (node, mode, start, end) as they close, and
        #: node -> (start, mode) while open.
        self.windows = []
        self.open = {}
        self.redirected = 0
        self.completed = 0
        #: Min-heap of the slowest requests so far:
        #: (duration, -arrival, t, fields), the fastest of them on top.
        self.heap = []

    def feed(self, t, kind, fields):
        if self.first is None:
            self.first = t
        self.last = t
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind == "request.end" and fields.get("duration") is not None:
            self.completed += 1
            entry = (fields["duration"], -self.completed, t, fields)
            if len(self.heap) < self.slowest:
                heapq.heappush(self.heap, entry)
            elif self.slowest:
                heapq.heappushpop(self.heap, entry)
        elif kind in RECOVERY_KINDS:
            self.recovery.append(
                f"  t={t:9.3f}  {kind:<28} {describe_fields(fields)}"
            )
        elif kind == "lb.failover":
            self.redirected += 1
        elif kind == "lb.failover.begin":
            self.open[fields.get("node")] = (t, fields.get("mode"))
        elif kind == "lb.failover.end" and fields.get("node") in self.open:
            node = fields.get("node")
            start, mode = self.open.pop(node)
            self.windows.append((node, mode, start, t))

    def render(self):
        events = sum(self.counts.values())
        lines = [
            f"{events} events, t={self.first:.3f}..{self.last:.3f}s",
            "",
            "events by kind:",
        ]
        for kind, count in sorted(
            self.counts.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {count:>8}  {kind}")
        lines.append("")
        lines.append(f"recovery timeline ({len(self.recovery)} events):")
        lines.extend(self.recovery)
        lines.append("")
        lines.append("failover windows:")
        for node, mode, start, end in self.windows:
            lines.append(
                f"  {node}: {mode} failover "
                f"t={start:.3f}..{end:.3f}s ({end - start:.3f}s)"
            )
        for node, (start, mode) in sorted(
            self.open.items(), key=lambda kv: kv[1][0]
        ):
            lines.append(
                f"  {node}: {mode} failover began t={start:.3f}s, "
                "never ended (wedged?)"
            )
        if not self.windows and not self.open:
            lines.append("  (none)")
        lines.append(
            f"  requests redirected during failover: {self.redirected}"
        )
        lines.append("")
        lines.append(f"slowest requests (of {self.completed} completed):")
        if not self.completed:
            lines.append("  (none)")
        for duration, _arrival, t, fields in sorted(self.heap, reverse=True):
            failure = fields.get("failure")
            ok = "ok" if fields.get("ok") else f"FAILED({failure})"
            lines.append(
                f"  t={t:9.3f}  {duration:7.3f}s  {fields.get('operation')}  "
                f"{fields.get('server') or '-'}  {ok}"
            )
        return "\n".join(lines)
