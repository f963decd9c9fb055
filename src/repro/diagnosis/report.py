"""Renderer behind ``repro paths``: observed call trees, dependency graph,
anomaly ranking, and the recovery-decision audit, from a JSONL timeline.

:class:`PathSummary` is a replay consumer: it is fed one bus's records
(:func:`repro.observability.replay`) and keeps aggregates, never the
records.  A request traced by the span layer (``repro run --trace``
enables it) carries its observed path on its ``request.end`` record:
``calls``, one ``[parent, component]`` pair per span in span order
(``parent`` is the calling span's index, or null), and ``failed_in``, the
components whose call raised.  Untraced requests carry neither.
"""

from repro.diagnosis.path_analysis import PathAnalyzer
from repro.ebid.descriptors import operation_url
from repro.telemetry.export import describe_fields

#: Event kinds rendered in the recovery-decision audit section.
AUDIT_KINDS = ("rm.diagnosis", "rm.report", "rm.decision", "rm.action.end")


def _tree_signature(calls):
    """Tuple of (depth, component) per call — the call-tree shape."""
    signature = []
    for parent, component in calls:
        depth = 0 if parent is None else signature[parent][0] + 1
        signature.append((depth, component))
    return tuple(signature)


class PathSummary:
    """``repro paths`` for one bus: a replay consumer fed every record.

    Ranks every traced request of the bus with one uncapped offline
    :class:`PathAnalyzer`; the call trees and the dependency graph are
    counts.  :meth:`render` returns the report as one string, ``limit``
    URLs and edges per section.
    """

    kinds = None

    def __init__(self, limit=20):
        self.limit = limit
        self.events = 0
        self.spans = 0
        #: url -> {"ok": n, "failed": n, "shapes": {signature: n}}
        self.by_url = {}
        #: Observed parent -> child call counts across every path.
        self.graph = {}
        self.analyzer = PathAnalyzer(kernel=None, window=None, max_paths=None,
                                     min_paths=1, min_failed=1)
        #: One frozenset per distinct component set: paths share them.
        self._members = {}
        self.audit = []

    def feed(self, t, kind, fields):
        self.events += 1
        if kind in AUDIT_KINDS:
            self.audit.append(
                f"  t={t:9.3f}  {kind:<14} {describe_fields(fields)}"
            )
        if kind != "request.end" or "calls" not in fields:
            return
        calls = fields["calls"]
        self.spans += len(calls)
        url = operation_url(fields["operation"])
        stats = self.by_url.get(url)
        if stats is None:
            stats = self.by_url[url] = {"ok": 0, "failed": 0, "shapes": {}}
        stats["ok" if fields.get("ok") else "failed"] += 1
        if calls:
            signature = _tree_signature(calls)
            stats["shapes"][signature] = stats["shapes"].get(signature, 0) + 1
        for parent, child in calls:
            if parent is not None:
                children = self.graph.setdefault(calls[parent][1], {})
                children[child] = children.get(child, 0) + 1
        members = frozenset(component for _parent, component in calls)
        self.analyzer.record_path(
            t, self._members.setdefault(members, members),
            fields.get("ok", False), failed_in=fields.get("failed_in", ()),
        )

    def render(self):
        lines = [
            f"{self.events} events: {self.spans} spans across "
            f"{self.analyzer.recorded} completed paths"
        ]
        for section in (self._call_trees, self._dependencies,
                        self._ranking, self._audit):
            lines.append("")
            lines.extend(section())
        return "\n".join(lines)

    def _call_trees(self):
        lines = ["observed call trees (by URL):"]
        if not self.analyzer.recorded:
            return lines + ["  (no request.end carries calls — was the span "
                            "layer enabled?)"]
        for url, stats in sorted(self.by_url.items())[:self.limit]:
            total = stats["ok"] + stats["failed"]
            lines.append(
                f"  {url} — {total} path(s), {stats['failed']} failed"
            )
            if stats["shapes"]:
                signature, _count = max(
                    stats["shapes"].items(), key=lambda kv: (kv[1], kv[0])
                )
                lines.extend(f"      {'  ' * depth}{component}"
                             for depth, component in signature)
                others = len(stats["shapes"]) - 1
                if others:
                    lines.append(f"      (+{others} other observed shape(s))")
        more = len(self.by_url) - self.limit
        if more > 0:
            lines.append(f"  ... and {more} more URL(s)")
        return lines

    def _dependencies(self):
        lines = ["observed dependency graph (component -> component, calls):"]
        edges = sorted(
            ((parent, child, count)
             for parent, children in self.graph.items()
             for child, count in children.items()),
            key=lambda edge: (-edge[2], edge[0], edge[1]),
        )
        if not edges:
            lines.append("  (no observed edges)")
        for parent, child, count in edges[:self.limit]:
            lines.append(f"  {parent} -> {child}  x{count}")
        if len(edges) > self.limit:
            lines.append(f"  ... and {len(edges) - self.limit} more edge(s)")
        return lines

    def _ranking(self):
        total, failed = self.analyzer.sample()
        lines = [
            "anomaly ranking (chi-square over failed vs successful paths, "
            f"{total} paths / {failed} failed):"
        ]
        ranking = self.analyzer.rank()
        if not ranking:
            reason = "nothing anomalous" if failed else "no failures observed"
            lines.append(f"  (empty — {reason})")
        for position, (component, score) in enumerate(ranking, start=1):
            lines.append(f"  {position:>3}. {component:<24} score={score:.2f}")
        return lines

    def _audit(self):
        lines = [f"recovery decision audit ({len(self.audit)} events):"]
        if not self.audit:
            lines.append("  (no recovery-manager events in this timeline)")
        lines.extend(self.audit)
        return lines
