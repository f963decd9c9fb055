"""Renderer behind ``repro paths``: observed call trees, dependency graph,
anomaly ranking, and the recovery-decision audit, from a JSONL timeline.

Works on the flat record dicts of :func:`repro.telemetry.export
.read_timeline`.  A request traced by the span layer (``repro run --trace``
enables it) carries its observed path on its ``request.end`` record:
``calls``, one ``[parent, component]`` pair per span in span order
(``parent`` is the calling span's index, or null), and ``failed_in``, the
components whose call raised.  Untraced requests carry neither.
"""

from repro.diagnosis.path_analysis import PathAnalyzer
from repro.ebid.descriptors import operation_url
from repro.telemetry.export import describe_record, timeline_order

#: Event kinds rendered in the recovery-decision audit section.
AUDIT_KINDS = ("rm.diagnosis", "rm.report", "rm.decision", "rm.action.end")


def _tree_signature(calls):
    """Tuple of (depth, component) per call — the call-tree shape."""
    signature = []
    for parent, component in calls:
        depth = 0 if parent is None else signature[parent][0] + 1
        signature.append((depth, component))
    return tuple(signature)


def _render_tree(signature, indent="      "):
    return [f"{indent}{'  ' * depth}{component}"
            for depth, component in signature]


def _call_tree_section(paths, limit):
    lines = ["observed call trees (by URL):"]
    if not paths:
        lines.append(
            "  (no request.end carries calls — was the span layer enabled?)"
        )
        return lines

    by_url = {}
    for record in paths:
        url = operation_url(record["operation"])
        stats = by_url.setdefault(url, {"ok": 0, "failed": 0, "shapes": {}})
        stats["ok" if record.get("ok") else "failed"] += 1
        calls = record["calls"]
        if calls:
            signature = _tree_signature(calls)
            stats["shapes"][signature] = stats["shapes"].get(signature, 0) + 1

    for url, stats in sorted(by_url.items())[:limit]:
        total = stats["ok"] + stats["failed"]
        lines.append(f"  {url} — {total} path(s), {stats['failed']} failed")
        if stats["shapes"]:
            signature, _count = max(
                stats["shapes"].items(), key=lambda kv: (kv[1], kv[0])
            )
            lines.extend(_render_tree(signature))
            others = len(stats["shapes"]) - 1
            if others:
                lines.append(f"      (+{others} other observed shape(s))")
    if len(by_url) > limit:
        lines.append(f"  ... and {len(by_url) - limit} more URL(s)")
    return lines


def _dependency_graph(paths):
    """Observed parent→child call counts across every path."""
    graph = {}
    for record in paths:
        calls = record["calls"]
        for parent, child in calls:
            if parent is None:
                continue
            children = graph.setdefault(calls[parent][1], {})
            children[child] = children.get(child, 0) + 1
    return graph


def _dependency_section(graph, limit):
    lines = ["observed dependency graph (component -> component, calls):"]
    edges = sorted(
        ((parent, child, count)
         for parent, children in graph.items()
         for child, count in children.items()),
        key=lambda edge: (-edge[2], edge[0], edge[1]),
    )
    if not edges:
        lines.append("  (no observed edges)")
    for parent, child, count in edges[:limit]:
        lines.append(f"  {parent} -> {child}  x{count}")
    if len(edges) > limit:
        lines.append(f"  ... and {len(edges) - limit} more edge(s)")
    return lines


def _ranking_section(analyzer):
    total, failed = analyzer.sample()
    lines = [
        "anomaly ranking (chi-square over failed vs successful paths, "
        f"{total} paths / {failed} failed):"
    ]
    ranking = analyzer.rank()
    if not ranking:
        reason = "nothing anomalous" if failed else "no failures observed"
        lines.append(f"  (empty — {reason})")
    for position, (component, score) in enumerate(ranking, start=1):
        lines.append(f"  {position:>3}. {component:<24} score={score:.2f}")
    return lines


def _audit_section(records):
    audit = [r for r in records if r.get("kind") in AUDIT_KINDS]
    lines = [f"recovery decision audit ({len(audit)} events):"]
    if not audit:
        lines.append("  (no recovery-manager events in this timeline)")
    for record in sorted(audit, key=timeline_order):
        bus = record.get("bus", "")
        lines.append(
            f"  [{bus}] t={record['t']:9.3f}  {record['kind']:<14} "
            f"{describe_record(record)}"
        )
    return lines


def summarize_paths(records, limit=20):
    """Human-readable path/diagnosis report for one JSONL timeline."""
    paths = [r for r in records if r["kind"] == "request.end" and "calls" in r]

    analyzer = PathAnalyzer(kernel=None, window=None,
                            min_paths=1, min_failed=1)
    for record in paths:
        analyzer.record_path(
            record["t"],
            [component for _parent, component in record["calls"]],
            record.get("ok", False),
            failed_in=record["failed_in"],
        )

    spans = sum(len(record["calls"]) for record in paths)
    lines = [
        f"{len(records)} events: {spans} spans across "
        f"{len(paths)} completed paths"
    ]
    lines.append("")
    lines.extend(_call_tree_section(paths, limit))
    lines.append("")
    lines.extend(_dependency_section(_dependency_graph(paths), limit))
    lines.append("")
    lines.extend(_ranking_section(analyzer))
    lines.append("")
    lines.extend(_audit_section(records))
    return "\n".join(lines)
