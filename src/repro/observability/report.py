"""Human-readable rendering behind ``repro incidents``/``slo``/``health``/
``alerts``.

Pure text formatting over already-stitched data: a per-incident table with
a phase waterfall (detection/diagnosis/recovery/residual drawn to scale),
the rolling SLO window series with its violations called out, the
per-component health scoreboard, and the alert log with its lead-time
summary.  All renderers are deterministic — same data in, same bytes out —
so CLI output can be asserted verbatim in tests.
"""

from repro.observability.alerts import alert_lead_times, median
from repro.observability.cluster import shard_of_incident
from repro.observability.incidents import (
    aggregate_incidents,
    max_concurrent_actions,
)
from repro.observability.slo import aggregate_slo

#: Phase → single-letter glyph used in the waterfall bars.
_PHASE_GLYPHS = (
    ("detection", "d"),
    ("diagnosis", "D"),
    ("recovery", "R"),
    ("residual", "r"),
)


def text_table(headers, rows):
    """The repo's standard fixed-width table, as a list of lines.

    Every column is as wide as its widest cell; with no rows, the
    headers are followed by ``(none)``.
    """
    if not rows:
        return [
            "  ".join(str(h) for h in headers),
            "(none)",
        ]
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows))
        for i, h in enumerate(headers)
    ]
    header = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines = [header, "-" * len(header)]
    lines.extend(
        "  ".join(str(v).ljust(w) for v, w in zip(row, widths))
        for row in rows
    )
    return lines


def _fmt_s(value, digits=1):
    return f"{value:.{digits}f}"


def _waterfall(incident, width=44):
    """One scaled bar: phases drawn left to right across the span."""
    span = incident.span
    phases = incident.phases()
    if span <= 0:
        return "|" + "".ljust(width) + "|"
    cells = []
    for phase, glyph in _PHASE_GLYPHS:
        n = int(round(phases[phase] / span * width))
        cells.append(glyph * n)
    bar = "".join(cells)[:width]
    return "|" + bar.ljust(width) + "|"


def _recovery_interval(incident):
    """(first decision, last action end), or None without actions."""
    if not incident.actions:
        return None
    return (
        min(a["decided_at"] for a in incident.actions),
        max(a["finished_at"] for a in incident.actions),
    )


def _overlapping_ids(incidents):
    """Ids of incidents whose recovery windows overlap another's.

    Overlap is strict (half-open intervals), so back-to-back serial
    recoveries never get flagged — only genuinely concurrent ones, the
    signature of the parallel recovery scheduler.
    """
    intervals = [
        (incident.id, interval)
        for incident in incidents
        if (interval := _recovery_interval(incident)) is not None
    ]
    flagged = set()
    for i, (id_a, (start_a, end_a)) in enumerate(intervals):
        for id_b, (start_b, end_b) in intervals[i + 1:]:
            if start_a < end_b and start_b < end_a:
                flagged.add(id_a)
                flagged.add(id_b)
    return flagged


def summarize_incidents(incidents, waterfall_width=44):
    """Per-incident table + phase waterfall + aggregate line; one string."""
    lines = [f"{len(incidents)} incident(s)"]
    if not incidents:
        return "\n".join(lines)

    # The shard column only appears when at least one incident attributes
    # to a shard, so flat single-node timelines keep their historical
    # rendering byte for byte.
    shards = [shard_of_incident(incident) for incident in incidents]
    with_shards = any(shards)
    rows = []
    for incident, shard in zip(incidents, shards):
        phases = incident.phases()
        row = [
            incident.id,
            incident.key,
            incident.server or "-",
        ]
        if with_shards:
            row.append(shard or "-")
        row.extend(
            (
                incident.trigger,
                _fmt_s(incident.opened_at),
                _fmt_s(incident.span),
                _fmt_s(phases["detection"]),
                _fmt_s(phases["diagnosis"]),
                _fmt_s(phases["recovery"]),
                _fmt_s(phases["residual"]),
                incident.reports,
                len(incident.actions),
                incident.closed_by or "open",
            )
        )
        rows.append(tuple(row))
    headers = ["id", "key", "server"]
    if with_shards:
        headers.append("shard")
    headers.extend(
        (
            "trigger", "opened", "span", "detect", "diagnose", "recover",
            "residual", "reports", "actions", "closed by",
        )
    )
    lines.append("")
    lines.extend(text_table(tuple(headers), rows))

    lines.append("")
    lines.append(
        "phase waterfall (d=detection D=diagnosis R=recovery r=residual):"
    )
    overlapping = _overlapping_ids(incidents)
    for incident in incidents:
        ladder = "->".join(a["level"] for a in incident.actions) or "-"
        mark = " ||" if incident.id in overlapping else ""
        lines.append(
            f"  #{incident.id:<3} t={incident.opened_at:8.1f}s "
            f"{_waterfall(incident, waterfall_width)} "
            f"{incident.span:7.1f}s  {ladder}{mark}"
        )
    peak = max_concurrent_actions(
        (action["decided_at"], action["finished_at"])
        for incident in incidents
        for action in incident.actions
    )
    if peak > 1:
        lines.append(
            f"  || = recovery overlaps another incident's "
            f"(peak {peak} concurrent recovery actions)"
        )

    summary = aggregate_incidents(incidents)
    lines.append("")
    lines.append(
        "closed by: "
        + ", ".join(f"{k}={v}" for k, v in summary["closed_by"].items())
    )
    means = summary["mean_phases"]
    lines.append(
        f"mean span {summary['mean_span']}s = "
        + " + ".join(f"{means[p]}s {p}" for p, _g in _PHASE_GLYPHS)
    )
    lines.append(
        f"attributed: {summary['actions_attributed']} recovery action(s), "
        f"{summary['reports_attributed']} report(s) "
        f"(+{summary['suppressed_reports']} quarantine-suppressed)"
    )
    return "\n".join(lines)


def summarize_slo(windows, policy=None):
    """Window series table + violations + aggregate line; one string."""
    lines = []
    if policy is not None:
        lines.append(
            f"policy: window={policy.window:g}s "
            f"availability>={policy.availability_target:g} "
            f"p99<={policy.latency_target:g}s "
            f"(error budget {policy.error_budget:.4%}/window)"
        )
    lines.append(f"{len(windows)} window(s)")
    if not windows:
        return "\n".join(lines)

    rows = []
    for window in windows:
        availability = window.availability
        burn = window.burn
        rows.append(
            (
                f"{window.start:g}-{window.end:g}",
                window.good,
                window.bad,
                f"{availability:.4f}" if availability is not None else "-",
                f"{window.gaw:.1f}",
                f"{window.p50:.2f}" if window.p50 is not None else "-",
                f"{window.p99:.2f}" if window.p99 is not None else "-",
                ("inf" if burn == float("inf") else f"{burn:.1f}"),
                "VIOLATED" if window.violated else "",
            )
        )
    lines.append("")
    lines.extend(
        text_table(
            (
                "window", "good", "bad", "avail", "gaw/s", "p50", "p99",
                "burn", "",
            ),
            rows,
        )
    )

    violations = [w for w in windows if w.violated]
    lines.append("")
    if violations:
        lines.append(f"{len(violations)} violation(s):")
        for window in violations:
            lines.append(
                f"  t={window.start:g}-{window.end:g}s: "
                + "; ".join(window.reasons)
            )
    else:
        lines.append("no violations")

    summary = aggregate_slo(windows)
    lines.append(
        f"min availability {summary['min_availability']}, "
        f"mean gaw {summary['mean_gaw']}/s, "
        f"max burn {summary['max_burn']}"
    )
    return "\n".join(lines)


def _score_bar(score, width=20):
    filled = int(round(score / 100.0 * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def summarize_health(rows):
    """Per-component health scoreboard (sickest first); one string.

    ``rows`` is :meth:`ComponentHealthRegistry.snapshot` output: plain
    dicts with score + normalized penalty signals, one per component.
    """
    lines = [f"{len(rows)} component(s)"]
    if not rows:
        return "\n".join(lines)
    ordered = sorted(
        rows, key=lambda r: (r["score"], str(r["server"]), r["component"])
    )
    table_rows = []
    for row in ordered:
        mttf = row.get("mttf")
        table_rows.append(
            (
                row["server"] or "-",
                row["component"],
                f"{row['score']:.1f}",
                _score_bar(row["score"]),
                f"{row['hazard']:.2f}",
                f"{row['burn']:.2f}",
                f"{row['flap']:.2f}",
                f"{row['heap']:.2f}",
                f"{mttf:.1f}s" if mttf is not None else "-",
            )
        )
    lines.append("")
    lines.extend(
        text_table(
            (
                "server", "component", "score", "health", "hazard", "burn",
                "flap", "heap", "mttf",
            ),
            table_rows,
        )
    )
    sick = [r for r in ordered if r["score"] < 50.0]
    lines.append("")
    if sick:
        lines.append(
            f"{len(sick)} component(s) below 50: "
            + ", ".join(
                f"{r['component']}@{r['server'] or '-'}" for r in sick
            )
        )
    else:
        lines.append("no component below 50")
    return "\n".join(lines)


#: Meta-incident phase → glyph for the cluster waterfall bars.
_META_GLYPHS = (
    ("detect", "d"),
    ("decide", "D"),
    ("migrate", "M"),
    ("drain", "r"),
)


def _meta_waterfall(meta, width=44):
    """One scaled cluster-MTTR bar with ``*`` marks at migration starts."""
    span = meta.get("span") or 0.0
    phases = meta.get("phases") or {}
    if span <= 0:
        return "|" + "".ljust(width) + "|"
    cells = []
    for phase, glyph in _META_GLYPHS:
        n = int(round(phases.get(phase, 0.0) / span * width))
        cells.append(glyph * n)
    bar = list("".join(cells)[:width].ljust(width))
    opened = meta.get("opened_at", 0.0)
    for migration in meta.get("migrations", ()):
        position = int((migration["at"] - opened) / span * width)
        if 0 <= position < width:
            bar[position] = "*"
    return "|" + "".join(bar) + "|"


def summarize_shards(view, meta_incidents=None, shard=None):
    """Per-shard rollup table + storm meta-incident waterfall.

    ``view`` is :meth:`~repro.observability.cluster.ShardView.snapshot`
    output: ``{"shards": [rows], "migrations": [...], "storm": {...}}``.
    ``meta_incidents`` are :meth:`MetaIncident.to_dict` dicts; ``shard``
    filters the table.
    """
    rows = view.get("shards") or []
    if shard is not None:
        rows = [r for r in rows if r.get("shard") == shard]
    lines = [f"{len(rows)} shard(s)"]
    good = sum(r.get("good") or 0 for r in rows)
    bad = sum(r.get("bad") or 0 for r in rows)
    if good + bad:
        lines[0] += f", cluster availability {good / (good + bad):.6f}"
    if not rows:
        return "\n".join(lines)

    storm = view.get("storm")
    if storm and storm.get("shards"):
        lines.append(
            f"storm at t={storm.get('at'):g}s struck "
            f"{len(storm['shards'])} shard(s): "
            + ", ".join(storm["shards"])
        )

    table_rows = []
    for row in rows:
        availability = row.get("availability")
        violations = row.get("slo_violations")
        table_rows.append(
            (
                row["shard"],
                row.get("sessions", "-"),
                f"{availability:.6f}" if availability is not None else "-",
                row.get("gaw_per_second", "-"),
                (
                    f"{row['probe_p50']:.3f}"
                    if row.get("probe_p50") is not None else "-"
                ),
                (
                    f"{row['probe_p99']:.3f}"
                    if row.get("probe_p99") is not None else "-"
                ),
                f"{row.get('probes', 0)}({row.get('probe_failures', 0)})",
                row.get("failovers", 0),
                row.get("migrated_in", 0),
                row.get("migrated_out", 0),
                violations if violations is not None else "-",
                "storm" if row.get("storm_events") else "",
            )
        )
    lines.append("")
    lines.extend(
        text_table(
            (
                "shard", "sessions", "avail", "gaw/s", "p50", "p99",
                "probes(f)", "failover", "in", "out", "slo viol", "",
            ),
            table_rows,
        )
    )

    if meta_incidents:
        lines.append("")
        lines.append(
            f"{len(meta_incidents)} meta-incident(s) "
            "(d=detect D=decide M=migrate r=drain, *=migration start):"
        )
        for meta in meta_incidents:
            lines.append(
                f"  #{meta['id']:<3} t={meta['opened_at']:8.1f}s "
                f"{_meta_waterfall(meta)} {meta['span']:7.1f}s  "
                f"{len(meta['shards'])} shard(s) {meta['mode']}"
            )
            lines.append(
                "       shards: " + ", ".join(meta["shards"])
            )
            if meta.get("absorbed"):
                lines.append(
                    "       (struck but incident-silent: "
                    + ", ".join(meta["absorbed"]) + ")"
                )
            for migration in meta.get("migrations", ()):
                lines.append(
                    f"       ~> {migration['source']} -> "
                    f"{migration['target']}: {migration['sessions']} "
                    f"session(s) @ t={migration['at']:g}s "
                    f"({migration.get('window', 0.0):g}s window)"
                )
            for replacement in meta.get("replacements", ()):
                lines.append(
                    f"       => replaced {replacement['replaced']} with "
                    f"{replacement['with']} @ t={replacement['at']:g}s "
                    f"(fail rate {replacement.get('fail_rate')})"
                )
    return "\n".join(lines)


def summarize_alerts(alerts, incidents=None):
    """Alert log table + (when incidents are given) lead-time summary."""
    lines = [f"{len(alerts)} alert(s)"]
    if alerts:
        rows = []
        for alert in alerts:
            rows.append(
                (
                    _fmt_s(alert.fired_at),
                    alert.rule,
                    alert.severity,
                    alert.server or "-",
                    alert.component or "-",
                    (
                        f"{alert.value:.2f}"
                        if alert.value is not None else "-"
                    ),
                    (
                        _fmt_s(alert.resolved_at)
                        if alert.resolved_at is not None else "active"
                    ),
                )
            )
        lines.append("")
        lines.extend(
            text_table(
                (
                    "fired", "rule", "severity", "server", "component",
                    "value", "resolved",
                ),
                rows,
            )
        )
    if incidents is not None:
        leads = alert_lead_times(alerts, incidents)
        lines.append("")
        if leads:
            lines.append(
                f"lead time: {len(leads)}/{len(incidents)} incident(s) "
                f"preceded by an alert, median {median(leads):.1f}s "
                f"(min {leads[0]:.1f}s, max {leads[-1]:.1f}s)"
            )
        else:
            lines.append(
                f"lead time: 0/{len(incidents)} incident(s) preceded by "
                "an alert"
            )
    return "\n".join(lines)
