"""Exposition (Prometheus text format) and timeline replay.

* :func:`render_prometheus` turns any
  :class:`~repro.telemetry.metrics.MetricsRegistry` into the Prometheus
  text exposition format (``# TYPE`` headers, ``{label="..."}`` series,
  quantile summaries for histogram sketches) — scrape-shaped, entirely
  deterministic line order;
* :func:`replay` streams a recorded JSONL timeline through fresh
  consumers, bus by bus — the same ``kinds`` + ``feed(t, kind, fields)``
  objects a live run subscribes to its bus — so the timeline subcommands
  on a recorded timeline agree with what the live consumers saw.
"""

from repro.observability.alerts import AlertEngine
from repro.observability.health import ComponentHealthRegistry
from repro.observability.incidents import IncidentTracker
from repro.telemetry.trace import _Subscription, record_fields
from repro.telemetry.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    MetricsRegistry,
)


#: Every exposed metric name starts with this.
PREFIX = "repro_"


def _metric_name(name):
    """Registry name → Prometheus metric name (dots become underscores)."""
    safe = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{PREFIX}{safe}"


def _fmt_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(float(value))


def _escape_label(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _families(registry):
    """``(name, prom name, type, [(sample, labels, value)])`` per metric."""
    for name, metric in registry:
        prom = _metric_name(name)
        if isinstance(metric, Counter):
            yield name, prom, "counter", [(prom, (), metric.value)]
        elif isinstance(metric, Gauge):
            yield name, prom, "gauge", [(prom, (), metric.value)]
        elif isinstance(metric, (CounterFamily, GaugeFamily)):
            kind = "counter" if isinstance(metric, CounterFamily) else "gauge"
            label_name = getattr(metric, "label", "key") or "key"
            yield name, prom, kind, [
                (prom, ((label_name, label),), value)
                for label, value in sorted(metric.as_dict().items())
            ]
        elif isinstance(metric, Histogram):
            samples = []
            for q in (0.5, 0.95, 0.99):
                value = metric.quantile(q)
                if value is not None:
                    samples.append((prom, (("quantile", q),), value))
            samples.append((f"{prom}_sum", (), metric.sum))
            samples.append((f"{prom}_count", (), metric.count))
            yield name, prom, "summary", samples


def render_prometheus(registry):
    """The registry in Prometheus text exposition format, one string.

    Counters and gauges render as single samples, counter families as one
    labelled series per child (``{key="..."}``), histograms as the summary
    convention: ``{quantile="..."}`` samples plus ``_sum`` and ``_count``.
    Metrics and labels are emitted in sorted order so the output is
    byte-stable across runs — diffable, testable, cacheable.
    """
    return render_prometheus_buses({None: registry})


def render_prometheus_buses(registries):
    """Several buses' registries (``{bus: registry}``) as one exposition.

    Each family keeps one ``# TYPE`` line; every sample gains a leading
    ``bus="<id>"`` label (none for the ``None`` bus).
    """
    families = {}
    for bus, registry in registries.items():
        for name, prom, kind, samples in _families(registry):
            families.setdefault(name, (prom, kind, []))[2].extend(
                (sample, labels if bus is None else (("bus", bus),) + labels,
                 value)
                for sample, labels, value in samples
            )
    lines = []
    for name in sorted(families):
        prom, kind, samples = families[name]
        lines.append(f"# TYPE {prom} {kind}")
        for sample, labels, value in samples:
            if labels:
                sample += "{" + ",".join(
                    f'{key}="{_escape_label(label)}"' for key, label in labels
                ) + "}"
            lines.append(f"{sample} {_fmt_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def registry_from_observability(incidents, windows):
    """Fold incidents + SLO windows into a new registry for exposition.

    Builds the scrape-shaped view of a finished run: incident counts by
    trigger and by how they closed, MTTR phase totals, and the SLO
    window/violation tallies.
    """
    registry = MetricsRegistry()
    count = registry.counter("incidents.count")
    by_trigger = registry.family("incidents.by_trigger")
    by_closed = registry.family("incidents.by_closed_by")
    phase_seconds = registry.family("incidents.phase_seconds")
    span_hist = registry.histogram("incidents.span_seconds")
    for incident in incidents:
        count.inc()
        by_trigger.inc(incident.trigger)
        if incident.closed_by:
            by_closed.inc(incident.closed_by)
        for phase, seconds in incident.phases().items():
            phase_seconds.inc(phase, seconds)
        span_hist.observe(incident.span)
    registry.counter("slo.windows").inc(len(windows))
    registry.counter("slo.violations").inc(
        sum(1 for w in windows if w.violated)
    )
    burn = registry.gauge("slo.max_burn")
    finite = [w.burn for w in windows if w.burn != float("inf")]
    burn.set(round(max(finite), 6) if finite else 0.0)
    return registry


def replay(records, build):
    """Feed a recorded timeline through fresh consumers, bus by bus.

    ``build()`` returns a new list of consumers (objects with ``kinds``
    and ``feed(t, kind, fields)``, as subscribed live) when a bus's first
    record arrives, so one bus's events can never touch another's state —
    figure-1 runs one kernel per policy, megascale/storm one per arm.
    Each record goes, as it arrives, to every consumer of its bus whose
    ``kinds`` match, in list order: :func:`~repro.telemetry.export
    .read_timeline` yields each bus's records in ``(t, seq)`` order, the
    order its subscribers saw them live.  Returns ``[(bus, consumers,
    end)]`` sorted by bus (as ``str``), ``end`` being the last timestamp
    any of that bus's consumers matched (0.0 if none).
    """
    buses = {}  # bus -> [consumers, subscriptions, {kind: feeds}, end]
    for record in records:
        bus = record.get("bus")
        state = buses.get(bus)
        if state is None:
            consumers = build()
            subscriptions = [_Subscription(c.feed, c.kinds) for c in consumers]
            state = buses[bus] = [consumers, subscriptions, {}, 0.0]
        t, kind = record["t"], record["kind"]
        feeds = state[2].get(kind)
        if feeds is None:  # the kind's first record on this bus
            feeds = state[2][kind] = tuple(
                s.callback for s in state[1] if s.matches(kind)
            )
        if feeds:
            state[3] = t
            fields = record_fields(record)
            for feed in feeds:
                feed(t, kind, fields)
    return [
        (bus, consumers, end)
        for bus, (consumers, _subscriptions, _routes, end)
        in sorted(buses.items(), key=lambda item: str(item[0]))
    ]


def predictive_chain(url_path_map=None, rules=None, bus=None):
    """The predictive stack, live on ``bus`` or unsubscribed for :func:`replay`.

    IncidentTracker → ComponentHealthRegistry (which listens for the
    tracker's incident closures and drives an AlertEngine with ``rules``,
    the default rules when None).  Given a ``bus``, each consumer
    subscribes to it in that order and the alert engine publishes
    ``alert.*`` on it: the live rigs build their consumers here, so replay
    feeds each event to the same consumers in the order the live run did.
    """
    tracker = IncidentTracker(bus=bus, url_path_map=url_path_map)
    registry = ComponentHealthRegistry(
        bus=bus, tracker=tracker,
        alert_engine=AlertEngine(rules=rules, bus=bus),
    )
    return [tracker, registry]


def registry_from_health(rows):
    """Fold a health snapshot into a new registry for Prometheus exposition.

    One ``health.score.<server>.<component>`` gauge per component plus
    per-signal gauges — scrape-shaped, sorted by
    :func:`render_prometheus` into byte-stable output.
    """
    registry = MetricsRegistry()
    for row in rows:
        key = f"{row['server'] or '-'}.{row['component']}"
        registry.gauge(f"health.score.{key}").set(row["score"])
        for signal in ("hazard", "burn", "flap", "heap"):
            registry.gauge(f"health.signal.{signal}.{key}").set(row[signal])
    return registry


def registry_from_cluster(rows, summary=None):
    """Fold per-shard rollup rows into ``shard=``-labelled families.

    One gauge/counter family per rollup statistic, labelled by shard, plus
    the cluster-level reduction as flat gauges — scrape-shaped for the
    ``repro shards --prom`` surface.
    """
    registry = MetricsRegistry()
    gauges = (
        ("shard.availability", "availability"),
        ("shard.sessions", "sessions"),
        ("shard.gaw_per_second", "gaw_per_second"),
        ("shard.probe_p50_seconds", "probe_p50"),
        ("shard.probe_p99_seconds", "probe_p99"),
    )
    counters = (
        ("shard.probes", "probes"),
        ("shard.probe_failures", "probe_failures"),
        ("shard.failovers", "failovers"),
        ("shard.storm_events", "storm_events"),
        ("shard.migrated_in", "migrated_in"),
        ("shard.migrated_out", "migrated_out"),
        ("shard.slo_violations", "slo_violations"),
    )
    for row in rows:
        shard = row.get("shard")
        if not shard:
            continue
        for name, key in gauges:
            value = row.get(key)
            if value is not None:
                registry.gauge_family(name, label="shard").set(shard, value)
        for name, key in counters:
            value = row.get(key)
            if value:
                registry.family(name, label="shard").inc(shard, value)
    if summary:
        for key in (
            "availability", "probe_p50", "probe_p99", "sessions",
            "probes", "probe_failures", "failovers", "slo_violations",
        ):
            value = summary.get(key)
            if value is not None:
                registry.gauge(f"cluster.{key}").set(value)
        registry.gauge("cluster.shards").set(summary.get("shards", len(rows)))
    return registry
