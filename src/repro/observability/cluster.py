"""Cluster observability plane: shard rollups and storm correlation.

The megascale/storm stack (1M sessions, 128 sharded nodes) outgrew the flat
run-scoped incident/SLO layer: a K-shard fault storm is *one* operational
event, not K unrelated incidents.  Three pieces:

* :class:`ShardMetricsAggregator` — folds cohort batch outcomes, probe
  results, LB failover counters, and storm/reshard events into bounded
  per-shard rollups (availability, Gaw, probe p50/p99 via mergeable
  :class:`~repro.telemetry.metrics.Histogram` sketches, failover rate,
  population, migration flow) plus a deterministic cluster-level
  reduction.
* :class:`ClusterIncidentCorrelator` — stitches concurrent shard-attributed
  incidents into :class:`MetaIncident` records (storm detection: K shards
  degrading within a correlation window; wave detection via onset
  ordering), attributes elasticity actions (shard replacements, migration
  windows), and decomposes cluster MTTR into consecutive
  detect/decide/migrate/drain phases that sum exactly to the meta-incident
  span — the same clamped-segment contract as
  :meth:`~repro.observability.incidents.Incident.phases`.
* :class:`ShardView` — the aggregator publishes ``shard.rollup`` /
  ``shard.window`` summary events at collect time, so a recorded timeline
  replayed through this consumer rebuilds the whole view (``repro
  shards``, ``repro slo --shard``) without replaying the workload.

Everything here is **passive**: the plane subscribes and samples but never
schedules kernel work, so arm outcomes are byte-identical with the plane
on or off, and all state lives in plain deterministic containers (same
seed ⇒ same rollup, jobs=1 ≡ jobs=N).
"""

import re

from repro.observability.slo import SloPolicy, _build_window, compute_windows
from repro.telemetry.metrics import Histogram

#: Anything named ``shardNNN`` or ``shardNNN-<resource>`` belongs to that
#: shard; flat single-node names (``node1``) deliberately never match, so
#: pre-cluster timelines keep their shard-free rendering.
_SHARD_NAME_RE = re.compile(r"^(shard\d+)(?:-|$)")

#: Bus kinds the aggregator folds into per-shard rollups.
SHARD_ROLLUP_KINDS = (
    "cohort.migrate",
    "cohort.migrate.arrived",
    "lb.failover.begin",
    "lb.link.fault",
    "ssm.crash",
    "storm.begin",
    "storm.event",
    "storm.end",
    "reshard.migrate",
    "reshard.policy",
)

#: Largest onset spread (seconds) of a meta-incident that still counts as
#: shards failing together ("simultaneous") rather than in a "wave".
SIMULTANEOUS_SPREAD = 5.0


def shard_of_name(name):
    """The shard a cluster resource name belongs to, or None.

    Matches node (``shard003-n1``), brick (``shard003-ssm-b2``) and bare
    shard names; anything else — including flat single-node servers —
    attributes to no shard.
    """
    if not name:
        return None
    match = _SHARD_NAME_RE.match(str(name))
    return match.group(1) if match else None


def shard_of_incident(incident, shard_of_node=None):
    """Attribute an incident to a shard via its server, then its key.

    ``shard_of_node`` is the authoritative cluster map when available
    (it remembers departed nodes); the name pattern is the offline
    fallback.  Infra incidents keyed ``link:shard003-n1`` attribute
    through the key suffix.
    """
    server = getattr(incident, "server", None)
    if shard_of_node and server in shard_of_node:
        return shard_of_node[server]
    shard = shard_of_name(server)
    if shard:
        return shard
    key = getattr(incident, "key", None) or ""
    if ":" in key:
        return shard_of_name(key.split(":", 1)[1])
    return None


class _ShardRollup:
    """Mutable per-shard accumulator behind the aggregator."""

    __slots__ = (
        "shard", "good", "bad", "sessions", "probes", "probe_failures",
        "probe_latency", "failovers", "link_faults", "brick_crashes",
        "storm_events", "storm_kinds", "migrated_in", "migrated_out",
        "series",
    )

    def __init__(self, shard):
        self.shard = shard
        self.good = 0
        self.bad = 0
        self.sessions = 0
        self.probes = 0
        self.probe_failures = 0
        self.probe_latency = Histogram(f"probe.latency.{shard}")
        self.failovers = 0
        self.link_faults = 0
        self.brick_crashes = 0
        self.storm_events = 0
        self.storm_kinds = set()
        self.migrated_in = 0
        self.migrated_out = 0
        self.series = []  # [window_start, good, bad] folded buckets


class ShardMetricsAggregator:
    """Passive per-shard rollups.

    Three intake channels, all observer-side:

    * :meth:`feed` over :data:`kinds` (live when given a ``bus``);
    * :meth:`observe_probe`, called by the probe model per probe (the
      probe EWMAs keep no history, so p50/p99 need live observation);
    * :meth:`collect`, an end-of-run read-only pull of the cohort
      engine's per-shard good/bad series and populations.
    """

    kinds = SHARD_ROLLUP_KINDS

    def __init__(self, bus=None, cluster=None):
        self.policy = SloPolicy()
        self.migrations = []  # reshard.migrate windows, for attribution
        self.replacement_checks = 0  # reshard.policy sightings
        self.storm = None
        self.duration = None
        self._bus = bus
        self._cluster = cluster
        self._rollups = {}
        self._slo = {}
        if bus is not None:
            bus.subscribe(self.feed, self.kinds)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _rollup(self, shard):
        rollup = self._rollups.get(shard)
        if rollup is None:
            rollup = self._rollups[shard] = _ShardRollup(shard)
        return rollup

    def _shard_of_node(self, node):
        if self._cluster is not None:
            shard = self._cluster.shard_of_node.get(node)
            if shard:
                return shard
        return shard_of_name(node)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def feed(self, t, kind, fields):
        if kind == "cohort.migrate":
            source = fields.get("source")
            if source:
                self._rollup(source).migrated_out += fields.get("sessions", 0)
        elif kind == "cohort.migrate.arrived":
            target = fields.get("target")
            if target:
                self._rollup(target).migrated_in += fields.get("sessions", 0)
        elif kind == "lb.failover.begin":
            shard = self._shard_of_node(fields.get("node"))
            if shard:
                self._rollup(shard).failovers += 1
        elif kind == "lb.link.fault":
            shard = self._shard_of_node(fields.get("node"))
            if shard:
                self._rollup(shard).link_faults += 1
        elif kind == "ssm.crash":
            shard = shard_of_name(fields.get("store"))
            if shard:
                self._rollup(shard).brick_crashes += 1
        elif kind == "storm.begin":
            self.storm = {
                "at": round(t, 6),
                "shards": list(fields.get("shards", ())),
                "events": fields.get("events"),
                "horizon": fields.get("horizon"),
            }
        elif kind == "storm.event":
            shard = fields.get("shard")
            if shard:
                rollup = self._rollup(shard)
                rollup.storm_events += 1
                rollup.storm_kinds.add(fields.get("kind"))
        elif kind == "storm.end":
            if self.storm is not None:
                self.storm["ended_at"] = round(t, 6)
        elif kind == "reshard.migrate":
            self.migrations.append(
                {
                    "at": round(t, 6),
                    "source": fields.get("source"),
                    "target": fields.get("target"),
                    "sessions": fields.get("sessions", 0),
                    "window": fields.get("window", 0.0),
                }
            )
        elif kind == "reshard.policy":
            self.replacement_checks += 1

    def observe_probe(self, t, shard, op, ok, latency):
        """Record one synthetic probe outcome (called by the probe model)."""
        rollup = self._rollup(shard)
        rollup.probes += 1
        if not ok:
            rollup.probe_failures += 1
        rollup.probe_latency.observe(latency)

    # ------------------------------------------------------------------
    # Collection + reduction
    # ------------------------------------------------------------------
    def collect(self, engine, duration):
        """End-of-run pull: fold the cohort series, judge per-shard SLO
        windows, and publish the ``shard.*`` summary events.

        Read-only against the engine; safe to call after the kernel has
        drained.  Idempotent per run (the rig calls it once).
        """
        self.duration = duration
        width = self.policy.window
        shards = sorted(
            set(engine.shard_good_series) | set(engine.shard_bad_series)
        )
        for shard in shards:
            good_series = engine.shard_good_series.get(shard, {})
            bad_series = engine.shard_bad_series.get(shard, {})
            rollup = self._rollup(shard)
            rollup.good = sum(good_series.values())
            rollup.bad = sum(bad_series.values())
            rollup.sessions = engine.shard_sessions.get(shard, 0)
            buckets = {}
            for second, n in good_series.items():
                start = int(second // width) * width
                entry = buckets.setdefault(start, [0, 0])
                entry[0] += n
            for second, n in bad_series.items():
                start = int(second // width) * width
                entry = buckets.setdefault(start, [0, 0])
                entry[1] += n
            rollup.series = [
                [start, good, bad]
                for start, (good, bad) in sorted(buckets.items())
            ]
            windows = compute_windows(
                good_series, bad_series, [], duration, policy=self.policy,
            )
            violations = [w for w in windows if w.violated]
            availabilities = [
                w.availability for w in windows if w.availability is not None
            ]
            self._slo[shard] = {
                "windows": len(windows),
                "violations": len(violations),
                "min_availability": (
                    round(min(availabilities), 6) if availabilities else None
                ),
            }
            self._publish_windows(shard, windows)
        self._publish_rollups()

    def _publish_windows(self, shard, windows):
        if self._bus is None:
            return
        for window in windows:
            self._bus.publish(
                "shard.window", shard=shard,
                start=round(window.start, 6), end=round(window.end, 6),
                good=window.good, bad=window.bad,
                violated=window.violated,
            )
            if window.violated:
                self._bus.publish(
                    "slo.shard.violated", shard=shard,
                    start=round(window.start, 6), end=round(window.end, 6),
                    availability=(
                        round(window.availability, 6)
                        if window.availability is not None else None
                    ),
                    reasons=list(window.reasons),
                )

    def _publish_rollups(self):
        if self._bus is None:
            return
        for row in self.rows():
            fields = {k: v for k, v in row.items() if k != "series"}
            slo = fields.pop("slo", None) or {}
            self._bus.publish(
                "shard.rollup",
                slo_windows=slo.get("windows"),
                slo_violations=slo.get("violations"),
                slo_min_availability=slo.get("min_availability"),
                **fields,
            )

    def rows(self):
        """Per-shard rollup rows, shard-sorted, plain data."""
        out = []
        duration = self.duration
        for shard in sorted(self._rollups):
            rollup = self._rollups[shard]
            total = rollup.good + rollup.bad
            quantiles = rollup.probe_latency.percentiles()
            row = {
                "shard": shard,
                "sessions": rollup.sessions,
                "good": rollup.good,
                "bad": rollup.bad,
                "availability": (
                    round(rollup.good / total, 6) if total else None
                ),
                "gaw_per_second": (
                    round(rollup.good / duration, 3)
                    if duration else None
                ),
                "probes": rollup.probes,
                "probe_failures": rollup.probe_failures,
                "probe_p50": (
                    round(quantiles["p50"], 6)
                    if quantiles["p50"] is not None else None
                ),
                "probe_p99": (
                    round(quantiles["p99"], 6)
                    if quantiles["p99"] is not None else None
                ),
                "failovers": rollup.failovers,
                "link_faults": rollup.link_faults,
                "brick_crashes": rollup.brick_crashes,
                "storm_events": rollup.storm_events,
                "storm_kinds": sorted(
                    k for k in rollup.storm_kinds if k
                ),
                "migrated_in": rollup.migrated_in,
                "migrated_out": rollup.migrated_out,
                "slo": self._slo.get(shard),
                "series": [list(b) for b in rollup.series],
            }
            out.append(row)
        return out

    def cluster_summary(self):
        """Deterministic cluster-level reduction over the shard rollups.

        Probe latency quantiles come from merging the per-shard sketches
        in sorted shard order — bucket addition is exact, so the merged
        p50/p99 equal a single cluster-wide sketch's.
        """
        merged = Histogram("probe.latency.cluster")
        good = bad = probes = probe_failures = failovers = 0
        sessions = 0
        for shard in sorted(self._rollups):
            rollup = self._rollups[shard]
            good += rollup.good
            bad += rollup.bad
            sessions += rollup.sessions
            probes += rollup.probes
            probe_failures += rollup.probe_failures
            failovers += rollup.failovers
            merged.merge(rollup.probe_latency)
        total = good + bad
        quantiles = merged.percentiles()
        return {
            "shards": len(self._rollups),
            "sessions": sessions,
            "good": good,
            "bad": bad,
            "availability": round(good / total, 6) if total else None,
            "probes": probes,
            "probe_failures": probe_failures,
            "probe_p50": (
                round(quantiles["p50"], 6)
                if quantiles["p50"] is not None else None
            ),
            "probe_p99": (
                round(quantiles["p99"], 6)
                if quantiles["p99"] is not None else None
            ),
            "failovers": failovers,
            "migrations": len(self.migrations),
            "sessions_migrated": sum(
                m["sessions"] for m in self.migrations
            ),
            "slo_violations": sum(
                slo["violations"] for slo in self._slo.values()
            ),
        }


class MetaIncident:
    """K shards degrading together: one cluster-level operational event."""

    def __init__(self, mid, members, window):
        # members: [(incident, shard)] sorted by onset.
        self.id = mid
        self.incidents = [incident for incident, _ in members]
        self.window = window
        self.shards = sorted({shard for _, shard in members})
        onsets = {}
        for incident, shard in members:
            t = incident.opened_at
            if shard not in onsets or t < onsets[shard]:
                onsets[shard] = t
        self.onsets = onsets
        self.opened_at = min(i.opened_at for i in self.incidents)
        self.replacements = []
        self.migrations = []
        self.absorbed = []

    @property
    def onset_order(self):
        return sorted(self.onsets, key=lambda s: (self.onsets[s], s))

    @property
    def onset_spread(self):
        values = list(self.onsets.values())
        return max(values) - min(values)

    def mode(self):
        """``simultaneous`` vs ``wave`` via onset ordering spread."""
        return (
            "simultaneous" if self.onset_spread <= SIMULTANEOUS_SPREAD
            else "wave"
        )

    def absorb(self, shards):
        """Fold in struck-but-silent shards from the storm schedule.

        A brick-crash or slowdown shard can degrade without ever opening
        a tracked incident (the replica absorbs the crash; the slowdown
        only stretches latency).  The ``storm.begin`` event is the
        evidence those shards were part of the same operational event, so
        they join :attr:`shards` (and are listed as ``absorbed``) — but
        they keep no observed onset, so the simultaneous/wave
        classification and the MTTR phases stay grounded in incident
        evidence.
        """
        silent = [s for s in shards if s not in self.onsets]
        self.absorbed = sorted(set(self.absorbed) | set(silent))
        self.shards = sorted(set(self.shards) | set(shards))

    @property
    def end(self):
        ends = [i.end for i in self.incidents]
        ends.extend(m["at"] + m.get("window", 0.0) for m in self.migrations)
        ends.extend(r["at"] for r in self.replacements)
        return max(ends)

    @property
    def span(self):
        return max(0.0, self.end - self.opened_at)

    def phases(self):
        """Cluster MTTR as consecutive detect/decide/migrate/drain segments.

        Same clamping contract as :meth:`Incident.phases`: each boundary
        is clamped into ``[previous, end]`` so the four values always sum
        exactly to :attr:`span` no matter how evidence is ordered.

        * **detect** — onset to the first failure report anywhere in the
          meta-incident;
        * **decide** — to the first recovery decision or replacement;
        * **migrate** — to the last migration-window end / recovery
          finish (the repair-in-flight phase);
        * **drain** — the tail until the last member incident closes.
        """
        end = self.end
        t0 = self.opened_at
        reports = [
            i.first_report_at for i in self.incidents
            if i.first_report_at is not None
        ]
        t1 = min(reports) if reports else t0
        t1 = min(max(t1, t0), end)
        decisions = [
            a["decided_at"] for i in self.incidents for a in i.actions
        ]
        decisions.extend(r["at"] for r in self.replacements)
        t2 = min(decisions) if decisions else t1
        t2 = min(max(t2, t1), end)
        repairs = [
            a["finished_at"] for i in self.incidents for a in i.actions
        ]
        repairs.extend(m["at"] + m.get("window", 0.0) for m in self.migrations)
        t3 = max(repairs) if repairs else t2
        t3 = min(max(t3, t2), end)
        return {
            "detect": t1 - t0,
            "decide": t2 - t1,
            "migrate": t3 - t2,
            "drain": end - t3,
        }

    def to_dict(self):
        return {
            "id": self.id,
            "shards": list(self.shards),
            "incidents": [i.id for i in self.incidents],
            "opened_at": round(self.opened_at, 6),
            "end": round(self.end, 6),
            "span": round(self.span, 6),
            "mode": self.mode(),
            "onsets": {s: round(t, 6) for s, t in self.onsets.items()},
            "onset_order": self.onset_order,
            "phases": {k: round(v, 6) for k, v in self.phases().items()},
            "absorbed": list(self.absorbed),
            "reports": sum(i.reports for i in self.incidents),
            "recovered": sum(1 for i in self.incidents if i.recovered),
            "replacements": [dict(r) for r in self.replacements],
            "migrations": [dict(m) for m in self.migrations],
        }


class ClusterIncidentCorrelator:
    """Stitch shard-attributed incidents into meta-incidents.

    Greedy onset clustering: incidents sorted by open time join the
    current cluster while they open within ``window`` seconds of the
    cluster's running end, so pulse chains bridge without bounding the
    storm's total length; clusters touching at least ``k_min`` distinct
    shards become :class:`MetaIncident` records.
    """

    def __init__(self, window=60.0, k_min=2):
        self.window = window
        self.k_min = k_min
        self.meta_incidents = []
        self.unclustered = 0

    def correlate(self, incidents, replacements=(), migrations=(),
                  shard_of_node=None, storm=None):
        attributed = []
        for incident in incidents:
            shard = shard_of_incident(incident, shard_of_node)
            if shard:
                attributed.append((incident, shard))
        attributed.sort(key=lambda pair: (pair[0].opened_at, pair[0].id))
        clusters = []
        current, current_end = [], None
        for incident, shard in attributed:
            if current and incident.opened_at <= current_end + self.window:
                current.append((incident, shard))
                current_end = max(current_end, incident.end)
            else:
                if current:
                    clusters.append(current)
                current = [(incident, shard)]
                current_end = incident.end
        if current:
            clusters.append(current)

        metas, leftovers = [], 0
        for cluster in clusters:
            shards = {shard for _, shard in cluster}
            if len(shards) >= self.k_min:
                meta = MetaIncident(len(metas) + 1, cluster, self.window)
                self._attribute(meta, replacements, migrations)
                metas.append(meta)
            else:
                leftovers += len(cluster)
        if storm and storm.get("shards"):
            onset = storm.get("at", 0.0)
            ended = storm.get("ended_at", onset)
            for meta in metas:
                if (
                    meta.opened_at <= ended + self.window
                    and meta.end >= onset - self.window
                ):
                    meta.absorb(storm["shards"])
                    break  # one storm, one meta-incident
        self.meta_incidents = metas
        self.unclustered = leftovers
        return metas

    def _attribute(self, meta, replacements, migrations):
        """Elasticity actions inside the meta-incident's (padded) span."""
        lo = meta.opened_at - 1.0
        hi = max(i.end for i in meta.incidents) + self.window
        shards = set(meta.shards)
        for record in replacements:
            if lo <= record["at"] <= hi and record.get("replaced") in shards:
                meta.replacements.append(dict(record))
        for record in migrations:
            involved = (
                record.get("source") in shards
                or record.get("target") in shards
            )
            if lo <= record["at"] <= hi and involved:
                meta.migrations.append(dict(record))
        meta.replacements.sort(key=lambda r: r["at"])
        meta.migrations.sort(key=lambda m: m["at"])


# ----------------------------------------------------------------------
# Offline (timeline) surfaces
# ----------------------------------------------------------------------
class ShardView:
    """Replay consumer: the cluster plane's view, rebuilt from one bus.

    ``shard.rollup`` events carry the summary rows (latest per shard
    wins, matching a rerun), ``shard.window`` events rebuild the bounded
    series, and ``reshard.*`` / ``storm.begin`` events restore the
    migrations, shard replacements and storm context the correlator
    attributes.
    """

    kinds = (
        "shard.rollup",
        "shard.window",
        "reshard.migrate",
        "reshard.policy",
        "reshard.begin",
        "storm.begin",
    )

    def __init__(self):
        self.rows = {}
        self.windows = {}  # shard -> [[start, end, good, bad, violated]]
        self.migrations = []
        self.replacements = []
        self.storm = None
        self._policy = None  # a reshard.policy awaiting its fresh shard

    def feed(self, t, kind, fields):
        shard = fields.get("shard")
        if kind == "shard.rollup":
            if shard:
                self.rows[shard] = dict(fields)
        elif kind == "shard.window":
            if shard:
                self.windows.setdefault(shard, []).append(
                    [
                        fields.get("start"), fields.get("end"),
                        fields.get("good", 0), fields.get("bad", 0),
                        bool(fields.get("violated")),
                    ]
                )
        elif kind == "reshard.migrate":
            self.migrations.append(
                {
                    "at": t,
                    "source": fields.get("source"),
                    "target": fields.get("target"),
                    "sessions": fields.get("sessions", 0),
                    "window": fields.get("window", 0.0),
                }
            )
        elif kind == "reshard.policy":
            self._policy = fields
        elif kind == "reshard.begin":
            # ElasticPolicy publishes its verdict, then adds the fresh
            # shard at the same instant: that add names the replacement.
            policy, self._policy = self._policy, None
            if policy is not None and fields.get("op") == "add":
                self.replacements.append(
                    {
                        "at": round(t, 6),
                        "replaced": policy.get("shard"),
                        "with": shard,
                        "fail_rate": policy.get("fail_rate"),
                    }
                )
        elif kind == "storm.begin":
            self.storm = {
                "at": t,
                "shards": list(fields.get("shards", ())),
                "events": fields.get("events"),
                "horizon": fields.get("horizon"),
            }

    def snapshot(self):
        """``{"shards": [rows], "migrations": [...], "storm": {...}}``."""
        for shard, row in self.rows.items():
            row["windows"] = sorted(self.windows.get(shard, []))
        return {
            "shards": [self.rows[s] for s in sorted(self.rows)],
            "migrations": self.migrations,
            "storm": self.storm,
        }

    def slo_windows(self, shard, policy=None):
        """One shard's SLO windows, rejudged from its ``shard.window``s.

        Megascale/storm timelines carry no per-request ``request.end``
        events (the cohort engine accounts in batches), so the per-shard
        SLO view replays the judged windows the plane exported instead:
        each is a one-bucket series at its start, with no response times.
        """
        policy = policy or SloPolicy()
        windows = [
            _build_window(start, end, {start: good}, {start: bad}, (), policy)
            for start, end, good, bad, _violated
            in self.windows.get(shard, ())
        ]
        windows.sort(key=lambda w: w.start)
        return windows
