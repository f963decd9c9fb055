"""Incident stitching: TraceBus events → per-incident MTTR decomposition.

The paper's argument is quantitative — recovery is "cheap" because the
time-to-recover stays small and user-visible damage stays bounded — but the
raw telemetry is an event soup: a ``fault.injected`` here, a burst of
``detector.report``s there, an ``rm.action.end`` somewhere later.  The
:class:`IncidentTracker` subscribes to the bus and stitches those events
into first-class :class:`Incident` records, each carrying the standard
MTTR phase decomposition:

* **detection** — fault injection → first failure report;
* **diagnosis** — first report → the RM's first recovery decision;
* **recovery** — first decision → last recovery action finished (this
  covers the whole escalation ladder, including the gaps between rungs);
* **residual** — last action finished → last attributed failure evidence
  (the post-recovery degradation tail: login prompts after a
  session-destroying restart, stragglers timing out, …).

The four phases are *consecutive segments* of the incident's lifetime, so
they always sum exactly to its wall-clock span — the invariant the chaos
benchmark gates on.

Attribution rules (in priority order, each event lands on at most one
incident):

1. component overlap — the event's component target(s) intersect an open
   incident's component set (failure reports are mapped to components via
   the same longest-prefix URL → call-path map the RM diagnoses with);
2. same server — node-wide actions (application/JVM/OS restarts) attach to
   the earliest open incident on that node;
3. open infrastructure incident — link faults, node slowdowns and SSM
   outages (from ``chaos.event``) absorb otherwise-unattributable
   failures;
4. otherwise a new incident is opened — except for reports the RM
   suppressed as quarantine-explained (``rm.report.quarantined``), which
   must never open phantom incidents: the quarantine that explains them
   already has one.

An incident closes when it has been quiet for ``quiet_period`` simulated
seconds (no attributed evidence, no pending recovery decision).  How it
closed is recorded: ``recovered`` (at least one successful recovery
action), ``failover`` (the LB routed around it and no recovery ran),
``quarantine`` (parked behind a fast-503 sentinel), or ``quiesced`` (the
failures simply stopped — e.g. a healed link fault).  The tracker is
passive and deterministic: it never schedules kernel events, so enabling
it cannot perturb a simulation.
"""

from dataclasses import dataclass, field

from repro.appserver.http import longest_prefix

#: Kinds the tracker subscribes to.  Deliberately excludes the
#: per-request firehose (``request.*``): incident evidence is the handful
#: of detector/RM/LB events per failure, so tracking costs O(incidents),
#: not O(requests).
TRACKED_KINDS = (
    "fault.injected",
    "chaos.event",
    "detector.report",
    "rm.*",
    "lb.failover.begin",
    "lb.failover.end",
)

#: chaos.event kinds that open *infrastructure* incidents.  Component-level
#: chaos kinds also publish ``fault.injected`` (the injector logs them) and
#: are handled there.
_INFRA_OPEN = {"link": "link", "slowdown": "node", "ssm-crash": "ssm"}
_INFRA_HEAL = {"link-heal": "link", "slowdown-heal": "node", "ssm-restart": "ssm"}

#: Quiet time (simulated seconds) after which an incident is considered
#: over.  Long enough to bridge a flap train's pulses and a quarantine's
#: suppressed-report stream; short enough that distinct chaos faults on
#: the same component minutes apart become distinct incidents.
DEFAULT_QUIET_PERIOD = 30.0


def path_for_url(url, url_path_map):
    """Longest-prefix match into a URL → call-path map (the RM's rule)."""
    return tuple(url_path_map.get(longest_prefix(url, url_path_map), ()))


@dataclass
class Incident:
    """One stitched incident: fault(s) → detection → recovery → quiet."""

    id: int
    key: str  # component name, infra key ("link:node-2", "ssm"), or URL
    server: str = None  # node/server name, when attributable
    trigger: str = "fault"  # fault | chaos | detector | quarantine | recovery
    components: set = field(default_factory=set)
    opened_at: float = 0.0
    closed_at: float = None
    closed_by: str = None  # recovered | failover | quarantine | quiesced
    faults: list = field(default_factory=list)  # (t, fault kind, target)
    first_report_at: float = None
    reports: int = 0
    suppressed_reports: int = 0  # quarantine-explained, never incident-opening
    deferrals: int = 0  # backoff-deferred recoveries
    storm_denied: int = 0  # storm-limited deferrals
    quarantines: int = 0
    failovers: int = 0
    actions: list = field(default_factory=list)  # dicts, see _on_action
    last_activity: float = 0.0
    #: Recovery decisions announced but not yet finished: blocks the quiet-
    #: period close so a slow OS reboot cannot outlive its own incident.
    pending_actions: int = 0

    @property
    def open(self):
        return self.closed_at is None

    @property
    def recovered(self):
        return any(action["ok"] for action in self.actions)

    @property
    def end(self):
        return self.closed_at if self.closed_at is not None else self.last_activity

    @property
    def span(self):
        """Wall-clock lifetime in simulated seconds."""
        return max(0.0, self.end - self.opened_at)

    def touch(self, t):
        if t > self.last_activity:
            self.last_activity = t

    def phases(self):
        """The MTTR decomposition; values always sum to :attr:`span`.

        The four phases are consecutive segments of ``[opened_at, end]``,
        clamped so that out-of-order evidence (a report stamped before the
        fault, a decision racing a report) can never produce a negative
        phase or break the sum-to-span invariant.
        """
        end = self.end
        t0 = self.opened_at
        t1 = self.first_report_at if self.first_report_at is not None else t0
        t1 = min(max(t1, t0), end)
        if self.actions:
            t2 = min(a["decided_at"] for a in self.actions)
            t3 = max(a["finished_at"] for a in self.actions)
        else:
            t2 = t3 = t1
        t2 = min(max(t2, t1), end)
        t3 = min(max(t3, t2), end)
        return {
            "detection": t1 - t0,
            "diagnosis": t2 - t1,
            "recovery": t3 - t2,
            "residual": end - t3,
        }

    def to_dict(self):
        """Plain-data export (JSONL lines, campaign outcomes)."""
        return {
            "id": self.id,
            "key": self.key,
            "server": self.server,
            "trigger": self.trigger,
            "components": sorted(self.components),
            "opened_at": round(self.opened_at, 6),
            "closed_at": (
                round(self.closed_at, 6) if self.closed_at is not None else None
            ),
            "closed_by": self.closed_by,
            "span": round(self.span, 6),
            "phases": {k: round(v, 6) for k, v in self.phases().items()},
            "faults": len(self.faults),
            "fault_kinds": sorted({kind for _t, kind, _tgt in self.faults}),
            "reports": self.reports,
            "suppressed_reports": self.suppressed_reports,
            "deferrals": self.deferrals,
            "storm_denied": self.storm_denied,
            "quarantines": self.quarantines,
            "failovers": self.failovers,
            "recovered": self.recovered,
            "actions": [
                {
                    "level": a["level"],
                    "target": list(a["target"]),
                    "ok": a["ok"],
                    "decided_at": round(a["decided_at"], 6),
                    "finished_at": round(a["finished_at"], 6),
                }
                for a in self.actions
            ],
        }


class IncidentTracker:
    """Stitches fault/detector/RM/LB events into :class:`Incident` records.

    A consumer of :data:`kinds` through :meth:`feed`: live when given a
    ``bus`` (it subscribes), offline when driven by
    :func:`~repro.observability.exporter.replay`.  Call :meth:`finalize`
    when the run/timeline ends to close whatever is still open.
    """

    kinds = TRACKED_KINDS

    def __init__(self, bus=None, url_path_map=None,
                 quiet_period=DEFAULT_QUIET_PERIOD):
        if quiet_period <= 0:
            raise ValueError(f"quiet_period must be > 0, got {quiet_period!r}")
        self.url_path_map = dict(url_path_map or {})
        self.quiet_period = quiet_period
        #: component -> number of mapped URL prefixes containing it;
        #: detector-opened incidents are keyed by the component *specific*
        #: to the failing URL, mirroring the RM's specificity weighting.
        self._containing = {}
        for path in self.url_path_map.values():
            for component in path:
                self._containing[component] = self._containing.get(component, 0) + 1
        self.incidents = []
        self._open = []
        self._next_id = 1
        #: Called with each Incident as it closes (estimators feed on
        #: these).  Listeners must be passive: closure happens inside
        #: event intake, so scheduling kernel work here would perturb
        #: the run the tracker promises not to touch.
        self.close_listeners = []
        if bus is not None:
            bus.subscribe(self.feed, self.kinds)

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def feed(self, t, kind, fields):
        self._sweep(t)
        if kind == "fault.injected":
            self._on_fault(t, fields)
        elif kind == "chaos.event":
            self._on_chaos(t, fields)
        elif kind == "detector.report":
            # A report forwarded to an RM is adjudicated there: the RM's
            # ``rm.report`` counts it (with node attribution) and its
            # ``rm.report.quarantined`` suppresses it — here it is only
            # detection *evidence* on an already-open incident, never
            # grounds to open one.  Unforwarded reports (no RM wired) are
            # the only detection signal there is, so they count fully.
            forwarded = bool(fields.get("reported"))
            self._on_report(
                t, fields.get("url", ""), server=None,
                count=not forwarded, open_new=not forwarded,
            )
        elif kind == "rm.report":
            self._on_report(t, fields.get("url", ""), server=fields.get("server"))
        elif kind == "rm.report.quarantined":
            self._on_report(
                t, fields.get("url", ""), server=fields.get("server"),
                suppressed=True, open_new=False,
            )
        elif kind == "rm.decision":
            self._on_decision(t, fields)
        elif kind == "rm.action.end":
            self._on_action(t, fields)
        elif kind == "rm.recovery.deferred":
            self._on_deferred(t, fields)
        elif kind == "rm.quarantine.begin":
            self._on_quarantine(t, fields)
        elif kind in ("lb.failover.begin", "lb.failover.end"):
            self._on_failover(t, fields, begin=kind.endswith("begin"))
        elif kind.startswith("rm."):
            # Remaining RM chatter (diagnosis audit, backoff bookkeeping,
            # quarantine lifts, storm denials — the deferred event carries
            # the attribution) keeps its incident warm but adds nothing.
            self._touch_matching(t, fields)

    def finalize(self, now=None):
        """Close every still-open incident (end of run / end of timeline)."""
        for incident in list(self._open):
            self._close(incident)
        return self.incidents

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open_incidents(self):
        return list(self._open)

    def _sweep(self, now):
        for incident in list(self._open):
            if (
                incident.pending_actions == 0
                and now - incident.last_activity > self.quiet_period
            ):
                self._close(incident)

    def _close(self, incident):
        incident.closed_at = incident.last_activity
        if incident.recovered:
            incident.closed_by = "recovered"
        elif incident.failovers:
            incident.closed_by = "failover"
        elif incident.quarantines:
            incident.closed_by = "quarantine"
        else:
            incident.closed_by = "quiesced"
        self._open.remove(incident)
        for listener in self.close_listeners:
            listener(incident)

    def _open_incident(self, t, key, server=None, components=(),
                       trigger="fault"):
        incident = Incident(
            id=self._next_id,
            key=key,
            server=server,
            trigger=trigger,
            components=set(components),
            opened_at=t,
            last_activity=t,
        )
        self._next_id += 1
        self.incidents.append(incident)
        self._open.append(incident)
        return incident

    # ------------------------------------------------------------------
    # Matching (attribution)
    # ------------------------------------------------------------------
    @staticmethod
    def _server_compatible(incident, server):
        return (
            server is None
            or incident.server is None
            or incident.server == server
        )

    def _earliest(self, candidates):
        return min(candidates, key=lambda i: (i.opened_at, i.id), default=None)

    def _match_components(self, components, server=None):
        if not components:
            return None
        return self._earliest(
            i for i in self._open
            if i.components & components and self._server_compatible(i, server)
        )

    def _match_server(self, server):
        return self._earliest(
            i for i in self._open if self._server_compatible(i, server)
        )

    def _match_infra(self, server=None):
        return self._earliest(
            i for i in self._open
            if i.trigger == "chaos" and self._server_compatible(i, server)
        )

    def _specific_component(self, path):
        """The path component appearing on the fewest mapped URLs."""
        if not path:
            return None
        indexed = list(enumerate(path))
        # Fewest containing paths wins; ties go to the deepest component.
        _i, name = min(
            indexed, key=lambda pair: (self._containing.get(pair[1], 1), -pair[0])
        )
        return name

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_fault(self, t, fields):
        target = fields.get("target")
        server = fields.get("server")
        fault = fields.get("fault")
        incident = self._match_components({target}, server)
        if incident is None:
            incident = self._open_incident(
                t, key=target, server=server, components={target},
                trigger="fault",
            )
        incident.faults.append((t, fault, target))
        incident.touch(t)

    def _on_chaos(self, t, fields):
        kind = fields.get("kind")
        node = fields.get("node")
        if kind in _INFRA_OPEN:
            base = _INFRA_OPEN[kind]
            key = f"{base}:{node}" if node else base
            incident = self._earliest(
                i for i in self._open if i.key == key
            )
            if incident is None:
                incident = self._open_incident(
                    t, key=key, server=node, trigger="chaos"
                )
            incident.faults.append((t, kind, node))
            incident.touch(t)
        elif kind in _INFRA_HEAL:
            base = _INFRA_HEAL[kind]
            key = f"{base}:{node}" if node else base
            for incident in self._open:
                if incident.key == key:
                    incident.touch(t)
        # Component-level chaos kinds already arrived as fault.injected.

    def _on_report(self, t, url, server=None, suppressed=False, count=True,
                   open_new=True):
        path = path_for_url(url, self.url_path_map)
        incident = self._match_components(set(path), server)
        if incident is None:
            incident = self._match_infra(server)
        if incident is None:
            if not open_new:
                return  # quarantine-explained/forwarded: no phantom incidents
            key = self._specific_component(path) or url
            incident = self._open_incident(
                t, key=key, server=server, components=set(path),
                trigger="detector",
            )
        if suppressed:
            incident.suppressed_reports += 1
        elif count:
            incident.reports += 1
            if incident.first_report_at is None:
                incident.first_report_at = t
        elif incident.first_report_at is None:
            # Detection evidence from a forwarded detector.report: stamps
            # the detection phase without double-counting the rm.report
            # that follows.
            incident.first_report_at = t
        incident.touch(t)

    def _attribute_action(self, decided_at, target, server):
        incident = self._match_components(set(target), server) if target else None
        if incident is None:
            incident = self._match_server(server)
        if incident is None:
            incident = self._match_infra()
        return incident

    def _on_decision(self, t, fields):
        """A recovery was announced: pin its incident open until it ends."""
        target = tuple(fields.get("target") or ())
        server = fields.get("server")
        incident = self._attribute_action(t, target, server)
        if incident is not None:
            incident.pending_actions += 1
            incident.touch(t)

    def _on_action(self, t, fields):
        level = fields.get("level")
        target = tuple(fields.get("target") or ())
        duration = fields.get("duration") or 0.0
        decided_at = t - duration
        server = fields.get("server")
        incident = self._attribute_action(decided_at, target, server)
        if incident is None:
            # A recovery with no tracked cause (e.g. a rejuvenation µRB on
            # a quiet system) still gets an incident, opened at decision
            # time so the recovery phase covers the action exactly.
            incident = self._open_incident(
                decided_at, key=f"recovery:{level}", server=server,
                components=set(target), trigger="recovery",
            )
        incident.actions.append(
            {
                "level": level,
                "target": list(target),
                "ok": bool(fields.get("ok")),
                "error": fields.get("error"),
                "decided_at": decided_at,
                "finished_at": t,
            }
        )
        incident.components |= set(target)
        incident.pending_actions = max(0, incident.pending_actions - 1)
        incident.touch(t)

    def _on_deferred(self, t, fields):
        targets = tuple(fields.get("targets") or ())
        server = fields.get("server")
        incident = self._attribute_action(t, targets, server)
        if incident is None:
            return
        if fields.get("reason") == "storm":
            incident.storm_denied += 1
        else:
            incident.deferrals += 1
        incident.touch(t)

    def _on_quarantine(self, t, fields):
        component = fields.get("component")
        server = fields.get("server")
        incident = self._match_components({component}, server)
        if incident is None:
            incident = self._open_incident(
                t, key=component, server=server, components={component},
                trigger="quarantine",
            )
        incident.quarantines += 1
        incident.touch(t)

    def _on_failover(self, t, fields, begin):
        node = fields.get("node")
        for incident in self._open:
            if incident.server == node:
                if begin:
                    incident.failovers += 1
                incident.touch(t)

    def _touch_matching(self, t, fields):
        target = fields.get("target")
        targets = {target} if isinstance(target, str) else set(target or ())
        component = fields.get("component")
        if component:
            targets.add(component)
        incident = self._match_components(targets, fields.get("server"))
        if incident is None and fields.get("server") is not None:
            incident = self._match_server(fields.get("server"))
        if incident is not None:
            incident.touch(t)


def max_concurrent_actions(intervals):
    """Peak number of simultaneously in-flight recovery actions.

    Sweep-line over ``(decided_at, finished_at)`` pairs, each the
    half-open interval of one action.  With the serial recovery scheduler
    this is at most 1 per node; the dependency-aware parallel scheduler
    pushes it higher whenever independent components recover
    concurrently.  An action closing at instant *t* releases before one
    opening at *t* counts, so abutting actions don't overlap.
    """
    events = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    events.sort(key=lambda e: (e[0], e[1]))
    peak = active = 0
    for _t, delta in events:
        active += delta
        peak = max(peak, active)
    return peak


def aggregate_incidents(incidents):
    """Plain-data rollup for campaign outcomes and rendered notes."""
    count = len(incidents)
    closed_by = {}
    phase_sums = {"detection": 0.0, "diagnosis": 0.0, "recovery": 0.0,
                  "residual": 0.0}
    span_sum = 0.0
    for incident in incidents:
        closed_by[incident.closed_by] = closed_by.get(incident.closed_by, 0) + 1
        for phase, value in incident.phases().items():
            phase_sums[phase] += value
        span_sum += incident.span
    return {
        "count": count,
        "closed_by": dict(sorted(closed_by.items())),
        "actions_attributed": sum(len(i.actions) for i in incidents),
        "reports_attributed": sum(i.reports for i in incidents),
        "suppressed_reports": sum(i.suppressed_reports for i in incidents),
        "mean_span": round(span_sum / count, 3) if count else None,
        "mean_phases": (
            {k: round(v / count, 3) for k, v in phase_sums.items()}
            if count else {}
        ),
    }
