"""The recovery manager (§4): diagnosis scores + the recursive policy.

The RM listens (on the simulated analogue of a UDP port) for failure
reports from the monitors, each carrying the failed URL and the failure
type.  Using a static URL-prefix → call-path map, it increments a score for
every component on the path of a failed URL and recovers when a score
crosses a hand-tuned threshold, always trying the cheapest action first:

    EJB µRB → WAR µRB → application restart → JVM restart → OS reboot
    → notify a human.

Diagnosis is deliberately "simplistic ... often yields false positives"
(§4) — the paper's point is that µRBs are cheap enough to tolerate sloppy
diagnosis.  One refinement mirrors the rejuvenation service: reports whose
failure kind is resource exhaustion are diagnosed by heap attribution (the
biggest leaker gets microrebooted) rather than by call-path scores.

A second, opt-in diagnosis mode (``diagnosis="path-analysis"``) replaces
the static map with the live Pinpoint-style anomaly ranking of a
:class:`~repro.diagnosis.PathAnalyzer` fed by the span layer: µRB targets
are picked by observed failed-vs-successful path membership, falling back
to the static map while too few paths have been observed.  The static mode
stays the default so the paper's Table 1–4 experiments reproduce unchanged.

The RM runs one of two schedulers:

* ``"serial"`` (default, the paper's §4 pipeline): one recovery at a
  time; reports queued during a recovery are stale and dropped.
* ``"parallel"`` (dependency-aware): independent components microreboot
  concurrently, judged against a
  :class:`~repro.core.recovery_graph.RecoveryGraph` of static descriptor
  edges merged with the analyzer's observed call paths.  Actions within
  one dependency group stay serialized on a per-group escalation ladder;
  the node-wide rungs (WAR and coarser) are node-exclusive; the shared
  storm limiter is the global concurrency cap.  Backoff, quarantine and
  defer semantics are unchanged and per target.  Dispatch demands a
  localized culprit: a *specific* (non-web) component must cross the
  score threshold, or unlocalized evidence must reach twice the
  threshold, before anything runs — so a multi-component burst is not
  coarsened just because every failing path crosses the WAR.  Dispatch
  order is deterministic (sorted group keys, one dispatch per report),
  preserving the same-seed ⇒ same-trace contract.

A scheduler only *chooses* a recovery — its level, its candidate and the
escalation ladder it advances — and registers it as an in-flight entry.
One executor, :meth:`RecoveryManager._execute`, then carries out and
records every recovery: the serial scheduler runs it inline, the parallel
scheduler and :meth:`RecoveryManager.preempt` run it as kernel processes.
The safety steps every recovery owes, even one whose action raised —
record it, release its storm-limiter slot, advance its backoff, notify
the listeners — therefore live in that executor's single ``finally``.
The schedulers differ there only in which evidence a finished recovery
retires (:meth:`RecoveryManager._forget`).
"""

import enum
from dataclasses import dataclass, field

from repro.appserver.errors import AppServerError
from repro.appserver.http import longest_prefix
from repro.core.hardening import HardeningPolicy
from repro.core.recovery_graph import RecoveryGraph
from repro.diagnosis.path_analysis import PathAnalyzer
from repro.sim.resources import Queue
from repro.telemetry.metrics import MetricsRegistry


class FailureKind(enum.Enum):
    """What a monitor observed (the §4 detector taxonomy)."""

    NETWORK = "network"  # cannot connect / connection reset
    HTTP_ERROR = "http-error"  # 4xx or 5xx status
    KEYWORD = "keyword"  # failure keywords in a 200 page
    APP_SPECIFIC = "app-specific"  # negative ids, login loop, ...
    COMPARISON_MISMATCH = "comparison"  # differs from known-good instance
    RESOURCE_EXHAUSTION = "resource-exhaustion"  # OOM signatures
    TIMEOUT = "timeout"  # no response within the client's patience
    PREDICTED = "predicted"  # no failure yet: a health alert predicted one


@dataclass
class FailureReport:
    """One monitor observation delivered to the RM."""

    time: float
    url: str
    operation: str
    kind: FailureKind
    detail: str = ""
    client_id: int = 0
    #: Session cookie of the failing client, when it had one: lets a
    #: cluster rig attribute the report to the node holding that session.
    cookie: str = None


@dataclass
class RecoveryAction:
    """One recovery the RM performed (for timelines and assertions)."""

    decided_at: float
    level: str
    target: tuple
    trigger: FailureKind
    finished_at: float = None
    #: Set when the action itself raised; the RM records it and moves on.
    error: str = None

    @property
    def ok(self):
        return self.error is None


@dataclass
class _GroupLadder:
    """Escalation state for one incident.

    The serial scheduler keeps its one incident on the node ladder; the
    parallel scheduler keeps one ladder per dependency group (keyed by the
    group's canonical name) plus the node ladder for the node-wide rungs,
    so two independent components escalating at once never share
    attempts, tried sets, or level state.
    """

    key: str
    last_action_end: float = None
    last_level_index: int = -1
    last_action_ok: bool = True
    tried: set = field(default_factory=set)
    ejb_attempts: int = 0


@dataclass(eq=False)
class _Inflight:
    """One dispatched-but-unfinished recovery (either scheduler)."""

    action: "RecoveryAction"
    ladder: _GroupLadder
    #: Expanded component targets, or None for actions that conflict with
    #: everything: node-exclusive coarse actions, and every action of the
    #: one-at-a-time serial scheduler.
    targets: frozenset = None
    #: Health-alert driven: no failure yet, so reactive state stays as is.
    preemptive: bool = False


#: The recursive policy's escalation ladder (§4).
LEVELS = ("ejb", "war", "application", "jvm", "os", "human")

#: Levels whose recovery disrupts the entire node.  For backoff accounting
#: they share one key: an application restart followed immediately by a JVM
#: restart followed by an OS reboot is one node being recycled three times,
#: not three independent recoveries.
NODE_WIDE_LEVELS = ("application", "jvm", "os")

#: Scores are computed over a sliding window (seconds) so a brief, self-
#: healing burst (e.g. each client's one login prompt after a JVM restart
#: lost the sessions) decays instead of accumulating towards the threshold
#: forever.
SCORE_WINDOW = 25.0

#: Failure kinds may be down-weighted; application-specific login prompts
#: are characteristically self-healing (the client re-logs-in), so they
#: count less towards recovery decisions.  Unlisted kinds weigh 1.
KIND_WEIGHTS = {FailureKind.APP_SPECIFIC: 0.2}

#: §4's endless-reboot-cycle check counts the recoveries finished within
#: this many seconds against ``recurring_limit``.
RECURRING_WINDOW = 600.0


class RecoveryManager:
    """Automated failure diagnosis and recursive recovery."""

    def __init__(
        self,
        kernel,
        coordinator,
        url_path_map,
        node_controller=None,
        score_threshold=3,
        escalation_window=45.0,
        recurring_limit=8,
        policy="recursive",
        post_recovery_grace=30.0,
        max_ejb_attempts=2,
        diagnosis="static-map",
        path_analyzer=None,
        hardening=None,
        storm_limiter=None,
        scheduler=None,
    ):
        if policy not in ("recursive", "process-restart"):
            raise ValueError(f"unknown recovery policy {policy!r}")
        if diagnosis not in ("static-map", "path-analysis"):
            raise ValueError(f"unknown diagnosis mode {diagnosis!r}")
        self.kernel = kernel
        self.coordinator = coordinator
        self.url_path_map = dict(url_path_map)
        self.node_controller = node_controller
        self.score_threshold = score_threshold
        self.escalation_window = escalation_window
        self.recurring_limit = recurring_limit
        #: "recursive" is the paper's cheapest-first ladder; the
        #: "process-restart" policy restarts the JVM on every recovery —
        #: the baseline Figure 1 compares microreboots against.
        self.policy = policy
        #: Reports stamped before last-recovery-end + grace are dropped:
        #: right after a recovery, residual failures (e.g. one login
        #: prompt per client whose session a JVM restart destroyed) are
        #: expected and must not immediately re-trigger recovery.
        self.post_recovery_grace = post_recovery_grace
        #: How many distinct EJB targets to try before coarsening.
        self.max_ejb_attempts = max_ejb_attempts
        #: component -> number of mapped URL prefixes containing it; used
        #: to prefer components *specific* to the failing URLs over ones
        #: (like entity beans) that appear on almost every path.
        self._paths_containing = {}
        for path in self.url_path_map.values():
            for component in path:
                self._paths_containing[component] = (
                    self._paths_containing.get(component, 0) + 1
                )
        self._recent_reports = []  # (time, path components, weight)

        self.metrics = MetricsRegistry()
        self._reports_received = self.metrics.counter("rm.reports.received")
        self._reports_stale = self.metrics.counter("rm.reports.stale")
        self._actions_by_level = self.metrics.family("rm.actions.by_level")
        self._action_errors = self.metrics.counter("rm.actions.errors")
        self._diagnosis_by_mode = self.metrics.family("rm.diagnosis.by_mode")

        #: Pipeline hardening (off by default — the paper's pipeline).
        self.hardening = hardening if hardening is not None else HardeningPolicy.disabled()
        #: Shared cluster-wide limiter, or None (no storm limiting).
        self.storm_limiter = storm_limiter
        #: backoff key (component name or level) -> recent recovery times.
        self._recovery_history = {}
        #: backoff key -> simulated time before which it may not recover.
        self._backoff_until = {}
        #: component -> quarantine expiry time.
        self.quarantined = {}
        self._backoff_deferred = self.metrics.counter("rm.backoff.deferred")
        self._quarantines = self.metrics.counter("rm.quarantine.count")
        self._reports_quarantined = self.metrics.counter("rm.reports.quarantined")

        #: "static-map" (the paper's §4 diagnosis) or "path-analysis"
        #: (Pinpoint-style ranking fed by the span layer).
        self.diagnosis = diagnosis
        if diagnosis == "path-analysis" and path_analyzer is None:
            path_analyzer = PathAnalyzer(kernel=kernel)
        self.path_analyzer = path_analyzer
        #: Audit log of every EJB-level target choice: which mode produced
        #: it and what the analyzer saw at that moment.
        self.diagnosis_log = []

        #: "serial" (the paper's one-at-a-time pipeline) or "parallel"
        #: (dependency-aware concurrent dispatch).  Defaults to whatever
        #: the hardening policy asks for.
        if scheduler is None:
            scheduler = (
                "parallel" if self.hardening.parallel_recovery else "serial"
            )
        if scheduler not in ("serial", "parallel"):
            raise ValueError(f"unknown recovery scheduler {scheduler!r}")
        if scheduler == "parallel" and policy != "recursive":
            raise ValueError(
                "the parallel scheduler requires the recursive policy "
                "(process-restart has no per-group ladder to parallelize)"
            )
        self.scheduler = scheduler
        self.recovery_graph = None
        if scheduler == "parallel":
            self.recovery_graph = RecoveryGraph(
                self.server.descriptors_for(coordinator.app_name),
                analyzer=self.path_analyzer,
            )

        #: Escalation state: the node ladder holds the serial scheduler's
        #: incident or the parallel scheduler's node-wide rungs, and the
        #: parallel scheduler adds one ladder per dependency group.  Every
        #: unfinished recovery sits in ``_inflight``; per-component
        #: staleness cutoffs are set by the parallel scheduler only.
        self._ladders = {}
        self._node_ladder = _GroupLadder("node")
        self._inflight = []
        self._component_last_end = {}
        self._dispatch_seq = 0

        self.inbox = Queue(kernel)
        self.scores = {}
        self.actions = []
        self.human_notified = False
        self._process = None
        #: Observers called with each completed RecoveryAction (the load
        #: balancer hooks in here for failover coordination, §5.3).
        self.listeners = []
        #: Observers called with each RecoveryAction *before* it executes
        #: (cluster rigs open the failover window here).
        self.begin_listeners = []
        #: Observers called as ``listener(component, active_set)`` when a
        #: quarantine begins or lifts; cluster rigs steer requests for
        #: quarantined components to healthy nodes (§6.1 microfailover).
        self.quarantine_listeners = []
        #: Observers called as ``listener(reason, level, targets, ttl)``
        #: when a recovery is deferred (backoff/storm).  A deferred
        #: node-wide recovery means "this node is sick but rebooting it
        #: again now would hurt more" — cluster rigs tell the load
        #: balancer to route around the node for the backoff's remainder
        #: (the ``ttl``).
        self.defer_listeners = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def server(self):
        return self.coordinator.server

    @property
    def recovering(self):
        """True while any recovery, reactive or preemptive, is in flight."""
        return bool(self._inflight)

    def start(self):
        """Spawn the RM's event loop."""
        if self._process is None or not self._process.is_alive:
            self._process = self.kernel.process(self._run(), name="recovery-manager")
        return self._process

    def report(self, failure_report):
        """Deliver one failure report (monitors call this)."""
        self.inbox.put(failure_report)

    # ------------------------------------------------------------------
    # Diagnosis
    # ------------------------------------------------------------------
    def path_for_url(self, url):
        """Longest-prefix match into the static URL → call-path map."""
        return list(
            self.url_path_map.get(longest_prefix(url, self.url_path_map), ())
        )

    def _score(self, report):
        weight = KIND_WEIGHTS.get(report.kind, 1.0)
        self._recent_reports.append(
            (report.time, tuple(self.path_for_url(report.url)), weight)
        )
        self._refresh_scores()

    def _refresh_scores(self):
        """Recompute ``self.scores`` over the sliding window."""
        horizon = self.kernel.now - SCORE_WINDOW
        self._recent_reports = [
            entry for entry in self._recent_reports if entry[0] >= horizon
        ]
        scores = {}
        for _time, path, weight in self._recent_reports:
            for component in path:
                scores[component] = scores.get(component, 0.0) + weight
        self.scores = scores

    def _top_candidate(self, exclude):
        """Best EJB candidate not yet tried this incident.

        Ranked by *specificity-weighted* score: a component's raw score
        divided by how many mapped URLs contain it.  A bean serving only
        the failing URL outranks an entity bean that sits on most paths,
        even when their raw scores tie — without this, shared substrates
        absorb the blame for every failure above them.
        """
        war = self.server.web_component_name
        candidates = [
            (score / self._paths_containing.get(name, 1), score, name)
            for name, score in self.scores.items()
            if score >= self.score_threshold
            and name != war
            and name not in exclude
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda entry: (-entry[0], -entry[1], entry[2]))
        return candidates[0][2]

    def _path_candidate(self, exclude):
        """Best untried target from the live anomaly ranking, or None.

        Returns None (deferring to the static map) while the analyzer has
        not yet observed enough paths — and enough *failed* paths — for
        the chi-square statistic to mean anything, or when everything it
        implicates has already been tried this incident.
        """
        analyzer = self.path_analyzer
        if analyzer is None or not analyzer.ready():
            return None
        war = self.server.web_component_name
        for name, _score in analyzer.rank():
            if name == war or name in exclude:
                continue
            if name not in self.server.containers:
                continue
            return name
        return None

    def _candidate(self, exclude, record=False):
        """Best untried EJB µRB target under the configured diagnosis mode."""
        mode, candidate = "static-map", None
        if self.diagnosis == "path-analysis":
            candidate = self._path_candidate(exclude)
            mode = "path-analysis" if candidate is not None else "static-fallback"
        if candidate is None:
            candidate = self._top_candidate(exclude)
        if record:
            self._record_diagnosis(mode, candidate)
        return candidate

    def _record_diagnosis(self, mode, candidate):
        """Append to the audit log and publish an ``rm.diagnosis`` event."""
        entry = {"time": self.kernel.now, "mode": mode, "candidate": candidate}
        if self.path_analyzer is not None:
            entry.update(self.path_analyzer.explain(limit=3))
        self.diagnosis_log.append(entry)
        self._diagnosis_by_mode.inc(mode)
        self.kernel.trace.publish(
            "rm.diagnosis",
            server=self.server.name,
            mode=mode,
            candidate=candidate,
            paths=entry.get("paths"),
            failed=entry.get("failed"),
            ranking=tuple(
                f"{name}:{score}" for name, score in entry.get("ranking") or ()
            ),
        )

    def _leaker(self, now, exclude):
        """Memory-attribution diagnosis for resource-exhaustion reports.

        The biggest leaker, unless excluded.  A leaker still inside its
        backoff is struck and skipped: it was µRB'd recently and the heap
        is exhausted *again*, and deferring would leave the node in OOM
        meltdown until the backoff lapses (every request fails, and each
        report re-extends the backoff via the flap strike).  Exhaustion
        does not pass on its own — count the flap evidence, then coarsen:
        the node-wide rungs free every component's leak at once.
        """
        candidate = None
        for owner in self.server.heap.owners_by_leak():
            if owner in self.server.containers:
                candidate = owner
                break
        if candidate is not None and self._in_backoff(candidate, now):
            self._flap_strike(candidate)
            return None
        return None if candidate in exclude else candidate

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def _run(self):
        while True:
            report = yield self.inbox.get()
            self._reports_received.inc()
            self.kernel.trace.publish(
                "rm.report",
                server=self.server.name,
                url=report.url,
                failure=report.kind.value,
                client=report.client_id,
            )
            if self._is_stale(report):
                continue
            if self.quarantined and self._explained_by_quarantine(report):
                # The failure is already explained: a quarantined (flapping)
                # component sits on the failed URL's path and is answering
                # fast 503s by design.  Feeding the report into the scores
                # would just re-trigger the reboot loop quarantine exists
                # to break.
                self._reports_quarantined.inc()
                self.kernel.trace.publish(
                    "rm.report.quarantined", server=self.server.name,
                    url=report.url, failure=report.kind.value,
                )
                continue
            self._score(report)
            if self.scheduler == "parallel":
                self._dispatch_parallel(report)
            elif self._should_act(report):
                yield from self._dispatch_serial(report)

    def _is_stale(self, report):
        """Drop reports that predate the recovery that would answer them.

        The cutoff is the node ladder's last recovery — every reactive
        one under the serial scheduler, the node-wide rungs under the
        parallel one — or, with the parallel scheduler, the last finished
        recovery of a component *on the report's own path*: evidence
        about one group must not be discarded because an independent
        group just finished recovering.
        """
        node_end = self._node_ladder.last_action_end
        cutoff = node_end or 0.0
        for component in self.path_for_url(report.url):
            cutoff = max(cutoff, self._component_last_end.get(component, 0.0))
        if report.time < cutoff:
            self._reports_stale.inc()
            return True
        # Expected aftermath: a session-destroying recovery produces one
        # login prompt per client; give the population time to re-log-in
        # before reacting.  µRBs preserve sessions, so under the parallel
        # scheduler only the node-wide rungs open this grace window.
        return (
            node_end is not None
            and report.kind is FailureKind.APP_SPECIFIC
            and report.time < node_end + self.post_recovery_grace
        )

    def _should_act(self, report):
        if self.recovering or self.human_notified:
            return False
        if report.kind is FailureKind.RESOURCE_EXHAUSTION:
            return True
        return any(
            score >= self.score_threshold for score in self.scores.values()
        )

    def _quiet(self, ladder, now):
        """True when ``ladder`` finished no recovery within the window."""
        return (
            ladder.last_action_end is None
            or now - ladder.last_action_end > self.escalation_window
        )

    def _next_level_index(self, now, report):
        """Recursive policy: try finer targets first, escalate when stuck.

        A fresh incident (quiet since the last recovery plus the grace
        period and escalation window) starts back at the EJB level.
        Within an incident, another EJB µRB is attempted while untried
        hot candidates remain (up to ``max_ejb_attempts``); after that,
        progressively larger subsets are rebooted.
        """
        ladder = self._node_ladder
        if self._quiet(ladder, now):
            ladder.tried = set()
            ladder.ejb_attempts = 0
            return 0
        if (
            ladder.last_level_index <= 0
            # An errored µRB is evidence the fine-grained machinery itself
            # is hurt; coarsen instead of retrying at the same grain.
            and ladder.last_action_ok
            and ladder.ejb_attempts < self.max_ejb_attempts
            and report.kind is not FailureKind.RESOURCE_EXHAUSTION
            and self._candidate(ladder.tried | self.active_quarantines())
            is not None
        ):
            return 0
        return min(ladder.last_level_index + 1, len(LEVELS) - 1)

    def _dispatch_serial(self, report):
        """Generator: choose one recovery and execute it inline."""
        now = self.kernel.now
        resource = report.kind is FailureKind.RESOURCE_EXHAUSTION
        ladder = self._node_ladder
        if self.policy == "process-restart":
            level_index = LEVELS.index("jvm")
        else:
            level_index = self._next_level_index(now, report)
        candidate = None
        if level_index == 0:
            exclude = ladder.tried | self.active_quarantines()
            if resource:
                candidate = self._leaker(now, exclude)
            else:
                candidate = self._candidate(exclude, record=True)
                if candidate is not None and self._in_backoff(candidate, now):
                    # The chosen target is still inside its backoff: wait
                    # it out rather than recycling the component.
                    self._flap_strike(candidate)
                    return self._defer("backoff", "ejb", (candidate,))
            if candidate is None:
                level_index += 1
        level = LEVELS[level_index]
        if self._coarse_deferred(level, now, resource):
            return
        if not self._admit(level, ()):
            return
        if candidate is not None:
            ladder.tried |= self._targets(candidate)
            ladder.ejb_attempts += 1
        entry = self._entry(level, report.kind, ladder, candidate)
        self._inflight.append(entry)
        yield from self._execute(entry)

    # ------------------------------------------------------------------
    # The parallel scheduler (dependency-aware concurrent dispatch)
    # ------------------------------------------------------------------
    def _ladder_for(self, targets):
        key = self.recovery_graph.group_key(targets)
        ladder = self._ladders.get(key)
        if ladder is None:
            ladder = _GroupLadder(key)
            self._ladders[key] = ladder
        return ladder

    def _reset_stale_ladders(self, now):
        """Groups quiet past the escalation window start fresh incidents.

        A node-wide rung that ran within the window keeps every group's
        incident open: the group escalated to it, so the next report must
        keep climbing the node ladder, not restart at a fresh µRB.
        """
        if not self._quiet(self._node_ladder, now):
            return
        for key in sorted(self._ladders):
            ladder = self._ladders[key]
            if any(entry.ladder is ladder for entry in self._inflight):
                continue
            if ladder.last_action_end is not None and self._quiet(ladder, now):
                del self._ladders[key]

    def _conflicts(self, targets, entry):
        if entry.targets is None:
            return True  # node-exclusive coarse action blocks everything
        return self.recovery_graph.conflicts(targets, entry.targets)

    def _dispatch_parallel(self, report):
        """Start at most one recovery for this report, without blocking.

        The dependency-aware twin of the serial ``_should_act`` +
        ``_dispatch_serial`` pair: a hot candidate whose dependency group
        is already recovering is skipped (its group stays serialized) and
        the next-hottest *independent* candidate is considered instead, so
        one report can only ever start a recovery in a group that is idle.
        Candidates are re-diagnosed from the current scores on every
        dispatch — a deferred recovery never acts on a candidate captured
        earlier.

        Unlike the serial ladder, dispatch demands a *localized* culprit:
        during a multi-component burst every failing path crosses the web
        component, so its raw score crosses threshold while the specific
        beans are still accumulating — and acting on that alone would
        coarsen exactly the incidents this scheduler exists to keep
        fine-grained.  Unlocalized evidence must therefore reach twice
        the threshold before the node-wide rungs are considered.
        """
        if self.human_notified:
            return
        now = self.kernel.now
        resource = report.kind is FailureKind.RESOURCE_EXHAUSTION
        if not resource:
            war = self.server.web_component_name
            specific = any(
                score >= self.score_threshold
                for name, score in self.scores.items()
                if name != war
            )
            coarse_demand = any(
                score >= 2 * self.score_threshold
                for score in self.scores.values()
            )
            if not specific and not coarse_demand:
                return
        self._reset_stale_ladders(now)
        exclude = self.active_quarantines()
        for ladder in self._ladders.values():
            exclude |= ladder.tried
        skip = set()
        while True:
            if resource:
                candidate = self._leaker(now, exclude | skip)
            else:
                candidate = self._candidate(exclude | skip, record=True)
            if candidate is None:
                return self._dispatch_coarse(report, now, resource)
            targets = self._targets(candidate)
            ladder = self._ladder_for(targets)
            if (
                not ladder.last_action_ok
                or ladder.ejb_attempts >= self.max_ejb_attempts
            ):
                # This group's fine grain is spent within its incident:
                # walk the node-wide rungs instead.
                return self._dispatch_coarse(report, now, resource)
            if not resource and self._in_backoff(candidate, now):
                self._flap_strike(candidate)
                return self._defer("backoff", "ejb", (candidate,))
            if any(self._conflicts(targets, entry) for entry in self._inflight):
                if resource:
                    return  # its group is mid-recovery: wait, don't coarsen
                # Same dependency group already recovering: stay
                # serialized within the group, look for an independent
                # candidate instead.
                skip |= targets
                skip.add(candidate)
                continue
            if not self._admit("ejb", (candidate,)):
                return
            ladder.tried |= targets
            ladder.ejb_attempts += 1
            entry = self._entry("ejb", report.kind, ladder, candidate, targets)
            return self._start(entry, "recovery")

    def _dispatch_coarse(self, report, now, resource):
        """The node-wide rungs (WAR and coarser) are node-exclusive."""
        if self._inflight:
            # Wait for the in-flight recoveries: scores survive, so the
            # escalation is retried on the next report once the node is
            # quiet.
            return
        level = LEVELS[self._node_level_index(now)]
        if self._coarse_deferred(level, now, resource):
            return
        if not self._admit(level, ()):
            return
        entry = self._entry(level, report.kind, self._node_ladder)
        self._start(entry, "recovery")

    def _node_level_index(self, now):
        """The node ladder's next rung (never finer than the WAR)."""
        war = LEVELS.index("war")
        if self._quiet(self._node_ladder, now):
            return war
        return min(
            max(self._node_ladder.last_level_index + 1, war), len(LEVELS) - 1
        )

    # ------------------------------------------------------------------
    # Gates shared by the schedulers
    # ------------------------------------------------------------------
    def _targets(self, candidate):
        """The candidate's recovery group, as dispatch sees it.

        A name unknown to the coordinator (e.g. a stale URL-map name)
        falls back to the bare candidate: the execution hits the same
        error, records an errored action, and still advances the
        candidate's backoff key.
        """
        try:
            return frozenset(self.coordinator.expand_targets([candidate]))
        except AppServerError:
            return frozenset((candidate,))

    def _coarse_deferred(self, level, now, resource):
        """Hardening gates on the coarse rungs; True when ``level`` waits."""
        if not self.hardening.enabled:
            return False
        if level == "war" and not resource:
            # About to coarsen beyond single-component µRBs — but when the
            # hottest candidate overall (tried this incident or not) is a
            # component we recently recovered and it is still in backoff,
            # the recovery evidently did not stick.  That is flap
            # evidence: grounds for waiting (and eventually quarantining
            # the flapper), not for escalating to a far more disruptive
            # level.
            hot = self._candidate(self.active_quarantines())
            if hot is not None and self._in_backoff(hot, now):
                self._flap_strike(hot)
                self._defer("backoff", level, (hot,))
                return True
        if level not in ("ejb", "human"):
            if now < self._backoff_end(level, ()):
                # A coarse recovery just ran (or was recently deferred):
                # give the node room to breathe — and external trouble
                # (a flaky LB link, a slow disk) time to pass — before
                # recycling it at an even coarser grain.
                self._defer("backoff", level, ())
                return True
        return False

    def _admit(self, level, targets):
        """Take a storm-limiter slot for ``level``; False when deferred.

        The storm limiter is the global concurrency cap.  Deferred, not
        cancelled: scores survive, and the next report re-diagnoses from
        scratch.  Notifying a human takes no slot.
        """
        if (
            self.storm_limiter is None
            or level == "human"
            or self.storm_limiter.admit(who=self.server.name)
        ):
            return True
        self._defer("storm", level, targets)
        return False

    # ------------------------------------------------------------------
    # The executor (every recovery, whichever scheduler chose it)
    # ------------------------------------------------------------------
    def _entry(
        self, level, trigger, ladder, candidate=None, targets=None,
        preemptive=False,
    ):
        """The in-flight record of a recovery decided now."""
        action = RecoveryAction(
            decided_at=self.kernel.now,
            level=level,
            target=() if candidate is None else (candidate,),
            trigger=trigger,
        )
        return _Inflight(
            action=action, ladder=ladder, targets=targets, preemptive=preemptive
        )

    def _start(self, entry, kind):
        """Register ``entry`` in flight and execute it as a kernel process."""
        self._inflight.append(entry)
        self._dispatch_seq += 1
        self.kernel.process(
            self._execute(entry),
            name=f"rm-{self.server.name}-{kind}-{self._dispatch_seq}",
        )

    def _execute(self, entry):
        """Generator: carry out one in-flight recovery and record it.

        Everything from the group expansion on runs inside the action:
        expansion can raise (a stale URL-map name unknown to the
        coordinator), and an action that raised must still be recorded,
        release its storm-limiter slot and advance its backoff key —
        otherwise storms of failing actions wedge the limiter.
        """
        action = entry.action
        level = action.level
        ladder = entry.ladder
        flags = {"preemptive": True} if entry.preemptive else {}
        try:
            if level == "ejb":  # the target is still just the candidate
                action.target = tuple(
                    self.coordinator.expand_targets(action.target)
                )
            self.kernel.trace.publish(
                "rm.decision",
                server=self.server.name,
                level=level,
                target=action.target,
                trigger=action.trigger.value,
                **flags,
            )
            for listener in self.begin_listeners:
                listener(action)
            if level == "ejb":
                yield from self.coordinator.microreboot(list(action.target))
            elif level == "war":
                event = yield from self.coordinator.microreboot_war()
                action.target = event.components
            elif level == "application":
                event = yield from self.coordinator.restart_application()
                action.target = event.components
            elif level == "jvm":
                yield from self._restart_jvm()
            elif level == "os":
                yield from self._reboot_os()
            else:  # human
                self.human_notified = True
        except Exception as exc:  # noqa: BLE001 - a failed action must not
            # wedge the RM: before this handler existed, an action that
            # raised left ``actions`` unappended, the ladder's last end
            # stale, and the scores intact, so the next report replayed the
            # same escalation state forever.  Record the failed action and
            # retire evidence exactly like the success path; the
            # escalation ladder then tries the next-coarser level.
            action.error = f"{type(exc).__name__}: {exc}"
            self._action_errors.inc()
            # The ladder's attempt state must not survive a raised action
            # either: a stale tried set would keep excluding candidates
            # that were never actually recovered, wedging the ladder at a
            # level whose action cannot complete.
            ladder.tried = set()
            ladder.ejb_attempts = 0
        finally:
            action.finished_at = self.kernel.now
            self.actions.append(action)
            self._actions_by_level.inc(level)
            ladder.last_action_end = action.finished_at
            ladder.last_level_index = LEVELS.index(level)
            ladder.last_action_ok = action.ok
            self._inflight.remove(entry)
            self._forget(entry)
            self.kernel.trace.publish(
                "rm.action.end",
                server=self.server.name,
                level=level,
                target=action.target,
                ok=action.ok,
                error=action.error,
                duration=action.finished_at - action.decided_at,
                **flags,
            )
            if self.storm_limiter is not None and level != "human":
                self.storm_limiter.release()
            # A preemptive µRB is planned maintenance, not failure-driven
            # recovery: no recurring-failure count and deliberately NO
            # _note_recovery.  Counting it toward flap detection would
            # quarantine a slowly-leaking component for being rejuvenated
            # on schedule, and advancing its backoff would defer the
            # *reactive* recovery that an actual failure needs.  The
            # policy's per-component cooldown is the preemption loop-guard
            # (same contract as RejuvenationService, whose rolling µRBs
            # bypass the RM).
            if not entry.preemptive:
                self._check_recurring()
                if self.hardening.enabled and level != "human":
                    self._note_recovery(level, action)
            for listener in self.listeners:
                listener(action)

    def _forget(self, entry):
        """Retire the evidence a finished recovery has answered.

        The one completion step where the schedulers differ.  The serial
        scheduler wipes every score and drops the reports queued during
        the recovery.  The parallel scheduler recycling the node wipes
        every score too, but after a µRB it forgets only evidence through
        the recycled components and makes them the staleness cutoff for
        reports on their paths.  A preemptive µRB answered no failure: it
        sets those cutoffs and forgets nothing.
        """
        action = entry.action
        if self.scheduler == "serial":
            if not entry.preemptive:
                self._wipe_evidence()
                self.inbox.drain()  # reports queued during recovery are stale
        elif action.level != "ejb":
            # The node itself was recycled: all evidence predates it.
            self._component_last_end = {}
            self._wipe_evidence()
        else:
            recycled = set(action.target or ()) | set(entry.targets or ())
            for component in recycled:
                self._component_last_end[component] = action.finished_at
            if not entry.preemptive:
                self._forget_evidence(recycled)

    def _wipe_evidence(self):
        self.scores = {}
        self._recent_reports = []
        if self.path_analyzer is not None:
            # Paths observed before the recovery are as stale as the
            # scores: re-targeting must be based on post-recovery data.
            self.path_analyzer.clear()

    def _forget_evidence(self, components):
        """Evidence through just-recycled components is stale; keep the rest.

        The parallel counterpart of the serial scheduler's full score
        wipe: only reports whose path touches the recovered components
        are dropped, so independent groups keep the evidence their own
        (possibly imminent) recoveries are based on.
        """
        self._recent_reports = [
            entry
            for entry in self._recent_reports
            if not (set(entry[1]) & components)
        ]
        self._refresh_scores()
        if self.path_analyzer is not None:
            self.path_analyzer.forget(components)

    # ------------------------------------------------------------------
    # Preemptive recovery (health alerts → µRB before failure)
    # ------------------------------------------------------------------
    def preempt(self, component):
        """Schedule a preemptive µRB of ``component`` (no failure yet).

        The entry point the proactive rejuvenation policy calls when a
        health alert predicts trouble.  A preemptive action *respects*
        the reactive safeguards — it declines while the target is
        quarantined or in backoff, and takes a storm-limiter slot — but
        deliberately leaves all reactive state alone: it neither
        advances backoff/flap counters (planned maintenance is not
        flapping; the policy cooldown guards against preempt loops) nor
        consumes the real incident's EJB attempts or escalation ladder.

        Returns the dispatched :class:`RecoveryAction`, or None when the
        preemption was declined (busy, quarantined, deferred, unknown
        component, or the RM already gave up to a human).
        """
        now = self.kernel.now
        if self.human_notified:
            return None
        if component not in self.server.containers:
            return None
        if component in self.active_quarantines():
            return None
        if self._in_backoff(component, now):
            self._defer("backoff", "ejb", (component,))
            return None
        # Under the serial scheduler every entry conflicts with everything.
        targets = (
            self._targets(component) if self.scheduler == "parallel" else None
        )
        if any(self._conflicts(targets, entry) for entry in self._inflight):
            return None
        if not self._admit("ejb", (component,)):
            return None
        entry = self._entry(
            "ejb",
            FailureKind.PREDICTED,
            # A throwaway ladder: preemptions must not consume the
            # component's real escalation state.
            _GroupLadder(f"preempt:{component}"),
            component,
            targets,
            preemptive=True,
        )
        self._start(entry, "preempt")
        return entry.action

    # ------------------------------------------------------------------
    # Hardening: backoff, flap quarantine, storm deferral
    # ------------------------------------------------------------------
    def _defer(self, reason, level, targets):
        """Skip this recovery without acting or mutating incident state.

        The failure scores survive untouched, so the recovery is retried
        on the next report once the backoff lapses or the storm window
        frees up — deferred, not cancelled.
        """
        if reason == "backoff":
            self._backoff_deferred.inc()
        self.kernel.trace.publish(
            "rm.recovery.deferred",
            server=self.server.name,
            reason=reason,
            level=level,
            targets=tuple(targets),
        )
        # How long the deferral holds: listeners (e.g. the LB routing
        # around a sick node) should not give up before the RM is even
        # allowed to act again.
        ttl = 0.0
        if reason == "backoff":
            ttl = max(0.0, self._backoff_end(level, targets) - self.kernel.now)
        for listener in self.defer_listeners:
            listener(reason, level, tuple(targets), ttl)
        return None

    def active_quarantines(self):
        """Components currently quarantined (read-only; no pruning)."""
        now = self.kernel.now
        return {
            name for name, until in self.quarantined.items() if until > now
        }

    def _in_backoff(self, key, now):
        return self.hardening.enabled and now < self._backoff_until.get(key, 0.0)

    @staticmethod
    def _backoff_keys(level, targets):
        """The backoff keys of a recovery at ``level`` on ``targets``.

        EJB-level recoveries are keyed per component (the whole expanded
        recovery group); node-wide ones share the ``"node"`` key; any
        other level is keyed by its level string — so a node that keeps
        being recycled backs off exactly like a component that keeps
        flapping.
        """
        if level == "ejb" and targets:
            return tuple(targets)
        if level in NODE_WIDE_LEVELS:
            return ("node",)
        return (level,)

    def _backoff_end(self, level, targets):
        """When the backoff of a recovery at ``level`` on ``targets`` ends:
        the latest deadline among its keys (0.0 when none is set)."""
        return max(
            self._backoff_until.get(key, 0.0)
            for key in self._backoff_keys(level, targets)
        )

    def _explained_by_quarantine(self, report):
        """True when a quarantined component sits on the report's path.

        Judged against the *report's own timestamp* with the half-open
        ``[begin, until)`` contract (the TawAccounting convention used
        throughout): a report stamped at exactly ``t == until`` is
        post-quarantine evidence — the sentinel was already unbound when
        the failure was observed — and must be scored, not suppressed.
        """
        active = {
            name
            for name, until in self.quarantined.items()
            if until > report.time
        }
        if not active:
            return False
        return bool(active & set(self.path_for_url(report.url)))

    def _record_repeat(self, key, at, level="ejb"):
        """Count one flap/backoff repeat for ``key``; returns the count.

        Each repeat inside ``flap_window`` extends the key's backoff
        exponentially.
        """
        hardening = self.hardening
        horizon = at - hardening.flap_window
        history = [
            t for t in self._recovery_history.get(key, ()) if t >= horizon
        ]
        history.append(at)
        self._recovery_history[key] = history
        repeats = len(history)
        backoff = min(
            hardening.backoff_max,
            hardening.backoff_base * hardening.backoff_factor ** (repeats - 1),
        )
        self._backoff_until[key] = at + backoff
        self.kernel.trace.publish(
            "rm.backoff.set",
            server=self.server.name,
            target=key,
            level=level,
            until=at + backoff,
            repeats=repeats,
        )
        return repeats

    def _flap_strike(self, name):
        """A target still in backoff is wanted again: count flap evidence.

        Debounced (``flap_debounce``) so one burst of failure reports
        registers as a single pulse; enough distinct pulses within
        ``flap_window`` quarantine the target.
        """
        now = self.kernel.now
        history = self._recovery_history.get(name, ())
        if history and now - history[-1] < self.hardening.flap_debounce:
            return
        repeats = self._record_repeat(name, now)
        self._quarantine_if_flapping(name, repeats, now)

    def _note_recovery(self, level, action):
        """Record a finished recovery for backoff and flap accounting,
        under each of its backoff keys (:meth:`_backoff_keys`)."""
        finished = action.finished_at
        for key in self._backoff_keys(level, action.target):
            repeats = self._record_repeat(key, finished, level=level)
            if level == "ejb":
                self._quarantine_if_flapping(key, repeats, finished)

    def _quarantine_if_flapping(self, name, repeats, now):
        """Quarantine ``name`` once it has recurred ``flap_threshold``
        times, unless it is already quarantined or is not a deployed
        component."""
        if (
            repeats >= self.hardening.flap_threshold
            and name not in self.active_quarantines()
            and name in self.server.containers
        ):
            self._quarantine(name, now)

    def _quarantine(self, name, now):
        """Flap detected: park ``name`` behind a fast-503 sentinel.

        Requests that would invoke the component get an immediate
        ``Retry-After`` answer (no threads killed, no transactions
        aborted), and reports explained by the quarantine are suppressed,
        breaking the reboot loop for ``quarantine_ttl`` seconds.
        """
        until = now + self.hardening.quarantine_ttl
        self.quarantined[name] = until
        self._quarantines.inc()
        retry_after = getattr(self.coordinator.retry_policy, "retry_after", 2.0)
        self.server.naming.bind_sentinel(name, retry_after)
        self.kernel.trace.publish(
            "rm.quarantine.begin", server=self.server.name,
            component=name, until=until,
        )
        self.kernel.process(
            self._lift_quarantine(name, until), name=f"quarantine-lift-{name}"
        )
        for listener in self.quarantine_listeners:
            listener(name, self.active_quarantines())

    def _lift_quarantine(self, name, until):
        """Generator: restore the component's binding at quarantine expiry."""
        yield self.kernel.timeout(max(0.0, until - self.kernel.now))
        if self.quarantined.get(name) != until:
            return  # re-quarantined meanwhile; that process owns the lift
        del self.quarantined[name]
        if self.server.naming.is_sentinel(name) and name in self.server.containers:
            self.server.naming.bind(name, name)
        self.kernel.trace.publish(
            "rm.quarantine.end", server=self.server.name, component=name
        )
        for listener in self.quarantine_listeners:
            listener(name, self.active_quarantines())

    def _restart_jvm(self):
        if self.node_controller is not None:
            yield from self.node_controller.restart_jvm()
        else:
            yield from self.server.restart_jvm()

    def _reboot_os(self):
        if self.node_controller is None:
            # No node abstraction (single-server rigs): a JVM restart is
            # the coarsest action available; escalate to the human next.
            yield from self.server.restart_jvm()
        else:
            yield from self.node_controller.reboot_os()

    def _check_recurring(self):
        """Notify a human on endless reboot cycles (§4)."""
        cutoff = self.kernel.now - RECURRING_WINDOW
        recent = [a for a in self.actions if a.finished_at >= cutoff]
        if len(recent) >= self.recurring_limit:
            self.human_notified = True
