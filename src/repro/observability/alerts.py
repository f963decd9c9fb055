"""Declarative alerting over component health: threshold → for → fire.

The health registry (:mod:`repro.observability.health`) reduces the
telemetry soup to a handful of per-component signals; this module turns
those signals into *alerts* the way a production monitoring stack would:

* an :class:`AlertRule` is declarative — which signal, which threshold,
  which direction, how long the condition must **hold**
  (``for_duration``, Prometheus's ``for:``), and a severity label;
* the :class:`AlertEngine` tracks per-(rule, key) pending state, fires
  once when the condition has held long enough, stays silent while the
  alert is active (dedup), and resolves once the condition clears;
* every transition publishes an ``alert.fired`` /
  ``alert.resolved`` bus event, so alerts land in recorded timelines
  with the rest of the recovery story.

The engine never schedules kernel events: :meth:`AlertEngine.evaluate`
is called by the health registry on every intake event (and by anyone
else who wants an evaluation point), so alerting piggybacks on the
run's own telemetry cadence.  ``on_fire`` / ``on_resolve`` listeners are
the hook the proactive rejuvenation policy closes the loop through.

:func:`alert_lead_times` measures the headline quantity: how many
seconds before an incident *opened* did an alert on the same server
fire?  Positive medians mean the predictive layer genuinely leads the
failures it predicts.
"""

from dataclasses import dataclass, field

#: Severity labels, mildest first (purely descriptive; no ordering logic).
SEVERITIES = ("info", "warn", "ticket", "page")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert rule.

    ``signal`` names a health-registry signal:

    * ``"health"`` — the 0–100 score, per component;
    * ``"hazard"`` / ``"flap"`` / ``"burn"`` / ``"heap"`` — the
      normalized [0, 1] penalty signals, per component;
    * ``"heap_tta"`` — predicted seconds to heap alarm, per server
      (no-trend ⇒ no opinion ⇒ condition false);
    * ``"heap_utilization"`` — fraction of heap used, per server.

    ``scope`` picks the key universe (``"component"``, ``"server"`` or
    ``"global"``); ``below`` picks the comparison direction.
    """

    name: str
    signal: str
    threshold: float
    below: bool = True
    for_duration: float = 0.0
    severity: str = "warn"
    scope: str = "component"

    def __post_init__(self):
        if self.for_duration < 0:
            raise ValueError(
                f"for_duration must be >= 0, got {self.for_duration!r}"
            )
        if self.scope not in ("component", "server", "global"):
            raise ValueError(f"unknown alert scope {self.scope!r}")

    def condition(self, value):
        if value is None:
            return False
        return value < self.threshold if self.below else value > self.threshold


@dataclass
class Alert:
    """One fired alert instance (resolved or still active)."""

    rule: str
    severity: str
    signal: str
    server: str
    component: str
    fired_at: float
    value: float
    resolved_at: float = None
    pending_since: float = field(default=None, repr=False)

    @property
    def active(self):
        return self.resolved_at is None

    def to_dict(self):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "signal": self.signal,
            "server": self.server,
            "component": self.component,
            "fired_at": round(self.fired_at, 6),
            "resolved_at": (
                round(self.resolved_at, 6)
                if self.resolved_at is not None else None
            ),
            "value": round(self.value, 6) if self.value is not None else None,
        }


def default_rules():
    """The stock ruleset the chaos rigs and CLIs evaluate.

    Tuned for the simulated cluster's scales: the heap-prediction rule is
    the proactive-rejuvenation trigger (a leak is *going* to cross the
    rejuvenation alarm within ~2 minutes), the health rule catches
    everything the blended score degrades on, and the burn rule pages on
    sustained error-budget fire.
    """
    return (
        AlertRule(
            name="heap-exhaustion-predicted",
            signal="heap_tta",
            threshold=120.0,
            below=True,
            for_duration=5.0,
            severity="page",
            scope="server",
        ),
        AlertRule(
            name="component-health-low",
            signal="health",
            threshold=45.0,
            below=True,
            for_duration=10.0,
            severity="warn",
            scope="component",
        ),
        AlertRule(
            name="error-budget-burning",
            signal="burn",
            threshold=0.5,
            below=False,
            for_duration=10.0,
            severity="ticket",
            scope="global",
        ),
    )


class AlertEngine:
    """Evaluates rules against a health registry; fires, dedups, resolves.

    Passive: no kernel process, no timers.  :meth:`evaluate` runs at
    whatever cadence the caller (normally the health registry's event
    intake) provides; ``for_duration`` is judged against those
    evaluation timestamps, so a condition only "holds" while evidence
    keeps arriving — exactly the Prometheus ``for:`` semantics under a
    scrape-shaped clock.
    """

    def __init__(self, rules=None, bus=None):
        self.rules = tuple(rules if rules is not None else default_rules())
        self.bus = bus
        self.alerts = []  # every Alert ever fired, in fire order
        self._active = {}  # (rule.name, key) -> Alert
        self._pending = {}  # (rule.name, key) -> since timestamp
        self.on_fire = []  # callables(alert)
        self.on_resolve = []  # callables(alert)

    # ------------------------------------------------------------------
    def _keys_for(self, rule, registry):
        if rule.scope == "component":
            return registry.keys()
        if rule.scope == "server":
            return [(server, None) for server in registry.servers()]
        return [(None, None)]

    def _value_for(self, rule, registry, server, component, now):
        signal = rule.signal
        if signal == "health":
            return registry.score(component, server=server, now=now)
        if signal == "heap_tta":
            return registry.heap_time_to_alarm(server, now=now)
        if signal == "heap_utilization":
            tracker = registry._heap.get(server)
            return tracker.utilization() if tracker is not None else None
        if signal == "burn":
            return registry.burn_signal(now)
        if signal == "hazard":
            return registry.hazard_signal(server, component, now)
        if signal == "flap":
            return registry.flap_signal(server, component, now)
        if signal == "heap":
            return registry.heap_signal(server, now)
        raise ValueError(f"unknown alert signal {signal!r}")

    def evaluate(self, now, registry):
        """One evaluation sweep; returns alerts fired during it."""
        fired = []
        for rule in self.rules:
            for server, component in self._keys_for(rule, registry):
                key = (rule.name, server, component)
                value = self._value_for(rule, registry, server, component,
                                        now)
                if rule.condition(value):
                    if key in self._active:
                        continue  # dedup: already firing
                    since = self._pending.setdefault(key, now)
                    if now - since >= rule.for_duration:
                        alert = self._fire(rule, server, component, now,
                                           value, since)
                        fired.append(alert)
                else:
                    self._pending.pop(key, None)
                    active = self._active.pop(key, None)
                    if active is not None:
                        self._resolve(active, now)
        return fired

    def _fire(self, rule, server, component, now, value, since):
        alert = Alert(
            rule=rule.name,
            severity=rule.severity,
            signal=rule.signal,
            server=server,
            component=component,
            fired_at=now,
            value=value,
            pending_since=since,
        )
        self.alerts.append(alert)
        self._active[(rule.name, server, component)] = alert
        self._pending.pop((rule.name, server, component), None)
        if self.bus is not None:
            self.bus.publish(
                "alert.fired",
                rule=rule.name,
                severity=rule.severity,
                signal=rule.signal,
                server=server,
                component=component,
                value=value,
            )
        for listener in self.on_fire:
            listener(alert)
        return alert

    def _resolve(self, alert, now):
        alert.resolved_at = now
        if self.bus is not None:
            self.bus.publish(
                "alert.resolved",
                rule=alert.rule,
                server=alert.server,
                component=alert.component,
                duration=now - alert.fired_at,
            )
        for listener in self.on_resolve:
            listener(alert)

    # ------------------------------------------------------------------
    def active_alerts(self):
        return [alert for alert in self.alerts if alert.active]

    def finalize(self, now):
        """End of run: resolve whatever is still firing."""
        for key in sorted(self._active, key=str):
            self._resolve(self._active[key], now)
        self._active.clear()
        self._pending.clear()
        return self.alerts


#: How long before an incident opens an alert still counts as its warning.
LEAD_WINDOW = 300.0


def alert_lead_times(alerts, incidents):
    """Seconds of warning each incident got from the alert stream.

    For every incident, the earliest alert that fired within
    ``LEAD_WINDOW`` seconds *before* the incident opened, on the same
    server (alerts with no server — global rules — match any incident).
    Returns a sorted list of lead times, one per warned incident;
    incidents with no preceding alert contribute nothing (coverage is
    reported separately by callers that need it).
    """
    leads = []
    for incident in incidents:
        opened = incident.opened_at
        candidates = [
            alert.fired_at
            for alert in alerts
            if alert.fired_at <= opened
            and opened - alert.fired_at <= LEAD_WINDOW
            and (
                alert.server is None
                or incident.server is None
                or alert.server == incident.server
            )
        ]
        if candidates:
            leads.append(opened - min(candidates))
    return sorted(leads)


def median(values):
    """Median of a list (None when empty) — tiny, dependency-free."""
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
