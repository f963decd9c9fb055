"""Component health scoring: many weak signals → one bounded number.

The estimators (:mod:`repro.observability.estimators`) answer "how often
does this component fail?"; the SLO engine answers "is the service inside
its error budget?"; the recovery manager's hardening state answers "is
this component flapping?"; and the heap model answers "is this node
leaking towards an alarm?".  Each signal alone is noisy — the
:class:`ComponentHealthRegistry` combines them into a single bounded
**0–100 health score** per ``(server, component)``, the quantity alert
rules threshold on and operators skim:

``score = 100 − hazard·30 − burn·25 − flap·20 − heap·25``

with every penalty term normalized into ``[0, 1]``:

* **hazard** — the component's instantaneous failure intensity from its
  :class:`~repro.observability.estimators.FailureRateEstimator`, scaled so
  one expected failure per :data:`HAZARD_FULL_SCALE` seconds saturates;
* **burn** — the cluster's SLO error-budget burn rate from live
  ``slo.violated`` publishes (a cluster-wide signal: every component on a
  burning cluster is suspect), decaying once windows stop violating;
* **flap** — quarantine/backoff pressure from ``rm.quarantine.begin`` /
  ``rm.backoff.set``: a quarantined component scores the full penalty
  while parked, repeated backoffs ramp it, and it decays linearly over
  :data:`FLAP_DECAY` quiet seconds;
* **heap** — the *server-wide* memory trend from ``heap.sample`` events:
  a least-squares slope over a capped ring predicts time-to-alarm, and
  the penalty ramps up as that prediction falls inside
  :data:`HEAP_HORIZON` (components can't be attributed from the sample
  itself — every component on a leaking node gets the penalty, and the
  proactive policy picks the actual leaker at action time).

Warm signals only subtract: a component with no evidence of trouble
scores 100, and the score can never leave ``[0, 100]``.

The registry is a passive TraceBus subscriber — it never schedules
kernel events.  When an :class:`~repro.observability.alerts.AlertEngine`
is attached, each intake event pokes ``engine.evaluate(now, self)``, so
alerting piggybacks on event arrival instead of polling: zero run
perturbation, which is what lets a "shadow" arm measure alert lead time
on a byte-identical schedule.
"""

from collections import deque

from repro.observability.estimators import Ewma

#: Penalty weights (sum 100 — each term's ceiling on the score).
WEIGHTS = {"hazard": 30.0, "burn": 25.0, "flap": 20.0, "heap": 25.0}

#: A hazard of one expected failure per this many seconds saturates the
#: hazard penalty (chaos-campaign flap trains sit well inside it).
HAZARD_FULL_SCALE = 60.0

#: Error-budget burn rate that saturates the burn penalty (burning the
#: budget 10× faster than sustainable is a five-alarm fire).
BURN_FULL_SCALE = 10.0

#: Seconds of quiet over which flap evidence decays back to zero.
FLAP_DECAY = 180.0

#: Backoff repeats that saturate the flap penalty (matches the hardened
#: policy's flap_threshold).
FLAP_FULL_SCALE = 3

#: Predicted seconds-to-heap-alarm below which the heap penalty ramps in
#: (full at 0 — i.e. the alarm is *now*).
HEAP_HORIZON = 150.0

#: Seconds of quiet over which the burn penalty decays once windows stop
#: violating (one SLO window plus slack).
BURN_DECAY = 90.0

#: heap.sample observations kept per server for the trend fit.
HEAP_RING = 32

#: An available-memory jump of this fraction of capacity between samples
#: means memory was *reclaimed* (µRB, restart): the old trend is obsolete.
HEAP_RESET_FRACTION = 0.05

#: Bus kinds the registry feeds on.
HEALTH_KINDS = (
    "heap.sample",
    "rm.quarantine.begin",
    "rm.quarantine.end",
    "rm.backoff.set",
    "slo.violated",
)


class HeapTrendTracker:
    """Least-squares memory trend for one server's ``heap.sample`` stream.

    Keeps the last :data:`HEAP_RING` ``(t, available)`` samples; the
    fitted slope (bytes/second, negative while leaking) extrapolates to a
    predicted time-to-alarm — the moment ``available`` crosses
    ``alarm_fraction × capacity`` free.
    """

    def __init__(self, alarm_fraction=0.10):
        self.alarm_fraction = alarm_fraction
        self.samples = deque(maxlen=HEAP_RING)
        self.capacity = None

    def observe(self, t, available, capacity=None):
        if capacity is not None:
            self.capacity = capacity
        if (
            self.samples
            and self.capacity
            and available - self.samples[-1][1]
            > HEAP_RESET_FRACTION * self.capacity
        ):
            # Memory came *back* (a µRB or restart reclaimed it): the
            # downhill trend that predicted exhaustion is history, and
            # keeping it in the fit would poison the next prediction.
            self.samples.clear()
        self.samples.append((t, available))

    @property
    def available(self):
        return self.samples[-1][1] if self.samples else None

    def utilization(self):
        """Fraction of the heap in use at the last sample (None unknown)."""
        if not self.samples or not self.capacity:
            return None
        return 1.0 - self.samples[-1][1] / self.capacity

    def slope(self):
        """Fitted d(available)/dt in bytes/sec; None until 2+ samples."""
        if len(self.samples) < 2:
            return None
        n = len(self.samples)
        mean_t = sum(t for t, _a in self.samples) / n
        mean_a = sum(a for _t, a in self.samples) / n
        var = sum((t - mean_t) ** 2 for t, _a in self.samples)
        if var == 0:
            return None
        cov = sum(
            (t - mean_t) * (a - mean_a) for t, a in self.samples
        )
        return cov / var

    def time_to_alarm(self, now):
        """Predicted seconds until free heap hits the alarm floor.

        None while the trend is unknown, flat, or recovering (slope ≥ 0);
        0 when the last sample is already at/below the floor.
        """
        if not self.samples or self.capacity is None:
            return None
        floor = self.alarm_fraction * self.capacity
        available = self.samples[-1][1]
        if available <= floor:
            return 0.0
        slope = self.slope()
        if slope is None or slope >= 0:
            return None
        # Extrapolate from the last sample, not `now`, so a stale trend
        # predicts from the evidence it actually has.
        last_t = self.samples[-1][0]
        eta = last_t + (floor - available) / slope
        return max(0.0, eta - now)


class ComponentHealthRegistry:
    """Bounded 0–100 health per (server, component) from live signals.

    A consumer of :data:`kinds` through :meth:`feed` — live when given a
    ``bus``, offline under :func:`~repro.observability.exporter.replay` —
    with the :class:`~repro.observability.estimators.EstimatorHub`
    supplying hazards.  Components become known the first time any
    signal names them, or eagerly via :meth:`register`.
    """

    kinds = HEALTH_KINDS

    def __init__(self, bus=None, hub=None, alert_engine=None,
                 weights=None, heap_alarm_fraction=0.10):
        self.hub = hub
        self.alert_engine = alert_engine
        self.weights = dict(weights or WEIGHTS)
        self.heap_alarm_fraction = heap_alarm_fraction
        self._keys = set()  # (server, component)
        self._heap = {}  # server -> HeapTrendTracker
        #: (server, component) -> {"repeats", "last_at", "quarantined_until"}
        self._flap = {}
        self._burn = Ewma()
        self._burn_at = None
        self.now = 0.0
        self.events_seen = 0
        self._last_eval = None
        if bus is not None:
            bus.subscribe(self.feed, self.kinds)

    def register(self, server, components):
        """Pre-seed the component universe (healthy = visible at 100)."""
        for component in components:
            self._keys.add((server, component))

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def feed(self, t, kind, fields):
        self.now = max(self.now, t)
        self.events_seen += 1
        if kind == "heap.sample":
            tracker = self._heap_tracker(fields.get("server"))
            tracker.observe(
                t, fields.get("available", 0), fields.get("capacity")
            )
        elif kind == "rm.quarantine.begin":
            state = self._flap_state(
                fields.get("server"), fields.get("component")
            )
            state["quarantined_until"] = fields.get("until", float("inf"))
            state["last_at"] = t
        elif kind == "rm.quarantine.end":
            state = self._flap_state(
                fields.get("server"), fields.get("component")
            )
            state["quarantined_until"] = t
            state["last_at"] = t
        elif kind == "rm.backoff.set":
            # Backoff keys are component names at the EJB grain and
            # "node"/level strings for coarse rungs; only the component-
            # keyed ones are per-component flap evidence.
            target = fields.get("target")
            if target and target not in ("node", "war", "application",
                                         "jvm", "os"):
                state = self._flap_state(fields.get("server"), target)
                state["repeats"] = fields.get("repeats", 1)
                state["last_at"] = t
        elif kind == "slo.violated":
            burn = fields.get("burn")
            # An infinite burn arrives as None; saturate the scale.
            self._burn.observe(
                BURN_FULL_SCALE if burn is None else min(
                    float(burn), BURN_FULL_SCALE
                )
            )
            self._burn_at = t
        if self.alert_engine is not None:
            # Throttled to once per simulated second: a full rule sweep
            # on every bus event is O(rules × keys) and a dense report
            # storm would re-evaluate identical signals hundreds of
            # times.  Sub-second resolution buys nothing — every default
            # rule holds its condition for >= 5 s before firing — and
            # the throttle is simulated-time based, so replaying the
            # same timeline still evaluates at the same instants.
            if self._last_eval is None or self.now - self._last_eval >= 1.0:
                self._last_eval = self.now
                self.alert_engine.evaluate(self.now, self)

    def _heap_tracker(self, server):
        tracker = self._heap.get(server)
        if tracker is None:
            tracker = self._heap[server] = HeapTrendTracker(
                alarm_fraction=self.heap_alarm_fraction
            )
        return tracker

    def _flap_state(self, server, component):
        key = (server, component)
        self._keys.add(key)
        state = self._flap.get(key)
        if state is None:
            state = self._flap[key] = {
                "repeats": 0, "last_at": None, "quarantined_until": None,
            }
        return state

    # ------------------------------------------------------------------
    # Signals (each normalized into [0, 1])
    # ------------------------------------------------------------------
    def hazard_signal(self, server, component, now):
        if self.hub is None:
            return 0.0
        hazard = self.hub.hazard(component, server=server, now=now)
        if hazard is None:
            return 0.0
        return min(1.0, hazard * HAZARD_FULL_SCALE)

    def burn_signal(self, now):
        if self._burn.value is None:
            return 0.0
        level = min(1.0, self._burn.value / BURN_FULL_SCALE)
        quiet = max(0.0, now - (self._burn_at or 0.0))
        return level * max(0.0, 1.0 - quiet / BURN_DECAY)

    def flap_signal(self, server, component, now):
        state = self._flap.get((server, component))
        if state is None:
            return 0.0
        until = state["quarantined_until"]
        if until is not None and until > now:
            return 1.0
        if state["last_at"] is None:
            return 0.0
        level = min(1.0, state["repeats"] / FLAP_FULL_SCALE)
        quiet = max(0.0, now - state["last_at"])
        return level * max(0.0, 1.0 - quiet / FLAP_DECAY)

    def heap_signal(self, server, now):
        tracker = self._heap.get(server)
        if tracker is None:
            return 0.0
        tta = tracker.time_to_alarm(now)
        if tta is None:
            return 0.0
        return max(0.0, 1.0 - tta / HEAP_HORIZON)

    def heap_time_to_alarm(self, server, now=None):
        """Predicted seconds to the server's heap alarm (None = no trend)."""
        tracker = self._heap.get(server)
        if tracker is None:
            return None
        return tracker.time_to_alarm(self.now if now is None else now)

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------
    def health(self, component, server=None, now=None):
        """The component's score plus its penalty breakdown."""
        now = self.now if now is None else now
        signals = {
            "hazard": self.hazard_signal(server, component, now),
            "burn": self.burn_signal(now),
            "flap": self.flap_signal(server, component, now),
            "heap": self.heap_signal(server, now),
        }
        penalty = sum(
            self.weights[name] * value for name, value in signals.items()
        )
        score = min(100.0, max(0.0, 100.0 - penalty))
        return {"score": score, "signals": signals}

    def score(self, component, server=None, now=None):
        return self.health(component, server=server, now=now)["score"]

    def keys(self):
        """Every (server, component) known, sorted deterministically."""
        seen = set(self._keys)
        if self.hub is not None:
            # Only incident-attributed keys: report-rate keys may carry
            # server=None (client-side reports) and would duplicate every
            # registered component as a phantom "-" row.
            seen.update(self.hub.failure_keys())
        return sorted(seen, key=lambda k: (str(k[0]), str(k[1])))

    def servers(self):
        seen = set(self._heap)
        seen.update(server for server, _c in self.keys())
        return sorted(seen, key=str)

    def snapshot(self, now=None):
        """Deterministic per-component health table (plain data)."""
        now = self.now if now is None else now
        rows = []
        for server, component in self.keys():
            health = self.health(component, server=server, now=now)
            rows.append(
                {
                    "server": server,
                    "component": component,
                    "score": round(health["score"], 3),
                    **{
                        name: round(value, 6)
                        for name, value in health["signals"].items()
                    },
                    "mttf": (
                        self.hub.mttf(component, server=server)
                        if self.hub is not None else None
                    ),
                }
            )
        return rows
