"""Rolling-window SLO evaluation: availability, Gaw, latency, budget burn.

The paper argues recovery is cheap when action-weighted goodput stays high
*through* a fault, not just on run-level averages — which is exactly what a
rolling SLO window measures.  :func:`compute_windows` slices a run into
consecutive fixed-width simulated-time windows and judges each against an
:class:`SloPolicy`; :class:`SloEngine` does the same live on a running
kernel, publishing ``slo.violated`` events back onto the TraceBus as
windows go bad, so violations interleave with the fault/recovery story in
exported timelines.

Taw accounting is retroactive — an operation counts good or bad only when
its *action* commits or aborts, which happens after the operation itself
(§4: all-or-nothing actions).  The live engine therefore judges window
``k`` only once the clock has cleared the *following* window, giving
in-flight actions time to land; :meth:`SloEngine.evaluate` recomputes every
full window canonically at end of run, and reports are always built from
that canonical pass.

Error-budget burn follows the usual SRE definition: with availability
target ``A``, a window burning at rate 1.0 consumes its error budget
``1 - A`` exactly; burn 10 means the window failed requests ten times
faster than the budget allows.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SloPolicy:
    """Targets one rolling window is judged against."""

    window: float = 30.0  # window width, simulated seconds
    availability_target: float = 0.999  # good / total per window
    latency_target: float = 8.0  # p99 ceiling: the §5.3 abandonment bar
    min_requests: int = 1  # quieter windows are never judged

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window!r}")
        if not 0 < self.availability_target <= 1:
            raise ValueError(
                "availability_target must be in (0, 1], got "
                f"{self.availability_target!r}"
            )

    @property
    def error_budget(self):
        return 1.0 - self.availability_target


@dataclass
class SloWindow:
    """One judged window ``[start, end)``."""

    start: float
    end: float
    good: int = 0
    bad: int = 0
    p50: float = None
    p99: float = None
    violated: bool = False
    reasons: list = field(default_factory=list)
    #: Copied from the judging policy so ``burn`` is self-contained.
    availability_target: float = 0.999

    @property
    def total(self):
        return self.good + self.bad

    @property
    def availability(self):
        return self.good / self.total if self.total else None

    @property
    def gaw(self):
        """Good action-weighted requests per second over the window."""
        width = self.end - self.start
        return self.good / width if width > 0 else 0.0

    @property
    def burn(self):
        """Error-budget burn rate (1.0 = consuming budget exactly on pace).

        A zero error budget (availability_target == 1.0) makes any failure
        an infinite burn; quiet windows burn nothing.
        """
        if not self.total:
            return 0.0
        failure_rate = self.bad / self.total
        budget = 1.0 - self.availability_target
        if budget <= 0:
            return float("inf") if failure_rate else 0.0
        return failure_rate / budget

    def to_dict(self):
        return {
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "good": self.good,
            "bad": self.bad,
            "availability": (
                round(self.availability, 6)
                if self.availability is not None else None
            ),
            "gaw": round(self.gaw, 3),
            "p50": round(self.p50, 4) if self.p50 is not None else None,
            "p99": round(self.p99, 4) if self.p99 is not None else None,
            "burn": (
                round(self.burn, 3)
                if self.burn != float("inf") else "inf"
            ),
            "violated": self.violated,
            "reasons": list(self.reasons),
        }


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an already-sorted list (None when empty)."""
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _build_window(start, end, good_series, bad_series, window_rts, policy):
    window = SloWindow(
        start=start, end=end,
        availability_target=policy.availability_target,
    )
    window.good = sum(
        v for t, v in good_series.items() if start <= t < end
    )
    window.bad = sum(
        v for t, v in bad_series.items() if start <= t < end
    )
    rts = sorted(window_rts)
    window.p50 = _quantile(rts, 0.50)
    window.p99 = _quantile(rts, 0.99)
    if window.total >= policy.min_requests:
        availability = window.availability
        if availability is not None and availability < policy.availability_target:
            window.reasons.append(
                f"availability {availability:.4f} < "
                f"{policy.availability_target:.4f}"
            )
        if window.p99 is not None and window.p99 > policy.latency_target:
            window.reasons.append(
                f"p99 {window.p99:.2f}s > {policy.latency_target:.2f}s"
            )
    window.violated = bool(window.reasons)
    return window


def compute_windows(good_series, bad_series, response_times, t_end,
                    policy=None, t_start=0.0):
    """Judge every *full* window in ``[t_start, t_end)``.

    ``good_series`` / ``bad_series`` are per-second bucket dicts in
    :meth:`TawAccounting.good_taw_series` form; ``response_times`` is a
    list of ``(completed_at, seconds)``.  Windows are half-open on both
    the bucket timestamps and the response-time stamps — the same
    ``[start, end)`` contract as :meth:`TawAccounting.requests_in_window`
    — so no request is counted twice and none falls between windows.
    A trailing partial window is never judged (its failure rate would be
    noise, not signal).
    """
    policy = policy or SloPolicy()
    windows = []
    n_windows = int((t_end - t_start) // policy.window)
    # Pre-bucket response times by window index: one pass, not one scan
    # per window.
    rts_by_window = {}
    width = policy.window
    for when, rt in response_times:
        index = int((when - t_start) // width)
        if 0 <= index < n_windows:
            rts_by_window.setdefault(index, []).append(rt)
    for k in range(n_windows):
        start = t_start + k * width
        windows.append(
            _build_window(
                start, start + width, good_series, bad_series,
                rts_by_window.get(k, ()), policy,
            )
        )
    return windows


class RequestWindows:
    """Replay consumer: SLO windows judged from recorded ``request.end``.

    Timelines carry ``request.end`` events (ok, duration) but not the
    action grouping Taw needs, so this mode approximates Taw with
    per-request accounting: each request counts good or bad individually
    at its completion time.  For live runs the canonical Taw-weighted
    series from :class:`TawAccounting` is used instead.
    """

    #: Every record, not just ``request.end``: the judged span runs to the
    #: timeline's last event, whatever its kind.
    kinds = None

    def __init__(self):
        self.good, self.bad, self.response_times = {}, {}, []

    def feed(self, t, kind, fields):
        if kind != "request.end":
            return
        series = self.good if fields.get("ok") else self.bad
        bucket = int(t)
        series[bucket] = series.get(bucket, 0) + 1
        duration = fields.get("duration")
        if duration is not None:
            self.response_times.append((t, duration))

    def windows(self, t_end, policy=None):
        """Every full window in ``[0, t_end)``, judged against ``policy``."""
        return compute_windows(self.good, self.bad, self.response_times,
                               t_end, policy=policy)


class SloEngine:
    """Live rolling-window SLO evaluation over a running kernel.

    Entirely passive: it subscribes to ``request.end`` on the TraceBus and
    judges windows as the observed clock crosses their settle point — it
    schedules nothing on the kernel, so enabling it cannot perturb a
    simulation.  Violations publish ``slo.violated`` and accumulate in
    :attr:`live_violations`; call :meth:`evaluate` at end of run for the
    canonical window series.
    """

    kinds = ("request.end",)

    def __init__(self, taw, bus=None, policy=None, t_start=0.0):
        self.taw = taw
        self.policy = policy or SloPolicy()
        self.t_start = t_start
        self.windows = []  # canonical, filled by evaluate()
        self.live_violations = []
        self._next_window = 0  # first not-yet-judged window index
        #: Cursor into ``taw.actions``: the live judge has read the
        #: response times of every action before it.
        self._read = 0
        #: Response times read so far that a window not yet judged can
        #: still hold (stamped at or after its start).
        self._pending = []
        self.bus = bus
        if bus is not None:
            bus.subscribe(self.feed, self.kinds)

    # ------------------------------------------------------------------
    def feed(self, t, kind, fields):
        # Window k settles once the clock clears window k+1: Taw marks an
        # operation good/bad only when its whole action finishes, so a
        # window's counts keep moving for about one action-length after
        # the window closes.
        width = self.policy.window
        while self.t_start + (self._next_window + 2) * width <= t:
            self._judge_live(self._next_window)
            self._next_window += 1

    def _judge_live(self, k):
        # Window k sees every response time recorded so far that is stamped
        # inside it, as a scan of the whole run would.  Only the actions
        # recorded since the previous window are read; what was read before
        # and is stamped before window k+1 can fall in no later window.
        width = self.policy.window
        start = self.t_start + k * width
        end = start + width
        self._pending.extend(self.taw.timed_requests(self._read))
        self._read = len(self.taw.actions)
        window = _build_window(
            start, end,
            self.taw.good_taw_series(),
            self.taw.bad_taw_series(),
            [rt for when, rt in self._pending if start <= when < end],
            self.policy,
        )
        next_start = self.t_start + (k + 1) * width
        self._pending = [
            entry for entry in self._pending if entry[0] >= next_start
        ]
        if window.violated:
            self.live_violations.append(window)
            if self.bus is not None:
                self.bus.publish(
                    "slo.violated",
                    window_start=window.start,
                    window_end=window.end,
                    availability=window.availability,
                    p99=window.p99,
                    burn=(
                        window.burn if window.burn != float("inf") else None
                    ),
                    reasons=list(window.reasons),
                )

    # ------------------------------------------------------------------
    def evaluate(self, t_end):
        """Canonical pass: judge every full window in ``[t_start, t_end)``."""
        self.windows = compute_windows(
            self.taw.good_taw_series(),
            self.taw.bad_taw_series(),
            self.taw.timed_requests(),
            t_end,
            policy=self.policy,
            t_start=self.t_start,
        )
        return self.windows


def aggregate_slo(windows):
    """Plain-data rollup for campaign outcomes and rendered notes."""
    judged = [w for w in windows if w.total]
    violations = [w for w in windows if w.violated]
    availabilities = [
        w.availability for w in judged if w.availability is not None
    ]
    burns = [w.burn for w in judged if w.burn != float("inf")]
    return {
        "windows": len(windows),
        "judged": len(judged),
        "violations": len(violations),
        "violation_windows": [round(w.start, 1) for w in violations],
        "min_availability": (
            round(min(availabilities), 4) if availabilities else None
        ),
        "mean_gaw": (
            round(sum(w.gaw for w in judged) / len(judged), 3)
            if judged else None
        ),
        "max_burn": round(max(burns), 3) if burns else None,
    }
