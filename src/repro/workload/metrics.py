"""Action-weighted throughput (Taw) and response-time accounting (§4).

"An action succeeds or fails atomically: if all operations within the
action succeed, they count toward action-weighted goodput; if an operation
fails, all operations in the corresponding action are marked failed" —
including retroactively, which is why a wide recovery dip also poisons the
requests that preceded the failure within their actions.
"""

from dataclasses import dataclass, field

from repro.telemetry.metrics import MetricsRegistry


@dataclass(slots=True)
class OperationRecord:
    """One HTTP request as the client experienced it."""

    operation: str
    url: str
    issued_at: float
    completed_at: float = None
    ok: bool = False
    response_time: float = None
    failure_kind: str = None
    functional_group: str = None
    retries: int = 0


@dataclass(slots=True)
class ActionRecord:
    """One user action: operations culminating in a commit point."""

    name: str
    client_id: int
    started_at: float
    operations: list = field(default_factory=list)

    @property
    def committed(self):
        """The action succeeded as a whole (its commit point succeeded)."""
        return bool(self.operations) and all(op.ok for op in self.operations)


def _stamp(op):
    """Where an operation lands in time: completion, else issue."""
    return op.completed_at if op.completed_at is not None else op.issued_at


class TawAccounting:
    """Aggregates operations/actions into the paper's metrics.

    :attr:`actions` is the one per-request store: every view of individual
    requests (:attr:`response_times`, :attr:`failure_intervals`) is
    computed from it when read, so a request is held once, in its
    :class:`OperationRecord`.
    """

    def __init__(self, metrics=None):
        #: All counts live in a telemetry registry (shareable with the rest
        #: of a rig's instrumentation); the attribute API below is
        #: unchanged — ``good_requests`` and friends read through to it.
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self._good = self.registry.counter("taw.requests.good")
        self._bad = self.registry.counter("taw.requests.failed")
        self._good_actions = self.registry.counter("taw.actions.good")
        self._bad_actions = self.registry.counter("taw.actions.failed")
        self._failures_by_operation = self.registry.family(
            "taw.failures.by_operation"
        )
        self._failures_by_kind = self.registry.family("taw.failures.by_kind")
        self._response_time_hist = self.registry.histogram(
            "taw.response_time"
        )
        self.actions = []
        #: second → count of requests that (retro)counted good/bad there.
        self._good_series = {}
        self._bad_series = {}

    def timed_requests(self, start=0):
        """Yield ``(completed_at, seconds)`` per timed request of
        ``actions[start:]``, in record order.

        Only the actions from ``start`` on are read, so a reader that
        remembers where it stopped reads each record once.
        """
        actions = self.actions
        for i in range(start, len(actions)):
            for op in actions[i].operations:
                if op.response_time is not None:
                    yield _stamp(op), op.response_time

    @property
    def response_times(self):
        """``(completed_at, seconds)`` per timed request, in record order."""
        return list(self.timed_requests())

    @property
    def failure_intervals(self):
        """``(group, issued_at, completed_at)`` per failed request, for
        Figure 2, in record order."""
        return [
            (op.functional_group, op.issued_at, _stamp(op))
            for action in self.actions
            for op in action.operations
            if not op.ok
        ]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_action(self, action):
        """Account one finished action (Taw semantics: all-or-nothing)."""
        self.actions.append(action)
        operations = action.operations
        committed = action.committed
        if committed:
            self._good_actions.inc()
            requests, series = self._good, self._good_series
        else:
            self._bad_actions.inc()
            requests, series = self._bad, self._bad_series
        if operations:
            # One counter bump per action: integral float counts add up
            # exactly, so this equals one inc() per operation.
            requests.inc(len(operations))
        for op in operations:
            bucket = int(_stamp(op))
            series[bucket] = series.get(bucket, 0) + 1
            if op.response_time is not None:
                self._response_time_hist.observe(op.response_time)
            if not op.ok:
                self._failures_by_operation.inc(op.operation)
                if op.failure_kind:
                    self._failures_by_kind.inc(op.failure_kind)

    def record_batch(self, bucket, good_ops=0, bad_ops=0,
                     good_actions=0, bad_actions=0):
        """Account a whole cohort of finished operations at once.

        The bounded counterpart of :meth:`record_action` for the batch
        workload engine: it moves the same counters and per-second series
        (so availability, Taw windows and the SLO engine read identically)
        but records **no** per-action or per-operation objects — a million
        sessions must not allocate a million records.  Response times go
        separately through :meth:`record_response_times`.
        """
        if good_actions:
            self._good_actions.inc(good_actions)
        if bad_actions:
            self._bad_actions.inc(bad_actions)
        if good_ops:
            self._good.inc(good_ops)
            self._good_series[bucket] = (
                self._good_series.get(bucket, 0) + good_ops
            )
        if bad_ops:
            self._bad.inc(bad_ops)
            self._bad_series[bucket] = (
                self._bad_series.get(bucket, 0) + bad_ops
            )

    def record_response_times(self, seconds, n=1):
        """Feed ``n`` identical response times to the histogram sketch only.

        Batch-path companion to :meth:`record_batch`: quantiles and the
        mean stay available via the sketch; ``response_times`` stays empty,
        as no action is recorded.
        """
        self._response_time_hist.observe_many(seconds, n)

    # ------------------------------------------------------------------
    # Series and summaries
    # ------------------------------------------------------------------
    @property
    def good_requests(self):
        return int(self._good.value)

    @property
    def failed_requests(self):
        return int(self._bad.value)

    @property
    def good_actions(self):
        return int(self._good_actions.value)

    @property
    def failed_actions(self):
        return int(self._bad_actions.value)

    @property
    def failures_by_operation(self):
        return self._failures_by_operation.as_dict()

    @property
    def failures_by_kind(self):
        return self._failures_by_kind.as_dict()

    @property
    def total_requests(self):
        return self.good_requests + self.failed_requests

    def good_taw_series(self):
        """Per-second good Taw: {second: successful requests}."""
        return dict(self._good_series)

    def bad_taw_series(self):
        return dict(self._bad_series)

    def requests_in_window(self, start, end):
        """(good, bad) requests whose buckets fall in ``[start, end)``.

        Window-edge contract: **half-open on the bucket label**.  A request
        is bucketed at ``int(completed_at)`` (falling back to ``issued_at``
        when it never completed), and a bucket belongs to the window iff
        ``start <= bucket < end``.  So consecutive windows
        ``[0, w), [w, 2w), ...`` partition the run: every request is
        counted in exactly one window, none is counted twice, and none
        falls between windows.  The SLO engine
        (:mod:`repro.observability.slo`) and the experiments' trailing-
        window checks rely on this partition property; both use the same
        convention for response-time stamps.

        Note the comparison is against the integer bucket label, not the
        raw timestamp: a request completing at t=9.7 lives in bucket 9 and
        is therefore *inside* ``[0, 10)`` but *outside* ``[9.5, 10)``.
        """
        good = sum(v for t, v in self._good_series.items() if start <= t < end)
        bad = sum(v for t, v in self._bad_series.items() if start <= t < end)
        return good, bad

    def operations_mix(self):
        """Operation name → fraction of all recorded requests."""
        counts = {}
        for action in self.actions:
            for op in action.operations:
                counts[op.operation] = counts.get(op.operation, 0) + 1
        total = sum(counts.values())
        if total == 0:
            return {}
        return {name: count / total for name, count in counts.items()}

    def mean_response_time(self):
        response_times = self.response_times
        if not response_times:
            # Batch-recorded runs have no per-request list; the sketch
            # still knows the exact mean (count and sum are not sketched).
            if self._response_time_hist.count:
                return self._response_time_hist.mean
            return None
        return sum(rt for _t, rt in response_times) / len(response_times)

    def response_times_over(self, threshold=8.0):
        """How many requests exceeded the 8 s abandonment threshold (§5.3)."""
        return sum(1 for _t, rt in self.timed_requests() if rt > threshold)

    def response_time_series(self, bucket_seconds=1.0):
        """Per-bucket mean response time: {bucket_start: seconds}."""
        sums, counts = {}, {}
        for when, rt in self.timed_requests():
            bucket = int(when / bucket_seconds) * bucket_seconds
            sums[bucket] = sums.get(bucket, 0.0) + rt
            counts[bucket] = counts.get(bucket, 0) + 1
        return {b: sums[b] / counts[b] for b in sorted(sums)}

    def group_unavailability(self, group, min_span=1.0):
        """Merged [start, end] spans during which ``group`` requests failed.

        Figure 2 draws a gap for interval [t1, t2] when a request whose
        processing spanned it eventually failed; "since RegisterNewUser
        requests fail, we show the entire group as unavailable".  Fail-fast
        failures (connection refused) are instantaneous, so each failure
        claims at least ``min_span`` seconds — one plot pixel, as it were.
        """
        spans = sorted(
            (start, max(end, start + min_span))
            for g, start, end in self.failure_intervals
            if g == group
        )
        merged = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged
