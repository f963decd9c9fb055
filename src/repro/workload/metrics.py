"""Action-weighted throughput (Taw) and response-time accounting (§4).

"An action succeeds or fails atomically: if all operations within the
action succeed, they count toward action-weighted goodput; if an operation
fails, all operations in the corresponding action are marked failed" —
including retroactively, which is why a wide recovery dip also poisons the
requests that preceded the failure within their actions.
"""

from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isfinite
from operator import index as _index


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


#: What a float column holds for None.  A non-finite time is refused on
#: the way in, so a NaN read back always means None.
_ABSENT = float("nan")


def _time_or_none(seconds):
    return None if seconds != seconds else seconds


class RecordedActions(Sequence):
    """The actions a :class:`TawAccounting` recorded, in record order.

    Read-only and live: ``len``, indexing (negative too) and iteration
    build a fresh :class:`ActionRecord` with fresh operations from the
    columns on every access; changing one writes nothing back.
    """

    __slots__ = ("_taw",)

    def __init__(self, taw):
        self._taw = taw

    def __len__(self):
        return len(self._taw._action_end)

    def __getitem__(self, i):
        i = _index(i)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("action index out of range")
        return self._taw._action_record(i)


class TawAccounting:
    """Aggregates operations/actions into the paper's metrics.

    Each recorded request is one row of typed columns, each action one
    row of its own columns: :attr:`actions` and every per-request view
    (:attr:`response_times`, :attr:`failure_intervals`, ...) are read
    from them, so a request is held once: a one-request action takes
    about 64 bytes, where its two records and list took about 400.  The
    failure counts by operation and kind are read from the failed rows
    too; the good/failed request and action counts are plain ints.
    """

    def __init__(self):
        #: Requests and actions counted good or failed, by both paths.
        self.good_requests = 0
        self.failed_requests = 0
        self.good_actions = 0
        self.failed_actions = 0
        #: Response times the batch path recorded: their sum and count.
        self._batch_seconds = 0.0
        self._batch_timed = 0
        #: second → count of requests that (retro)counted good/bad there.
        self._good_series = {}
        self._bad_series = {}
        # One row per request, in record order.  Times are floats
        # (_ABSENT for None); strings are codes into ``_strings``, where
        # code 0 is None.  An array refuses a value it cannot hold
        # (TypeError, OverflowError) instead of wrapping or rounding it.
        self._strings = [None]
        self._codes = {None: 0}
        self._operation = array("H")
        self._url = array("H")
        self._group = array("H")
        self._failure_kind = array("H")
        self._issued_at = array("d")
        self._completed_at = array("d")
        self._response_time = array("d")
        self._ok = array("B")
        self._retries = array("H")
        # One row per action; action i owns request rows
        # [_action_end[i - 1], _action_end[i]).
        self._action_name = array("H")
        self._client_id = array("q")
        self._started_at = array("d")
        self._action_end = array("Q")

    @property
    def actions(self):
        """Every recorded action, as a read-only :class:`RecordedActions`."""
        return RecordedActions(self)

    def _first_row(self, action):
        """First request row of ``actions[action:]`` (for ``action`` >= 0)."""
        ends = self._action_end
        if action <= 0 or not ends:
            return 0
        return ends[min(action, len(ends)) - 1]

    def _row_stamp(self, row):
        """Where request ``row`` lands in time: completion, else issue."""
        when = self._completed_at[row]
        return when if when == when else self._issued_at[row]

    def _action_record(self, i):
        """A fresh :class:`ActionRecord` of action ``i`` (0 <= i < len)."""
        strings = self._strings
        operations = [
            OperationRecord(
                operation=strings[self._operation[row]],
                url=strings[self._url[row]],
                issued_at=self._issued_at[row],
                completed_at=_time_or_none(self._completed_at[row]),
                ok=bool(self._ok[row]),
                response_time=_time_or_none(self._response_time[row]),
                failure_kind=strings[self._failure_kind[row]],
                functional_group=strings[self._group[row]],
                retries=self._retries[row],
            )
            for row in range(self._first_row(i), self._action_end[i])
        ]
        return ActionRecord(
            name=strings[self._action_name[i]],
            client_id=self._client_id[i],
            started_at=self._started_at[i],
            operations=operations,
        )

    def timed_requests(self, start=0):
        """Yield ``(completed_at, seconds)`` per timed request of
        ``actions[start:]``, in record order.

        Only the actions from ``start`` on are read, so a reader that
        remembers where it stopped reads each record once.
        """
        seconds = self._response_time
        for row in range(self._first_row(start), len(seconds)):
            rt = seconds[row]
            if rt == rt:
                yield self._row_stamp(row), rt

    @property
    def response_times(self):
        """``(completed_at, seconds)`` per timed request, in record order."""
        return list(self.timed_requests())

    @property
    def failure_intervals(self):
        """``(group, issued_at, completed_at)`` per failed request, for
        Figure 2, in record order."""
        strings, group, issued = self._strings, self._group, self._issued_at
        return [
            (strings[group[row]], issued[row], self._row_stamp(row))
            for row, ok in enumerate(self._ok)
            if not ok
        ]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _code(self, text):
        """The string table's code for ``text`` (a str, or None)."""
        code = self._codes.get(text)
        if code is None:
            if not isinstance(text, str):
                raise TypeError(f"expected a str or None, got {text!r}")
            code = self._codes[text] = len(self._strings)
            self._strings.append(text)
        return code

    def _store(self, action):
        """Append ``action``'s rows to the columns, all of them or none.

        This runs once per client action, so the columns are bound to
        locals and a string already in the table costs no call.
        """
        codes, code = self._codes, self._code
        operations, urls = self._operation, self._url
        groups, kinds = self._group, self._failure_kind
        issued, completed_at = self._issued_at, self._completed_at
        response_time = self._response_time
        oks, retries = self._ok, self._retries
        rows = len(issued)
        try:
            for op in action.operations:
                ok, seconds = op.ok, op.response_time
                issued_at, completed = op.issued_at, op.completed_at
                if ok is not True and ok is not False:
                    raise TypeError(f"ok must be a bool, got {ok!r}")
                if not (
                    isfinite(issued_at)
                    and (completed is None or isfinite(completed))
                    and (seconds is None or isfinite(seconds))
                ):
                    # A NaN would read back as None; an infinity has no
                    # per-second bucket.
                    raise ValueError("request times must be finite")
                operation, url = op.operation, op.url
                group, kind = op.functional_group, op.failure_kind
                operations.append(
                    codes[operation] if operation in codes else code(operation)
                )
                urls.append(codes[url] if url in codes else code(url))
                groups.append(codes[group] if group in codes else code(group))
                kinds.append(codes[kind] if kind in codes else code(kind))
                issued.append(issued_at)
                completed_at.append(
                    _ABSENT if completed is None else completed
                )
                response_time.append(_ABSENT if seconds is None else seconds)
                oks.append(ok)
                retries.append(op.retries)
            self._action_name.append(code(action.name))
            self._client_id.append(action.client_id)
            self._started_at.append(action.started_at)
            self._action_end.append(len(issued))
        except BaseException:
            for column in (
                operations, urls, groups, kinds, issued, completed_at,
                response_time, oks, retries,
            ):
                del column[rows:]
            actions = len(self._action_end)
            for column in (
                self._action_name, self._client_id, self._started_at,
            ):
                del column[actions:]
            raise

    def record_action(self, action):
        """Account one finished action (Taw semantics: all-or-nothing).

        The action is copied into the columns: the caller may drop it, and
        :attr:`actions` reads back an equal, fresh copy.
        """
        self._store(action)
        operations = action.operations
        if action.committed:
            self.good_actions += 1
            self.good_requests += len(operations)
            series = self._good_series
        else:
            self.failed_actions += 1
            self.failed_requests += len(operations)
            series = self._bad_series
        for op in operations:
            bucket = int(_stamp(op))
            series[bucket] = series.get(bucket, 0) + 1

    def record_batch(self, bucket, good_ops=0, bad_ops=0,
                     good_actions=0, bad_actions=0):
        """Account a whole cohort of finished operations at once.

        The bounded counterpart of :meth:`record_action` for the batch
        workload engine: it moves the same counts and per-second series
        (so availability, Taw windows and the SLO engine read identically)
        but records **no** per-action or per-request rows — a million
        sessions must not allocate a million records.  Response times go
        separately through :meth:`record_response_times`.
        """
        self.good_actions += good_actions
        self.failed_actions += bad_actions
        if good_ops:
            self.good_requests += good_ops
            self._good_series[bucket] = (
                self._good_series.get(bucket, 0) + good_ops
            )
        if bad_ops:
            self.failed_requests += bad_ops
            self._bad_series[bucket] = (
                self._bad_series.get(bucket, 0) + bad_ops
            )

    def record_response_times(self, seconds, n=1):
        """Count ``n`` requests of ``seconds`` each towards the mean.

        Batch-path companion to :meth:`record_batch`: only their sum and
        count are kept, for :meth:`mean_response_time`; ``response_times``
        stays empty, as no action is recorded.
        """
        self._batch_seconds += seconds * n
        self._batch_timed += n

    # ------------------------------------------------------------------
    # Series and summaries
    # ------------------------------------------------------------------
    def _failed_strings(self, column):
        """String → failed requests, from ``column``'s failed rows, in the
        order each string first failed."""
        strings = self._strings
        counts = Counter(code for code, ok in zip(column, self._ok) if not ok)
        return {strings[code]: n for code, n in counts.items()}

    @property
    def failures_by_operation(self):
        return self._failed_strings(self._operation)

    @property
    def failures_by_kind(self):
        """Failure kind → failed requests; requests without one (None or
        ``""``) are not counted."""
        return {
            kind: n
            for kind, n in self._failed_strings(self._failure_kind).items()
            if kind
        }

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
        # code → requests, in order of first appearance
        counts = Counter(self._operation)
        total = len(self._operation)
        if total == 0:
            return {}
        strings = self._strings
        return {strings[code]: count / total for code, count in counts.items()}

    def mean_response_time(self):
        seconds = self._response_time
        timed = sum(1 for rt in seconds if rt == rt)
        if not timed:
            # Batch-recorded runs have no per-request rows.
            if self._batch_timed:
                return self._batch_seconds / self._batch_timed
            return None
        # The builtin sum over the same values in the same order: Python
        # 3.12's sum() compensates rounding, so a hand-written += loop
        # would move the last bits of the mean there.
        return sum(rt for rt in seconds if rt == rt) / timed

    def response_times_over(self, threshold=8.0):
        """How many requests exceeded the 8 s abandonment threshold (§5.3)."""
        # NaN (no response time) compares false, as None was skipped.
        return sum(1 for rt in self._response_time if rt > threshold)

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
