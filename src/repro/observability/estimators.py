"""Streaming per-component MTTF / failure-rate / hazard estimation.

The ROADMAP's "proactive rejuvenation from online MTTF estimation" item
(and depman, the SNIPPETS.md §2 exemplar) wants countermeasures fired
*before* failure.  That needs forward-looking signals, and this module
grows them from the incident stream the observability layer already
stitches:

* an **MTTF estimate** per component — the mean time between that
  component's incidents, tracked two ways at once: a window-``N`` moving
  average (depman's ``moving_avg_N``) and an EWMA that weighs recent
  intervals more;
* a **failure rate** — simply ``1 / MTTF``;
* a **hazard** — the instantaneous failure intensity *right now*.  The
  estimator updates an EWMA of instantaneous rates (``1 / interval``) at
  every failure, then decays it while the component stays quiet: once the
  time since the last failure exceeds the component's own MTTF, the
  evidence that it is still sick ages out proportionally.  A flapping
  component therefore carries a high hazard between its pulses, while one
  that has been quiet for several expected lifetimes converges back
  towards zero.

Failures are *observed* events, never ground truth: the
:class:`~repro.observability.health.ComponentHealthRegistry` keeps one
:class:`FailureRateEstimator` per ``(server, component)`` and feeds it the
:class:`~repro.observability.incidents.IncidentTracker`'s closures (one
failure per component per incident, stamped at the incident's open time).
It never reads injected-fault events, so the estimates measure what a
production operator could measure.

Warm-up is explicit: every estimate answers ``None`` (the documented
warm-up sentinel) until it has the samples it needs — an MTTF needs two
failures (one interval), a hazard needs one.  Callers must treat ``None``
as "no opinion yet", never as zero.

Everything here is passive and deterministic: no kernel events are
scheduled, state is a pure function of the fed failure times, and
:meth:`FailureRateEstimator.state` exposes it for the same-seed ⇒
same-state contract the tests gate on.
"""

from collections import deque

#: The documented warm-up sentinel: estimates are ``None`` until enough
#: samples exist, and callers must treat that as "no opinion yet".
WARMUP = None

#: Window size for the moving-average MTTF (depman's ``moving_avg_N``).
DEFAULT_WINDOW = 8

#: EWMA smoothing factor: one new interval moves the estimate 30% of the
#: way to the observed value — responsive without being twitchy.
DEFAULT_ALPHA = 0.3


class MovingAverage:
    """Moving average over the last ``window`` observations, O(1) update."""

    def __init__(self, window=DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self._values = deque(maxlen=window)
        self._sum = 0.0

    @property
    def window(self):
        return self._values.maxlen

    @property
    def count(self):
        return len(self._values)

    @property
    def value(self):
        """The average, or :data:`WARMUP` before the first observation."""
        if not self._values:
            return WARMUP
        return self._sum / len(self._values)

    def observe(self, value):
        if len(self._values) == self._values.maxlen:
            self._sum -= self._values[0]
        self._values.append(value)
        self._sum += value
        return self.value


class Ewma:
    """Exponentially-weighted moving average; ``None`` until fed."""

    def __init__(self, alpha=DEFAULT_ALPHA):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self.value = WARMUP
        self.count = 0

    def observe(self, value):
        if self.value is None:
            self.value = float(value)
        else:
            self.value += self.alpha * (value - self.value)
        self.count += 1
        return self.value


class FailureRateEstimator:
    """Streaming MTTF / failure rate / hazard for one component.

    Feed it failure timestamps in nondecreasing order via
    :meth:`record_failure`; query at any time.  All estimates are
    :data:`WARMUP` until enough evidence exists.
    """

    def __init__(self, window=DEFAULT_WINDOW, alpha=DEFAULT_ALPHA):
        self.failures = 0
        self.first_failure_at = None
        self.last_failure_at = None
        self._mttf_ma = MovingAverage(window)
        self._mttf_ewma = Ewma(alpha)
        self._rate_ewma = Ewma(alpha)

    def record_failure(self, t):
        """One observed failure at simulated time ``t``."""
        if self.last_failure_at is not None:
            interval = max(0.0, t - self.last_failure_at)
            if interval > 0:
                self._mttf_ma.observe(interval)
                self._mttf_ewma.observe(interval)
                self._rate_ewma.observe(1.0 / interval)
        else:
            self.first_failure_at = t
        self.failures += 1
        if self.last_failure_at is None or t > self.last_failure_at:
            self.last_failure_at = t

    # ------------------------------------------------------------------
    def mttf(self):
        """Moving-average mean time to failure (:data:`WARMUP` until the
        second failure provides the first interval)."""
        return self._mttf_ma.value

    def mttf_ewma(self):
        """EWMA mean time to failure; same warm-up contract as :meth:`mttf`."""
        return self._mttf_ewma.value

    def failure_rate(self):
        """Failures per second, ``1 / mttf`` (:data:`WARMUP` while warming)."""
        mttf = self._mttf_ma.value
        if mttf is None or mttf <= 0:
            return WARMUP
        return 1.0 / mttf

    def hazard(self, now):
        """Instantaneous failure intensity at ``now`` (per second).

        The EWMA of instantaneous rates, decayed once the component has
        stayed quiet longer than its own expected inter-failure time:
        ``h = rate * min(1, mttf / elapsed)``.  :data:`WARMUP` until one
        interval exists; never negative.
        """
        rate = self._rate_ewma.value
        if rate is None:
            return WARMUP
        mttf = self._mttf_ewma.value or 0.0
        elapsed = max(0.0, now - self.last_failure_at)
        if mttf > 0 and elapsed > mttf:
            rate *= mttf / elapsed
        return rate

    def state(self):
        """Plain-data snapshot (determinism tests compare these)."""
        return {
            "failures": self.failures,
            "first_failure_at": self.first_failure_at,
            "last_failure_at": self.last_failure_at,
            "mttf": self.mttf(),
            "mttf_ewma": self.mttf_ewma(),
            "failure_rate": self.failure_rate(),
            "rate_ewma": self._rate_ewma.value,
        }
