"""Counters, gauges, and streaming histograms behind a named registry.

The histogram is a DDSketch-style log-bucketed quantile sketch: observations
land in exponentially spaced buckets, so p50/p95/p99 come back within a
configurable *relative* error (1% by default) while memory stays bounded by
the number of distinct magnitudes seen — a million response times cost a few
hundred buckets, never a million floats.
"""

import math


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        return self.value

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can move both ways (queue depths, in-flight requests)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def set(self, value):
        self.value = value
        return self.value

    def inc(self, amount=1.0):
        self.value += amount
        return self.value

    def dec(self, amount=1.0):
        self.value -= amount
        return self.value

    def __repr__(self):
        return f"<Gauge {self.name}={self.value}>"


class CounterFamily:
    """A set of counters keyed by one label (operation name, failure kind).

    ``label`` names the label dimension in Prometheus exposition; the
    default ``"key"`` preserves the historical output for unlabeled users.
    """

    __slots__ = ("name", "label", "_children")

    def __init__(self, name, label="key"):
        self.name = name
        self.label = label
        self._children = {}

    def inc(self, label, amount=1.0):
        if amount < 0:
            raise ValueError(f"counter family {self.name!r} cannot decrease")
        self._children[label] = self._children.get(label, 0.0) + amount
        return self._children[label]

    def get(self, label, default=0.0):
        return self._children.get(label, default)

    def as_dict(self):
        """Label → count, with integral counts as ints (dict-API drop-in)."""
        return {
            label: int(v) if float(v).is_integer() else v
            for label, v in self._children.items()
        }

    @property
    def total(self):
        return sum(self._children.values())

    def __len__(self):
        return len(self._children)

    def __repr__(self):
        return f"<CounterFamily {self.name} labels={len(self._children)}>"


class GaugeFamily:
    """A set of gauges keyed by one label (shard name, node name).

    The cluster observability plane exposes per-shard availability, load
    scores, and probe latencies as one family with a ``shard=`` label
    rather than minting one flat metric name per shard.
    """

    __slots__ = ("name", "label", "_children")

    def __init__(self, name, label="key"):
        self.name = name
        self.label = label
        self._children = {}

    def set(self, label, value):
        self._children[label] = value
        return value

    def inc(self, label, amount=1.0):
        self._children[label] = self._children.get(label, 0.0) + amount
        return self._children[label]

    def get(self, label, default=None):
        return self._children.get(label, default)

    def as_dict(self):
        return dict(self._children)

    def __len__(self):
        return len(self._children)

    def __repr__(self):
        return f"<GaugeFamily {self.name} labels={len(self._children)}>"


#: Largest value a :class:`Histogram` counts in its exact zero-bucket.
MIN_TRACKABLE = 1e-9


class Histogram:
    """Streaming quantile sketch with bounded relative error.

    Buckets are powers of ``gamma = (1+α)/(1-α)``; an observation ``v`` goes
    to bucket ``ceil(log_gamma(v))``, whose representative midpoint is within
    α of every value it absorbs.  Values at or below ``MIN_TRACKABLE``
    share one exact zero-bucket.
    """

    def __init__(self, name=None, relative_accuracy=0.01):
        if not 0 < relative_accuracy < 1:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.name = name
        self.relative_accuracy = relative_accuracy
        gamma = (1 + relative_accuracy) / (1 - relative_accuracy)
        self._log_gamma = math.log(gamma)
        self._gamma = gamma
        self._buckets = {}
        self._zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        """Record one observation (negatives clamp into the zero bucket)."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= MIN_TRACKABLE:
            self._zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other):
        """Fold ``other``'s observations into this sketch, in place.

        Two sketches with the same ``relative_accuracy`` share bucket
        boundaries, so merging is exact: bucket counts add.  Merging an
        empty histogram is the identity (no state changes, not even
        min/max), and a merge of empties stays empty so ``quantile``
        keeps its None-on-empty contract.  Returns ``self`` for chaining
        cluster-level reductions over per-shard sketches.
        """
        if not isinstance(other, Histogram):
            raise TypeError(f"cannot merge {type(other).__name__}")
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge histograms with different relative accuracy: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        if other.count == 0:
            return self
        self.count += other.count
        self.sum += other.sum
        if self.min is None or (other.min is not None and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None and other.max > self.max):
            self.max = other.max
        self._zero_count += other._zero_count
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        return self

    @property
    def mean(self):
        return self.sum / self.count if self.count else None

    def quantile(self, q):
        """Value at quantile ``q`` in [0, 1], within the relative accuracy.

        An empty histogram has no quantiles: returns None (never raises),
        and every consumer — :meth:`percentiles`, the registry snapshot,
        report rendering — must tolerate the None.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * (self.count - 1)
        if rank < self._zero_count:
            return 0.0
        cumulative = self._zero_count
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > rank:
                # Bucket (gamma^(i-1), gamma^i]: midpoint minimizes error.
                return 2 * self._gamma ** index / (self._gamma + 1)
        return self.max

    def percentiles(self):
        """The standard p50/p95/p99 summary (all None when empty)."""
        if self.count == 0:
            return {"p50": None, "p95": None, "p99": None}
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    @property
    def bucket_count(self):
        """Distinct buckets in use — the sketch's actual memory footprint."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def __repr__(self):
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Asking twice for the same name returns the same object; asking for the
    same name as a different metric type is a bug and raises.
    """

    def __init__(self):
        self._metrics = {}

    def _get_or_create(self, name, factory, metric_type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, metric_type):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {metric_type.__name__}"
            )
        return metric

    def counter(self, name):
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name):
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def family(self, name, label="key"):
        return self._get_or_create(
            name, lambda: CounterFamily(name, label=label), CounterFamily
        )

    def gauge_family(self, name, label="key"):
        return self._get_or_create(
            name, lambda: GaugeFamily(name, label=label), GaugeFamily
        )

    def histogram(self, name):
        return self._get_or_create(name, lambda: Histogram(name), Histogram)

    def get(self, name):
        return self._metrics.get(name)

    def __contains__(self, name):
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.items())

    def names(self):
        return sorted(self._metrics)

    def snapshot(self):
        """Plain-data dump of every metric (for exports and assertions)."""
        out = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, (Counter, Gauge)):
                out[name] = metric.value
            elif isinstance(metric, (CounterFamily, GaugeFamily)):
                out[name] = metric.as_dict()
            elif isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min,
                    "max": metric.max,
                    **metric.percentiles(),
                }
        return out
