"""Incident observability: MTTR decomposition, rolling SLOs, prediction.

The layer that turns raw TraceBus events into the paper's quantitative
story: :class:`IncidentTracker` stitches fault → detection → diagnosis →
recovery → quiet into per-incident MTTR phase decompositions,
:class:`SloEngine` judges rolling availability/latency windows (publishing
``slo.violated`` back onto the bus), and the exporter renders both as
Prometheus text exposition.  On top of that sits the predictive
half: :class:`ComponentHealthRegistry` keeps a streaming MTTF /
failure-rate / hazard estimator per component, fed by the tracker's
incident closures, and blends hazard + SLO burn + flap history + heap
trend into bounded 0–100 health scores, which :class:`AlertEngine`
thresholds into ``alert.fired`` / ``alert.resolved`` bus events.
Everything here is passive — it subscribes, it never schedules — so
enabling observability cannot change what a simulation does, only what it
tells you.

Every consumer speaks one protocol, a ``kinds`` filter plus
``feed(t, kind, fields)``: a live run subscribes ``feed`` to its bus,
and :func:`replay` drives fresh consumers from a recorded timeline.
"""

from repro.observability.cluster import (
    ClusterIncidentCorrelator,
    MetaIncident,
    ShardMetricsAggregator,
    ShardView,
    shard_of_incident,
    shard_of_name,
)
from repro.observability.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    alert_lead_times,
    default_rules,
    median,
)
from repro.observability.estimators import (
    Ewma,
    FailureRateEstimator,
    MovingAverage,
    WARMUP,
)
from repro.observability.exporter import (
    predictive_chain,
    registry_from_cluster,
    registry_from_health,
    registry_from_observability,
    render_prometheus,
    render_prometheus_buses,
    replay,
)
from repro.observability.health import (
    ComponentHealthRegistry,
    HeapTrendTracker,
)
from repro.observability.incidents import (
    DEFAULT_QUIET_PERIOD,
    Incident,
    IncidentTracker,
    TRACKED_KINDS,
    aggregate_incidents,
    max_concurrent_actions,
    path_for_url,
)
from repro.observability.report import (
    summarize_alerts,
    summarize_health,
    summarize_incidents,
    summarize_shards,
    summarize_slo,
)
from repro.observability.slo import (
    RequestWindows,
    SloEngine,
    SloPolicy,
    SloWindow,
    aggregate_slo,
    compute_windows,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "ClusterIncidentCorrelator",
    "ComponentHealthRegistry",
    "DEFAULT_QUIET_PERIOD",
    "Ewma",
    "FailureRateEstimator",
    "HeapTrendTracker",
    "Incident",
    "IncidentTracker",
    "MetaIncident",
    "MovingAverage",
    "RequestWindows",
    "ShardMetricsAggregator",
    "ShardView",
    "SloEngine",
    "SloPolicy",
    "SloWindow",
    "TRACKED_KINDS",
    "WARMUP",
    "aggregate_incidents",
    "aggregate_slo",
    "alert_lead_times",
    "compute_windows",
    "default_rules",
    "max_concurrent_actions",
    "median",
    "path_for_url",
    "predictive_chain",
    "registry_from_cluster",
    "registry_from_health",
    "registry_from_observability",
    "render_prometheus",
    "render_prometheus_buses",
    "replay",
    "shard_of_incident",
    "shard_of_name",
    "summarize_alerts",
    "summarize_health",
    "summarize_incidents",
    "summarize_shards",
    "summarize_slo",
]
