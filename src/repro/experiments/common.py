"""Shared experiment scaffolding."""

import os
import traceback
from dataclasses import dataclass, field

import repro
from repro.cluster.node import Node
from repro.core.recovery_manager import RecoveryManager
from repro.core.retry import RetryPolicy
from repro.detection.comparison import ComparisonDetector
from repro.diagnosis import PathAnalyzer
from repro.ebid.app import build_ebid_system
from repro.ebid.descriptors import URL_PATH_MAP
from repro.ebid.schema import DatasetConfig
from repro.faults.injector import FaultInjector
from repro.faults.lowlevel import LowLevelInjector
from repro.observability.report import text_table
from repro.telemetry.spans import SpanCollector, spans_enabled_by_default
from repro.workload.client import ClientPopulation
from repro.workload.markov import WorkloadProfile


@dataclass
class ExperimentResult:
    """Uniform result container for every table/figure harness."""

    name: str
    paper_reference: str
    headers: tuple = ()
    rows: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: label -> pre-rendered ASCII chart (see repro.experiments.plotting).
    figures: dict = field(default_factory=dict)

    def render(self):
        """Text rendering that mirrors the paper's table/figure."""
        lines = [f"== {self.name} ==", f"(reproduces {self.paper_reference})", ""]
        if self.headers and self.rows:
            lines.extend(text_table(self.headers, self.rows))
        for label, points in self.series.items():
            lines.append(f"series {label}: {len(points)} points")
        for note in self.notes:
            lines.append(f"note: {note}")
        for label, chart in self.figures.items():
            lines.append("")
            lines.append(f"--- {label} ---")
            lines.append(chart)
        return "\n".join(lines)


class RunAuditError(RuntimeError):
    """A finished run broke one of the invariants every run must hold."""


def first_failure(kernel):
    """``Type: message at file:line`` of the kernel's first retained
    unhandled failure (the path relative to the ``repro`` package), or
    None when no process died."""
    if not kernel.unhandled_failures:
        return None
    exc = kernel.unhandled_failures[0].value
    where = ""
    if exc.__traceback__ is not None:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        path = os.path.relpath(frame.filename, os.path.dirname(repro.__file__))
        where = f" at {path}:{frame.lineno}"
    return f"{type(exc).__name__}: {exc}{where}"


def audit_run(kernel):
    """The run audit: a kernel process that died unhandled fails the run
    with :class:`RunAuditError`, instead of leaving a clean-looking table."""
    if kernel.unhandled_failure_count:
        raise RunAuditError(
            f"run audit: {kernel.unhandled_failure_count} kernel "
            f"process(es) died unhandled; first: {first_failure(kernel)}"
        )


class SingleNodeRig:
    """One eBid node + clients + injectors + (optionally) a recovery manager.

    The standard single-node evaluation setup of §5.1/§5.2: 500 concurrent
    clients against one application-server node, with client-side failure
    detection feeding an external recovery manager.
    """

    def __init__(
        self,
        seed=0,
        n_clients=500,
        session_store="fasts",
        dataset=None,
        retry_policy=None,
        with_recovery_manager=True,
        with_comparison_detector=False,
        recovery_policy="recursive",
        profile=None,
        heap=None,
        rm_kwargs=None,
        diagnosis="static-map",
        url_path_map=None,
    ):
        self.dataset = dataset or DatasetConfig()
        self.system = build_ebid_system(
            seed=seed,
            session_store=session_store,
            dataset=self.dataset,
            retry_policy=retry_policy or RetryPolicy.disabled(),
        )
        if heap is not None:
            self.system.server.heap = heap
        self.kernel = self.system.kernel
        self.node = Node(self.system)
        self.injector = FaultInjector(self.system)
        self.lowlevel = LowLevelInjector(
            self.system, self.system.rng.stream("lowlevel")
        )

        # Span layer: always built (so `repro run --trace` timelines carry
        # call trees), but only *enabled* — and only feeding a PathAnalyzer
        # — when path-analysis diagnosis or the --trace default asks for it.
        # Disabled, it costs one attribute check per request.
        self.span_collector = SpanCollector(
            self.kernel,
            enabled=True if diagnosis == "path-analysis" else None,
        )
        self.path_analyzer = None
        if diagnosis == "path-analysis" or spans_enabled_by_default():
            self.path_analyzer = PathAnalyzer(kernel=self.kernel)
            self.span_collector.add_sink(self.path_analyzer.record)
        self.system.server.span_collector = self.span_collector
        # The comparison detector's shadow stays untraced: mirrored probes
        # are not real user requests and would dilute the path statistics.

        self.shadow = None
        comparison = None
        if with_comparison_detector:
            self.shadow = build_ebid_system(
                kernel=self.kernel,
                seed=seed,
                session_store=session_store,
                dataset=self.dataset,
                name="shadow",
            )
            comparison = ComparisonDetector(self.shadow)

        self.recovery_manager = None
        if with_recovery_manager:
            # Hand-tuned thresholds (§4): high enough that the bounded
            # burst of login prompts after a session-destroying recovery
            # decays below threshold within the grace period, low enough
            # that genuine faults are caught within seconds at 500 clients.
            tuned = dict(score_threshold=6.0, post_recovery_grace=90.0)
            tuned.update(rm_kwargs or {})
            self.recovery_manager = RecoveryManager(
                self.kernel,
                self.system.coordinator,
                URL_PATH_MAP if url_path_map is None else url_path_map,
                node_controller=self.node,
                policy=recovery_policy,
                diagnosis=diagnosis,
                path_analyzer=self.path_analyzer,
                **tuned,
            )
            self.recovery_manager.start()
            if self.shadow is not None:
                # The shadow legitimately diverges once the faulty instance
                # starts failing; resync it after each recovery so the
                # comparison detector's false-positive rate stays bounded
                # (the paper's "tweaks for timing nondeterminism").
                self.recovery_manager.listeners.append(
                    lambda _action: self.resync_shadow()
                )

        reporter = self.recovery_manager.report if self.recovery_manager else None
        self.population = ClientPopulation(
            self.kernel,
            self.system.server,
            self.dataset,
            n_clients=n_clients,
            rng_registry=self.system.rng,
            profile=profile or WorkloadProfile(),
            reporter=reporter,
            comparison=comparison,
        )
        self.metrics = self.population.metrics

    # ------------------------------------------------------------------
    def start(self, warmup=0.0):
        """Spawn the clients, run ``warmup`` seconds, then audit."""
        self.population.start()
        if warmup:
            self.kernel.run(until=self.kernel.now + warmup)
        audit_run(self.kernel)

    def run_for(self, seconds):
        """Run ``seconds`` more, then audit (:func:`audit_run`)."""
        self.kernel.run(until=self.kernel.now + seconds)
        audit_run(self.kernel)

    def resync_shadow(self):
        """Re-baseline the known-good instance after a recovery.

        The shadow diverges legitimately while the main instance is
        failing (its commits succeed where the main's did not); once the
        main recovers, the shadow's database is reset to the main's and
        the shadow's rendered-fragment cache is flushed so it does not
        keep serving prices computed from pre-resync data.
        """
        if self.shadow is None:
            return
        for name, table in self.system.database.tables.items():
            self.shadow.database.tables[name].replace_all(table.rows)
        # Volatile component state derived from the database (key-block
        # cursors, caches) must be rebuilt against the synced data, or the
        # shadow's IdentityManager would hand out keys that now collide.
        for container in self.shadow.server.containers.values():
            container.initialize()
            self.shadow.server.naming.bind(container.name, container.name)

    def failures_in_last(self, seconds):
        """Failed requests recorded in the trailing window."""
        now = self.kernel.now
        _good, bad = self.metrics.requests_in_window(now - seconds, now)
        return bad

