"""Pinpoint-style anomaly scoring over observed request paths.

Each completed request contributes one observation: the set of components
its shepherd thread actually entered and whether the client-side detectors
judged it failed, both read off the request's ``request.end`` record (the
span layer adds its ``calls`` and ``failed_in``).  For every component the
analyzer maintains the 2×2 contingency table

    =============  ==================  ======================
                   path contains C     path does not contain C
    =============  ==================  ======================
    failed         a                   b
    successful     c                   d
    =============  ==================  ======================

and scores C by the chi-square statistic of that table, *signed*: a
component is only implicated when its presence is positively associated
with failure (``a·d > b·c``), so components that appear mostly on healthy
paths score zero no matter how large the statistic.  This is the
dependency-analysis variant of Pinpoint (Chen et al., DSN 2002), which the
microreboot authors used as the diagnosis engine feeding µRB-based
recovery in their follow-on work.

Old observations decay two ways: a sliding sim-time window (stale paths
from before the last fault stop diluting the statistics) and a bounded
deque (memory stays O(max_paths) over million-request runs).
"""

from collections import deque


def chi_square_2x2(a, b, c, d):
    """Chi-square statistic of a 2×2 contingency table (no continuity
    correction — sample sizes here are small and gating is explicit)."""
    n = a + b + c + d
    denominator = (a + b) * (c + d) * (a + c) * (b + d)
    if n == 0 or denominator == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / denominator


class PathAnalyzer:
    """Aggregates request paths into a live dependency graph + anomaly
    ranking.

    A bus consumer of ``request.end`` (subscribe :meth:`feed` with
    :attr:`kinds`): every record that carries ``calls`` is one observed
    path.  Ask :meth:`rank` for the current most-suspicious components.
    ``ready()`` gates consumers (the recovery manager falls back to its
    static map until enough paths, and enough *failed* paths, have been
    observed for the statistic to mean anything).
    """

    kinds = ("request.end",)

    def __init__(self, kernel=None, window=180.0, max_paths=4096,
                 min_paths=20, min_failed=4):
        self.kernel = kernel
        #: Sliding sim-time window (None = keep everything the deque holds).
        self.window = window
        self.min_paths = min_paths
        self.min_failed = min_failed
        #: (finished_at, components frozenset, ok, edges, failed_in)
        self._paths = deque(maxlen=max_paths)
        self.recorded = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def feed(self, t, kind, fields):
        """One ``request.end``: its ``calls`` give the path's members and
        unique call edges; an untraced request (no ``calls``) is skipped."""
        calls = fields.get("calls")
        if calls is None:
            return
        self.record_path(
            t, [component for _parent, component in calls], fields["ok"],
            edges=dict.fromkeys(
                (calls[parent][1], component)
                for parent, component in calls if parent is not None
            ),
            failed_in=fields["failed_in"],
        )

    def record_path(self, t, components, ok, edges=(), failed_in=()):
        """Primitive form (``repro paths`` ranks through it offline)."""
        self._paths.append(
            (t, frozenset(components), bool(ok), tuple(edges),
             tuple(failed_in))
        )
        self.recorded += 1

    def clear(self):
        self._paths.clear()

    def forget(self, components):
        """Drop observations whose path touched any of ``components``.

        The parallel recovery scheduler calls this when one dependency
        group finishes recovering: evidence through the recycled
        components is stale, but paths through independent groups keep
        their statistical weight (a full :meth:`clear` would blind the
        analyzer to every other concurrent incident).
        """
        targets = frozenset(components)
        if not targets:
            return
        kept = [p for p in self._paths if not (p[1] & targets)]
        self._paths.clear()
        self._paths.extend(kept)

    # ------------------------------------------------------------------
    # The observation window
    # ------------------------------------------------------------------
    def _window_paths(self):
        """Observations inside the decay window, pruning stale ones."""
        if self.kernel is not None and self.window is not None:
            horizon = self.kernel.now - self.window
            while self._paths and self._paths[0][0] < horizon:
                self._paths.popleft()
        return list(self._paths)

    def sample(self):
        """(total paths, failed paths) currently inside the window."""
        paths = self._window_paths()
        failed = sum(1 for p in paths if not p[2])
        return len(paths), failed

    def ready(self):
        """Enough observed data for the statistic to beat the static map?"""
        total, failed = self.sample()
        return total >= self.min_paths and failed >= self.min_failed

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def rank(self):
        """Components most associated with failure, best suspect first.

        Returns ``[(component, chi_square_score), ...]`` for components
        with a *positive* association only.  Ties (identical statistics,
        common when one component's failures are a superset of another's)
        break toward the component more often observed as the deepest
        error site, then lexically for determinism.
        """
        paths = self._window_paths()
        failed = [p for p in paths if not p[2]]
        succeeded = [p for p in paths if p[2]]
        n_failed, n_ok = len(failed), len(succeeded)
        if not n_failed:
            return []

        components = set()
        for _t, members, _ok, _edges, _sites in paths:
            components |= members
        error_sites = {}
        for _t, _members, _ok, _edges, sites in failed:
            for name in sites:
                error_sites[name] = error_sites.get(name, 0) + 1

        scored = []
        for name in components:
            a = sum(1 for p in failed if name in p[1])
            c = sum(1 for p in succeeded if name in p[1])
            b, d = n_failed - a, n_ok - c
            if a * d <= b * c:
                continue  # not positively associated with failure
            scored.append((name, chi_square_2x2(a, b, c, d)))
        scored.sort(
            key=lambda item: (-item[1], -error_sites.get(item[0], 0), item[0])
        )
        return scored

    def dependency_graph(self):
        """Observed component call graph: {parent: {child: call count}}."""
        graph = {}
        for _t, _members, _ok, edges, _sites in self._window_paths():
            for parent, child in edges:
                children = graph.setdefault(parent, {})
                children[child] = children.get(child, 0) + 1
        return graph

    def explain(self, limit=5):
        """Audit payload: sample sizes plus the top of the ranking."""
        total, failed = self.sample()
        return {
            "paths": total,
            "failed": failed,
            "ready": self.ready(),
            "ranking": [
                (name, round(score, 2))
                for name, score in self.rank()[:limit]
            ],
        }

    def __repr__(self):
        total, failed = self.sample()
        return f"<PathAnalyzer {total} paths ({failed} failed)>"
