"""Storm: correlated multi-shard fault storms + elastic resharding.

Megascale (PR 8) proved one faulted shard stays contained; this scenario
asks the question real WAN operators ask: what happens when *K shards
fault at once* — and is scaling out **during** the storm better than
riding it out on static capacity?  Three arms from the same seed:

* ``steady`` — fault-free baseline;
* ``storm`` — a :class:`~repro.faults.chaos.ShardStormEngine` strikes K
  shards simultaneously (deadlock pulse trains, LB→shard link faults,
  SSM brick crashes, node slowdowns), and the static cluster's hardened
  recovery pipeline + shard-aware failover must contain the blast
  radius;
* ``storm+elastic`` — same storm, but an
  :class:`~repro.cluster.elasticity.ElasticPolicy` watches the
  probe-grounded failure signal and *replaces* persistently sick shards
  live: a fresh shard boots, the ring cuts over, and the sick shard's
  sessions migrate (copy-then-cutover, zero loss).  The static arm pays
  every re-injected fault pulse for the storm's whole duration; the
  elastic arm pays one bounded migration window per sick shard instead.

The headline gates (benchmarks/test_storm.py): cluster availability
under a K=8 storm stays ≥ 0.999 with the healthy-shard median at 1.0,
the elastic arm conserves every session while strictly beating the
static arm on failed requests, and storm schedules + migration plans are
deterministic (same seed ⇒ same plans; jobs=1 ≡ jobs=2).
"""

import resource
import time

from repro.cluster.elasticity import ElasticPolicy, ReshardCoordinator
from repro.experiments.common import ExperimentResult
from repro.experiments.megascale import MegascaleRig
from repro.faults.chaos import COMPONENT_TARGETS, ShardStormEngine, StormSpec
from repro.parallel import run_arms

ARMS = ("steady", "storm", "storm+elastic")

#: How far back (simulated seconds) the elastic signal looks for
#: user-visible (cohort) failures on a shard.
SIGNAL_WINDOW = 20.0
#: Minimum failed clicks inside the window that count as "persistently
#: sick" — high enough that the decaying EWMA residue after a single
#: probe blip never triggers a replacement on its own.
SIGNAL_MIN_BAD = 25


class StormRig(MegascaleRig):
    """Megascale rig + shard storm engine + elastic reshard controller."""

    def __init__(
        self,
        seed=0,
        n_sessions=1_000_000,
        n_shards=128,
        nodes_per_shard=1,
        duration=240.0,
        storm=False,
        elastic=False,
        storm_spec=None,
        load_skew=0.0,
        cluster_plane=True,
    ):
        super().__init__(
            seed=seed,
            n_sessions=n_sessions,
            n_shards=n_shards,
            nodes_per_shard=nodes_per_shard,
            duration=duration,
            cluster_plane=cluster_plane,
            load_skew=load_skew,
        )
        self.storm_spec = storm_spec or StormSpec.standard()
        self.storm_engine = (
            ShardStormEngine(self.cluster, self.storm_spec) if storm else None
        )
        self.coordinator = None
        self.policy = None
        if elastic:
            self.coordinator = ReshardCoordinator(
                self.cluster,
                self.engine,
                probe_model=self.probe_model,
                on_shard_added=self._on_shard_added,
                on_shard_removed=self._on_shard_removed,
            )
            self.policy = ElasticPolicy(
                self.kernel,
                self.coordinator,
                self.probe_model,
                signal=self._elastic_signal,
                max_replacements=self.storm_spec.k_shards,
            )

    # ------------------------------------------------------------------
    def _elastic_signal(self, shard):
        """Sickness signal for one shard: probes OR user-visible failures.

        The probe EWMA reacts within seconds but decays just as fast
        (recovery cures a deadlock pulse before two policy checks agree),
        so the signal is the max of the probe failure rate and a recent
        cohort-failure indicator — a shard whose users keep failing is
        sick even when the probes between fault pulses look clean.
        """
        rate = self.probe_model.shard_fail_rate(shard)
        series = self.engine.shard_bad_series.get(shard)
        if series:
            horizon = int(self.kernel.now - SIGNAL_WINDOW)
            recent = sum(
                bad for second, bad in series.items() if second >= horizon
            )
            if recent >= SIGNAL_MIN_BAD:
                return max(rate, 1.0)
        return rate

    def _on_shard_added(self, shard, nodes):
        """A fresh shard boots mid-run: same pipeline as boot-time shards."""
        self.rms_by_shard[shard] = self.recovery.add(nodes)
        for node in nodes:
            self.health_registry.register(
                node.system.server.name, COMPONENT_TARGETS
            )

    def _on_shard_removed(self, shard, nodes):
        """A drained shard leaves: no more reports route to its RMs (the
        managers' past actions stay counted in the recovery pipeline)."""
        self.rms_by_shard.pop(shard, None)
        self.probe_model.update_load_skew(self.engine.shard_sessions)

    def _spawn_scenario(self):
        if self.storm_engine is not None:
            self.storm_engine.start()
        if self.policy is not None:
            self.policy.start(self.duration)

    # ------------------------------------------------------------------
    def outcome(self):
        out = super().outcome()
        engine = self.engine
        rows = {r["shard"]: r for r in engine.shard_summary()}
        if self.storm_engine is not None:
            struck = self.storm_engine.storm_shards
            storm_avail = {
                shard: rows[shard]["availability"]
                for shard in struck
                if shard in rows
            }
            dips = [a for a in storm_avail.values() if a is not None]
            healthy = sorted(
                r["availability"]
                for name, r in rows.items()
                if name not in struck and r["availability"] is not None
            )
            out["storm"] = {
                "shards": list(struck),
                "kinds": {
                    shard: self.storm_engine.shard_kind(shard)
                    for shard in struck
                },
                "events_applied": dict(sorted(self.storm_engine.counts.items())),
                "schedule": self.storm_engine.planned_schedule(),
                "struck_shard_availability": dict(sorted(storm_avail.items())),
                "struck_worst": min(dips) if dips else None,
                "healthy_median": (
                    healthy[len(healthy) // 2] if healthy else None
                ),
            }
        if self.coordinator is not None:
            out["reshard"] = {
                "plans": list(self.coordinator.plans),
                "replacements": list(self.policy.replacements),
                "sessions_migrated": engine.sessions_migrated,
                "store_sessions_migrated": sum(
                    p["store_sessions"] for p in self.coordinator.plans
                ),
                "in_transit_at_end": engine.in_transit(),
                "migration_window": self.coordinator.migration_window,
            }
        return out


def run_one_arm(arm, seed, n_sessions, n_shards, nodes_per_shard, duration,
                storm_start, storm_duration, k_shards, load_skew):
    rig = StormRig(
        seed=seed,
        n_sessions=n_sessions,
        n_shards=n_shards,
        nodes_per_shard=nodes_per_shard,
        duration=duration,
        storm=(arm != "steady"),
        elastic=(arm == "storm+elastic"),
        storm_spec=StormSpec(
            start=storm_start, duration=storm_duration, k_shards=k_shards
        ),
        load_skew=load_skew,
    )
    outcome = rig.run()
    outcome["arm"] = arm
    return outcome


#: Sessions, shards, nodes per shard, the run's length, the storm's onset,
#: how long its faults persist, how many shards it strikes, and the probe
#: model's load-skew weighting, per scale.
SCALES = {
    "quick": {"n_sessions": 50_000, "n_shards": 16, "nodes_per_shard": 1,
              "duration": 150.0, "storm_start": 20.0,
              "storm_duration": 60.0, "k_shards": 4, "load_skew": 0.0},
    "bench": {"n_sessions": 1_000_000, "n_shards": 128,
              "nodes_per_shard": 1, "duration": 240.0, "storm_start": 60.0,
              "storm_duration": 120.0, "k_shards": 8, "load_skew": 0.0},
    #: 2M sessions on 256 nodes, a longer front on more shards, and the
    #: probe model's per-shard load-skew weighting turned on.
    "full": {"n_sessions": 2_000_000, "n_shards": 128,
             "nodes_per_shard": 2, "duration": 300.0, "storm_start": 60.0,
             "storm_duration": 150.0, "k_shards": 16, "load_skew": 0.25},
}


def run(seed=0, scale="bench", jobs=1):
    """Run the three storm arms and render the containment comparison."""
    size = SCALES[scale]
    n_sessions, n_shards = size["n_sessions"], size["n_shards"]

    started = time.monotonic()
    outcomes = run_arms(
        "repro.experiments.storm:run_one_arm", ARMS, size, seed, jobs
    )
    wall = time.monotonic() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    nodes = n_shards * size["nodes_per_shard"]
    result = ExperimentResult(
        name=f"Storm: K={size['k_shards']} simultaneous shard faults on "
             f"{n_shards} shards ({nodes} nodes), {n_sessions:,} sessions, "
             "static vs elastic resharding",
        paper_reference="§5.1 fault injection + §5.3 failover under "
                        "correlated multi-shard storms",
        headers=(
            "arm", "availability", "failed reqs", "struck worst",
            "healthy median", "recoveries", "migrated", "replaced",
        ),
    )
    for arm in ARMS:
        o = outcomes[arm]
        storm = o.get("storm") or {}
        reshard = o.get("reshard") or {}
        result.rows.append(
            (
                arm,
                o["availability"],
                o["failed_requests"],
                storm.get("struck_worst"),
                storm.get("healthy_median"),
                o["recovery_actions"],
                reshard.get("sessions_migrated", 0),
                len(reshard.get("replacements", ())),
            )
        )
        notes = (
            f"{arm}: population {o['population']:,}/{o['sessions']:,}, "
            f"{o['probes_sent']} probes ({o['probes_failed']} failed), "
            f"recoveries by level {o['actions_by_level']}"
        )
        result.notes.append(notes)
        if storm:
            result.notes.append(
                f"{arm}: storm struck {storm['kinds']} "
                f"(events {storm['events_applied']})"
            )
        if reshard and reshard.get("plans"):
            moves = "; ".join(
                f"{p['op']} {p['shard']} ({p['sessions']:,} sessions, "
                f"{p['window']}s window)"
                for p in reshard["plans"]
            )
            result.notes.append(f"{arm}: reshard plan — {moves}")
        cluster = o.get("cluster")
        if cluster:
            summary = cluster["summary"]
            metas = cluster["meta_incidents"]
            note = (
                f"{arm} rollup: cluster probe p99 {summary['probe_p99']}s, "
                f"{summary['slo_violations']} shard-SLO window violation(s), "
                f"{len(metas)} meta-incident(s)"
            )
            if metas:
                meta = metas[0]
                note += (
                    f"; #1 {meta['mode']} over {len(meta['shards'])} "
                    f"shard(s), span {meta['span']}s "
                    f"(detect {meta['phases']['detect']}s / decide "
                    f"{meta['phases']['decide']}s / migrate "
                    f"{meta['phases']['migrate']}s / drain "
                    f"{meta['phases']['drain']}s), "
                    f"{len(meta['migrations'])} migration(s) attributed"
                )
            result.notes.append(note)
    static, elastic = outcomes["storm"], outcomes["storm+elastic"]
    if static["availability"] and elastic["availability"]:
        result.notes.append(
            "elastic vs static under the same storm: failed requests "
            f"{static['failed_requests']} → {elastic['failed_requests']}, "
            f"availability {static['availability']} → "
            f"{elastic['availability']}; "
            f"{elastic['reshard']['sessions_migrated']:,} sessions migrated "
            "with zero loss"
        )
    result.notes.append(
        f"scale={scale}: wall {wall:.1f}s, peak RSS "
        f"{peak_rss_kb / 1024:.0f} MiB (driver process)"
    )
    return result, outcomes
