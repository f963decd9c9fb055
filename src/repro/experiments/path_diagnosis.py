"""Path-analysis diagnosis vs the static URL map, under a stale map.

The §4 diagnosis is deliberately simplistic: a hand-maintained URL-prefix →
call-path map plus specificity weighting, which the paper admits "often
yields false positives".  Its characteristic failure mode is *staleness*:
the map is written once, the application keeps evolving, and a dependency
the map never learned about cannot be implicated no matter how the scores
are weighted.  That is precisely why the authors' follow-on work replaced
the static map with Pinpoint-style analysis of *observed* request paths.

This experiment reproduces that failure mode.  The RM is configured with a
map that predates the commit paths' use of ``IdentityManager`` (the key
allocator called by CommitBid, CommitBuyNow, RegisterNewItem,
RegisterNewUser and CommitUserFeedback); a transient exception is then
injected into IdentityManager:

* **static-map** cannot see the faulty bean at all — on the stale paths
  the only component common to every failing URL is the WAR (which the
  EJB-candidate search rightly refuses), so the RM mis-targets coarser
  recoveries (a WAR µRB, then escalation) and only cures the fault when
  the ladder reaches a full application restart.
* **path-analysis** ranks components by failed-vs-successful membership of
  paths the span layer actually *observed*: IdentityManager sits on every
  failed path and (post-injection) no successful one, tops the chi-square
  ranking, and the very first µRB cures the fault.
"""

from repro.ebid.descriptors import URL_PATH_MAP
from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.parallel import run_arms

MODES = ("static-map", "path-analysis")

#: The shared session bean whose dependency the stale map is missing.
FAULTY = "IdentityManager"

#: The operator's map, written before the commit paths started calling
#: IdentityManager: identical to the live map minus that one component.
STALE_URL_PATH_MAP = {
    url: tuple(name for name in path if name != FAULTY)
    for url, path in URL_PATH_MAP.items()
}


def _cures(action, faulty_group):
    """Did this recovery action remove the injected invocation hook?

    EJB µRBs cure only when the faulty component's container is rebuilt;
    WAR µRBs never touch EJB state; application restart and anything
    coarser rebuilds every container.
    """
    if action.level == "ejb":
        return bool(set(action.target) & faulty_group)
    return action.level in ("application", "jvm", "os")


def run_one_mode(mode, seed, n_clients, inject_at, duration):
    rig = SingleNodeRig(
        seed=seed,
        n_clients=n_clients,
        diagnosis=mode,
        session_store="fasts",
        url_path_map=STALE_URL_PATH_MAP,
    )
    faulty_group = set(rig.system.coordinator.expand_targets([FAULTY]))

    def driver():
        yield rig.kernel.timeout(inject_at)
        rig.injector.inject_transient_exception(FAULTY)

    rig.kernel.process(driver(), name="fault-schedule")
    rig.start()
    rig.run_for(duration)

    actions = rig.recovery_manager.actions
    ejb_actions = [a for a in actions if a.level == "ejb"]
    wrong_ejb = [a for a in ejb_actions if not (set(a.target) & faulty_group)]
    cure_index, cure_time = None, None
    for index, action in enumerate(actions, start=1):
        if _cures(action, faulty_group):
            cure_index, cure_time = index, action.finished_at
            break
    # Every recovery performed before the curing one recycled the wrong
    # thing — including WAR µRBs the static mode falls back to when its
    # stale map yields no EJB candidate at all.
    mis_targeted = (
        cure_index - 1 if cure_index is not None else len(actions)
    )

    log = rig.recovery_manager.diagnosis_log
    top_ranked = None
    for entry in log:
        ranking = entry.get("ranking") or ()
        if ranking:
            top_ranked = ranking[0][0]
            break

    return {
        "mode": mode,
        "recoveries": len(actions),
        "ejb_urbs": len(ejb_actions),
        "wrong_target_urbs": len(wrong_ejb),
        "mis_targeted": mis_targeted,
        "cure_action": cure_index,
        "time_to_cure": (
            round(cure_time - inject_at, 1) if cure_time is not None else None
        ),
        "failed_requests": rig.metrics.failed_requests,
        "top_ranked": top_ranked,
        "actions": [
            (round(a.decided_at, 1), a.level, "+".join(a.target))
            for a in actions
        ],
        "diagnosis_modes": [entry["mode"] for entry in log],
    }


#: Clients, the fault's injection time and the run's length (300 s past
#: the fault), per scale.
SCALES = {
    "quick": {"n_clients": 100, "inject_at": 40.0, "duration": 340.0},
    "bench": {"n_clients": 150, "inject_at": 60.0, "duration": 360.0},
    "full": {"n_clients": 500, "inject_at": 120.0, "duration": 420.0},
}


def run(seed=0, scale="bench", jobs=1):
    """Run the IdentityManager fault under both diagnosis modes."""
    outcomes = run_arms(
        "repro.experiments.path_diagnosis:run_one_mode",
        MODES,
        SCALES[scale],
        seed,
        jobs,
        key="mode",
    )

    result = ExperimentResult(
        name="Fault localization under a stale URL map: static diagnosis "
             f"vs path analysis (transient exception in {FAULTY})",
        paper_reference="§4 diagnosis + Pinpoint (Chen et al., DSN 2002)",
        headers=(
            "diagnosis", "recoveries", "EJB µRBs", "mis-targeted",
            "cure action #", "time to cure (s)", "failed reqs",
        ),
    )
    for mode in MODES:
        o = outcomes[mode]
        result.rows.append(
            (
                mode,
                o["recoveries"],
                o["ejb_urbs"],
                o["mis_targeted"],
                o["cure_action"],
                o["time_to_cure"],
                o["failed_requests"],
            )
        )
        result.notes.append(f"{mode} recovery actions: {o['actions']}")

    path = outcomes["path-analysis"]
    static = outcomes["static-map"]
    if path["top_ranked"] is not None:
        result.notes.append(
            f"path-analysis top-ranked suspect: {path['top_ranked']} "
            f"(injected fault: {FAULTY})"
        )
    if (
        path["mis_targeted"] < static["mis_targeted"]
        and path["top_ranked"] == FAULTY
    ):
        result.notes.append(
            "path analysis localized the fault the stale map cannot see, "
            f"with {static['mis_targeted'] - path['mis_targeted']} "
            "fewer mis-targeted recoveries"
        )
    return result, outcomes
