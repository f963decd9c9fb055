"""Table 2: worst-case recovery level per injected fault type.

Each scenario injects one fault into a loaded single-node system watched by
the client-side detectors, the comparison-based detector (used "for all
experiments in this table", per the paper's caption), and the recovery
manager running the recursive policy.  The runner records which recovery
level finally cured the failure symptoms (*resuscitation*) and whether the
database needed manual repair afterwards (*the paper's ≈*), determined by
the invariant audit of :mod:`repro.ebid.audit`.

Divergences from the paper, both documented in EXPERIMENTS.md:

* "corrupt FastS data — wrong": our WAR-reinit validation sweep catches the
  swapped session identities before any wrong data reaches the database, so
  resuscitation needs no manual repair (paper: ≈);
* the recursive policy may spend one or two extra EJB µRBs on mis-diagnosed
  targets before hitting the right one — the paper's point exactly: those
  mistakes cost milliseconds.
"""

from dataclasses import dataclass

from repro.appserver.memory import HeapModel
from repro.ebid.audit import audit_database, manual_repair
from repro.ebid.schema import TABLES
from repro.experiments.common import ExperimentResult, SingleNodeRig
from repro.faults.corruption import CorruptionMode
from repro.parallel import TrialSpec, run_campaign

MB = 1024 * 1024


@dataclass
class Scenario:
    """One Table 2 row."""

    label: str
    paper_level: str  # the paper's worst-case reboot level column
    paper_repair: bool  # the paper's ≈ marker
    inject: callable  # (rig) -> None
    session_store: str = "fasts"
    small_heap: bool = False
    needs_sessions: bool = False
    max_duration: float = 900.0
    #: Do not declare stability before this much time has passed — for
    #: faults (like slow leaks) whose first manifestation takes a while.
    min_runtime: float = 0.0
    #: Whether the known-good instance is rebaselined from the main one
    #: after each recovery.  Off for the corrupt-database scenario: there
    #: the main instance's data *is* the fault, and resyncing the reference
    #: from it would launder the corruption out of the detector's sight.
    resync_shadow: bool = True


def _scenarios():
    C = CorruptionMode
    return [
        Scenario(
            "Deadlock", "EJB", False,
            lambda rig: rig.injector.inject_deadlock("SearchItemsByCategory"),
        ),
        Scenario(
            "Infinite loop", "EJB", False,
            lambda rig: rig.injector.inject_infinite_loop("ViewItem"),
        ),
        Scenario(
            "Application memory leak", "EJB", False,
            # Slow enough that re-exhaustion (the leak is a code bug and
            # outlives the µRB) takes minutes: the µRB demonstrably
            # resuscitates the service each time it fills up.
            lambda rig: rig.injector.inject_memory_leak("ViewItem", 150 * 1024),
            small_heap=True,
            min_runtime=240.0,
        ),
        Scenario(
            "Transient exception", "EJB", False,
            lambda rig: rig.injector.inject_transient_exception("BrowseCategories"),
        ),
        Scenario(
            "Corrupt primary keys: null", "EJB", False,
            lambda rig: rig.injector.corrupt_primary_keys(C.NULL),
        ),
        Scenario(
            "Corrupt primary keys: invalid", "EJB", False,
            lambda rig: rig.injector.corrupt_primary_keys(C.INVALID),
        ),
        Scenario(
            "Corrupt primary keys: wrong", "EJB", True,
            lambda rig: rig.injector.corrupt_primary_keys(C.WRONG),
        ),
        Scenario(
            "Corrupt JNDI entry: null", "EJB", False,
            lambda rig: rig.injector.corrupt_jndi("ViewItem", C.NULL),
        ),
        Scenario(
            "Corrupt JNDI entry: invalid", "EJB", False,
            lambda rig: rig.injector.corrupt_jndi("ViewItem", C.INVALID),
        ),
        Scenario(
            "Corrupt JNDI entry: wrong", "EJB", False,
            lambda rig: rig.injector.corrupt_jndi("ViewItem", C.WRONG),
        ),
        Scenario(
            "Corrupt tx method map: null", "EJB", False,
            lambda rig: rig.injector.corrupt_tx_method_map(
                "Item", "record_bid", C.NULL
            ),
        ),
        Scenario(
            "Corrupt tx method map: invalid", "EJB", False,
            lambda rig: rig.injector.corrupt_tx_method_map(
                "Item", "record_bid", C.INVALID
            ),
        ),
        Scenario(
            "Corrupt tx method map: wrong", "EJB", True,
            lambda rig: rig.injector.corrupt_tx_method_map(
                "Item", "record_bid", C.WRONG
            ),
        ),
        Scenario(
            "Corrupt session bean attrs: null", "unnecessary", False,
            lambda rig: rig.injector.corrupt_session_bean_attribute(C.NULL),
        ),
        Scenario(
            "Corrupt session bean attrs: invalid", "unnecessary", False,
            lambda rig: rig.injector.corrupt_session_bean_attribute(C.INVALID),
        ),
        Scenario(
            "Corrupt session bean attrs: wrong", "EJB+WAR", True,
            lambda rig: rig.injector.corrupt_session_bean_attribute(C.WRONG),
        ),
        Scenario(
            "Corrupt data inside FastS: null", "WAR", False,
            lambda rig: rig.injector.corrupt_session_store(C.NULL),
            needs_sessions=True,
        ),
        Scenario(
            "Corrupt data inside FastS: invalid", "WAR", False,
            lambda rig: rig.injector.corrupt_session_store(C.INVALID),
            needs_sessions=True,
        ),
        Scenario(
            "Corrupt data inside FastS: wrong", "WAR (paper: WAR ≈)", False,
            lambda rig: rig.injector.corrupt_session_store(C.WRONG),
            needs_sessions=True,
        ),
        Scenario(
            "Corrupt data inside SSM", "none (checksum discard)", False,
            # A handful of flipped session objects: SSM's checksums catch
            # each on read and discard it; the affected users see one login
            # prompt each, well below any recovery threshold.
            lambda rig: rig.injector.corrupt_session_store(
                C.INVALID,
                session_ids=rig.system.session_store.session_ids()[:5],
            ),
            session_store="ssm",
            needs_sessions=True,
        ),
        Scenario(
            "Corrupt MySQL data", "manual repair", True,
            lambda rig: (
                rig.injector.corrupt_database("items", C.INVALID),
                _corrupt_many_items(rig, 300),
            ),
            max_duration=1500.0,
            resync_shadow=False,
        ),
        Scenario(
            "Memory leak outside application (intra-JVM)", "JVM", False,
            lambda rig: rig.lowlevel.leak_intra_jvm(
                int(rig.system.server.heap.capacity * 0.95)
            ),
            small_heap=True,
        ),
        Scenario(
            "Memory leak outside application (extra-JVM)", "OS", False,
            lambda rig: rig.lowlevel.leak_extra_jvm(rig.node, 3 * 1024 * MB),
            max_duration=1500.0,
        ),
        Scenario(
            "Bit flips in process memory", "JVM", True,
            lambda rig: (
                rig.lowlevel.flip_bits_in_process_memory(),
                _corrupt_many_items(rig, 5),
            ),
            max_duration=1200.0,
        ),
        Scenario(
            "Bit flips in process registers", "JVM", True,
            lambda rig: rig.lowlevel.flip_bits_in_registers(),
            max_duration=1200.0,
        ),
        Scenario(
            "Bad system call return values", "JVM", False,
            lambda rig: rig.lowlevel.inject_bad_syscall_returns(),
            max_duration=1200.0,
        ),
    ]


def _corrupt_many_items(rig, count):
    """A botched bulk UPDATE: many item rows get wrong prices."""
    database = rig.system.database
    pks = sorted(database.tables["items"].rows)[: count]
    for pk in pks:
        original = database.tables["items"].rows[pk]["max_bid"]
        if isinstance(original, int):
            database._corrupt_row("items", pk, "max_bid", original + 100000)
    return pks


LEVEL_LABELS = {
    "ejb": "EJB",
    "war": "WAR",
    "application": "application",
    "jvm": "JVM",
    "os": "OS",
}


def run_scenario(scenario, seed, n_clients):
    """Inject one fault and let the system recover; classify the outcome."""
    heap = HeapModel(capacity=48 * MB, baseline=6 * MB) if scenario.small_heap else None
    rig = SingleNodeRig(
        seed=seed,
        n_clients=n_clients,
        session_store=scenario.session_store,
        with_comparison_detector=True,
        heap=heap,
        rm_kwargs={"max_ejb_attempts": 3},
    )
    if not scenario.resync_shadow:
        rig.recovery_manager.listeners.clear()
    rig.start(warmup=60.0 if scenario.needs_sessions else 30.0)
    scenario.inject(rig)

    # Run until failures (effectively) cease for two consecutive windows.
    # "Recovery is deemed successful when end users do not experience any
    # more failures" (§5.2); the tolerance of 2 per window (<0.3% of the
    # traffic) absorbs self-healing stragglers — e.g. the one login prompt
    # a long-thinking client hits minutes after a session-destroying
    # recovery.
    tolerance = 2
    stable = 0
    elapsed = 0.0
    window = 30.0
    while elapsed < scenario.max_duration and (
        stable < 2 or elapsed < scenario.min_runtime
    ):
        rig.run_for(window)
        elapsed += window
        stable = stable + 1 if rig.failures_in_last(window) <= tolerance else 0

    rm = rig.recovery_manager
    actions = list(rm.actions)
    resuscitated = stable >= 2

    repaired_rows = 0
    violations = audit_database(rig.system.database)
    needed_repair = bool(violations)
    if needed_repair:
        reference = {
            table: rig.shadow.database.snapshot(table) for table in TABLES
        }
        repaired_rows = manual_repair(rig.system.database, reference)
        still_bad = audit_database(rig.system.database)
        if not resuscitated:
            # e.g. the corrupt-MySQL row: no reboot helps; the operator
            # repairs the data, bounces the web tier (flushing fragments
            # rendered from the bad data), and rebaselines the monitoring
            # reference, after which the service recovers on its own
            # (allowing the usual straggler logins after the reboots).
            rig.kernel.run_until_triggered(
                rig.kernel.process(rig.system.coordinator.microreboot_war())
            )
            rig.resync_shadow()
            stable = 0
            settle = 0.0
            while settle < 300.0 and stable < 2:
                rig.run_for(window)
                settle += window
                stable = stable + 1 if rig.failures_in_last(window) <= tolerance else 0
            resuscitated = stable >= 2 and not still_bad

    if actions:
        final_level = actions[-1].level
        cured_by = LEVEL_LABELS.get(final_level, final_level)
        if final_level == "war" and "ejb" in (a.level for a in actions):
            cured_by = "EJB+WAR"
        if final_level == "human" and needed_repair:
            # No reboot level cured it; the operator repaired the data.
            cured_by = "manual repair"
        if needed_repair:
            cured_by += " ≈"
    elif needed_repair:
        cured_by = "manual repair"
    else:
        cured_by = "none needed"

    return {
        "label": scenario.label,
        "resuscitated": resuscitated,
        "cured_by": cured_by,
        "levels_used": [a.level for a in actions],
        "needed_repair": needed_repair,
        "violations": violations[:3],
        "repaired_rows": repaired_rows,
        "failed_requests": rig.metrics.failed_requests,
    }


def run_scenario_index(index, seed, n_clients):
    """Spawn-safe trial entrypoint: run the ``index``-th Table 2 scenario.

    Scenario objects hold lambdas and do not pickle, so parallel workers
    re-derive the scenario list and select by position.
    """
    return run_scenario(_scenarios()[index], seed=seed, n_clients=n_clients)


#: Clients loading the node while each fault plays out, per scale.
SCALES = {
    "quick": {"n_clients": 60},
    "bench": {"n_clients": 150},
    "full": {"n_clients": 300},
}


def run(seed=0, scale="bench", jobs=1):
    """Run every Table 2 scenario.

    Each scenario is one independent trial of a campaign: ``jobs>1`` fans
    the 26 rows out across worker processes, with identical output.
    """
    result = ExperimentResult(
        name="Recovery from injected faults: worst-case scenarios",
        paper_reference="Table 2",
        headers=(
            "Injected fault", "paper level", "measured outcome",
            "resuscitated", "repair (≈)",
        ),
    )
    scenarios = _scenarios()
    specs = [
        TrialSpec(
            task="repro.experiments.table2:run_scenario_index",
            kwargs={"index": index, **SCALES[scale]},
            tag=scenario.label,
            seed=seed,
        )
        for index, scenario in enumerate(scenarios)
    ]
    outcomes = [trial.value for trial in run_campaign(specs, jobs=jobs)]
    for scenario, outcome in zip(scenarios, outcomes):
        paper = scenario.paper_level + (" ≈" if scenario.paper_repair else "")
        result.rows.append(
            (
                scenario.label,
                paper,
                outcome["cured_by"],
                "yes" if outcome["resuscitated"] else "NO",
                "yes" if outcome["needed_repair"] else "-",
            )
        )
    return result, outcomes
