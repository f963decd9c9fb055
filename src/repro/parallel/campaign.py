"""Fan independent, deterministically-seeded trials out across CPU cores.

Every evaluation artifact in this reproduction — the 26-row Table 2 fault
matrix, the figure sweeps, the pathdiag comparison — is a *campaign*: a
list of trials that share no state (each builds its own kernel and rig from
a seed), so they parallelize embarrassingly.  This module is the one
campaign runner they all go through:

* a trial is a :class:`TrialSpec` — a spawn-picklable ``"module:function"``
  task string, plain-data kwargs, a stable tag, and an explicit seed;
* :func:`run_campaign` executes the specs either in-process (``jobs=1``,
  the default) or on a ``spawn`` worker pool, and returns
  :class:`TrialResult` envelopes **in spec order** regardless of which
  worker finished first — so rendered experiment output is byte-identical
  between ``jobs=1`` and ``jobs=N``;
* determinism comes from the seeds alone: a worker re-derives every RNG
  stream from its spec's seed (see :mod:`repro.sim.rng`), never from
  process-global state, and the :func:`parent snapshot
  <repro.parallel.worker.worker_snapshot>` (telemetry defaults plus the
  dataset snapshot cache) is re-applied per worker;
* dataset builds amortize across trials: campaigns that share one root
  seed (e.g. the 26 Table 2 rows) regenerate identical synthetic
  datasets, so the first trial is *primed* in the parent process and the
  resulting snapshot rides the pool initializer into every worker;
* if the platform cannot run a worker pool at all (no ``sem_open``,
  sandboxed ``fork``/``spawn``, ...) the campaign silently degrades to the
  in-process path — slower, never wrong.
"""

import os
from dataclasses import dataclass, field

from repro.parallel import worker
from repro.sim.rng import derive_seed


class CampaignError(RuntimeError):
    """A trial failed; the message carries the worker-side traceback."""


@dataclass(frozen=True)
class TrialSpec:
    """One independent trial of a campaign.

    Attributes:
        task: worker entrypoint as ``"package.module:function"``; must be a
            module-level callable so a ``spawn``-ed worker can import it.
        kwargs: keyword arguments for the task; keep them plain data
            (numbers, strings, tuples) so they pickle under ``spawn``.
        tag: stable human-readable identifier (scenario label, arm name);
            used for seed derivation and error reporting.
        seed: RNG root seed passed to the task as ``seed=``; ``None`` for
            tasks that take no seed.
    """

    task: str
    kwargs: dict = field(default_factory=dict)
    tag: str = ""
    seed: int = None


@dataclass(frozen=True)
class TrialResult:
    """Structured envelope for one finished trial."""

    index: int  # position in the spec list (merge order)
    tag: str
    seed: int
    value: object  # the task's return value (None if the trial errored)
    elapsed_s: float  # wall-clock inside the worker
    pid: int  # worker process id (the parent's, for in-process runs)
    error: str = None  # "ExcType: message" if the trial raised
    traceback: str = None  # full worker-side traceback, for CampaignError

    @property
    def ok(self):
        return self.error is None


def derive_trial_seed(root_seed, tag):
    """A per-trial 64-bit seed from a campaign root seed and a trial tag.

    Uses the same SHA-256 derivation as the kernel's named RNG streams, so
    campaigns over many seeds stay deterministic and collision-free without
    the trial order mattering.
    """
    return derive_seed(root_seed, f"trial/{tag}")


def available_jobs():
    """How many worker processes this machine can usefully run."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def normalize_jobs(jobs):
    """Map the CLI contract (``0``/``None`` = all cores) to a worker count."""
    if jobs is None or jobs <= 0:
        return available_jobs()
    return int(jobs)


def run_campaign(specs, jobs=1, check=True):
    """Run every :class:`TrialSpec` and return results in spec order.

    ``jobs=1`` runs in-process (no pool, no pickling — the reference
    execution); ``jobs>1`` fans out over a ``spawn`` pool and falls back to
    in-process execution if the platform cannot start one.  ``jobs<=0``
    means "all available cores".

    With ``check=True`` (default) the first failed trial raises
    :class:`CampaignError` carrying the worker-side traceback; otherwise
    failed trials come back as envelopes with ``.ok == False``.
    """
    specs = list(specs)
    payloads = list(enumerate(specs))
    jobs = normalize_jobs(jobs)

    if jobs <= 1 or len(specs) <= 1:
        results = [worker.run_trial(payload) for payload in payloads]
    else:
        primed = []
        if _should_prime(specs):
            # Run the first trial in-process so the parent's dataset
            # snapshot cache is warm before the pool starts; the snapshot
            # then ships to every worker via the pool initializer and no
            # worker regenerates the shared dataset.  Trials are
            # order-independent (seed-derived), so this cannot change
            # results — only which process computed them.
            primed = [worker.run_trial(payloads[0])]
            payloads = payloads[1:]
        results = primed + _run_pool(payloads, min(jobs, len(payloads)))
        results.sort(key=lambda result: result.index)

    if check:
        for result in results:
            if not result.ok:
                raise CampaignError(
                    f"trial {result.index} ({result.tag or result.seed!r}) "
                    f"failed: {result.error}\n{result.traceback or ''}"
                )
    return results


def run_arms(task, arms, kwargs, seed, jobs=1, key="arm"):
    """One trial of ``task`` per arm, run by :func:`run_campaign`.

    Arm ``a``'s spec passes ``key=a`` plus the shared ``kwargs``, is
    tagged ``a`` and seeded with ``seed``.  Returns ``{arm: value}`` in
    ``arms`` order, so jobs=1 ≡ jobs=N holds as for any campaign.
    """
    specs = [
        TrialSpec(task=task, kwargs={key: arm, **kwargs}, tag=arm, seed=seed)
        for arm in arms
    ]
    trials = run_campaign(specs, jobs=jobs)
    return {arm: trial.value for arm, trial in zip(arms, trials)}


def _should_prime(specs):
    """Prime the dataset snapshot iff the campaign can actually reuse it.

    Sharing pays only when every trial derives the same dataset — which,
    datasets being seed-pure, means every spec carries the same seed.  A
    sweep over distinct seeds would serialize one trial for no reuse, so
    it goes straight to the pool.  Already-cached snapshots (a previous
    campaign in this process) make priming redundant too.
    """
    from repro.ebid.app import dataset_snapshots_cached

    if dataset_snapshots_cached():
        return False
    seeds = {spec.seed for spec in specs}
    return len(seeds) == 1 and seeds != {None}


def _run_pool(payloads, jobs):
    """Execute payloads on a spawn pool; fall back in-process on platform
    errors (the pool itself failing, not a trial — trials never raise).

    ``ProcessPoolExecutor`` rather than ``multiprocessing.Pool``: when
    workers cannot even start (sandboxed semaphores, an un-reimportable
    ``__main__`` under spawn, ...) the executor raises ``BrokenExecutor``
    where a Pool would respawn crashing workers forever.

    The pool's modules are imported here, not at module top: together they
    add ~2 MiB to every process, and a ``jobs=1`` run never needs them.
    """
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=worker.initialize,
            initargs=(worker.worker_snapshot(),),
        ) as pool:
            return list(pool.map(worker.run_trial, payloads))
    except (OSError, ImportError, PermissionError, ValueError, BrokenExecutor):
        # No spawn support on this platform: degrade to the sequential
        # reference path rather than failing the campaign.
        return [worker.run_trial(payload) for payload in payloads]


def campaign_summary(results):
    """Aggregate timing facts for benchmark output and logs."""
    elapsed = [result.elapsed_s for result in results]
    return {
        "trials": len(results),
        "errors": sum(1 for result in results if not result.ok),
        "workers": len({result.pid for result in results}),
        "total_trial_s": round(sum(elapsed), 4),
        "max_trial_s": round(max(elapsed), 4) if elapsed else 0.0,
    }
