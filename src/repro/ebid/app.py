"""Assembly of a complete eBid system on one application server.

This wires together everything a single middle-tier node needs: the
application server, the database (possibly shared with other nodes of a
cluster), the session store (node-local FastS or shared SSM), the static
content store, and the microreboot coordinator.
"""

import random
from dataclasses import astuple, dataclass

from repro.appserver.server import ApplicationServer
from repro.appserver.timing import TimingModel
from repro.core.microreboot import MicrorebootCoordinator
from repro.core.retry import RetryPolicy
from repro.ebid.descriptors import URL_PATH_MAP, ebid_descriptors
from repro.ebid.schema import DatasetConfig, create_schema, populate_dataset
from repro.ebid.web import STATIC_PAGES
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry, derive_seed
from repro.stores.database import Database
from repro.stores.fasts import FastS
from repro.stores.filesystem import StaticContentStore
from repro.stores.ssm import SSM


@dataclass
class EbidSystem:
    """One assembled node plus its (possibly shared) stores."""

    kernel: Kernel
    rng: RngRegistry
    server: ApplicationServer
    database: Database
    session_store: object
    static_store: StaticContentStore
    coordinator: MicrorebootCoordinator
    dataset: DatasetConfig

    @property
    def url_path_map(self):
        return URL_PATH_MAP


def build_static_store():
    """The read-only presentation tier content."""
    store = StaticContentStore(read_only=True)
    for operation, path in STATIC_PAGES.items():
        store.publish(path, f"<html>static page: {operation}</html>")
    store.seal()
    return store


# ----------------------------------------------------------------------
# Dataset snapshot cache
#
# Campaign trials are independent simulations that usually share one root
# seed (e.g. all 26 Table 2 rows), so every trial regenerates the exact
# same synthetic dataset — at paper scale that generation dominates trial
# wall-clock.  The dataset is a pure function of (dataset-stream seed,
# DatasetConfig), so the first build in a process captures a snapshot —
# the table rows plus the stream's post-populate state — and later builds
# with the same key restore it instead of regenerating.  Restoring the
# stream state makes a cache hit byte-identical to a fresh populate for
# any code that keeps drawing from the ``"dataset"`` stream afterwards.
#
# The cache is plain picklable data, so a campaign parent can ship it to
# ``spawn`` workers via the pool initializer (see repro.parallel.worker)
# and workers never pay the build even for their first trial.
# ----------------------------------------------------------------------

#: (dataset stream seed, astuple(config)) -> {"rows": ..., "rng_state": ...}
_dataset_snapshots = {}
#: Bound on retained snapshots.  A snapshot shares its row dicts with the
#: database it was taken from and with every database restored from it
#: (stored rows are never mutated, see repro.stores.database), so beside
#: them it costs only its pk → row maps.
DATASET_SNAPSHOT_LIMIT = 4


def export_dataset_snapshots():
    """This process's dataset snapshots, picklable for worker initargs."""
    return dict(_dataset_snapshots)


def install_dataset_snapshots(snapshots):
    """Replace the process cache (pool initializer in spawned workers)."""
    _dataset_snapshots.clear()
    _dataset_snapshots.update(snapshots or {})


def dataset_snapshots_cached():
    """How many dataset snapshots this process currently holds."""
    return len(_dataset_snapshots)


def _snapshot_tables(database):
    return {name: dict(table.rows) for name, table in database.tables.items()}


def build_database(kernel, rng, dataset=None, timing=None):
    """A populated eBid database on its own simulated host.

    Population is memoized process-wide: the same (seed, config) pair
    restores a snapshot instead of regenerating row by row.  The snapshot
    path only engages when the registry's ``"dataset"`` stream is still in
    its initial state (the normal case — a fresh registry per system), so
    a caller that already drew from the stream gets an honest regenerate.
    """
    timing = timing or TimingModel()
    dataset = dataset or DatasetConfig()
    database = Database(kernel, recovery_time=timing.db_recovery_time)
    create_schema(database)

    stream = rng.stream("dataset")
    stream_seed = derive_seed(rng.root_seed, "dataset")
    fresh = stream.getstate() == random.Random(stream_seed).getstate()
    key = (stream_seed, astuple(dataset))

    snapshot = _dataset_snapshots.get(key) if fresh else None
    if snapshot is not None:
        for name, table in database.tables.items():
            table.replace_all(snapshot["rows"].get(name, {}))
        stream.setstate(snapshot["rng_state"])
        return database

    populate_dataset(database, stream, dataset)
    if fresh:
        if len(_dataset_snapshots) >= DATASET_SNAPSHOT_LIMIT:
            _dataset_snapshots.pop(next(iter(_dataset_snapshots)))
        _dataset_snapshots[key] = {
            "rows": _snapshot_tables(database),
            "rng_state": stream.getstate(),
        }
    return database


def build_ebid_system(
    kernel=None,
    seed=0,
    session_store="fasts",
    dataset=None,
    timing=None,
    retry_policy=None,
    name=None,
    shared_database=None,
    shared_ssm=None,
):
    """Build and boot one eBid node.

    Args:
        session_store: ``"fasts"`` (in-JVM) or ``"ssm"`` (external).
        shared_database / shared_ssm: pass existing stores when assembling
            a multi-node cluster so all nodes see the same state.

    The server boots warm, without charging the 19 s JVM start.
    """
    kernel = kernel or Kernel()
    rng = RngRegistry(seed)
    timing = timing or TimingModel()
    dataset = dataset or DatasetConfig()
    retry_policy = retry_policy or RetryPolicy.disabled()

    if shared_database is not None:
        database = shared_database
    else:
        database = build_database(kernel, rng, dataset, timing)

    server = ApplicationServer(
        kernel, rng.stream(f"server-{name or 'node'}"), timing=timing, name=name
    )
    server.database = database
    server.static_store = build_static_store()
    server.retry_enabled = retry_policy.enabled

    if session_store == "fasts":
        store = FastS(name=f"FastS@{server.name}")
        store.access_time = timing.fasts_access_time
    elif session_store == "ssm":
        # NB: "or" would silently build a private store whenever the shared
        # one is empty (SSM defines __len__); the identity check matters.
        store = shared_ssm if shared_ssm is not None else SSM(kernel)
        store.access_time = timing.ssm_access_time
    else:
        raise ValueError(f"unknown session store kind {session_store!r}")
    server.session_store = store

    server.deploy("ebid", ebid_descriptors())
    boot = kernel.process(server.boot(cold=False))
    kernel.run_until_triggered(boot)

    coordinator = MicrorebootCoordinator(server, "ebid", retry_policy=retry_policy)
    return EbidSystem(
        kernel=kernel,
        rng=rng,
        server=server,
        database=database,
        session_store=store,
        static_store=server.static_store,
        coordinator=coordinator,
        dataset=dataset,
    )
