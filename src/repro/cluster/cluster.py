"""Cluster assembly: N eBid nodes, one database, one load balancer."""

from dataclasses import dataclass, field

from repro.appserver.timing import TimingModel
from repro.cluster.load_balancer import LoadBalancer
from repro.cluster.node import Node
from repro.cluster.sharding import BrickGroup, ShardRing
from repro.ebid.app import build_database, build_ebid_system
from repro.ebid.descriptors import URL_PATH_MAP
from repro.ebid.schema import DatasetConfig
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.stores.ssm import SSM


@dataclass
class Cluster:
    """A running cluster and its shared infrastructure."""

    kernel: Kernel
    rng: RngRegistry
    nodes: list
    load_balancer: LoadBalancer
    database: object
    ssm: object = None
    dataset: DatasetConfig = field(default_factory=DatasetConfig)

    def node(self, index):
        return self.nodes[index]

    def find_node(self, name):
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)


def build_cluster(
    n_nodes,
    seed=0,
    session_store="fasts",
    dataset=None,
    timing=None,
    retry_policy=None,
    hardening=None,
):
    """Build an ``n_nodes`` cluster sharing one database (and SSM, if used).

    With FastS, session state is node-local: a failover loses the failed-
    over sessions' state.  With SSM, session state lives outside the nodes
    and survives failover, at the cost of higher access latency (§5.3).
    """
    kernel = Kernel()
    rng = RngRegistry(seed)
    timing = timing or TimingModel()
    dataset = dataset or DatasetConfig()
    database = build_database(kernel, rng, dataset, timing)
    ssm = SSM(kernel) if session_store == "ssm" else None

    nodes = []
    for i in range(n_nodes):
        system = build_ebid_system(
            kernel=kernel,
            seed=seed,
            session_store=session_store,
            dataset=dataset,
            timing=timing,
            retry_policy=retry_policy,
            name=f"node{i + 1}",
            shared_database=database,
            shared_ssm=ssm,
        )
        nodes.append(Node(system))

    load_balancer = LoadBalancer(
        kernel, nodes, url_path_map=URL_PATH_MAP, hardening=hardening
    )
    return Cluster(
        kernel=kernel,
        rng=rng,
        nodes=nodes,
        load_balancer=load_balancer,
        database=database,
        ssm=ssm,
        dataset=dataset,
    )


#: SSM bricks in each shard's replicated brick group.
BRICKS_PER_SHARD = 2


@dataclass
class ShardedCluster(Cluster):
    """A consistent-hash sharded cluster: 100+ nodes in replica groups.

    Extends :class:`Cluster` with the shard topology: the ring, the
    per-shard replicated SSM brick groups, and the node→shard map the
    load balancer routes by.  ``nodes`` stays the flat list (shard-major
    order), so everything written against ``Cluster`` keeps working.
    """

    ring: ShardRing = None
    shard_names: tuple = ()
    shard_groups: dict = field(default_factory=dict)  # shard -> BrickGroup
    shard_nodes: dict = field(default_factory=dict)  # shard -> [Node]
    shard_of_node: dict = field(default_factory=dict)  # node name -> shard
    #: What :func:`boot_shard` builds every shard with, including those
    #: elastic scale-out adds mid-run (all nodes share one TimingModel).
    seed: int = 0
    nodes_per_shard: int = 1
    timing: TimingModel = None
    retry_policy: object = None


def boot_shard(cluster, name):
    """Boot shard ``name``: its brick group, then its eBid nodes.

    The :class:`BrickGroup` of ``BRICKS_PER_SHARD`` SSM bricks comes
    first, then ``cluster.nodes_per_shard`` warm application-server
    nodes against the shared database.  Once all are built they enter
    the cluster's shard maps and flat node list; the ring, the balancer
    and ``shard_names`` are left to the caller.  Returns the new nodes.
    """
    group = BrickGroup(
        cluster.kernel, n_bricks=BRICKS_PER_SHARD, name=f"{name}/ssm"
    )
    members = [
        Node(
            build_ebid_system(
                kernel=cluster.kernel,
                seed=cluster.seed,
                session_store="ssm",
                dataset=cluster.dataset,
                timing=cluster.timing,
                retry_policy=cluster.retry_policy,
                name=f"{name}-n{j + 1}",
                shared_database=cluster.database,
                shared_ssm=group,
            )
        )
        for j in range(cluster.nodes_per_shard)
    ]
    cluster.shard_groups[name] = group
    cluster.shard_nodes[name] = members
    for node in members:
        cluster.nodes.append(node)
        cluster.shard_of_node[node.name] = name
    return members


def build_sharded_cluster(
    n_shards,
    nodes_per_shard=1,
    seed=0,
    dataset=None,
    retry_policy=None,
    hardening=None,
):
    """Build a consistent-hash sharded cluster of replicated brick groups.

    Each of the ``n_shards`` shards owns a contiguous arc-set of the ring
    (64 virtual nodes each), is served by ``nodes_per_shard``
    application-server nodes, and keeps its sessions in one replicated
    :class:`BrickGroup` of ``BRICKS_PER_SHARD`` SSM bricks — so a single
    node (or brick) loss inside a shard degrades nothing that failover
    within the group can't absorb.  One database backs the whole cluster,
    as in the paper's deployment.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    kernel = Kernel()
    rng = RngRegistry(seed)
    timing = TimingModel()
    dataset = dataset or DatasetConfig()
    database = build_database(kernel, rng, dataset, timing)

    shard_names = tuple(f"shard{i:03d}" for i in range(n_shards))
    cluster = ShardedCluster(
        kernel=kernel,
        rng=rng,
        nodes=[],
        load_balancer=None,
        database=database,
        dataset=dataset,
        ring=ShardRing(shard_names),
        shard_names=shard_names,
        seed=seed,
        nodes_per_shard=nodes_per_shard,
        timing=timing,
        retry_policy=retry_policy,
    )
    for shard in shard_names:
        boot_shard(cluster, shard)
    cluster.load_balancer = LoadBalancer(
        kernel,
        cluster.nodes,
        url_path_map=URL_PATH_MAP,
        hardening=hardening,
        ring=cluster.ring,
        shard_of_node=cluster.shard_of_node,
    )
    return cluster
