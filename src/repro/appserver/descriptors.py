"""Deployment descriptors: the platform's metadata about components.

A J2EE application ships portable components plus XML deployment descriptor
files; the application server uses them to instantiate containers, wire
references, and — in the paper's prototype — to compute *recovery groups*
(§3.2): the transitive closure of inter-EJB references that must be
microrebooted together.
"""

import enum
from dataclasses import dataclass, field


class ComponentKind(enum.Enum):
    """The component flavours eBid uses (§3.3)."""

    ENTITY = "entity"
    STATELESS_SESSION = "stateless-session"
    WEB = "web"  # the WAR: servlets + JSPs


class TxAttribute(enum.Enum):
    """Transaction demarcation attributes (the J2EE subset we need)."""

    REQUIRED = "Required"  # join or start a transaction
    NOT_SUPPORTED = "NotSupported"  # run outside any transaction
    SUPPORTS = "Supports"  # join if present, else run without


@dataclass
class DeploymentDescriptor:
    """Everything the deployer needs to know about one component.

    Attributes:
        name: the component's JNDI name.
        kind: entity bean, stateless session bean, or web component.
        factory: callable returning a fresh component instance.
        references: names of components this one calls.  Entity-to-entity
            references put components into the same recovery group; session
            beans obtain entity references through JNDI and stay out of the
            group.
        group_references: names this component is *reboot-coupled* to — the
            metadata relationships that "can span containers" (§3.2).  The
            recovery-group computation takes the transitive closure of
            these.
        crash_time: seconds to forcefully destroy the component's instances
            and metadata.
        reinit_time: seconds to verify, re-instantiate, and start the
            component (deployer verification, container setup, instance
            pool, security context, JNDI binding, ``start()``).
        tx_methods: method name → :class:`TxAttribute`; the per-container
            "transaction method map" that fault injection corrupts.
        pool_size: instances kept in the container's pool.
        table: for entity beans, the database table backing instances.
    """

    name: str
    kind: ComponentKind
    factory: callable
    references: tuple = ()
    group_references: tuple = ()
    crash_time: float = 0.010
    reinit_time: float = 0.450
    tx_methods: dict = field(default_factory=dict)
    pool_size: int = 4
    table: str = None

    def __post_init__(self):
        self.references = tuple(self.references)
        self.group_references = tuple(self.group_references)
        if self.kind is ComponentKind.ENTITY and self.table is None:
            raise ValueError(f"entity bean {self.name!r} needs a backing table")

    @property
    def microreboot_time(self):
        """Total single-component µRB time (Table 3's leftmost column)."""
        return self.crash_time + self.reinit_time
