"""Sessions: wiring site runtimes, transports, and convenience helpers.

A :class:`Session` owns the transport and the roster of sites.  It also
provides the common setup helpers used by tests, examples, and benchmarks —
notably :meth:`replicate`, which builds a fully joined replica relationship
across sites using the real association/invitation/join protocol of
sections 2.6 and 3.3 (no back-door state copying).

Replicable kinds are a class-keyed registry: ``session.replicate(DInt, ...)``
names the type directly, and applications extend the vocabulary with
:func:`register_replicable`.  The historical string kinds (``"int"``,
``"list"``, ...) remain as deprecated aliases.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Type, Union

from repro.core.association import Association
from repro.core.composites import DList, DMap
from repro.core.model import ModelObject
from repro.core.repgraph import PrimarySelector
from repro.core.scalars import DFloat, DInt, DString
from repro.core.site import SiteRuntime
from repro.errors import ReproError
from repro.obs.events import EventBus
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler
from repro.transport.base import Transport
from repro.transport.memory import MemoryTransport
from repro.transport.simnet import SimTransport

# ---------------------------------------------------------------------------
# Replicable-kind registry
# ---------------------------------------------------------------------------

#: Factory signature: ``factory(site, name, initial) -> ModelObject``.
ReplicableFactory = Callable[[SiteRuntime, str, Any], ModelObject]

_REPLICABLE: Dict[type, ReplicableFactory] = {}
#: Deprecated string kinds -> registered class.
_KIND_ALIASES: Dict[str, type] = {}


def register_replicable(
    cls: Type[ModelObject],
    factory: ReplicableFactory,
    alias: Optional[str] = None,
) -> None:
    """Teach :meth:`Session.replicate` to build objects of ``cls``.

    ``factory(site, name, initial)`` must create a *local* object at
    ``site``; the replicate helper handles association, invitation, and
    join.  ``alias`` additionally registers a deprecated string kind for
    the legacy ``replicate("int", ...)`` spelling.
    """
    _REPLICABLE[cls] = factory
    if alias is not None:
        _KIND_ALIASES[alias] = cls


register_replicable(
    DInt, lambda s, name, initial: s.create_int(name, initial if initial is not None else 0),
    alias="int",
)
register_replicable(
    DFloat,
    lambda s, name, initial: s.create_float(name, initial if initial is not None else 0.0),
    alias="float",
)
register_replicable(
    DString,
    lambda s, name, initial: s.create_string(name, initial if initial is not None else ""),
    alias="string",
)
register_replicable(DList, lambda s, name, initial: s.create_list(name), alias="list")
register_replicable(DMap, lambda s, name, initial: s.create_map(name), alias="map")


class Session:
    """A collaboration session: a transport plus its participating sites.

    ``tenant`` names the collaboration set on the transport: every site of
    the session is addressed as ``(tenant, site_id)``, so sessions with
    different tenants can share one transport without seeing each other.
    """

    def __init__(
        self,
        transport: Optional[Transport] = None,
        tenant: int = 0,
        primary_selector: Optional[PrimarySelector] = None,
        max_retries: int = 50,
        delegation_enabled: bool = True,
        eager_view_confirms: bool = False,
        batching: bool = False,
        roster: Optional[Iterable[int]] = None,
    ) -> None:
        if tenant < 0:
            raise ReproError(f"tenant id must be non-negative, got {tenant}")
        self.transport = transport if transport is not None else MemoryTransport()
        self.tenant = tenant
        self.primary_selector = primary_selector
        self.max_retries = max_retries
        self.delegation_enabled = delegation_enabled
        #: The "faster commit of snapshots" optimization (section 5.3):
        #: primaries eagerly broadcast confirmed write intervals so remote
        #: pessimistic views resolve RL guesses without their own round trip.
        self.eager_view_confirms = eager_view_confirms
        #: When True, each site's outbox coalesces every protocol turn's
        #: fan-out into one Envelope per destination (repro.wire.batch).
        self.batching = batching
        #: Site ids known to belong to the collaboration but hosted
        #: elsewhere (other processes); merged into every site's roster so
        #: the failure protocol and fan-outs see the full membership.
        self.base_roster: set = set(roster) if roster is not None else set()
        self.sites: List[SiteRuntime] = []
        #: The protocol event bus (repro.obs).  Shared with the transport's
        #: network when there is one, so site-level protocol events and
        #: network-level message_sent events interleave on one timeline.
        transport_bus = getattr(self.transport, "bus", None)
        self.bus: EventBus = transport_bus if transport_bus is not None else EventBus()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def simulated(
        latency_ms: float = 50.0, seed: int = 0, **kwargs: Any
    ) -> "Session":
        """A session over a discrete-event network with fixed latency."""
        from repro.sim.network import FixedLatency

        scheduler = Scheduler()
        network = Network(scheduler, latency=FixedLatency(latency_ms), seed=seed)
        return Session(transport=SimTransport(network), **kwargs)

    @property
    def scheduler(self) -> Optional[Scheduler]:
        """The transport's deterministic scheduler, or None.

        Delegates to the transport capability protocol
        (:meth:`repro.transport.base.Transport.scheduler`) instead of
        sniffing the transport's type.
        """
        return self.transport.scheduler()

    @property
    def network(self) -> Optional[Network]:
        """The transport's simulated network capability, or None."""
        return self.transport.network()

    def add_site(
        self,
        name: str = "",
        principal: str = "",
        site_id: Optional[int] = None,
    ) -> SiteRuntime:
        """Create a site runtime and update every roster.

        ``site_id`` defaults to the next local index; cross-process sessions
        pass explicit ids so each process hosts its own slice of one global
        numbering (the transport routes by these ids).
        """
        if site_id is None:
            site_id = len(self.sites)
        if any(s.site_id == site_id for s in self.sites):
            raise ReproError(f"site id {site_id} already exists in this session")
        site = SiteRuntime(
            site_id,
            self.transport,
            tenant=self.tenant,
            name=name,
            principal=principal,
            session=self,
            max_retries=self.max_retries,
            delegation_enabled=self.delegation_enabled,
            eager_view_confirms=self.eager_view_confirms,
            batching=self.batching,
        )
        self.sites.append(site)
        roster = self.base_roster | {s.site_id for s in self.sites}
        for s in self.sites:
            s.roster = set(roster)
        return site

    def detach(self) -> None:
        """Release every site's transport address and failure subscription.

        Frames still in flight to the session are then dropped by the
        transport (counted, not raised) and failure notices no longer
        reach it; other tenants on the transport are unaffected.
        """
        for site in self.sites:
            site.detach()

    def add_sites(self, count: int, prefix: str = "site") -> List[SiteRuntime]:
        base = len(self.sites)
        return [self.add_site(f"{prefix}{base + i}") for i in range(count)]

    # ------------------------------------------------------------------
    # Progress helpers
    # ------------------------------------------------------------------

    def settle(self, max_events: int = 10_000_000) -> None:
        """Deliver all in-flight messages (quiesce the system).

        Delegates to the transport's own :meth:`~repro.transport.base.Transport.quiesce`;
        event-loop transports raise and must be awaited via ``aquiesce()``.
        """
        self.transport.quiesce(max_events=max_events)

    def run_for(self, ms: float) -> None:
        """Advance a simulated session by ``ms`` milliseconds."""
        scheduler = self.scheduler
        if scheduler is None:
            raise ReproError("run_for requires a simulated transport")
        scheduler.run(until=scheduler.now + ms)

    @contextlib.contextmanager
    def batched(self):
        """An explicit coalescing window across every local site.

        All messages sent inside the block leave as one envelope per
        (site, destination) pair when it closes — independent of the
        session-level ``batching`` flag, so callers can batch a known
        burst (bulk loading, many small transactions) ad hoc.
        """
        for site in self.sites:
            site.outbox.begin_turn()
        try:
            yield self
        finally:
            for site in self.sites:
                site.outbox.end_turn()

    # ------------------------------------------------------------------
    # Replication setup (uses the real join protocol)
    # ------------------------------------------------------------------

    def replicate(
        self,
        kind: Union[Type[ModelObject], str],
        name: str,
        sites: Sequence[SiteRuntime],
        initial: Any = None,
    ) -> List[ModelObject]:
        """Create one object per site and join them all into one relationship.

        ``kind`` is a registered model-object class (``DInt``, ``DList``,
        ...; extend with :func:`register_replicable`).  The first site
        creates the object, an association, and a relationship; every other
        site imports an invitation and joins its own local object.  Returns
        the objects in site order.  The session is settled between steps,
        so on return the relationship is established and committed.
        """
        if not sites:
            raise ReproError("replicate requires at least one site")
        if isinstance(kind, str):
            cls = _KIND_ALIASES.get(kind)
            if cls is None:
                raise ReproError(f"cannot replicate objects of kind {kind!r}")
            warnings.warn(
                f"Session.replicate({kind!r}, ...) is deprecated; "
                f"pass the class (Session.replicate({cls.__name__}, ...)). "
                "String kinds will be removed on 2026-12-31.",
                DeprecationWarning,
                stacklevel=2,
            )
            kind = cls
        factory = _REPLICABLE.get(kind)
        if factory is None:
            raise ReproError(
                f"cannot replicate objects of kind {kind!r}; "
                "register the class with repro.core.session.register_replicable"
            )
        owner = sites[0]
        objects = [factory(owner, name, initial)]
        assoc = owner.create_association(f"{name}.assoc")
        rel_id = f"{name}.rel"

        def create_rel() -> None:
            assoc.create_relationship(rel_id)

        owner.transact(create_rel)
        self.settle()
        owner.join(assoc, rel_id, objects[0])
        self.settle()
        invitation = assoc.make_invitation()
        for site in sites[1:]:
            local_assoc = site.import_invitation(invitation, f"{name}.assoc")
            self.settle()
            obj = factory(site, name, initial)
            objects.append(obj)
            site.join(local_assoc, rel_id, obj)
            self.settle()
        return objects

    # ------------------------------------------------------------------
    # Observability / metrics
    # ------------------------------------------------------------------

    def observe(self) -> EventBus:
        """Start recording the protocol event timeline; returns the bus."""
        self.bus.enable()
        return self.bus

    def metrics_snapshot(self) -> List[Dict[str, Any]]:
        """Deterministic per-site metrics registry dumps, in site order.

        When the transport owns its own registry (the site −1 registry of
        the TCP transport: frame counters, dial telemetry), its
        snapshot is appended after the sites so host-level wire metrics
        are not silently dropped from rollups.
        """
        snaps = [site.metrics.snapshot() for site in self.sites]
        transport_metrics = getattr(self.transport, "metrics", None)
        if transport_metrics is not None:
            snaps.append(transport_metrics.snapshot())
        return snaps

    def counters(self) -> Dict[str, int]:
        """Aggregated protocol counters across all sites.

        Includes the transport-level (site −1) registry's counters when
        the transport has one, namespaced under their own ``transport.*``
        keys, so wire-plane totals ride along with the protocol counters.
        """
        totals: Dict[str, int] = {}
        for site in self.sites:
            for key, value in site.counters().items():
                totals[key] = totals.get(key, 0) + value
        transport_metrics = getattr(self.transport, "metrics", None)
        if transport_metrics is not None:
            for key, value in transport_metrics.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def __repr__(self) -> str:
        return f"Session(sites={[s.name for s in self.sites]})"
