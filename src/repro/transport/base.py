"""The abstract transport interface used by DECAF site runtimes.

A site is addressed by a *(tenant, site)* pair: the tenant names one
collaboration set (:mod:`repro.host` multiplexes many over one transport)
and the site is a tenant-local index.  Tenant 0 is an ordinary tenant —
the one a plain :class:`~repro.core.session.Session` uses by default.
Every routing method takes the tenant explicitly; delivery handlers and
failure listeners see tenant-local site ids only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterator, List, Optional

DeliveryHandler = Callable[[int, Any], None]
FailureHandler = Callable[[int], None]


class FailureListeners:
    """Failure listeners keyed by tenant, shared by the concrete transports.

    A tenant's entry goes away with its last listener, so evicting a
    tenant leaves nothing behind and failure fan-out only visits tenants
    that are listening.
    """

    __slots__ = ("_by_tenant",)

    def __init__(self) -> None:
        self._by_tenant: Dict[int, List[FailureHandler]] = {}

    def add(self, tenant: int, handler: FailureHandler) -> None:
        self._by_tenant.setdefault(tenant, []).append(handler)

    def remove(self, tenant: int, handler: FailureHandler) -> None:
        listeners = self._by_tenant.get(tenant)
        if listeners is None or handler not in listeners:
            return
        listeners.remove(handler)
        if not listeners:
            del self._by_tenant[tenant]

    def notify(self, tenant: int, site: int) -> None:
        """Tell ``tenant``'s listeners that its ``site`` failed."""
        for handler in list(self._by_tenant.get(tenant, ())):
            handler(site)

    def __iter__(self) -> Iterator[int]:
        """The listening tenants, in ascending order."""
        return iter(sorted(self._by_tenant))


class Transport(ABC):
    """Delivers opaque payloads between ``(tenant, site)`` addresses.

    Implementations must deliver each payload exactly once to the
    registered handler of the destination (unless it has failed), and
    should preserve FIFO order per ordered site pair.  The DECAF protocol
    tolerates cross-pair reordering (stragglers) but site runtimes assume
    per-pair FIFO, matching the TCP channels of the original Java
    prototype.  Traffic never crosses tenants: ``src`` and ``dst`` of a
    send are sites of the same tenant.
    """

    @abstractmethod
    def register(self, tenant: int, site: int, handler: DeliveryHandler) -> None:
        """Attach the delivery handler for ``site`` of ``tenant``."""

    @abstractmethod
    def send(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        """Queue ``payload`` for delivery from ``src`` to ``dst`` within ``tenant``."""

    @abstractmethod
    def now(self) -> float:
        """Current transport time in milliseconds (simulated or wall-clock)."""

    @abstractmethod
    def pending(self) -> int:
        """Number of messages accepted but not yet delivered."""

    @abstractmethod
    def quiesce(self, max_events: Optional[int] = None) -> int:
        """Synchronously drive delivery until no messages remain in flight.

        Returns the number of deliveries performed.  ``max_events`` bounds
        the work for transports that process one event at a time (the
        simulator); queue transports may ignore it.  Event-loop transports
        cannot drain synchronously and must raise
        :class:`~repro.errors.TransportError` directing callers to
        ``await aquiesce()`` instead of silently doing nothing.
        """

    # -- capability protocol ---------------------------------------------

    def scheduler(self):
        """The deterministic scheduler behind this transport, or None.

        Replaces the old ``isinstance(transport, SimTransport)`` dispatch
        in :class:`~repro.core.session.Session`: callers that need
        virtual-time control (``run_for``, workload generators) ask the
        transport for the capability instead of sniffing its type.
        """
        return None

    def network(self):
        """The simulated :class:`~repro.sim.network.Network`, or None.

        Fault-injection helpers (drops, partitions, latency models) hang
        off the network; transports without a simulated fabric return
        None and callers must cope.
        """
        return None

    # -- membership ------------------------------------------------------

    def unregister(self, tenant: int, site: int) -> None:
        """Detach the handler of ``site`` of ``tenant``; in-flight messages to it drop.

        Best-effort by default (transports without eviction support keep
        the handler).  Concrete transports override this so tenant
        eviction (:meth:`repro.host.SessionHost.evict`) actually releases
        routing state.
        """

    def is_failed(self, tenant: int, site: int) -> bool:
        """Whether ``site`` of ``tenant`` has been reported failed; default never fails."""
        return False

    def add_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        """Subscribe to fail-stop notices for ``tenant``'s sites only.

        The handler receives tenant-local site ids; notices for other
        tenants never reach it (cross-tenant failure isolation).  The
        default transport never fails.
        """

    def remove_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        """Unsubscribe a failure listener of ``tenant``; default transport has none."""

    def defer(
        self, action: Callable[[], None], delay_ms: float = 0.0, site: Optional[int] = None
    ) -> None:
        """Run ``action`` asynchronously after ``delay_ms`` (transaction retries).

        ``site`` identifies the deferring site when known; the simulated
        transport uses it to present positive-delay defers as schedule
        choice points during exhaustive exploration (``repro mc``).  The
        default executes immediately (zero-latency transports have no
        meaningful delay); scheduler-backed transports queue it so retries
        never recurse on the current call stack.
        """
        action()
