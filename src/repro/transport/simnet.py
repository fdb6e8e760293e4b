"""Adapter presenting a simulated :class:`~repro.sim.network.Network` as a Transport."""

from __future__ import annotations

from typing import Any

from repro.errors import TransportError
from repro.sim.network import Network
from repro.transport.base import DeliveryHandler, FailureHandler, FailureListeners, Transport

#: Width of one tenant's block of simulated node ids.  Node ids are this
#: adapter's private business: tenant 0's sites keep their plain site ids,
#: so fault injection on the network (``network.fail_site(1)``, partitions,
#: latency models) addresses tenant-0 sites directly.
_TENANT_BLOCK = 1 << 20


def _node(tenant: int, site: int) -> int:
    return tenant * _TENANT_BLOCK + site


class SimTransport(Transport):
    """Routes site messages over a discrete-event simulated network.

    This is the transport used by all simulated benchmarks: latency,
    jitter, and failures are controlled by the wrapped network, and time is
    the scheduler's simulated clock.  Each ``(tenant, site)`` is one
    simulated node, so fault injection, partitions, and exhaustive
    exploration apply per tenant without special cases.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._listeners = FailureListeners()
        network.add_failure_listener(self._on_node_failed)

    # -- capability protocol ---------------------------------------------

    def scheduler(self):
        """The deterministic discrete-event scheduler (virtual time)."""
        return self._network.scheduler

    def network(self) -> Network:
        """The simulated fabric itself (fault injection, latency models)."""
        return self._network

    @property
    def bus(self):
        """The network's protocol event bus (shared by session and sites)."""
        return self._network.bus

    def register(self, tenant: int, site: int, handler: DeliveryHandler) -> None:
        if not 0 <= site < _TENANT_BLOCK:
            raise TransportError(f"site id must be in [0, {_TENANT_BLOCK}), got {site}")
        deliver = handler
        if tenant:
            # The network reports node ids; the handler wants tenant-local ones.
            base = _node(tenant, 0)

            def deliver(src: int, payload: Any) -> None:
                handler(src - base, payload)

        self._network.register(_node(tenant, site), deliver)

    def unregister(self, tenant: int, site: int) -> None:
        self._network.unregister(_node(tenant, site))

    def add_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        self._listeners.add(tenant, handler)

    def remove_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        self._listeners.remove(tenant, handler)

    def _on_node_failed(self, node: int) -> None:
        tenant, site = divmod(node, _TENANT_BLOCK)
        self._listeners.notify(tenant, site)

    def send(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        self._network.send(_node(tenant, src), _node(tenant, dst), payload)

    def now(self) -> float:
        return self._network.scheduler.now

    def pending(self) -> int:
        return self._network.scheduler.pending()

    def quiesce(self, max_events=None) -> int:
        """Run the discrete-event scheduler until no events remain."""
        scheduler = self._network.scheduler
        before = scheduler.events_processed
        if max_events is None:
            scheduler.run_until_quiescent()
        else:
            scheduler.run_until_quiescent(max_events=max_events)
        return scheduler.events_processed - before

    def defer(self, action, delay_ms: float = 0.0, site=None) -> None:
        # Under exhaustive exploration, positive-delay defers (retry
        # backoffs) are timers whose order relative to in-flight messages
        # is a genuine schedule choice; zero-delay defers are same-instant
        # continuations and stay on the scheduler (see repro.sim.choice).
        choice = self._network.choice
        if choice is not None and delay_ms > 0.0:
            choice.offer_timer(site, action, delay_ms)
            return
        self._network.scheduler.call_later(delay_ms, action, label="deferred")

    def fail_site(self, tenant: int, site: int, notify_after_ms: float = 0.0) -> None:
        """Crash a site fail-stop; its tenant's listeners hear after ``notify_after_ms``."""
        self._network.fail_site(_node(tenant, site), notify_after_ms)

    def is_failed(self, tenant: int, site: int) -> bool:
        return self._network.is_failed(_node(tenant, site))
