"""A synchronous in-process transport with zero latency.

Messages are appended to a FIFO queue and drained iteratively (never
recursively), so handler code can freely send further messages without
unbounded stack growth.  Draining is triggered automatically after each
``send`` unless a drain is already in progress, which gives tests simple
"everything delivered by the time send returns" semantics while still
exercising the asynchronous structure of the protocol.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Set, Tuple

from repro.errors import TransportError
from repro.transport.base import DeliveryHandler, FailureHandler, FailureListeners, Transport

#: A routing key: (tenant, site).
SiteKey = Tuple[int, int]


class MemoryTransport(Transport):
    """Zero-latency FIFO transport for protocol-logic unit tests."""

    def __init__(self, auto_drain: bool = True) -> None:
        self._handlers: Dict[SiteKey, DeliveryHandler] = {}
        self._queue: Deque[Tuple[int, int, int, Any]] = deque()
        self._listeners = FailureListeners()
        self._failed: Set[SiteKey] = set()
        self._draining = False
        self._auto_drain = auto_drain
        self._clock_ms = 0.0
        self.messages_sent = 0

    def register(self, tenant: int, site: int, handler: DeliveryHandler) -> None:
        self._handlers[(tenant, site)] = handler

    def unregister(self, tenant: int, site: int) -> None:
        """Detach the site's handler; queued messages to it are dropped on drain."""
        self._handlers.pop((tenant, site), None)

    def add_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        self._listeners.add(tenant, handler)

    def remove_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        self._listeners.remove(tenant, handler)

    def now(self) -> float:
        return self._clock_ms

    def advance(self, ms: float) -> None:
        """Move the fake clock forward (latency is still zero)."""
        self._clock_ms += ms

    def send(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        if (tenant, dst) not in self._handlers:
            raise TransportError(f"destination site {dst} of tenant {tenant} is not registered")
        self.messages_sent += 1
        if (tenant, src) in self._failed or (tenant, dst) in self._failed:
            return
        self._queue.append((tenant, src, dst, payload))
        if self._auto_drain:
            self.drain()

    def pending(self) -> int:
        return len(self._queue)

    def quiesce(self, max_events=None) -> int:
        """Deliver everything queued (``max_events`` is moot: drain is total)."""
        return self.drain()

    def is_failed(self, tenant: int, site: int) -> bool:
        return (tenant, site) in self._failed

    def drain(self) -> int:
        """Deliver all queued messages; returns the number delivered."""
        if self._draining:
            return 0
        self._draining = True
        delivered = 0
        failed = self._failed
        try:
            while self._queue:
                tenant, src, dst, payload = self._queue.popleft()
                if (tenant, src) in failed or (tenant, dst) in failed:
                    continue
                handler = self._handlers.get((tenant, dst))
                if handler is None:
                    # Destination evicted after the send was accepted
                    # (SessionHost tenant eviction): drop, never raise.
                    continue
                handler(src, payload)
                delivered += 1
        finally:
            self._draining = False
        return delivered

    def fail_site(self, tenant: int, site: int) -> None:
        """Crash a site fail-stop and notify its tenant's listeners synchronously."""
        if (tenant, site) in self._failed:
            return
        self._failed.add((tenant, site))
        self._listeners.notify(tenant, site)
        if self._auto_drain:
            self.drain()
