"""Per-destination message coalescing (the batched message plane).

Every protocol send from a site funnels through its :class:`Outbox`.
Outside a *turn* the outbox is transparent: each message goes straight to
the transport, exactly as before.  Inside a turn — one protocol step such
as dispatching an incoming frame or running a transaction to its fan-out —
messages are buffered, then flushed when the outermost turn ends: all
messages bound for the same destination leave in **one**
:class:`~repro.core.messages.Envelope` frame.

This is where the fan-out savings come from: a commit that must notify N
peers about K objects, a view manager confirming a batch of snapshot
checks, or an eager write-confirm broadcast all collapse to one frame per
peer instead of one frame per message.

Guarantees:

* **Per-pair FIFO is preserved.**  The buffer keeps first-seen destination
  order and within-destination message order; the receiver unpacks an
  envelope's messages in order before any later frame.  Coalescing only
  ever *removes* interleavings with other destinations' traffic, which the
  protocol never relied on.
* **Disabled means invisible.**  ``auto_turn`` is a no-op unless batching
  was enabled for the site, and a destination with exactly one buffered
  message gets the bare payload, not a one-element envelope — so with
  batching off, the byte stream and simulator event sequence are identical
  to a build without this module.

Metrics (per-site registry): ``wire.messages_sent`` counts protocol
messages handed to the outbox, ``wire.envelopes_sent`` counts transport
frames actually emitted, ``wire.messages_batched`` counts messages that
travelled inside a multi-message envelope.  The ``envelopes_sent`` /
``messages_sent`` ratio is the batching win.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.core.messages import Envelope
from repro.obs.metrics import counter_property

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.site import SiteRuntime


class Outbox:
    """Buffers a site's outgoing messages and flushes them per destination."""

    def __init__(self, site: "SiteRuntime", enabled: bool = False) -> None:
        self.site = site
        #: When False, ``auto_turn`` does not open a batching window and
        #: every send is immediate — the seed behaviour.  Explicit
        #: ``turn()`` windows batch regardless (used by ``Session.batched``).
        self.enabled = enabled
        self._depth = 0
        self._buffer: List[Tuple[int, Any]] = []

    messages_sent = counter_property(
        "wire.messages_sent", "Protocol messages handed to the outbox."
    )
    envelopes_sent = counter_property(
        "wire.envelopes_sent", "Transport frames actually emitted."
    )
    messages_batched = counter_property(
        "wire.messages_batched", "Messages that shared a multi-message envelope."
    )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        """Send ``payload`` to ``dst`` now, or buffer it if a turn is open."""
        if self._depth > 0:
            self._buffer.append((dst, payload))
            return
        self.messages_sent += 1
        self.envelopes_sent += 1
        self.site.transport.send(self.site.tenant, self.site.site_id, dst, payload)

    # ------------------------------------------------------------------
    # Turn windows
    # ------------------------------------------------------------------

    def begin_turn(self) -> None:
        self._depth += 1

    def end_turn(self) -> None:
        if self._depth <= 0:
            raise RuntimeError("Outbox.end_turn without matching begin_turn")
        self._depth -= 1
        if self._depth == 0 and self._buffer:
            self._flush()

    @contextlib.contextmanager
    def turn(self):
        """An explicit batching window (flushes when the outermost closes)."""
        self.begin_turn()
        try:
            yield self
        finally:
            self.end_turn()

    @contextlib.contextmanager
    def auto_turn(self):
        """A batching window around one protocol step — no-op when disabled.

        Wrapped around message dispatch and transaction runs by the site
        runtime; keeping it inert when batching is off means the default
        configuration reproduces the seed's message flow exactly.
        """
        if not self.enabled:
            yield self
            return
        self.begin_turn()
        try:
            yield self
        finally:
            self.end_turn()

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        buffered, self._buffer = self._buffer, []
        site = self.site
        if len(buffered) == 1:
            # The overwhelmingly common turn outcome — one reply to one
            # destination — skips the grouping dict entirely.
            dst, payload = buffered[0]
            self.messages_sent += 1
            self.envelopes_sent += 1
            site.transport.send(site.tenant, site.site_id, dst, payload)
            return
        groups: Dict[int, List[Any]] = {}
        setdefault = groups.setdefault
        for dst, payload in buffered:  # first-seen destination order
            setdefault(dst, []).append(payload)
        transport_send = site.transport.send
        tenant = site.tenant
        site_id = site.site_id
        for dst, msgs in groups.items():
            count = len(msgs)
            self.messages_sent += count
            self.envelopes_sent += 1
            if count == 1:
                transport_send(tenant, site_id, dst, msgs[0])
                continue
            self.messages_batched += count
            if site.bus.active:
                site.bus.emit(
                    "envelope_sent",
                    site=site_id,
                    time_ms=site.transport.now(),
                    dst=dst,
                    count=count,
                )
            transport_send(tenant, site_id, dst, Envelope(tuple(msgs)))

    def __repr__(self) -> str:
        return (
            f"Outbox(site={self.site.site_id}, enabled={self.enabled}, "
            f"depth={self._depth}, buffered={len(self._buffer)})"
        )
