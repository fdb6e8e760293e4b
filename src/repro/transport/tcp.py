"""A real TCP transport: DECAF sites in separate OS processes.

Each process runs one :class:`TcpTransport` hosting its *local* sites; all
other site ids in the address map are *remote*.  Frames are length-prefixed
wire-codec payloads (:func:`repro.wire.encode_frame`) on plain asyncio
streams — exactly the per-pair FIFO TCP channels the paper's DECAF
prototype assumed.

Topology and guarantees:

* One listening server per distinct local address; one outbound connection
  per remote site, owned by a sender task.  TCP ordering plus the single
  writer per destination preserves per-pair FIFO.
* **Frame coalescing**: each sender wakeup drains its whole queue (up to
  ``coalesce_max_bytes``) into a single buffered write, so a protocol
  turn's fan-out of small frames costs one syscall instead of one per
  frame.  Frames stay whole and in order; coalescing only batches them.
* **Reconnect with backoff**: a broken or unreachable peer connection is
  retried with exponential backoff (``reconnect_base_ms`` doubling up to
  ``reconnect_max_ms``).  The frame being sent is not lost — the sender
  holds it until a write succeeds.
* **Fail-stop detection**: once a peer has been continuously unreachable
  for ``fail_after_ms``, it is declared failed, registered failure
  listeners fire (feeding the protocol's failure manager), its queued
  frames are dropped, and nothing is ever sent to it again.
* Delivery is decode-then-dispatch: payloads cross the boundary as codec
  bytes, never as live objects, so this transport only carries what the
  wire format can express.

Every site is addressed by a ``(tenant, site)`` pair and routed through
a :class:`Placement`; without one, each tenant's site *i* lives at
``site_addrs[i]`` (the symmetric :class:`~repro.host.SessionHost`
topology).  Synchronous :meth:`quiesce` raises — this transport lives on
an event loop, so use ``await aquiesce()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import TransportError, WireError
from repro.obs.clock import WallClock
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.sample import TraceSampler
from repro.transport.base import (
    DeliveryHandler,
    FailureHandler,
    FailureListeners,
    Transport,
)
from repro.wire.codec import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    TraceContext,
    decode_frame,
    encode_frame,
)

#: A TCP endpoint: (host, port).
Addr = Tuple[str, int]

#: A routing key: (tenant, site).
SiteKey = Tuple[int, int]

#: Bucket bounds (wall-clock ms) for transport latency histograms: dial
#: RTTs and coalesced write flushes sit well under the simulator's
#: 5 ms-floor latency buckets, so these start at 50 µs.
RTT_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)


def _transport_counter(name: str) -> property:
    """A registry-backed int attribute on the transport itself.

    Like :func:`repro.obs.metrics.counter_property` but reading
    ``self.metrics`` directly — a transport is not a site.  Keeps the
    pre-registry attribute API (``transport.frames_sent``, ...) working
    while `repro metrics` and the Prometheus exporter see every counter
    uniformly.
    """

    def _get(self) -> int:
        return self.metrics.value(name)

    def _set(self, value: int) -> None:
        self.metrics.set_counter(name, value)

    return property(_get, _set, doc=f"Registry-backed counter {name!r}.")


def maybe_install_uvloop() -> bool:
    """Install the uvloop event-loop policy when the package is available.

    uvloop is an optional accelerator, never a dependency: this returns
    False (and changes nothing) when it is not importable.  Call before
    ``asyncio.run`` — an already-running loop is not replaced.
    """
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


class Placement:
    """Maps ``(tenant, site)`` routing keys to process addresses.

    The common SessionHost topology is *symmetric*: every tenant's site
    ``i`` lives in the same process as every other tenant's site ``i``,
    described once by ``site_addrs`` (site index → address).  Individual
    tenants can deviate via ``per_tenant`` overrides — e.g. a migrated
    collaboration whose replicas moved to other processes.  Tenant 0 is
    no exception: its overrides apply like any other tenant's.
    """

    def __init__(
        self,
        site_addrs: Dict[int, Addr],
        per_tenant: Optional[Dict[int, Dict[int, Addr]]] = None,
    ) -> None:
        self.site_addrs = dict(site_addrs)
        self.per_tenant: Dict[int, Dict[int, Addr]] = {
            t: dict(m) for t, m in (per_tenant or {}).items()
        }

    def addr_of(self, tenant: int, site: int) -> Optional[Addr]:
        """The endpoint hosting ``site`` of ``tenant`` (None if unknown)."""
        override = self.per_tenant.get(tenant)
        if override is not None and site in override:
            return override[site]
        return self.site_addrs.get(site)

    def sites_at(self, tenant: int, addr: Addr) -> List[int]:
        """Every site of ``tenant`` placed at ``addr`` (failure fan-out)."""
        override = self.per_tenant.get(tenant, {})
        sites = {s for s, a in self.site_addrs.items() if a == addr and s not in override}
        sites.update(s for s, a in override.items() if a == addr)
        return sorted(sites)


class _PeerLink:
    """Outbound state for one remote *address*: frame queue + sender task.

    Keyed by TCP endpoint, not site id, since the multi-tenant rework:
    every site (of every tenant) placed at that address shares this one
    connection, which is what makes a thousand small collaborations cost
    one socket pair per process pair instead of one per site.  Queue
    entries carry their ``(tenant, site)`` destination key so a single
    failed site's frames can still be dropped selectively.
    """

    __slots__ = ("frames", "wakeup", "writer", "task", "writing", "unreachable",
                 "gauge_name", "ever_connected", "dead")

    def __init__(self, label: Any) -> None:
        self.frames: Deque[Tuple[SiteKey, bytes]] = deque()
        self.wakeup = asyncio.Event()
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task: Optional["asyncio.Task"] = None
        #: Number of frames popped into the in-flight coalesced write.
        self.writing = 0
        #: True after a failed dial, False again once connected; stop's
        #: flush phase does not wait for peers known to be down.
        self.unreachable = False
        #: Precomputed metrics name for this peer's queue-depth gauge.
        self.gauge_name = f"transport.peer.{label}.queue_depth"
        #: False until the first successful dial; distinguishes a reconnect
        #: from the initial lazy connection in events and counters.
        self.ever_connected = False
        #: Set when the address is declared failed; the sender task exits.
        self.dead = False


class TcpTransport(Transport):
    """Length-prefixed codec frames over asyncio TCP streams."""

    def __init__(
        self,
        site_addrs: Dict[int, Tuple[str, int]],
        local_sites: Iterable[int],
        reconnect_base_ms: float = 25.0,
        reconnect_max_ms: float = 1000.0,
        fail_after_ms: float = 10_000.0,
        coalesce_max_bytes: int = 64 * 1024,
        sampler: Optional[TraceSampler] = None,
        placement: Optional[Placement] = None,
    ) -> None:
        self.site_addrs = dict(site_addrs)
        self.local_sites: Set[int] = set(local_sites)
        for site in self.local_sites:
            if site not in self.site_addrs:
                raise TransportError(f"local site {site} has no address")
        #: Where every (tenant, site) lives; the default is symmetric: each
        #: tenant's site *i* is at ``site_addrs[i]``.
        self.placement = placement if placement is not None else Placement(self.site_addrs)
        #: Addresses this process listens on (loopback short-circuit).
        self._local_addrs: Set[Addr] = {self.site_addrs[s] for s in self.local_sites}
        self.reconnect_base_ms = reconnect_base_ms
        self.reconnect_max_ms = reconnect_max_ms
        self.fail_after_ms = fail_after_ms
        #: High-water mark for one coalesced write: a sender wakeup batches
        #: queued frames until the buffered write would exceed this.
        self.coalesce_max_bytes = coalesce_max_bytes
        self._handlers: Dict[SiteKey, DeliveryHandler] = {}
        #: Cross-tenant isolation: a notice for tenant A's site never
        #: reaches tenant B's listeners.
        self._listeners = FailureListeners()
        self._failed: Set[SiteKey] = set()
        self._failed_addrs: Set[Addr] = set()
        self._links: Dict[Addr, _PeerLink] = {}
        self._servers: List["asyncio.base_events.Server"] = []
        #: Accepted (inbound) connections; closed on stop() so peers see
        #: the outage instead of writing into a stopped transport.
        self._inbound: Set[asyncio.StreamWriter] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Monotonic wall-clock source; ``now()`` readings and event
        #: timestamps come from here (repro.obs.clock).
        self.clock = WallClock()
        self._local_pending = 0
        self._dispatching = 0
        self._stopped = False
        self._closing = False
        #: The protocol event bus.  Sessions built over this transport
        #: share it (Session reads ``transport.bus``), so transport events
        #: (message_sent/message_delivered, peer transitions) land on the
        #: same timeline as the protocol lifecycle events.  Starts idle:
        #: with no recorder and no subscribers every emission guard is one
        #: attribute load and one branch.
        self.bus = EventBus()
        #: Transport-level metrics (site -1: not owned by any one site).
        self.metrics = MetricsRegistry(site=-1)
        self.metrics.histogram("transport.connect_rtt_ms", RTT_BUCKETS_MS)
        self.metrics.histogram("transport.write_flush_ms", RTT_BUCKETS_MS)
        #: Optional :class:`repro.obs.flight.FlightRecorder`; when set, a
        #: postmortem ring-buffer dump is written the moment a peer is
        #: declared failed.
        self.flight = None
        #: The site this process reports transport-level events under (the
        #: lowest local site id): per-process program order in a merged
        #: cross-process timeline must never interleave two processes.  It
        #: is also the ``origin`` of every trace header this process
        #: writes: distinct processes host distinct site indices, so it
        #: names the process whatever tenant-local site is sending.
        self._obs_site = min(self.local_sites)
        #: Per-process sequence for traced sends; with the origin it forms
        #: the cross-process ``msg_id`` (``TraceContext.msg_id``), unique
        #: across every tenant this process hosts.
        self._msg_seq = 0
        #: Optional head-based trace sampler (repro.obs.sample).  None
        #: keeps the pre-sampling behavior: every traced frame is
        #: recorded.  With a sampler, the *origin* transport decides per
        #: trace id; the decision rides the frame's TraceContext so every
        #: receiving process records or skips the same transaction.
        self.sampler = sampler

    #: Frames successfully written to / read from peer sockets, socket
    #: writes issued, and frames that shared a write with an earlier frame
    #: (``frames_sent - writes``).  Registry-backed since the telemetry
    #: rework (`repro metrics` and the Prometheus exporter enumerate them);
    #: the attribute API is unchanged.
    frames_sent = _transport_counter("transport.frames_sent")
    frames_received = _transport_counter("transport.frames_received")
    writes = _transport_counter("transport.writes")
    frames_coalesced = _transport_counter("transport.frames_coalesced")
    #: Reconnect/backoff telemetry (also registry-backed).
    dial_attempts = _transport_counter("transport.dial_attempts")
    dial_failures = _transport_counter("transport.dial_failures")
    reconnects = _transport_counter("transport.reconnects")
    peer_unreachable_transitions = _transport_counter("transport.peer_unreachable")
    peers_failed = _transport_counter("transport.peers_failed")
    #: Trace-sampling tallies: sends whose trace the local sampler head-
    #: dropped, and deliveries skipped because the *origin's* in-band
    #: decision was drop (the only per-frame cost of a sampled-out trace).
    sends_sampled_out = _transport_counter("transport.sends_sampled_out")
    deliveries_sampled_out = _transport_counter("transport.deliveries_sampled_out")
    #: Inbound frames whose (tenant, site) destination has no registered
    #: handler — e.g. delivered after tenant eviction.  Dropped, never
    #: raised: eviction must not crash the shared connection.
    frames_dropped_unrouted = _transport_counter("transport.frames_dropped_unrouted")

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------

    def register(self, tenant: int, site: int, handler: DeliveryHandler) -> None:
        if self.placement.addr_of(tenant, site) not in self._local_addrs:
            raise TransportError(
                f"site {site} of tenant {tenant} is not local to this process "
                f"(local addresses: {sorted(self._local_addrs)})"
            )
        self._handlers[(tenant, site)] = handler

    def unregister(self, tenant: int, site: int) -> None:
        self._handlers.pop((tenant, site), None)

    def add_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        self._listeners.add(tenant, handler)

    def remove_failure_listener(self, tenant: int, handler: FailureHandler) -> None:
        self._listeners.remove(tenant, handler)

    def now(self) -> float:
        return self.clock.now_ms()

    def is_failed(self, tenant: int, site: int) -> bool:
        if (tenant, site) in self._failed:
            return True
        if not self._failed_addrs:
            return False
        return self.placement.addr_of(tenant, site) in self._failed_addrs

    def _peer_label(self, addr: Addr) -> Any:
        """Human-facing identity of a peer address for events and gauges.

        The classic one-site-per-address topology keeps its site-id labels
        (``transport.peer.1.queue_depth``); shared addresses fall back to
        ``host:port``.
        """
        sites = [s for s, a in self.site_addrs.items() if a == addr]
        if len(sites) == 1:
            return sites[0]
        return f"{addr[0]}:{addr[1]}"

    def _trace_for(
        self, tenant: int, src: int, dst: int, payload: Any
    ) -> Optional[TraceContext]:
        """Build the frame trace header and emit ``message_sent``.

        Only called when the bus is active: untraced processes write
        frames without a trace header and pay nothing.
        """
        self._msg_seq += 1
        seq = self._msg_seq
        origin = self._obs_site
        txn_vt = getattr(payload, "txn_vt", None)
        # __dict__ construction skips the frozen-dataclass setattr walk;
        # this header is built per frame on the send hot path.  The trace
        # id is the bare "counter@site" of the transaction VT (shorter to
        # build and to wire-encode than the VT repr), "" for control
        # messages with no transaction.
        trace_id = f"{txn_vt.counter}@{txn_vt.site}" if txn_vt is not None else ""
        trace = object.__new__(TraceContext)
        fields = trace.__dict__
        fields["origin"] = origin
        fields["trace_id"] = trace_id
        fields["parent_span"] = seq
        sampler = self.sampler
        if sampler is not None and not sampler.sample(trace_id):
            # Head-dropped at the origin: the decision still rides the
            # frame so downstream processes skip their deliveries too.
            # No event is built (the bounded-cost contract bench_obs
            # gates) unless record_dropped marks the send for debugging.
            fields["sampled"] = False
            self.metrics.inc("transport.sends_sampled_out")
            if sampler.record_dropped:
                self.bus.emit_event(
                    "message_sent",
                    src,
                    self.clock.now_ms(),
                    txn_vt,
                    {
                        "tenant": tenant,
                        "dst": dst,
                        "msg_type": type(payload).__name__,
                        "msg_id": f"{origin}:{seq}",
                        "sampled": False,
                    },
                )
            return trace
        fields["sampled"] = True
        # No "payload" ref in the data dict (unlike the simulator's sender):
        # nothing subscribes for payloads on the real-socket path, exports
        # skip the key anyway, and retaining every message would pin the
        # payload objects in memory for the life of the recording.
        self.bus.emit_event(
            "message_sent",
            src,
            self.clock.now_ms(),
            txn_vt,
            {
                "tenant": tenant,
                "dst": dst,
                "msg_type": type(payload).__name__,
                "msg_id": f"{origin}:{seq}",
            },
        )
        return trace

    def send(self, tenant: int, src: int, dst: int, payload: Any) -> None:
        if (
            self._stopped
            or self._closing
            or (tenant, src) in self._failed
            or (tenant, dst) in self._failed
        ):
            return
        addr = self.placement.addr_of(tenant, dst)
        if addr is None:
            raise TransportError(f"destination site {dst} of tenant {tenant} has no address")
        if addr in self._failed_addrs:
            return
        trace = self._trace_for(tenant, src, dst, payload) if self.bus.active else None
        # Local loopback still crosses the codec so every payload is
        # provably wire-expressible regardless of site placement.
        frame = encode_frame(src, dst, payload, trace, tenant)
        if addr in self._local_addrs:
            self._local_pending += 1
            self._require_loop().call_soon(self._deliver_local, frame)
            return
        link = self._links.get(addr)
        if link is None:
            link = _PeerLink(self._peer_label(addr))
            self._links[addr] = link
            link.task = self._require_loop().create_task(self._run_peer(addr, link))
        link.frames.append(((tenant, dst), frame))
        link.wakeup.set()

    def defer(self, action, delay_ms: float = 0.0, site=None) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            action()
            return
        if delay_ms > 0:
            loop.call_later(delay_ms / 1000.0, action)
        else:
            loop.call_soon(action)

    def pending(self) -> int:
        return (
            self._local_pending
            + self._dispatching
            + sum(len(link.frames) + link.writing for link in self._links.values())
        )

    def quiesce(self, max_events: Optional[int] = None) -> int:
        """Event-loop transports cannot drain synchronously."""
        raise TransportError(
            "TcpTransport delivers on the event loop; use `await aquiesce()` "
            "instead of the synchronous quiesce()"
        )

    async def aquiesce(self, settle_ms: float = 50.0) -> None:
        """Wait until local delivery and outbound writes drain, then settle.

        Only covers *this* process: a peer may still be processing frames we
        already wrote.  Cross-process convergence needs an application-level
        check (compare state digests), which the two-process example does.
        """

        def idle() -> bool:
            return self.pending() == 0

        while True:
            if idle():
                await asyncio.sleep(settle_ms / 1000.0)
                if idle():
                    return
            else:
                await asyncio.sleep(0.005)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind listening servers for the local sites; call inside the loop."""
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        bound: Set[Tuple[str, int]] = set()
        for site in sorted(self.local_sites):
            addr = self.site_addrs[site]
            if addr in bound:
                continue
            bound.add(addr)
            self._servers.append(
                await asyncio.start_server(self._serve_connection, addr[0], addr[1])
            )

    async def stop(self, flush: bool = True, flush_timeout_s: float = 5.0) -> None:
        """Close servers, sender tasks, and peer connections.

        With ``flush`` (the default), frames already accepted by
        :meth:`send` are written out first: new sends are rejected, then
        the sender tasks get up to ``flush_timeout_s`` to drain their
        queues and in-flight coalesced writes to every *connected* peer.
        Frames queued for a peer that is down (reconnecting) are not
        waited for — they are dropped exactly as before.  ``flush=False``
        restores the old hard-stop behaviour.
        """
        self._closing = True
        if flush:
            loop = self._loop or asyncio.get_running_loop()
            deadline = loop.time() + flush_timeout_s

            def unflushed() -> bool:
                return any(
                    (link.frames or link.writing)
                    and not link.unreachable
                    and not link.dead
                    for link in self._links.values()
                )

            while unflushed() and loop.time() < deadline:
                await asyncio.sleep(0.005)
        self._stopped = True
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        # server.close() only stops listening; sever accepted connections
        # too so still-running peers observe the outage promptly.
        for writer in list(self._inbound):
            with contextlib.suppress(Exception):
                writer.close()
        self._inbound.clear()
        for link in self._links.values():
            if link.task is not None:
                link.task.cancel()
        for link in self._links.values():
            if link.task is not None:
                try:
                    await link.task
                except asyncio.CancelledError:
                    pass
            if link.writer is not None:
                link.writer.close()
                link.writer = None
        self._links.clear()

    def fail_site(self, tenant: int, site: int) -> None:
        """Administratively declare ``site`` of ``tenant`` failed (tests / orchestration)."""
        self._fail_pair(tenant, site)

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._inbound.add(writer)
        try:
            while True:
                header = await reader.readexactly(FRAME_HEADER_BYTES)
                length = int.from_bytes(header, "big")
                if length > MAX_FRAME_BYTES:
                    raise WireError(f"inbound frame of {length} bytes exceeds limit")
                body = await reader.readexactly(length)
                self.metrics.inc("transport.frames_received")
                tenant, src, dst, payload, trace = decode_frame(body)
                self._dispatch(tenant, src, dst, payload, trace)
        except asyncio.CancelledError:
            pass  # transport stopping / event loop shutting down
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            pass  # peer went away; its sender will reconnect if it returns
        finally:
            self._inbound.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    def _deliver_local(self, frame: bytes) -> None:
        self._local_pending -= 1
        # memoryview: the decoder cursors over the frame without copying it
        tenant, src, dst, payload, trace = decode_frame(
            memoryview(frame)[FRAME_HEADER_BYTES:]
        )
        self._dispatch(tenant, src, dst, payload, trace)

    def _dispatch(
        self,
        tenant: int,
        src: int,
        dst: int,
        payload: Any,
        trace: Optional[TraceContext] = None,
    ) -> None:
        handler = self._handlers.get((tenant, dst))
        if handler is None:
            # Evicted (or never-hosted) destination: the shared connection
            # must survive stray frames, so drop and count.
            self.metrics.inc("transport.frames_dropped_unrouted")
            return
        if (tenant, src) in self._failed or (tenant, dst) in self._failed:
            return
        if trace is not None and self.bus.active and not trace.sampled:
            # The origin head-dropped this trace: honor its in-band
            # decision so a sampled run records complete span trees for
            # exactly the sampled transactions, nothing partial.
            self.metrics.inc("transport.deliveries_sampled_out")
        elif trace is not None and self.bus.active:
            # Pairs with the sender process's message_sent via the trace
            # header's msg_id — the cross-process happens-before edge the
            # merged timeline (repro.obs.merge) reconstructs.
            self.bus.emit_event(
                "message_delivered",
                dst,
                self.clock.now_ms(),
                getattr(payload, "txn_vt", None),
                {
                    "tenant": tenant,
                    "src": src,
                    "msg_type": type(payload).__name__,
                    # inline trace.msg_id: no property hop on the hot path
                    "msg_id": f"{trace.origin}:{trace.parent_span}",
                },
            )
        self._dispatching += 1
        try:
            handler(src, payload)
        finally:
            self._dispatching -= 1

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------

    async def _run_peer(self, addr: Addr, link: _PeerLink) -> None:
        host, port = addr
        frames = link.frames
        while not self._stopped and not link.dead:
            if not frames:
                if self._closing:
                    return  # queue drained and no new sends can arrive
                link.wakeup.clear()
                await link.wakeup.wait()
                continue
            if link.writer is None and not await self._connect(addr, link, host, port):
                return  # peer declared failed
            # Coalesce: drain the queue into one buffered write, bounded by
            # the high-water mark so a burst cannot buffer without limit.
            # Frames whose destination site failed after queuing are
            # skipped (the shared link still serves the address's other
            # sites and tenants).
            batch: List[Tuple[SiteKey, bytes]] = []
            size = 0
            while frames and size < self.coalesce_max_bytes:
                key, frame = frames.popleft()
                if key in self._failed:
                    continue
                batch.append((key, frame))
                size += len(frame)
            if not batch:
                continue
            link.writing = len(batch)
            metrics = self.metrics
            metrics.gauge(link.gauge_name, len(frames))
            try:
                writer = link.writer
                assert writer is not None
                flush_start = time.monotonic()
                if len(batch) > 1:
                    writer.write(b"".join(frame for _key, frame in batch))
                else:
                    writer.write(batch[0][1])
                await writer.drain()
            except (ConnectionError, OSError):
                # Requeue the whole batch in order; the next iteration
                # reconnects and resends (per-pair FIFO is preserved).
                frames.extendleft(reversed(batch))
                link.writing = 0
                self._close_writer(link)
                continue
            except asyncio.CancelledError:
                # Stopped mid-write: the bytes are already buffered on the
                # transport and close() flushes them, so count the batch
                # sent rather than silently dropping it from the books.
                link.writing = 0
                metrics.inc("transport.frames_sent", len(batch))
                raise
            link.writing = 0
            metrics.inc("transport.frames_sent", len(batch))
            metrics.inc("transport.writes")
            metrics.inc("transport.frames_coalesced", len(batch) - 1)
            metrics.observe(
                "transport.write_flush_ms",
                (time.monotonic() - flush_start) * 1000.0,
                RTT_BUCKETS_MS,
            )

    async def _connect(self, addr: Addr, link: _PeerLink, host: str, port: int) -> bool:
        """Dial ``addr`` with exponential backoff; False once declared failed.

        Telemetry here is **edge-triggered**: the backoff loop retries many
        times per outage, but ``peer_unreachable`` fires only on the
        reachable→unreachable transition and ``peer_connected`` only when a
        dial actually succeeds — exactly one event per transition, never
        one per retry.
        """
        backoff_ms = self.reconnect_base_ms
        down_since = time.monotonic()
        while not self._stopped:
            try:
                self.metrics.inc("transport.dial_attempts")
                dial_start = time.monotonic()
                _, writer = await asyncio.open_connection(host, port)
            except (ConnectionError, OSError):
                self.metrics.inc("transport.dial_failures")
                if not link.unreachable:
                    link.unreachable = True
                    self.metrics.inc("transport.peer_unreachable")
                    if self.bus.active:
                        self.bus.emit(
                            "peer_unreachable",
                            site=self._obs_site,
                            time_ms=self.now(),
                            peer=self._peer_label(addr),
                        )
                if (time.monotonic() - down_since) * 1000.0 >= self.fail_after_ms:
                    self._fail_addr(addr)
                    return False
                await asyncio.sleep(backoff_ms / 1000.0)
                backoff_ms = min(backoff_ms * 2, self.reconnect_max_ms)
                continue
            link.writer = writer
            was_down = link.unreachable or link.ever_connected
            link.unreachable = False
            self.metrics.observe(
                "transport.connect_rtt_ms",
                (time.monotonic() - dial_start) * 1000.0,
                RTT_BUCKETS_MS,
            )
            if was_down:
                # A re-dial after an outage or a broken connection — the
                # initial lazy connect is not a "reconnect".
                self.metrics.inc("transport.reconnects")
            link.ever_connected = True
            if self.bus.active:
                self.bus.emit(
                    "peer_connected",
                    site=self._obs_site,
                    time_ms=self.now(),
                    peer=self._peer_label(addr),
                    reconnect=was_down,
                )
            return True
        return False

    def _close_writer(self, link: _PeerLink) -> None:
        if link.writer is not None:
            link.writer.close()
            link.writer = None

    def _fail_addr(self, addr: Addr) -> None:
        """Declare every site placed at ``addr`` failed (fail-stop detection).

        The whole process behind the address is gone, so the notice fans
        out per listening tenant: each gets its own local site ids and
        nothing else.  Sends to any tenant's site at ``addr`` stop either
        way (:meth:`is_failed` consults the failed addresses).
        """
        if addr in self._failed_addrs:
            return
        self._failed_addrs.add(addr)
        link = self._links.get(addr)
        if link is not None:
            link.dead = True
            link.frames.clear()
            link.wakeup.set()  # let the sender loop observe the failure and exit
            self._close_writer(link)
        for tenant in self._listeners:
            for site in self.placement.sites_at(tenant, addr):
                self._fail_pair(tenant, site)

    def _fail_pair(self, tenant: int, site: int) -> None:
        """Declare one (tenant, site) failed; notify that tenant only."""
        key = (tenant, site)
        if key in self._failed:
            return
        self._failed.add(key)
        self.metrics.inc("transport.peers_failed")
        addr = self.placement.addr_of(tenant, site)
        link = self._links.get(addr) if addr is not None else None
        if link is not None and not link.dead and link.frames:
            # Drop only this destination's queued frames; the shared link
            # keeps serving the address's other sites and tenants.  Mutate
            # in place — the sender task holds a reference to the deque.
            kept = [entry for entry in link.frames if entry[0] != key]
            if len(kept) != len(link.frames):
                link.frames.clear()
                link.frames.extend(kept)
            link.wakeup.set()
        self._listeners.notify(tenant, site)
        if self.flight is not None:
            # Postmortem: the ring buffer of recent events, dumped the
            # moment fail-stop detection fires (repro.obs.flight).
            self.flight.dump(f"fail-stop: site {site} of tenant {tenant} declared failed")

    # ------------------------------------------------------------------

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is not None:
            return self._loop
        try:
            return asyncio.get_running_loop()
        except RuntimeError:
            raise TransportError(
                "TcpTransport.start() must run inside the event loop before sends"
            ) from None

    def __repr__(self) -> str:
        return (
            f"TcpTransport(local={sorted(self.local_sites)}, "
            f"peers={sorted(set(self.site_addrs) - self.local_sites)}, "
            f"pending={self.pending()})"
        )
