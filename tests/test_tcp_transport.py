"""Tests for the real cross-process TCP transport.

Two in-process :class:`TcpTransport` instances on localhost stand in for two
OS processes (same codec framing, same sockets); the final test runs the
actual two-process example as a subprocess smoke check.
"""

import asyncio
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.messages import AbortMsg, CommitMsg, Envelope
from repro.errors import TransportError
from repro.transport.tcp import Placement, TcpTransport
from repro.vtime import VirtualTime

REPO = Path(__file__).resolve().parent.parent


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def two_addrs():
    return {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}


async def wait_for(predicate, timeout_s: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


class TestTcpTransport:
    def test_delivery_and_fifo_between_transports(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            a.register(0, 0, lambda src, p: None)
            b.register(0, 1, lambda src, p: inbox.append((src, p)))
            await a.start()
            await b.start()
            msgs = [CommitMsg(VirtualTime(i, 0), i) for i in range(20)]
            for m in msgs:
                a.send(0, 0, 1, m)
            await wait_for(lambda: len(inbox) == len(msgs), what="all frames")
            assert [p for _, p in inbox] == msgs  # per-pair FIFO preserved
            assert all(src == 0 for src, _ in inbox)
            assert a.metrics.value("transport.frames_sent") == len(msgs)
            assert b.metrics.value("transport.frames_received") == len(msgs)
            await a.aquiesce(settle_ms=20.0)
            assert a.pending() == 0
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_envelope_payload_crosses_the_wire(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(0, 1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            env = Envelope(
                (CommitMsg(VirtualTime(3, 0), 7), AbortMsg(VirtualTime(4, 0), 8, "x"))
            )
            a.send(0, 0, 1, env)
            await wait_for(lambda: inbox, what="envelope")
            assert inbox[0] == env  # decoded copy, field-for-field equal
            assert inbox[0] is not env
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_local_loopback_crosses_codec(self):
        async def main():
            addrs = two_addrs()
            t = TcpTransport(addrs, local_sites={0, 1})
            inbox = []
            t.register(0, 1, lambda src, p: inbox.append(p))
            await t.start()
            msg = CommitMsg(VirtualTime(5, 0), 9)
            t.send(0, 0, 1, msg)
            assert t.pending() == 1
            await wait_for(lambda: inbox, what="loopback delivery")
            assert inbox[0] == msg
            assert inbox[0] is not msg  # round-tripped through the codec
            await t.stop()

        asyncio.run(main())

    def test_reconnect_delivers_after_server_comes_up(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0}, reconnect_base_ms=10.0)
            inbox = []
            await a.start()
            msg = CommitMsg(VirtualTime(1, 0), 1)
            a.send(0, 0, 1, msg)  # nobody listening yet; frame stays queued
            await asyncio.sleep(0.1)
            assert a.pending() == 1
            b = TcpTransport(addrs, local_sites={1})
            b.register(0, 1, lambda src, p: inbox.append(p))
            await b.start()
            await wait_for(lambda: inbox, what="delivery after reconnect")
            assert inbox == [msg]
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_fail_stop_detection_notifies_listeners(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(
                addrs, local_sites={0}, reconnect_base_ms=5.0, fail_after_ms=150.0
            )
            failed = []
            a.add_failure_listener(0, failed.append)
            await a.start()
            a.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))  # port never answers
            await wait_for(lambda: failed, what="failure declaration")
            assert failed == [1]
            assert a.is_failed(0, 1)
            assert a.pending() == 0  # queued frames dropped on failure
            a.send(0, 0, 1, CommitMsg(VirtualTime(2, 0), 2))  # silently dropped
            assert a.pending() == 0
            await a.stop()

        asyncio.run(main())

    def test_sync_quiesce_raises_toward_aquiesce(self):
        transport = TcpTransport({0: ("127.0.0.1", 1)}, local_sites={0})
        with pytest.raises(TransportError, match="aquiesce"):
            transport.quiesce()

    def test_register_non_local_site_rejected(self):
        transport = TcpTransport(two_addrs(), local_sites={0})
        with pytest.raises(TransportError, match="not local"):
            transport.register(0, 1, lambda src, p: None)

    def test_local_site_without_address_rejected(self):
        with pytest.raises(TransportError, match="no address"):
            TcpTransport({0: ("127.0.0.1", 1)}, local_sites={0, 1})

    def test_send_before_start_outside_loop_rejected(self):
        transport = TcpTransport(two_addrs(), local_sites={0})
        with pytest.raises(TransportError, match="event loop"):
            transport.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))

    def test_stop_flushes_queued_frames(self):
        """stop() must not lose frames that are queued but not yet written.

        Regression for the coalescing write path: a burst of sends followed
        immediately by stop() races the per-peer sender task mid-batch; the
        flush phase of stop() has to wait for the queue to drain before
        closing the writers.
        """

        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(0, 1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            msgs = [CommitMsg(VirtualTime(i, 0), i) for i in range(200)]
            for m in msgs:
                a.send(0, 0, 1, m)
            await a.stop()  # flush=True by default: must drain first
            assert a.pending() == 0
            await wait_for(lambda: len(inbox) == len(msgs), what="flushed frames")
            assert inbox == msgs  # nothing lost, FIFO preserved
            await b.stop()

        asyncio.run(main())

    def test_stop_rejects_sends_while_closing(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            await a.start()
            await a.stop()
            a.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))  # silently dropped
            assert a.pending() == 0

        asyncio.run(main())

    def test_stop_flush_times_out_on_unreachable_peer(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0}, reconnect_base_ms=5.0)
            await a.start()
            a.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))  # nobody listening
            start = time.monotonic()
            await a.stop(flush_timeout_s=0.5)  # must not hang forever
            assert time.monotonic() - start < 5.0

        asyncio.run(main())

    def test_burst_coalesces_into_fewer_writes(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(0, 1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            # Establish the connection first so the burst queues behind a
            # live writer and the sender drains it in batches.
            probe = CommitMsg(VirtualTime(0, 0), 0)
            a.send(0, 0, 1, probe)
            await wait_for(lambda: inbox, what="connection established")
            msgs = [CommitMsg(VirtualTime(i + 1, 0), i + 1) for i in range(500)]
            for m in msgs:
                a.send(0, 0, 1, m)
            await wait_for(lambda: len(inbox) == len(msgs) + 1, what="burst")
            assert inbox == [probe] + msgs  # FIFO survives batching
            sent = a.metrics.value("transport.frames_sent")
            writes = a.metrics.value("transport.writes")
            coalesced = a.metrics.value("transport.frames_coalesced")
            assert sent == len(msgs) + 1
            assert writes < sent  # batching actually happened
            assert coalesced == sent - writes
            assert coalesced > 0
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_tenant_zero_follows_its_placement_override(self):
        async def main():
            addrs = {site: ("127.0.0.1", free_port()) for site in range(3)}
            # Site 1 of tenants 0 and 7 moved from addrs[1] (nobody listens
            # there) to addrs[2]; tenant 0 is no exception.
            moved = {1: addrs[2]}
            placement = Placement(addrs, per_tenant={0: moved, 7: moved})
            x = TcpTransport(addrs, local_sites={0}, placement=placement)
            z = TcpTransport(addrs, local_sites={2}, placement=placement)
            inbox = []
            for tenant in (0, 7):
                z.register(tenant, 1, lambda src, p, t=tenant: inbox.append((t, src, p)))
            with pytest.raises(TransportError, match="not local"):
                z.register(3, 1, lambda src, p: None)  # tenant 3 keeps addrs[1]
            await x.start()
            await z.start()
            msgs = {tenant: CommitMsg(VirtualTime(1, 0), tenant) for tenant in (0, 7)}
            for tenant, msg in msgs.items():
                x.send(tenant, 0, 1, msg)
            await wait_for(lambda: len(inbox) == 2, what="both tenants' frames")
            assert sorted(inbox, key=lambda e: e[0]) == [(0, 0, msgs[0]), (7, 0, msgs[7])]
            await x.stop()
            await z.stop()

        asyncio.run(main())


class TestTransportTelemetry:
    def test_peer_transitions_fire_exactly_once_per_outage(self, tmp_path):
        """The backoff loop retries many times per outage; the transition
        events must be edge-triggered — one ``peer_unreachable`` and one
        ``peer_connected`` per outage, never one per dial attempt."""

        async def main():
            addrs = two_addrs()
            a = TcpTransport(
                addrs, local_sites={0}, reconnect_base_ms=5.0, fail_after_ms=60_000.0
            )
            a.bus.enable()
            inbox = []
            await a.start()

            def counts():
                return (
                    len(a.bus.filter(kind="peer_unreachable")),
                    len(a.bus.filter(kind="peer_connected")),
                )

            # Outage 1: peer not listening yet; several dials must fail.
            a.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))
            await wait_for(
                lambda: a.metrics.value("transport.dial_failures") >= 3,
                what="several failed dial attempts",
            )
            assert counts() == (1, 0)

            b = TcpTransport(addrs, local_sites={1})
            b.register(0, 1, lambda src, p: inbox.append(p))
            await b.start()
            await wait_for(lambda: len(inbox) == 1, what="delivery after outage 1")
            assert counts() == (1, 1)

            # Outage 2: the peer goes down again; a fresh transition pair.
            # A lone write to a freshly-dead connection can land in the
            # kernel buffer without error, so keep sending until the broken
            # pipe surfaces and the re-dial fails.
            await b.stop()
            for attempt in range(500):
                a.send(0, 0, 1, CommitMsg(VirtualTime(2 + attempt, 0), 2))
                if counts()[0] == 2:
                    break
                await asyncio.sleep(0.01)
            assert counts()[0] == 2
            b2 = TcpTransport(addrs, local_sites={1})
            b2.register(0, 1, lambda src, p: inbox.append(p))
            await b2.start()
            await wait_for(lambda: counts()[1] == 2, what="second reconnect")
            assert counts() == (2, 2)
            assert a.metrics.value("transport.peer_unreachable") == 2
            assert a.metrics.value("transport.reconnects") >= 1
            connected = a.bus.filter(kind="peer_connected")
            assert all(e.data["peer"] == 1 for e in connected)

            await a.stop()
            await b2.stop()

        asyncio.run(main())

    def test_traced_events_pair_across_transports(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            a.bus.enable()
            b.bus.enable()
            inbox = []
            a.register(0, 0, lambda src, p: None)
            b.register(0, 1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            for i in range(5):
                a.send(0, 0, 1, CommitMsg(VirtualTime(i + 1, 0), i))
            await wait_for(lambda: len(inbox) == 5, what="all deliveries")
            sent = a.bus.filter(kind="message_sent")
            delivered = b.bus.filter(kind="message_delivered")
            assert [e.data["msg_id"] for e in sent] == [f"0:{i + 1}" for i in range(5)]
            # Every delivery pairs with its send — the cross-process
            # happens-before edges the merged timeline reconstructs.
            assert [e.data["msg_id"] for e in delivered] == [
                e.data["msg_id"] for e in sent
            ]
            assert all(e.data["msg_type"] == "CommitMsg" for e in delivered)
            assert all(str(e.txn_vt) == f"VT({i + 1}@0)" for i, e in enumerate(sent))
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_untraced_transports_emit_nothing(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            inbox = []
            b.register(0, 1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            a.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))
            await wait_for(lambda: inbox, what="delivery")
            # Functional zero-overhead guard: no emission machinery entered.
            assert a.bus._seq == 0 and b.bus._seq == 0
            assert len(a.bus) == 0 and len(b.bus) == 0
            await a.stop()
            await b.stop()

        asyncio.run(main())

    def test_fail_stop_dumps_flight_recorder(self, tmp_path):
        from repro.obs import FlightRecorder

        async def main():
            addrs = two_addrs()
            a = TcpTransport(
                addrs, local_sites={0}, reconnect_base_ms=5.0, fail_after_ms=100.0
            )
            a.flight = FlightRecorder(str(tmp_path / "flight0.jsonl")).attach(a.bus)
            failed = []
            a.add_failure_listener(0, failed.append)
            await a.start()
            a.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))  # port never answers
            await wait_for(lambda: failed, what="fail-stop declaration")
            assert a.flight.dumps == 1
            dump = (tmp_path / "flight0.jsonl").read_text().splitlines()
            import json

            header = json.loads(dump[0])
            assert header["flight"] == "repro-flight/1"
            assert "fail-stop: site 1" in header["reason"]
            # The ring captured the transition events leading up to it.
            kinds = {json.loads(line)["kind"] for line in dump[1:]}
            assert "peer_unreachable" in kinds
            await a.stop()

        asyncio.run(main())


class TestTwoProcessExample:
    def test_two_process_example_converges(self):
        """The CI smoke: two OS processes converge over real TCP."""
        result = subprocess.run(
            [sys.executable, str(REPO / "examples" / "two_process_tcp.py")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK: both processes converged" in result.stdout
        assert "identical state digests" in result.stdout
