"""Tests for the in-process transports: memory and sim (TCP has its own file)."""

import pytest

from repro.errors import TransportError
from repro.sim import FixedLatency, Network, Scheduler
from repro.transport import MemoryTransport, SimTransport


class TestMemoryTransport:
    def test_synchronous_delivery(self):
        transport = MemoryTransport()
        inbox = []
        transport.register(0, 1, lambda src, p: inbox.append((src, p)))
        transport.send(0, 0, 1, "hi")
        assert inbox == [(0, "hi")]

    def test_handler_can_send_without_recursion(self):
        transport = MemoryTransport()
        log = []

        def ping(src, payload):
            log.append(payload)
            if payload < 1000:
                transport.send(0, 1, 1, payload + 1)

        transport.register(0, 1, ping)
        transport.send(0, 0, 1, 0)  # would blow the stack if recursive
        assert len(log) == 1001

    def test_manual_drain_mode(self):
        transport = MemoryTransport(auto_drain=False)
        inbox = []
        transport.register(0, 1, lambda src, p: inbox.append(p))
        transport.send(0, 0, 1, "a")
        transport.send(0, 0, 1, "b")
        assert inbox == []
        assert transport.drain() == 2
        assert inbox == ["a", "b"]

    def test_unknown_destination(self):
        transport = MemoryTransport()
        with pytest.raises(TransportError):
            transport.send(0, 0, 9, "?")

    def test_fail_site_blocks_traffic_and_notifies(self):
        transport = MemoryTransport()
        inbox, notices = [], []
        transport.register(0, 1, lambda src, p: inbox.append(p))
        transport.register(0, 2, lambda src, p: inbox.append(p))
        transport.add_failure_listener(0, notices.append)
        transport.fail_site(0, 1)
        transport.send(0, 0, 1, "lost")
        transport.send(0, 1, 2, "also lost")
        assert inbox == []
        assert notices == [1]

    def test_clock_advance(self):
        transport = MemoryTransport()
        assert transport.now() == 0.0
        transport.advance(12.5)
        assert transport.now() == 12.5


class TestSimTransport:
    def test_wraps_network(self):
        sched = Scheduler()
        net = Network(sched, latency=FixedLatency(30.0))
        transport = SimTransport(net)
        inbox = []
        transport.register(0, 1, lambda src, p: inbox.append((p, sched.now)))
        transport.send(0, 0, 1, "x")
        sched.run_until_quiescent()
        assert inbox == [("x", 30.0)]
        assert transport.now() == 30.0

    def test_defer_schedules_on_scheduler(self):
        sched = Scheduler()
        transport = SimTransport(Network(sched))
        log = []
        transport.defer(lambda: log.append(sched.now))
        assert log == []
        sched.run_until_quiescent()
        assert log == [0.0]

    def test_failure_listener_via_network(self):
        sched = Scheduler()
        net = Network(sched)
        transport = SimTransport(net)
        transport.register(0, 0, lambda s, p: None)
        transport.register(0, 1, lambda s, p: None)
        notices = []
        transport.add_failure_listener(0, notices.append)
        net.fail_site(1)
        sched.run_until_quiescent()
        assert notices == [1]


def _memory():
    transport = MemoryTransport()
    return transport, transport.drain


def _sim():
    sched = Scheduler()
    transport = SimTransport(Network(sched, latency=FixedLatency(5.0)))
    return transport, sched.run_until_quiescent


@pytest.mark.parametrize("make", [_memory, _sim], ids=["memory", "sim"])
class TestTenantAddressing:
    def test_same_site_ids_in_two_tenants_stay_apart(self, make):
        transport, drain = make()
        inbox = []
        for tenant in (0, 7):
            for site in (0, 1):
                transport.register(
                    tenant, site, lambda src, p, t=tenant: inbox.append((t, src, p))
                )
        transport.send(7, 1, 0, "seven")
        transport.send(0, 1, 0, "zero")
        drain()
        # Handlers see tenant-local source ids, whatever the tenant.
        assert sorted(inbox) == [(0, 1, "zero"), (7, 1, "seven")]

    def test_failure_notice_reaches_only_its_tenant(self, make):
        transport, drain = make()
        notices = {0: [], 7: []}
        for tenant in (0, 7):
            transport.register(tenant, 1, lambda src, p: None)
            transport.add_failure_listener(tenant, notices[tenant].append)
        transport.fail_site(7, 1)
        drain()
        assert notices == {0: [], 7: [1]}
        assert transport.is_failed(7, 1) and not transport.is_failed(0, 1)

    def test_removed_listener_hears_nothing(self, make):
        transport, drain = make()
        notices = []
        transport.register(3, 1, lambda src, p: None)
        transport.add_failure_listener(3, notices.append)
        transport.remove_failure_listener(3, notices.append)
        transport.fail_site(3, 1)
        drain()
        assert notices == []
