"""Tests for the multi-tenant SessionHost over (tenant, site) addressing.

Covers the roster/add_site edge cases that only exist under multiplexing:
duplicate site ids across tenants, eviction while messages are in flight
(and the routing state it must release), cross-tenant isolation of
failure notifications, and tenant 0 as an ordinary tenant.
"""

import pytest

from repro import DInt, Placement, Session, SessionHost
from repro.errors import ReproError
from repro.sim.network import FixedLatency, Network
from repro.sim.scheduler import Scheduler
from repro.transport import MemoryTransport, SimTransport, TcpTransport


def sim_transport(latency_ms: float = 10.0, seed: int = 0) -> SimTransport:
    scheduler = Scheduler()
    return SimTransport(Network(scheduler, latency=FixedLatency(latency_ms), seed=seed))


class TestDuplicateSiteIdsAcrossTenants:
    def test_same_site_ids_do_not_collide(self):
        transport = MemoryTransport()
        host = SessionHost(transport, local_sites=(0, 1), roster=(0, 1))
        s1 = host.tenant(1)
        s2 = host.tenant(2)
        # Both tenants use site ids 0 and 1 — the classic collision the
        # tenant namespace must prevent.
        assert [s.site_id for s in s1.sites] == [0, 1]
        assert [s.site_id for s in s2.sites] == [0, 1]
        a1, b1 = s1.replicate(DInt, "x", s1.sites, initial=10)
        a2, b2 = s2.replicate(DInt, "x", s2.sites, initial=20)
        s1.sites[0].transact(lambda: a1.set(11))
        s2.sites[0].transact(lambda: a2.set(22))
        host.settle()
        assert (b1.get(), b2.get()) == (11, 22)
        # Same names, same site ids, fully isolated state.
        assert a1.get() != a2.get()

    def test_duplicate_within_one_tenant_still_rejected(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        session = host.tenant(1)
        with pytest.raises(ReproError, match="already exists"):
            session.add_site("again", site_id=0)


class TestEvictionInFlight:
    def test_eviction_drops_in_flight_frames_without_crashing(self):
        sim = sim_transport()
        host = SessionHost(sim, local_sites=(0, 1), roster=(0, 1))
        doomed = host.tenant(5)
        survivor = host.tenant(6)
        d0, d1 = doomed.replicate(DInt, "x", doomed.sites, initial=0)
        v0, v1 = survivor.replicate(DInt, "x", survivor.sites, initial=0)
        dropped_before = sim.network().stats.messages_dropped
        # Launch writes in both tenants, then evict one while its commit
        # traffic is still in flight.
        doomed.sites[0].transact(lambda: d0.set(9))
        survivor.sites[0].transact(lambda: v0.set(7))
        assert host.evict(5)
        host.settle()  # must not raise on deliveries to the evicted tenant
        assert v1.get() == 7  # the surviving tenant is unaffected
        assert sim.network().stats.messages_dropped > dropped_before
        assert host.stats() == {"active": 1, "activations": 2, "evictions": 1}

    def test_evict_unknown_tenant_is_false(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        assert host.evict(99) is False

    def test_lru_bound_evicts_least_recently_used(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,), max_active=2)
        host.tenant(1)
        host.tenant(2)
        host.tenant(1)  # touch 1: now 2 is the LRU
        host.tenant(3)  # exceeds the bound -> evict 2
        assert host.active_tenants == [1, 3]
        assert host.stats()["evictions"] == 1

    def test_reactivation_after_eviction_starts_fresh(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        first = host.tenant(7)
        host.evict(7)
        second = host.tenant(7)
        assert second is not first
        assert host.stats()["activations"] == 2


def tcp_transport() -> TcpTransport:
    # Never started: registration and eviction need no sockets.
    return TcpTransport({0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}, local_sites={0})


class TestEvictionReleasesRoutingState:
    @pytest.mark.parametrize("make", [MemoryTransport, tcp_transport], ids=["memory", "tcp"])
    def test_evicted_tenants_leave_no_handler_or_listener(self, make):
        transport = make()
        host = SessionHost(transport, local_sites=(0,), roster=(0, 1))
        for tid in range(1, 201):
            host.tenant(tid)
            assert host.evict(tid)
        # Every activation registered a handler and a failure listener;
        # every eviction must take both back, keys included.
        assert transport._handlers == {}
        assert list(transport._listeners) == []

    def test_eviction_keeps_other_tenants_listening(self):
        transport = tcp_transport()
        host = SessionHost(transport, local_sites=(0,), roster=(0, 1))
        host.tenant(1)
        host.tenant(2)
        host.evict(1)
        assert list(transport._listeners) == [2]
        assert set(transport._handlers) == {(2, 0)}


class TestCrossTenantFailureIsolation:
    def test_failure_notice_stays_within_its_tenant(self):
        sim = sim_transport()
        host = SessionHost(sim, local_sites=(0, 1), roster=(0, 1))
        s1 = host.tenant(1)
        s2 = host.tenant(2)
        notices1, notices2 = [], []
        sim.add_failure_listener(s1.tenant, notices1.append)
        sim.add_failure_listener(s2.tenant, notices2.append)
        # Fail tenant 1's site 1 only.
        sim.fail_site(1, 1)
        host.settle()
        assert notices1 == [1]  # tenant-local id
        assert notices2 == []
        assert sim.is_failed(1, 1)
        assert not sim.is_failed(2, 1)

    def test_unscoped_failures_do_not_leak_into_tenants(self):
        sim = sim_transport()
        # A plain (tenant-0) session and a hosted tenant share the fabric.
        flat = Session(transport=sim)
        flat.add_site("flat0", site_id=0)
        flat.add_site("flat1", site_id=1)
        host = SessionHost(sim, local_sites=(0, 1), roster=(0, 1))
        tenant = host.tenant(3)
        notices = []
        sim.add_failure_listener(tenant.tenant, notices.append)
        sim.network().fail_site(1)  # tenant 0's site 1, not tenant 3's
        host.settle()
        assert notices == []
        assert sim.is_failed(0, 1)
        assert not sim.is_failed(3, 1)


class TestHostObservability:
    def test_counters_aggregate_across_tenants(self):
        host = SessionHost(MemoryTransport(), local_sites=(0, 1), roster=(0, 1))
        for tid in (1, 2, 3):
            session = host.tenant(tid)
            objs = session.replicate(DInt, "x", session.sites, initial=0)
            session.sites[0].transact(lambda o=objs[0]: o.set(tid))
        host.settle()
        counters = host.counters()
        assert counters["commits"] >= 3  # at least one commit per tenant
        snaps = host.metrics_snapshot()
        assert [s["tenant"] for s in snaps] == [1, 1, 2, 2, 3, 3]

    def test_shared_bus_across_tenants(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        s1, s2 = host.tenant(1), host.tenant(2)
        assert s1.bus is s2.bus  # one EventBus across tenants



class TestTenantZeroIsOrdinary:
    def test_tenant_zero_activates(self):
        transport = MemoryTransport()
        host = SessionHost(transport, local_sites=(0, 1), roster=(0, 1))
        zero, seven = host.tenant(0), host.tenant(7)
        assert zero.tenant == 0 and host.is_active(0)
        a0, b0 = zero.replicate(DInt, "x", zero.sites, initial=1)
        a7, b7 = seven.replicate(DInt, "x", seven.sites, initial=1)
        zero.sites[0].transact(lambda: a0.set(10))
        seven.sites[0].transact(lambda: a7.set(70))
        host.settle()
        assert (b0.get(), b7.get()) == (10, 70)
        assert host.evict(0) and not host.is_active(0)

    def test_negative_tenant_rejected_by_session(self):
        with pytest.raises(ReproError, match="non-negative"):
            Session(transport=MemoryTransport(), tenant=-1)

    def test_negative_tenant_rejected_by_host(self):
        host = SessionHost(MemoryTransport(), local_sites=(0,))
        with pytest.raises(ReproError, match="non-negative"):
            host.tenant(-3)
        assert len(host) == 0


class TestSessionTransportCounters:
    def test_session_counters_include_transport_registry(self):
        # Satellite fix: the transport-level (site -1) registry must land
        # in Session.counters()/metrics_snapshot() rollups.
        addrs = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}
        tcp = TcpTransport(addrs, local_sites={0})
        session = Session(transport=tcp, roster={0, 1})
        session.add_site("proc0", site_id=0)
        tcp.metrics.set_counter("transport.frames_sent", 3)
        counters = session.counters()
        assert counters["transport.frames_sent"] == 3
        assert "commits" in counters
        snaps = session.metrics_snapshot()
        assert snaps[-1]["site"] == -1
        assert snaps[-1]["counters"]["transport.frames_sent"] == 3


class TestPlacement:
    def test_symmetric_default_with_overrides(self):
        a, b, c = ("h", 1), ("h", 2), ("h", 3)
        placement = Placement({0: a, 1: b}, per_tenant={7: {1: c}})
        assert placement.addr_of(1, 0) == a
        assert placement.addr_of(1, 1) == b
        assert placement.addr_of(7, 1) == c  # migrated replica
        assert placement.addr_of(7, 0) == a
        assert placement.sites_at(1, b) == [1]
        assert placement.sites_at(7, b) == []
        assert placement.sites_at(7, c) == [1]
