"""The two SessionHost workloads: two hosts in one process over loopback TCP.

Host A owns site 0 of every tenant, so every primary copy sits there; host
B owns site 1.  Each tenant joins through the real invitation/join
protocol.  A run alternates closed-loop saturation phases (a fixed number
of transactions in flight) with open-loop phases at a fixed offered rate,
timed from each transaction's due time.

* ``host-remote-write``: blind writes issued at host B, optimistic views
  at host A.  Every commit crosses the socket twice and makes almost no
  guesses, so the codec, the transport, the outbox and the event loop do
  most of the work.
* ``host-contended-rmw``: transfers issued at both hosts (read both
  objects, move one unit), pessimistic views on every replica.  Reads,
  RL/RC guesses, conflict aborts with retries and snapshot confirmation
  make the commit engine and the view manager dominate.
"""

from __future__ import annotations

import asyncio
import gc
import random
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import SessionHost
from repro.transport.tcp import TcpTransport
from repro.vtime import VirtualTime

from measure import (
    Result,
    Tracer,
    Watch,
    counter_delta,
    counters_of,
    histogram_quantile,
    layer_metrics,
    notify_latency,
    tail_metrics,
    transfer,
)

HORIZON = VirtualTime(2**62, 2**30)
SIDES = ("a", "b")
#: Tenants joining at once during set-up.
SETUP_CONCURRENCY = 32
#: Longest wait for a set-up step, or for a phase's transactions to resolve.
DEADLINE_S = 30.0
#: Tries at binding both hosts' listening ports.
BIND_ATTEMPTS = 3


@dataclass(frozen=True)
class HostConfig:
    """Shape of one host workload."""

    tenants: int
    objects: int  # DInts per tenant
    initial: int
    #: True: transfers from both hosts, pessimistic views everywhere.
    #: False: blind writes from host B, optimistic views at host A.
    transfers: bool
    #: Offered rate of the open-loop phase, transactions per second.
    rate: float


REMOTE_WRITE = HostConfig(tenants=200, objects=1, initial=0, transfers=False, rate=500.0)
CONTENDED_RMW = HostConfig(tenants=8, objects=2, initial=1000, transfers=True, rate=150.0)


@dataclass
class Tenant:
    tid: int
    sites: Dict[str, Any]
    objects: Dict[str, List[Any]]
    #: Per side: the views attached to that host's replicas (maybe none).
    watches: Dict[str, List[Watch]]
    transfers: bool
    marker: int = 0


@dataclass
class Txn:
    """One submitted transaction as the harness saw it.

    On commit the harness keeps the commit time and the key of the committed
    VT, and lets go of ``outcome``.  Outcomes kept for every transaction of
    a phase made each full collection slower and, in open-loop phases of
    24 s on ``host-remote-write``, brought on one that stalled commits
    170-320 ms.
    """

    tenant: Tenant
    side: str
    due: float
    outcome: Any
    marker: int = 0
    committed_at: Optional[float] = None
    vt: Optional[Tuple[int, int]] = None

    @property
    def committed(self) -> bool:
        return self.vt is not None

    def on_commit(self, then: Optional[Callable[[], None]] = None) -> None:
        """Record the commit when it comes, then call ``then``."""

        def done(outcome: Any) -> None:
            self.committed_at = time.perf_counter()
            self.vt = outcome.vt.key
            self.outcome = None
            if then is not None:
                then()

        self.outcome.on_commit(done)


@dataclass
class Hosts:
    config: HostConfig
    hosts: Dict[str, SessionHost]
    transports: Dict[str, TcpTransport]
    tenants: List[Tenant] = field(default_factory=list)


def free_port_pair() -> Tuple[int, int]:
    """Two distinct loopback ports that are free right now.

    Both sockets stay open until both are picked, so the kernel cannot
    hand out one port twice.
    """
    with socket.socket() as first, socket.socket() as second:
        first.bind(("127.0.0.1", 0))
        second.bind(("127.0.0.1", 0))
        return first.getsockname()[1], second.getsockname()[1]


async def committed(outcome: Any, what: str) -> None:
    """Wait for ``outcome`` to commit; raise if it aborts for good."""
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    outcome.on_commit(lambda _o: done.done() or done.set_result(None))
    end = loop.time() + DEADLINE_S
    while not done.done():
        if outcome.aborted_no_retry:
            raise RuntimeError(f"{what} aborted: {outcome.abort_reason}")
        if loop.time() > end:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.wait({done}, timeout=0.05)


async def poll(predicate: Callable[[], bool], what: str) -> None:
    loop = asyncio.get_running_loop()
    end = loop.time() + DEADLINE_S
    while not predicate():
        if loop.time() > end:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(0.001)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


async def join_tenant(env: Hosts, tid: int, sem: asyncio.Semaphore) -> Tenant:
    """Activate ``tid`` on both hosts and join its replicas for real."""
    config = env.config
    async with sem:
        site_a = env.hosts["a"].tenant(tid).sites[0]
        site_b = env.hosts["b"].tenant(tid).sites[0]
        names = [f"x{i}" for i in range(config.objects)]
        assoc = site_a.create_association("doc.assoc")
        objs_a = []
        for name in names:
            obj = site_a.create_int(name, initial=config.initial)
            objs_a.append(obj)
            outcome = site_a.transact(lambda n=name: assoc.create_relationship(f"{n}.rel"))
            await committed(outcome, f"t{tid} create {name}.rel")
            await committed(site_a.join(assoc, f"{name}.rel", obj), f"t{tid} owner join")
        assoc_b = site_b.import_invitation(assoc.make_invitation(), "doc.assoc")
        await poll(
            lambda: all(
                f"{n}.rel" in dict(assoc_b.value_at(HORIZON, committed_only=True))
                for n in names
            ),
            f"t{tid} association sync",
        )
        objs_b = []
        for name in names:
            obj = site_b.create_int(name, initial=config.initial)
            objs_b.append(obj)
            await committed(site_b.join(assoc_b, f"{name}.rel", obj), f"t{tid} member join")
        tenant = Tenant(
            tid,
            {"a": site_a, "b": site_b},
            {"a": objs_a, "b": objs_b},
            {"a": [], "b": []},
            transfers=config.transfers,
        )
        # Views watch every replica a writer's commit must reach remotely:
        # host A's replicas for blind writes from B, every replica for
        # transfers issued on both sides.
        watched = SIDES if config.transfers else ("a",)
        mode = "pessimistic" if config.transfers else "optimistic"
        for side in watched:
            for obj in tenant.objects[side]:
                watch = Watch(time.perf_counter)
                obj.attach(watch, mode=mode)
                tenant.watches[side].append(watch)
        return tenant


async def start_transports() -> Dict[str, TcpTransport]:
    """Both hosts' transports, listening on loopback.

    A port picked free can be taken by another process before the
    transport binds it; then both are built again on fresh ports.
    """
    attempt = 1
    while True:
        port_a, port_b = free_port_pair()
        addrs = {0: ("127.0.0.1", port_a), 1: ("127.0.0.1", port_b)}
        transports = {
            "a": TcpTransport(addrs, local_sites={0}, fail_after_ms=60_000.0),
            "b": TcpTransport(addrs, local_sites={1}, fail_after_ms=60_000.0),
        }
        try:
            for transport in transports.values():
                await transport.start()
            return transports
        except OSError:
            for transport in transports.values():
                await transport.stop(flush=False)
            if attempt == BIND_ATTEMPTS:
                raise
            attempt += 1


async def set_up(config: HostConfig) -> Hosts:
    """Build both hosts and join every tenant; the set-up the run times."""
    transports = await start_transports()
    hosts = {
        "a": SessionHost(transports["a"], local_sites=(0,), roster=(0, 1)),
        "b": SessionHost(transports["b"], local_sites=(1,), roster=(0, 1)),
    }
    env = Hosts(config, hosts, transports)
    sem = asyncio.Semaphore(SETUP_CONCURRENCY)
    env.tenants = list(
        await asyncio.gather(
            *(join_tenant(env, tid, sem) for tid in range(1, config.tenants + 1))
        )
    )
    await drain_transports(env)
    return env


async def tear_down(env: Hosts) -> None:
    for transport in env.transports.values():
        await transport.stop()


async def drain_transports(env: Hosts) -> None:
    for _ in range(2):  # a frame delivered on one side may answer on the other
        for transport in env.transports.values():
            await transport.aquiesce(settle_ms=20.0)


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


def submit(tenant: Tenant, side: str, due: float, transfer_forward: bool) -> Txn:
    site = tenant.sites[side]
    objs = tenant.objects[side]
    if tenant.transfers:
        src, dst = (objs[0], objs[1]) if transfer_forward else (objs[1], objs[0])
        return Txn(tenant, side, due, site.transact(transfer(src, dst)))
    tenant.marker += 1
    marker = tenant.marker
    obj = objs[0]
    return Txn(tenant, side, due, site.transact(lambda: obj.set(marker)), marker)


def writer_slots(env: Hosts) -> List[Tuple[Tenant, str]]:
    """One closed-loop slot per tenant, and per side on transfer workloads."""
    sides = SIDES if env.config.transfers else ("b",)
    return [(tenant, side) for tenant in env.tenants for side in sides]


@dataclass
class Phase:
    """What one measured phase produced."""

    name: str
    txns: List[Txn]
    wall_s: float
    cpu_s: float
    #: Commits whose commit callback fired inside the measured window.
    window_commits: int
    counters: Dict[str, int] = field(default_factory=dict)
    late_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    queue_depth_max: float = 0.0
    #: Write-flush histogram: (bounds, counts before, counts after).
    flush_hist: Tuple[List[float], List[int], List[int]] = ([], [], [])
    #: Full (generation 2) garbage collections during the phase.
    full_collections: int = 0
    #: Filled in by :meth:`finish`.
    submitted: int = 0
    committed: int = 0
    commit_ms: List[float] = field(default_factory=list)
    notify_ms: List[float] = field(default_factory=list)

    def finish(self) -> int:
        """Reduce ``txns`` to counts and latencies, then let go of them.

        A transaction refers to its tenant and so to the hosts it ran on;
        phases kept whole would keep every earlier phase's hosts alive, and
        each later phase would pay for them in slower full collections.
        Returns the number of committed transactions no remote view
        reported.
        """
        self.submitted = len(self.txns)
        self.committed = sum(1 for t in self.txns if t.committed)
        self.commit_ms = commit_latencies_ms(self.txns)
        self.notify_ms, lost = notify_latencies_ms(self.txns)
        self.txns = []
        return lost


def full_collections() -> int:
    return gc.get_stats()[2]["collections"]


class Probe:
    """Event-loop lag probe that also samples the transports' queue gauges."""

    INTERVAL_S = 0.001

    def __init__(self, env: Hosts) -> None:
        self.env = env
        self.lag_s: List[float] = []
        self.queue_depth_max = 0.0
        self._stop = False
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        self._stop = True
        if self._task is not None:
            await self._task

    async def _run(self) -> None:
        transports = list(self.env.transports.values())
        while not self._stop:
            before = time.perf_counter()
            await asyncio.sleep(self.INTERVAL_S)
            self.lag_s.append(time.perf_counter() - before - self.INTERVAL_S)
            for transport in transports:
                for name, value in transport.metrics.gauges.items():
                    if name.endswith(".queue_depth") and value > self.queue_depth_max:
                        self.queue_depth_max = value


def flush_histogram(env: Hosts) -> Tuple[List[float], List[int]]:
    bounds: List[float] = []
    counts: List[int] = []
    for transport in env.transports.values():
        hist = transport.metrics.histograms["transport.write_flush_ms"]
        bounds = list(hist.bounds)
        counts = [a + b for a, b in zip(counts, hist.counts)] if counts else list(hist.counts)
    return bounds, counts


async def settle(env: Hosts, txns: List[Txn]) -> None:
    """Wait until every transaction resolves (or the deadline), then drain."""
    loop = asyncio.get_running_loop()
    end = loop.time() + DEADLINE_S
    while loop.time() < end and not all(
        t.committed or t.outcome.aborted_no_retry for t in txns
    ):
        await asyncio.sleep(0.005)
    await drain_transports(env)


async def closed_loop(env: Hosts, seconds: float, seed: int, probe: bool = False) -> Phase:
    """Every slot keeps exactly one transaction in flight for ``seconds``."""
    gc.collect()  # see open_loop
    loop = asyncio.get_running_loop()
    warm = min(1.0, 0.1 * seconds)
    start = time.perf_counter()
    window_start, stop_at = start + warm, start + seconds
    txns: List[Txn] = []
    cpu_marks: Dict[str, float] = {}
    base = [counters_of(h) for h in env.hosts.values()]
    hist_before = flush_histogram(env)[1]
    collections = full_collections()
    rngs = [random.Random(f"{seed}:{i}") for i in range(len(writer_slots(env)))]

    def issue(slot: int, tenant: Tenant, side: str) -> None:
        now = time.perf_counter()
        if now >= stop_at:
            return
        txn = submit(tenant, side, now, rngs[slot].random() < 0.5)
        txns.append(txn)
        txn.on_commit(lambda: loop.call_soon(issue, slot, tenant, side))

    loop.call_at(loop.time() + warm, lambda: cpu_marks.setdefault("start", time.process_time()))
    loop.call_at(loop.time() + seconds, lambda: cpu_marks.setdefault("stop", time.process_time()))
    lag_probe = Probe(env) if probe else None
    if lag_probe is not None:
        lag_probe.start()
    for slot, (tenant, side) in enumerate(writer_slots(env)):
        issue(slot, tenant, side)
    await asyncio.sleep(max(0.0, stop_at - time.perf_counter()) + 0.01)
    while "stop" not in cpu_marks:
        await asyncio.sleep(0.001)
    collections = full_collections() - collections
    if lag_probe is not None:
        await lag_probe.stop()
    await settle(env, txns)
    after = [counters_of(h) for h in env.hosts.values()]
    bounds, hist_after = flush_histogram(env)
    phase = Phase(
        "closed",
        txns,
        wall_s=stop_at - window_start,
        cpu_s=cpu_marks["stop"] - cpu_marks["start"],
        window_commits=sum(1 for t in txns if t.committed_at is not None
                           and window_start <= t.committed_at <= stop_at),
        counters=counter_delta(base, after),
        full_collections=collections,
    )
    phase.flush_hist = (bounds, hist_before, hist_after)
    if lag_probe is not None:
        phase.lag_s, phase.queue_depth_max = lag_probe.lag_s, lag_probe.queue_depth_max
    return phase


def arrivals(env: Hosts, seconds: float, seed: int) -> List[Tuple[float, Tenant, str, bool]]:
    """Poisson arrivals at the configured rate: (offset, tenant, side, direction)."""
    rng = random.Random(f"open:{seed}")
    slots = writer_slots(env)
    plan = []
    offset = rng.expovariate(env.config.rate)
    while offset < seconds:
        tenant, side = slots[rng.randrange(len(slots))]
        plan.append((offset, tenant, side, rng.random() < 0.5))
        offset += rng.expovariate(env.config.rate)
    return plan


async def open_loop(env: Hosts, seconds: float, seed: int, probe: bool = False) -> Phase:
    """Submit on a fixed Poisson schedule, whatever the system is doing."""
    # Start every phase from the same collector state.  Garbage left over
    # from set-up or the previous phase otherwise lands a full collection
    # (60-250 ms with 200 tenants) in a random phase of a random run.
    gc.collect()
    plan = arrivals(env, seconds, seed)
    base = [counters_of(h) for h in env.hosts.values()]
    txns: List[Txn] = []
    late: List[float] = []
    lag_probe = Probe(env) if probe else None
    if lag_probe is not None:
        lag_probe.start()
    cpu_start = time.process_time()
    collections = full_collections()
    start = time.perf_counter() + 0.005
    for offset, tenant, side, forward in plan:
        due = start + offset
        now = time.perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = time.perf_counter()
        late.append(now - due)
        txn = submit(tenant, side, due, forward)
        txns.append(txn)
        txn.on_commit()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    if lag_probe is not None:
        await lag_probe.stop()
    await settle(env, txns)
    after = [counters_of(h) for h in env.hosts.values()]
    phase = Phase("open", txns, wall, cpu, 0, counter_delta(base, after), late_s=late,
                  full_collections=full_collections() - collections)
    if lag_probe is not None:
        phase.lag_s, phase.queue_depth_max = lag_probe.lag_s, lag_probe.queue_depth_max
    return phase


# ---------------------------------------------------------------------------
# Latencies and checks
# ---------------------------------------------------------------------------


def commit_latencies_ms(txns: List[Txn]) -> List[float]:
    return [(t.committed_at - t.due) * 1000.0 for t in txns if t.committed_at is not None]


def notify_latencies_ms(txns: List[Txn]) -> Tuple[List[float], int]:
    """Due time → first notification at a remote replica covering the commit.

    Returns the latencies and the number of committed transactions no
    remote view ever reported (a lost notification).
    """
    out: List[float] = []
    missing = 0
    for txn in txns:
        if txn.committed_at is None:
            continue
        other = "a" if txn.side == "b" else "b"
        latency = notify_latency(txn.tenant.watches[other], txn.due, txn.vt)
        if latency is None:
            missing += 1
        else:
            out.append(latency * 1000.0)
    return out, missing


def check(env: Hosts, txns: List[Txn]) -> List[str]:
    """Correctness of the final state; an empty list means every check held."""
    problems: List[str] = []
    config = env.config
    last_marker: Dict[int, Tuple[Tuple[int, int], int]] = {}
    for txn in txns:
        if txn.committed and not config.transfers:
            best = last_marker.get(txn.tenant.tid)
            if best is None or txn.vt > best[0]:
                last_marker[txn.tenant.tid] = (txn.vt, txn.marker)
    for tenant in env.tenants:
        digest_a = tenant.sites["a"].state_digest()
        if digest_a != tenant.sites["b"].state_digest():
            problems.append(f"tenant {tenant.tid}: state digests differ across hosts")
        for side in SIDES:
            values = [obj.committed_value() for obj in tenant.objects[side]]
            if config.transfers and sum(values) != config.objects * config.initial:
                problems.append(
                    f"tenant {tenant.tid} host {side}: sum {sum(values)} not conserved")
            if tenant.tid in last_marker and values[0] != last_marker[tenant.tid][1]:
                problems.append(
                    f"tenant {tenant.tid} host {side}: final value {values[0]} is not the "
                    f"last committed write {last_marker[tenant.tid][1]}"
                )
            if tenant.transfers:  # pessimistic views
                for watch in tenant.watches[side]:
                    if not watch.monotone():
                        problems.append(
                            f"tenant {tenant.tid} host {side}: pessimistic view "
                            "notified out of snapshot.ts order"
                        )
    return problems


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

#: Share of ``--seconds`` given to the closed-loop phases; the open-loop
#: phases get the rest.  Closed-loop rate and CPU per commit vary most
#: from one window to the next: commits come in waves of one per slot,
#: and a full collection lands in one window and not the next.  The
#: open-loop medians settle on fewer samples.
CLOSED_SHARE = 2.0 / 3.0
#: Closed and open phases alternate this many times in an untraced run.
#: The CPU speed of a shared VM drifts (set-ups in one run differed by
#: 1.6x); spreading each kind of phase over the whole run lets a slow
#: stretch within it weigh on both kinds.
CYCLES = 3


def attempted_failed(phases: List[Phase]) -> Tuple[int, int]:
    """Transactions submitted, and those that aborted for good or never resolved."""
    submitted = sum(p.submitted for p in phases)
    return submitted, submitted - sum(p.committed for p in phases)


def phase_record(phase: Phase) -> Dict[str, Any]:
    return {
        "wall_s": round(phase.wall_s, 6),
        "cpu_s": round(phase.cpu_s, 6),
        "submitted": phase.submitted,
        "committed": phase.committed,
        "window_commits": phase.window_commits,
        "aborts_conflict": phase.counters.get("aborts_conflict", 0),
        "full_collections": phase.full_collections,
    }


def rate(*phases: Phase) -> float:
    """Commits per second over the measured windows of ``phases`` together."""
    return sum(p.window_commits for p in phases) / sum(p.wall_s for p in phases)


def cpu_per_commit_us(*phases: Phase) -> float:
    """Process CPU time per commit over the windows of ``phases`` together."""
    return sum(p.cpu_s for p in phases) / sum(p.window_commits for p in phases) * 1e6


async def on_fresh_hosts(config: HostConfig, body) -> Tuple[float, Phase, List[str]]:
    """Set up from scratch, run ``body(env)``, check, tear down.

    Each phase gets hosts of its own, so the heap an open-loop phase starts
    from does not depend on how many commits the closed loop made before
    it: on a slow run a smaller heap would move a full collection into the
    open-loop phase and turn its tail into a collector pause.
    Returns ``(set-up seconds, phase, problems)``.
    """
    gc.collect()
    start = time.perf_counter()
    env = await set_up(config)
    setup_s = time.perf_counter() - start
    try:
        phase = await body(env)
        problems = check(env, phase.txns)
        lost = phase.finish()
        if lost:
            problems.append(f"{lost} committed transactions never reached a remote view")
    finally:
        await tear_down(env)
    return setup_s, phase, problems


async def run(config: HostConfig, seed: int, seconds: float, trace: bool) -> Result:
    """:data:`CYCLES` closed and open phases in turn, each on fresh hosts."""
    if trace:
        return await _run_traced(config, seed, seconds)
    closed_s = seconds * CLOSED_SHARE / CYCLES
    open_s = seconds * (1.0 - CLOSED_SHARE) / CYCLES
    setups: List[float] = []
    closed: List[Phase] = []
    opened: List[Phase] = []
    problems: List[str] = []
    for cycle in range(CYCLES):
        cycle_seed = seed * CYCLES + cycle
        for phases, body in (
            (closed, lambda env: closed_loop(env, closed_s, cycle_seed)),
            (opened, lambda env: open_loop(env, open_s, cycle_seed)),
        ):
            setup_s, phase, found = await on_fresh_hosts(config, body)
            setups.append(setup_s)
            phases.append(phase)
            problems += found
    median = statistics.median
    record: Dict[str, Any] = {
        "setup_s": [round(s, 6) for s in setups],
        "phases": {"closed": [phase_record(p) for p in closed],
                   "open": [phase_record(p) for p in opened]},
    }
    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (median(setups), "s"),
        "commits_per_s": (rate(*closed), "1/s"),
        "cpu_us_per_commit": (cpu_per_commit_us(*closed), "us"),
    }
    metrics.update(tail_metrics("commit", [v for p in opened for v in p.commit_ms], record))
    metrics.update(tail_metrics("notify", [v for p in opened for v in p.notify_ms], record))
    tail_metrics("gen.late", [s * 1e3 for p in opened for s in p.late_s], record,
                 quantiles=(("p99", 0.99),))
    return Result(metrics, *attempted_failed(closed + opened), problems, record)


async def _run_traced(config: HostConfig, seed: int, seconds: float) -> Result:
    """Untraced closed and open phases, then a traced set-up and closed phase.

    The untraced closed phase is the base of ``trace.overhead_pct``.  The
    loop-lag probe runs in the untraced open phase, so loop lag and
    generator lateness describe the system the end-to-end numbers come
    from, not the extra collector work of keeping spans.  The phases keep
    the untraced run's proportions, shrunk so that all three together
    last ``seconds``.
    """
    seconds /= 1.0 + CLOSED_SHARE
    closed_s, open_s = seconds * CLOSED_SHARE, seconds * (1.0 - CLOSED_SHARE)
    _, untraced, problems = await on_fresh_hosts(
        config, lambda env: closed_loop(env, closed_s, seed))
    _, opened, open_problems = await on_fresh_hosts(
        config, lambda env: open_loop(env, open_s, seed, probe=True))
    problems += open_problems
    with Tracer() as tracer:
        traces = {}

        async def traced_closed(env: Hosts) -> Phase:
            traces["setup"] = tracer.take()
            phase = await closed_loop(env, closed_s, seed, probe=True)
            traces["closed"] = tracer.take()
            return phase

        _, closed, traced_problems = await on_fresh_hosts(config, traced_closed)
    problems += traced_problems
    bounds, before, after = closed.flush_hist
    metrics = layer_metrics(
        traces["setup"],
        traces["closed"],
        closed.counters,
        untraced_rate=rate(untraced),
        traced_rate=rate(closed),
        lag_s=opened.lag_s,
        late_s=opened.late_s,
        queue_depth_max=closed.queue_depth_max,
        write_flush_p99_ms=histogram_quantile(bounds, before, after, 0.99),
    )
    record = {
        "phases": {
            "untraced_closed": phase_record(untraced),
            "open": phase_record(opened),
            "traced_closed": phase_record(closed),
        },
        "trace_commits": closed.counters.get("commits", 0),
        "spans": {name: take.spans for name, take in traces.items()},
    }
    return Result(metrics, *attempted_failed([untraced, opened, closed]), problems, record)
