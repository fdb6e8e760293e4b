"""The ``sim-multiobject`` workload: pure protocol CPU on the simulator.

Four sites replicate 32 ``DInt`` objects over the discrete-event network
with batching on.  Poisson-timed two-object transfers (read both, move one
unit) originate at random sites, and every replica carries a view, half of
them optimistic and half pessimistic.  No codec, socket or event loop is
involved, so this workload shows protocol changes without wire changes; its
message counts repeat exactly for a seed and its latencies are simulated
milliseconds.

The one-way delay is uniform on 8–12 ms (mean 10 ms) rather than exactly
10 ms: with a fixed delay every latency is a multiple of the delay, so the
latency percentiles would read the same for every seed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.scalars import DInt
from repro.core.session import Session
from repro.sim.network import Network, UniformLatency
from repro.sim.scheduler import Scheduler
from repro.transport.simnet import SimTransport

from measure import (
    MachineSpeed,
    Result,
    Tracer,
    Watch,
    counter_delta,
    counters_of,
    layer_metrics,
    notify_latency,
    tail_metrics,
    transfer,
)

SITES = 4
OBJECTS = 32
INITIAL = 1000
MEAN_GAP_MS = 10.0
DELAY_MS = (8.0, 12.0)
#: Transactions per round.  A run repeats the same seeded round until its
#: time is up, so counts per round repeat exactly.
ROUND_TXNS = 1500
MIN_ROUNDS = 3


@dataclass
class Sim:
    session: Session
    scheduler: Scheduler
    network: Network
    #: objects[i][s]: replica of object i at site s.
    objects: List[List[Any]]
    #: watches[i][s]: the view on that replica.
    watches: List[List[Watch]]


@dataclass
class Txn:
    site: int
    objs: Tuple[int, int]
    due: float
    outcome: Any
    committed_at: Optional[float] = None


@dataclass
class Round:
    setup_s: float
    wall_s: float
    cpu_s: float
    #: Transactions submitted.  The round keeps counts and latencies, not
    #: the transactions: their outcomes refer to the session, and rounds
    #: kept whole would keep every earlier session alive for the
    #: collector to walk.
    attempted: int
    counters: Dict[str, int]
    messages: int
    events: int
    commit_ms: List[float] = field(default_factory=list)
    notify_ms: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def commits(self) -> int:
        return len(self.commit_ms)


def set_up(seed: int) -> Sim:
    scheduler = Scheduler()
    network = Network(scheduler, latency=UniformLatency(*DELAY_MS), seed=seed)
    session = Session(transport=SimTransport(network), batching=True)
    sites = session.add_sites(SITES)
    objects = [session.replicate(DInt, f"x{i}", sites, initial=INITIAL) for i in range(OBJECTS)]
    clock = lambda: scheduler.now  # noqa: E731
    watches = []
    for i, replicas in enumerate(objects):
        row = []
        for s, obj in enumerate(replicas):
            watch = Watch(clock)
            obj.attach(watch, mode="pessimistic" if (i + s) % 2 else "optimistic")
            row.append(watch)
        watches.append(row)
    session.settle()
    return Sim(session, scheduler, network, objects, watches)


def run_round(seed: int, tracer: Optional[Tracer] = None) -> Tuple[Round, Any]:
    """One seeded round: set up, run :data:`ROUND_TXNS` arrivals to quiescence, check."""
    gc.collect()  # the previous round's session is garbage; keep it out of set-up
    start = time.perf_counter()
    sim = set_up(seed)
    setup_s = time.perf_counter() - start
    setup_trace = tracer.take() if tracer is not None else None
    rng = random.Random(f"sim:{seed}")
    sites = sim.session.sites
    txns: List[Txn] = []

    def submit(site: int, pair: Tuple[int, int]) -> None:
        body = transfer(sim.objects[pair[0]][site], sim.objects[pair[1]][site])
        txn = Txn(site, pair, sim.scheduler.now, sites[site].transact(body))
        txns.append(txn)
        txn.outcome.on_commit(lambda _o: setattr(txn, "committed_at", sim.scheduler.now))

    due = sim.scheduler.now
    for _ in range(ROUND_TXNS):
        due += rng.expovariate(1.0 / MEAN_GAP_MS)
        site = rng.randrange(SITES)
        pair = tuple(rng.sample(range(OBJECTS), 2))
        sim.scheduler.call_at(due, lambda s=site, p=pair: submit(s, p))

    gc.collect()  # every round starts from the same collector state
    base = counters_of(sim.session)
    messages = sim.network.stats.messages_sent
    events = sim.scheduler.events_processed
    wall, cpu = time.perf_counter(), time.process_time()
    sim.scheduler.run_until_quiescent()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    result = Round(
        setup_s, wall, cpu, len(txns),
        counter_delta([base], [counters_of(sim.session)]),
        sim.network.stats.messages_sent - messages,
        sim.scheduler.events_processed - events,
    )
    result.problems = check(sim)
    lost = 0
    for txn in txns:
        if txn.committed_at is None:
            continue
        result.commit_ms.append(txn.committed_at - txn.due)
        remote = [sim.watches[i][s] for i in txn.objs for s in range(SITES) if s != txn.site]
        latency = notify_latency(remote, txn.due, txn.outcome.vt.key)
        if latency is None:
            lost += 1
        else:
            result.notify_ms.append(latency)
    if lost:
        result.problems.append(f"{lost} committed transactions never reached a remote view")
    return result, setup_trace


def check(sim: Sim) -> List[str]:
    problems: List[str] = []
    sites = sim.session.sites
    digest = sites[0].state_digest()
    for site in sites[1:]:
        if site.state_digest() != digest:
            problems.append(f"site {site.site_id}: state digest differs from site 0")
    for s, site in enumerate(sites):
        total = sum(replicas[s].committed_value() for replicas in sim.objects)
        if total != OBJECTS * INITIAL:
            problems.append(f"site {site.site_id}: sum {total} not conserved")
        residue = site.protocol_residue()
        if residue:
            problems.append(f"site {site.site_id}: protocol residue {sorted(residue)}")
    for i, row in enumerate(sim.watches):
        for s, watch in enumerate(row):
            if (i + s) % 2 and not watch.monotone():
                problems.append(f"x{i} at site {s}: pessimistic view out of snapshot.ts order")
    return problems


def same_round(a: Round, b: Round) -> bool:
    """Two rounds of one seed must replay identically."""
    return (a.messages, a.events, a.commit_ms, a.notify_ms) == (
        b.messages, b.events, b.commit_ms, b.notify_ms)


def run(seed: int, seconds: float, trace: bool) -> Result:
    """Repeat the seeded round until ``seconds`` pass (at least three times).

    A reference slice before each round and after the last samples the
    machine's speed; each round's set-up, wall and CPU times are divided
    by the slowdown around it (see ``measure.MachineSpeed``).
    """
    if trace:
        return _run_traced(seed, seconds)
    speed = MachineSpeed()
    rounds: List[Round] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        speed.sample()
        rounds.append(run_round(seed)[0])
    speed.sample()
    slowdowns = [speed.slowdown(i) for i in range(len(rounds))]
    first = rounds[0]
    problems = [p for r in rounds for p in r.problems]
    if not all(same_round(first, r) for r in rounds[1:]):
        problems.append("rounds of one seed did not replay identically")
    median = statistics.median
    record: Dict[str, Any] = {
        "rounds": [{"setup_s": round(r.setup_s, 6), "wall_s": round(r.wall_s, 6),
                    "cpu_s": round(r.cpu_s, 6), "commits": r.commits,
                    "slowdown": round(f, 4)} for r, f in zip(rounds, slowdowns)],
        "reference_slices_s": [round(t, 6) for t in speed.slices],
        "at_measured_speed": {
            "setup_s": median([r.setup_s for r in rounds]),
            "commits_per_s": median([r.commits / r.wall_s for r in rounds]),
            "cpu_us_per_commit": median([r.cpu_s / r.commits * 1e6 for r in rounds]),
        },
    }
    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (median([r.setup_s / f for r, f in zip(rounds, slowdowns)]), "s"),
        "commits_per_s": (
            median([r.commits / r.wall_s * f for r, f in zip(rounds, slowdowns)]), "1/s"),
        "cpu_us_per_commit": (
            median([r.cpu_s / f / r.commits * 1e6 for r, f in zip(rounds, slowdowns)]), "us"),
    }
    metrics.update(tail_metrics("commit", first.commit_ms, record))
    metrics.update(tail_metrics("notify", first.notify_ms, record))
    attempted = sum(r.attempted for r in rounds)
    return Result(metrics, attempted, attempted - sum(r.commits for r in rounds),
                  problems, record)


def _run_traced(seed: int, seconds: float) -> Result:
    """Alternate untraced and traced rounds; report the last traced one.

    Alternating keeps machine drift and first-round warm-up out of
    ``trace.overhead_pct``, the ratio of the two median round rates.
    """
    pairs: List[Tuple[Round, Round]] = []
    problems: List[str] = []
    start = time.perf_counter()
    while len(pairs) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        untraced, _ = run_round(seed)
        with Tracer() as tracer:
            traced, setup_trace = run_round(seed, tracer)
            phase_trace = tracer.take()
        problems += untraced.problems + traced.problems
        if not same_round(untraced, traced):
            problems.append("a traced round did not replay the untraced one")
        pairs.append((untraced, traced))
    metrics = layer_metrics(
        setup_trace,
        phase_trace,
        traced.counters,
        untraced_rate=statistics.median(u.commits / u.wall_s for u, _t in pairs),
        traced_rate=statistics.median(t.commits / t.wall_s for _u, t in pairs),
        sim_messages=traced.messages,
        sim_events=traced.events,
    )
    record = {
        "rounds": [{"traced": traced_round, "wall_s": round(r.wall_s, 6),
                    "cpu_s": round(r.cpu_s, 6), "commits": r.commits}
                   for pair in pairs for traced_round, r in enumerate(pair)],
        "trace_commits": traced.counters.get("commits", 0),
        "spans": {"setup": setup_trace.spans, "run": phase_trace.spans},
    }
    attempted = sum(r.attempted for pair in pairs for r in pair)
    committed = sum(r.commits for pair in pairs for r in pair)
    return Result(metrics, attempted, attempted - committed, problems, record)
