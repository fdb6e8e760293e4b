#!/usr/bin/env python3
"""Multi-tenant SessionHost scale benchmark over real sockets.

Measures the cost of multiplexing many independent collaboration sets
(tenants) behind two :class:`~repro.host.SessionHost` instances in ONE
OS process, connected by real loopback TCP sockets:

* **Setup throughput** — tenants activated per second, where each
  activation runs the full association/invitation/join protocol of
  section 4 across the socket pair.
* **Commit latency** — writes originate at the *non-primary* replica, so
  every commit includes a real guess-validation round trip over TCP
  (p50/p99, open-loop arrivals).
* **Notify lag** — wall-clock time from ``transact()`` at the writer to
  the attached :class:`~repro.core.OptimisticView` observing the value at
  the remote replica.
* **Scaling** — the same open-loop driver runs twice, against a small
  subset of tenants and against the whole population at a higher offered
  rate.  Because tenants share connections, the outbox, and the event
  loop but nothing protocol-level, throughput should grow with the
  offered load while p99 stays bounded (per-collaboration-set commit
  cost, not per-process).

Topology: host A owns site 0 of every tenant (all primaries), host B
owns site 1.  Both hosts share exactly one TCP connection per direction
regardless of tenant count — that shared-link count is reported too.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full run
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_scale.py --quick --check

Writes ``BENCH_scale.json`` at the repo root (see ``--out``); merge into
the trajectory with ``python scripts/bench_trajectory.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket
import sys
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_scale.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro import OptimisticView, SessionHost  # noqa: E402
from repro.transport.tcp import TcpTransport  # noqa: E402
from repro.vtime import VirtualTime  # noqa: E402

HORIZON = VirtualTime(2**62, 2**30)

FULL = {
    "tenants": 1000,
    "setup_concurrency": 64,
    "phases": {
        "small": {"tenants": 100, "rate": 150.0, "duration_s": 6.0},
        "large": {"tenants": 1000, "rate": 450.0, "duration_s": 6.0},
    },
    "max_p99_ms": 1000.0,
    "min_throughput_ratio": 1.5,
}

QUICK = {
    "tenants": 32,
    "setup_concurrency": 16,
    "phases": {
        "small": {"tenants": 8, "rate": 50.0, "duration_s": 2.0},
        "large": {"tenants": 32, "rate": 150.0, "duration_s": 2.0},
    },
    "max_p99_ms": 2000.0,
    "min_throughput_ratio": 1.2,
}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def poll(predicate, what: str, deadline_s: float = 60.0, interval_s: float = 0.002):
    start = time.monotonic()
    while not predicate():
        if time.monotonic() - start > deadline_s:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(interval_s)


def committed(outcome) -> bool:
    if outcome.aborted_no_retry:
        raise RuntimeError(f"transaction aborted: {outcome.abort_reason}")
    return outcome.committed


class LagView(OptimisticView):
    """Records the first wall-clock instant each value is seen at a replica."""

    def __init__(self, tenant_id: int, seen: Dict[Tuple[int, int], float]):
        self.tenant_id = tenant_id
        self.seen = seen
        self.objects: List = []

    def update(self, changed, snapshot) -> None:
        now = time.perf_counter()
        for obj in changed:
            value = snapshot.read(obj)
            if isinstance(value, int) and value > 0:
                self.seen.setdefault((self.tenant_id, value), now)


class Tenant:
    __slots__ = ("tid", "site_a", "site_b", "obj_a", "obj_b")

    def __init__(self, tid, site_a, site_b, obj_a, obj_b):
        self.tid = tid
        self.site_a = site_a
        self.site_b = site_b
        self.obj_a = obj_a
        self.obj_b = obj_b


async def setup_tenant(
    host_a: SessionHost,
    host_b: SessionHost,
    tid: int,
    seen: Dict[Tuple[int, int], float],
    sem: asyncio.Semaphore,
) -> Tenant:
    """Activate one tenant on both hosts and join its replicas for real.

    Runs the full invitation/join protocol across the socket pair: the
    owner (site 0 on host A) creates the object, association, and
    relationship; the member (site 1 on host B) imports the invitation
    and joins its own local object.
    """
    async with sem:
        session_a = host_a.tenant(tid)
        session_b = host_b.tenant(tid)
        site_a, site_b = session_a.sites[0], session_b.sites[0]

        obj_a = site_a.create_int("doc", initial=0)
        assoc = site_a.create_association("doc.assoc")
        outcome = site_a.transact(lambda: assoc.create_relationship("doc.rel"))
        await poll(lambda: committed(outcome), f"t{tid} create_relationship")
        outcome = site_a.join(assoc, "doc.rel", obj_a)
        await poll(lambda: committed(outcome), f"t{tid} owner join")

        invitation = assoc.make_invitation(note=f"tenant {tid}")
        assoc_b = site_b.import_invitation(invitation, "doc.assoc")
        await poll(
            lambda: "doc.rel" in dict(assoc_b.value_at(HORIZON, committed_only=True)),
            f"t{tid} association sync",
        )
        obj_b = site_b.create_int("doc", initial=0)
        outcome = site_b.join(assoc_b, "doc.rel", obj_b)
        await poll(lambda: committed(outcome), f"t{tid} member join")

        # Notify lag is observed at the primary's replica (host A): the
        # writer sits at host B, so both the commit round trip and the
        # view notification cross the real sockets.
        obj_a.attach(LagView(tid, seen), mode="optimistic")
        return Tenant(tid, site_a, site_b, obj_a, obj_b)


async def run_phase(
    name: str,
    tenants: List[Tenant],
    rate: float,
    duration_s: float,
    seen: Dict[Tuple[int, int], float],
    marker_start: int,
) -> Tuple[dict, int]:
    """Open-loop driver: Poisson-ish fixed-rate arrivals, never waits for
    a commit before issuing the next write.  Returns (report, next_marker)."""
    planned = max(1, int(rate * duration_s))
    interval = 1.0 / rate
    commit_lats: List[float] = []
    last_commit_at = [0.0]
    issued: List[Tuple[int, int, float, object]] = []  # (tid, marker, t0, outcome)
    last_marker: Dict[int, int] = {}

    start = time.perf_counter()
    next_due = start
    marker = marker_start
    for i in range(planned):
        tenant = tenants[i % len(tenants)]
        marker += 1
        t0 = time.perf_counter()
        outcome = tenant.site_b.transact(lambda o=tenant.obj_b, m=marker: o.set(m))

        def on_commit(_o, t0=t0):
            now = time.perf_counter()
            commit_lats.append(now - t0)
            last_commit_at[0] = now

        outcome.on_commit(on_commit)
        issued.append((tenant.tid, marker, t0, outcome))
        last_marker[tenant.tid] = marker
        next_due += interval
        delay = next_due - time.perf_counter()
        await asyncio.sleep(delay if delay > 0 else 0)

    # Drain: every outcome resolves, then every tenant's final value is
    # visible through the remote view (intermediate markers may legally be
    # coalesced away by view notification batching).
    await poll(
        lambda: all(o.committed or o.aborted_no_retry for _, _, _, o in issued),
        f"{name}: outcomes resolved",
        deadline_s=30.0,
    )
    await poll(
        lambda: all((tid, m) in seen for tid, m in last_marker.items()),
        f"{name}: final values visible remotely",
        deadline_s=30.0,
    )

    aborted = sum(1 for _, _, _, o in issued if o.aborted_no_retry)
    n_committed = len(commit_lats)
    elapsed = max(last_commit_at[0] - start, 1e-9)
    lags = [
        seen[(tid, m)] - t0
        for tid, m, t0, o in issued
        if o.committed and (tid, m) in seen
    ]
    report = {
        "tenants": len(tenants),
        "offered_per_sec": rate,
        "arrivals": planned,
        "committed": n_committed,
        "aborted": aborted,
        "commits_per_sec": round(n_committed / elapsed, 1),
        "commit_ms": dist_ms(commit_lats),
        "notify_lag_ms": dist_ms(lags),
        "notify_samples": len(lags),
    }
    return report, marker


def dist_ms(samples: List[float]) -> dict:
    if not samples:
        return {"p50": None, "p99": None, "mean": None, "max": None}
    ordered = sorted(samples)

    def pct(q: float) -> float:
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx] * 1000.0

    return {
        "p50": round(pct(0.50), 3),
        "p99": round(pct(0.99), 3),
        "mean": round(sum(ordered) / len(ordered) * 1000.0, 3),
        "max": round(ordered[-1] * 1000.0, 3),
    }


async def run(config: dict, mode: str) -> dict:
    port_a, port_b = free_port(), free_port()
    addrs = {0: ("127.0.0.1", port_a), 1: ("127.0.0.1", port_b)}
    transport_a = TcpTransport(addrs, local_sites={0}, fail_after_ms=60_000.0)
    transport_b = TcpTransport(addrs, local_sites={1}, fail_after_ms=60_000.0)
    host_a = SessionHost(transport_a, local_sites=(0,), roster=(0, 1))
    host_b = SessionHost(transport_b, local_sites=(1,), roster=(0, 1))
    await transport_a.start()
    await transport_b.start()

    seen: Dict[Tuple[int, int], float] = {}
    n_tenants = config["tenants"]
    sem = asyncio.Semaphore(config["setup_concurrency"])

    setup_start = time.perf_counter()
    tenants = list(
        await asyncio.gather(
            *(setup_tenant(host_a, host_b, tid, seen, sem) for tid in range(1, n_tenants + 1))
        )
    )
    setup_wall = time.perf_counter() - setup_start

    phases = {}
    marker = 0
    for phase_name, phase_cfg in config["phases"].items():
        subset = tenants[: phase_cfg["tenants"]]
        report, marker = await run_phase(
            phase_name, subset, phase_cfg["rate"], phase_cfg["duration_s"], seen, marker
        )
        phases[phase_name] = report

    small, large = phases["small"], phases["large"]
    scaling = {
        "tenant_ratio": round(large["tenants"] / small["tenants"], 2),
        "throughput_ratio": round(
            large["commits_per_sec"] / max(small["commits_per_sec"], 1e-9), 3
        ),
        "p99_commit_ratio": round(
            large["commit_ms"]["p99"] / max(small["commit_ms"]["p99"], 1e-9), 3
        ),
    }

    results = {
        "schema": "bench_scale/v1",
        "mode": mode,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "config": {
            k: v for k, v in config.items() if k not in ("phases",)
        },
        "setup": {
            "tenants": n_tenants,
            "wall_s": round(setup_wall, 3),
            "tenants_per_sec": round(n_tenants / setup_wall, 1),
        },
        "phases": phases,
        "scaling": scaling,
        "transport": {
            **{
                name: sum(
                    t.metrics.value(f"transport.{name}") for t in (transport_a, transport_b)
                )
                for name in ("frames_sent", "frames_received", "writes", "frames_coalesced")
            },
            "peer_links": {
                "host_a": len(getattr(transport_a, "_links", {})),
                "host_b": len(getattr(transport_b, "_links", {})),
            },
        },
        "hosts": {"a": host_a.stats(), "b": host_b.stats()},
    }

    # Teardown demonstrates eviction at scale: every tenant detaches
    # cleanly while the shared transports keep running, then stop.
    for tid in list(host_a.active_tenants):
        host_a.evict(tid)
    for tid in list(host_b.active_tenants):
        host_b.evict(tid)
    results["hosts"]["a_after_eviction"] = host_a.stats()
    results["hosts"]["b_after_eviction"] = host_b.stats()
    await transport_a.stop()
    await transport_b.stop()
    return results


def check(results: dict, config: dict) -> List[str]:
    failures = []
    if results["setup"]["tenants"] < config["tenants"]:
        failures.append("setup activated fewer tenants than configured")
    for name, phase in results["phases"].items():
        if phase["aborted"]:
            failures.append(f"{name}: {phase['aborted']} aborted transactions")
        if phase["committed"] < 0.98 * phase["arrivals"]:
            failures.append(f"{name}: committed {phase['committed']}/{phase['arrivals']}")
        for metric in ("commit_ms", "notify_lag_ms"):
            p99 = phase[metric]["p99"]
            if p99 is None or p99 > config["max_p99_ms"]:
                failures.append(f"{name}: {metric} p99 {p99} > {config['max_p99_ms']}ms")
    ratio = results["scaling"]["throughput_ratio"]
    if ratio < config["min_throughput_ratio"]:
        failures.append(
            f"throughput did not scale with tenant count: ratio {ratio} < "
            f"{config['min_throughput_ratio']}"
        )
    for side, n_links in results["transport"]["peer_links"].items():
        if n_links > 1:
            failures.append(f"{side}: {n_links} peer links (connections not shared)")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced CI-sized run")
    parser.add_argument("--check", action="store_true", help="gate on scaling regressions")
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="FILE")
    args = parser.parse_args(argv)

    config = QUICK if args.quick else FULL
    mode = "quick" if args.quick else "full"
    results = asyncio.run(run(config, mode))

    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    setup = results["setup"]
    print(
        f"setup: {setup['tenants']} tenants joined over real sockets in "
        f"{setup['wall_s']}s ({setup['tenants_per_sec']}/s)"
    )
    for name, phase in results["phases"].items():
        print(
            f"{name}: {phase['tenants']} tenants, {phase['commits_per_sec']} commits/s "
            f"(offered {phase['offered_per_sec']}/s), commit p50/p99 "
            f"{phase['commit_ms']['p50']}/{phase['commit_ms']['p99']}ms, "
            f"notify-lag p50/p99 {phase['notify_lag_ms']['p50']}/"
            f"{phase['notify_lag_ms']['p99']}ms"
        )
    print(
        f"scaling: {results['scaling']['tenant_ratio']}x tenants -> "
        f"{results['scaling']['throughput_ratio']}x throughput, p99 ratio "
        f"{results['scaling']['p99_commit_ratio']}"
    )
    print(f"wrote {args.out}")

    if args.check:
        failures = check(results, config)
        if failures:
            for failure in failures:
                print(f"CHECK FAIL: {failure}")
            return 1
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
