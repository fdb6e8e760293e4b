"""Observability overhead benchmark: obs-enabled vs obs-disabled timings.

Runs the same E6-style commit-throughput workload as
``benchmarks/bench_hotpaths.py`` in three configurations:

* ``baseline``  — a plain session, bus inactive (reference measurement),
* ``disabled``  — identical to baseline; a second interleaved series that
  pairs with it, so the two differ only by scheduling noise,
* ``enabled``   — ``session.observe()`` on, full event recording.

The zero-overhead-when-disabled contract has two halves and the check
gate (``--check``) verifies both:

1. *Functional*: with the bus inactive, ``EventBus.emit`` is never
   entered (the ``if bus.active:`` guards short-circuit), so the emit
   counter and the event buffer both stay at zero.  This is the
   deterministic half — it catches a bus left active by default or an
   unguarded emission sneaking onto a hot path.
2. *Wall-clock*: the paired baseline/disabled series must agree within
   the tolerance (default 5%).  A disabled bus costs one attribute load
   and one branch per instrumentation point, far below measurement
   noise, so a real divergence here means the guard pattern broke.

Full recording is *not* gated: capturing ~18 events per transaction has
a real, legitimate cost.  ``BENCH_obs.json`` records the enabled vs
disabled delta (and the per-event marginal cost) so the perf trajectory
tracks instrumentation cost from day one.

The offline causal-analysis engine (``repro.obs.causal``) and the
streaming health detectors (``repro.obs.health``) are timed over the
recorded timeline as a fourth, ungated series — they run after the fact
on exported data, so their cost is an analyst-side budget, not protocol
overhead.  The per-event figures land in the trajectory so a
super-linear regression in the DAG builder shows up as a slope change.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py            # full run
    PYTHONPATH=src python benchmarks/bench_obs.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_obs.py --quick --check
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any, Dict, List

if __name__ == "__main__":  # allow running straight from a checkout
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    _src = os.path.join(_root, "src")
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro import Session
from repro import DInt

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_obs.json")

FULL = {"transactions": 600, "repeats": 9}
QUICK = {"transactions": 300, "repeats": 7}


def bench_commit_throughput(transactions: int, observe: bool) -> Dict[str, Any]:
    """One timed run of sequential committed transactions on 3 sites."""
    session = Session.simulated(latency_ms=20.0)
    if observe:
        session.observe()
    sites = session.add_sites(3)
    objs = session.replicate(DInt, "counter", sites, initial=0)
    session.settle()
    # Cyclic-GC debt from a previous run (e.g. an enabled run's freed
    # event buffer) would otherwise be paid inside whichever timed region
    # crosses the collection threshold — a systematic, not random, skew.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        cpu_start = time.process_time()
        for i in range(transactions):
            out = sites[0].transact(lambda i=i: objs[0].set(i + 1))
            session.settle()
            assert out.committed
        cpu_s = time.process_time() - cpu_start
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "events": len(session.bus.events),
        "emit_calls": session.bus._seq,
    }


def bench_analysis_cost(transactions: int, repeats: int) -> Dict[str, Any]:
    """Offline analysis cost over one recorded timeline (ungated).

    Records a timeline once, then times ``analyze_events`` (full causal
    DAG + critical paths + guess graph) and ``run_health`` (streaming
    detector replay) over it, best-of ``repeats``.
    """
    from repro.obs import analyze_events, run_health

    session = Session.simulated(latency_ms=20.0)
    session.observe()
    sites = session.add_sites(3)
    objs = session.replicate(DInt, "counter", sites, initial=0)
    session.settle()
    for i in range(transactions):
        out = sites[0].transact(lambda i=i: objs[0].set(i + 1))
        session.settle()
        assert out.committed
    events = list(session.bus.events)

    def best_of(fn) -> float:
        gc.collect()
        gc.disable()
        try:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn(events)
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return min(times)

    analyze_s = best_of(analyze_events)
    health_s = best_of(run_health)
    n = len(events)
    return {
        "events": n,
        "analyze_best_s": round(analyze_s, 6),
        "analyze_us_per_event": round(analyze_s / n * 1e6, 3),
        "health_best_s": round(health_s, 6),
        "health_us_per_event": round(health_s / n * 1e6, 3),
    }


def bench_traced_sockets(quick: bool) -> Dict[str, Any]:
    """Tracing overhead on the real TCP path: untraced vs traced ping-pong.

    Two :class:`TcpTransport` instances exchange frames over localhost
    sockets; the traced series runs with both transports' buses recording
    (message_sent/message_delivered pairs plus trace-context headers on
    every frame) — the exact configuration
    ``examples/two_process_tcp.py --trace-dir`` deploys.

    Two workloads run, interleaved, and the gated statistic is best-of
    p50 RTT with the untraced series' own spread as the noise floor:

    * ``envelope`` (**gated**) — an :class:`Envelope` of ``BATCH``
      CommitMsgs per frame.  This is the message plane's designed unit:
      the batching layer (repro.wire.batch.Outbox) coalesces each
      protocol turn's fan-out into one envelope, and the trace header is
      per *frame*, so this is the cost profile a DECAF session actually
      pays.
    * ``single`` (reported, ungated) — one bare CommitMsg per frame, the
      adversarial worst case where the fixed per-frame tracing cost
      (four bus emissions, one header encode+decode) is largest relative
      to a ~100us localhost RTT.  Tracked in the trajectory so the
      absolute per-frame cost stays visible.

    A third envelope series, ``sampled`` (**gated**), runs with the buses
    recording but a 1% head sampler on both transports — the production
    configuration the sampling layer exists for.  99% of frames then pay
    only the sampler hash plus one counter increment, so the series must
    sit within ``max(SAMPLED_TOLERANCE_PCT,`` measured noise``)`` of the
    *untraced* baseline: sampling is only worth deploying if the
    not-sampled path costs as little as tracing being off.
    """
    import asyncio
    import socket

    from repro.core.messages import CommitMsg, Envelope
    from repro.obs.sample import TraceSampler
    from repro.transport.tcp import TcpTransport
    from repro.vtime import VirtualTime

    frames = 150 if quick else 400
    repeats = 3 if quick else 5
    batch = 8
    sample_rate = 0.01

    def free_port() -> int:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    async def pingpong(mode: str, per_frame: int) -> Dict[str, Any]:
        addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
        samplers = (
            (TraceSampler(sample_rate), TraceSampler(sample_rate))
            if mode == "sampled"
            else (None, None)
        )
        a = TcpTransport(addrs, local_sites={0}, sampler=samplers[0])
        b = TcpTransport(addrs, local_sites={1}, sampler=samplers[1])
        if mode in ("traced", "sampled"):
            a.bus.enable()
            b.bus.enable()
        got = asyncio.Event()
        a.register(0, 0, lambda src, payload: got.set())
        b.register(0, 1, lambda src, payload: b.send(0, 1, 0, payload))
        await a.start()
        await b.start()

        async def rtt_once(i: int) -> float:
            got.clear()
            if per_frame == 1:
                msg: Any = CommitMsg(VirtualTime(i, 0), i)
            else:
                msg = Envelope(
                    tuple(CommitMsg(VirtualTime(i * per_frame + j, 0), j) for j in range(per_frame))
                )
            start = time.perf_counter()
            a.send(0, 0, 1, msg)
            await asyncio.wait_for(got.wait(), timeout=10.0)
            return time.perf_counter() - start

        for i in range(20):  # warmup: dial, codec caches, event-loop jit
            await rtt_once(i)
        rtts = sorted([await rtt_once(i) for i in range(frames)])
        p50 = rtts[len(rtts) // 2]
        out = {
            "p50_s": p50,
            "events": len(a.bus.events) + len(b.bus.events),
            "emit_calls": a.bus._seq + b.bus._seq,
            "sends_sampled_out": a.sends_sampled_out + b.sends_sampled_out,
            "deliveries_sampled_out": a.deliveries_sampled_out + b.deliveries_sampled_out,
        }
        await a.stop()
        await b.stop()
        return out

    configs = [
        (batch, "untraced"),
        (batch, "traced"),
        (batch, "sampled"),
        (1, "untraced"),
        (1, "traced"),
    ]
    runs: Dict[Any, List[Dict[str, Any]]] = {}
    for _ in range(repeats):  # interleave so drift hits every series equally
        for per_frame, mode in configs:
            runs.setdefault((per_frame, mode), []).append(
                asyncio.run(pingpong(mode, per_frame))
            )

    def best(per_frame: int, mode: str) -> float:
        return min(r["p50_s"] for r in runs[(per_frame, mode)])

    untraced_p50 = best(batch, "untraced")
    traced_p50 = best(batch, "traced")
    sampled_p50 = best(batch, "sampled")
    # The noise floor is the worst within-series spread among the series
    # whose *difference* the gates measure: when one configuration's own
    # repeats disagree by X%, a cross-configuration delta below X% is not
    # resolvable on this machine, so the tolerance degrades to X honestly.
    def spread(per_frame: int, mode: str) -> float:
        series = [r["p50_s"] for r in runs[(per_frame, mode)]]
        return (max(series) / min(series) - 1.0) * 100

    noise_pct = max(spread(batch, "untraced"), spread(batch, "sampled"))
    sampled_runs = runs[(batch, "sampled")]
    return {
        "harness": "in-process pair",
        "frames": frames,
        "repeats": repeats,
        "batch": batch,
        "untraced_p50_us": round(untraced_p50 * 1e6, 1),
        "traced_p50_us": round(traced_p50 * 1e6, 1),
        "traced_overhead_pct": round((traced_p50 / untraced_p50 - 1.0) * 100, 2),
        "noise_pct": round(noise_pct, 2),
        "sampled_rate": sample_rate,
        "sampled_p50_us": round(sampled_p50 * 1e6, 1),
        "sampled_overhead_pct": round((sampled_p50 / untraced_p50 - 1.0) * 100, 2),
        "sampled_events": sampled_runs[0]["events"],
        "sampled_sends_dropped": sum(r["sends_sampled_out"] for r in sampled_runs),
        "sampled_deliveries_dropped": sum(
            r["deliveries_sampled_out"] for r in sampled_runs
        ),
        "single_untraced_p50_us": round(best(1, "untraced") * 1e6, 1),
        "single_traced_p50_us": round(best(1, "traced") * 1e6, 1),
        "single_overhead_pct": round(
            (best(1, "traced") / best(1, "untraced") - 1.0) * 100, 2
        ),
        "untraced_emit_calls": runs[(batch, "untraced")][0]["emit_calls"]
        + runs[(1, "untraced")][0]["emit_calls"],
        "traced_events": runs[(batch, "traced")][0]["events"],
    }


def bench_sketch(quick: bool) -> Dict[str, Any]:
    """Quantile-sketch accuracy and throughput on adversarial distributions.

    For each distribution the exact quantiles come from the sorted sample;
    the sketch's estimates must land within its configured relative-error
    bound (**gated** by ``--check``).  The distributions are chosen to
    stress different failure modes: log-uniform spans many orders of
    magnitude (bucket-index range), lognormal is the latency-shaped
    common case, bimodal puts mass at two widely separated modes
    (interpolation between them is where naive fixed-bucket histograms
    fail), pareto is heavy-tailed (p99 far from the mass), and constant
    collapses to a single bucket (rank arithmetic edge case).

    Also times single-observation cost and a 16-way shard merge — the
    operations the per-tenant aggregation layer performs on its hot path.
    """
    import math
    import random

    from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

    n = 5_000 if quick else 20_000
    rng = random.Random(0x5EED)
    distributions: Dict[str, List[float]] = {
        "lognormal": [rng.lognormvariate(3.0, 2.0) for _ in range(n)],
        "loguniform": [10.0 ** rng.uniform(-3.0, 6.0) for _ in range(n)],
        "bimodal": [
            rng.gauss(1.0, 0.05) if rng.random() < 0.5 else rng.gauss(5000.0, 100.0)
            for _ in range(n)
        ],
        "pareto": [rng.paretovariate(1.2) for _ in range(n)],
        "constant": [42.0] * n,
    }
    quantiles = (0.5, 0.9, 0.99)

    def exact(sorted_values: List[float], q: float) -> float:
        return sorted_values[min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))]

    per_dist: Dict[str, Any] = {}
    worst = 0.0
    for name, values in distributions.items():
        sketch = QuantileSketch()
        for v in values:
            sketch.observe(abs(v))
        ordered = sorted(abs(v) for v in values)
        errors = {}
        for q in quantiles:
            true = exact(ordered, q)
            est = sketch.quantile(q)
            rel = abs(est - true) / true if true else abs(est - true)
            errors[f"p{int(q * 100)}_rel_err"] = round(rel, 6)
            worst = max(worst, rel)
        per_dist[name] = {"buckets": len(sketch.buckets), **errors}

    # Throughput: observe cost on the lognormal stream, then a 16-way merge
    # of shards of that stream (the cross-site aggregation operation).
    stream = [abs(v) for v in distributions["lognormal"]]
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        timing_sketch = QuantileSketch()
        for v in stream:
            timing_sketch.observe(v)
        observe_s = time.perf_counter() - start
        shards = []
        for i in range(16):
            shard = QuantileSketch()
            for v in stream[i::16]:
                shard.observe(v)
            shards.append(shard)
        start = time.perf_counter()
        merged = shards[0].copy()
        for shard in shards[1:]:
            merged.merge(shard)
        merge_s = time.perf_counter() - start
    finally:
        gc.enable()
    assert merged.total == timing_sketch.total
    return {
        "samples_per_distribution": n,
        "relative_accuracy": DEFAULT_RELATIVE_ACCURACY,
        "worst_rel_err": round(worst, 6),
        "observe_ns": round(observe_s / n * 1e9, 1),
        "merge_16_shards_us": round(merge_s * 1e6, 1),
        "distributions": per_dist,
    }


def bench_tenant_agg(quick: bool) -> Dict[str, Any]:
    """Windowed per-tenant aggregation at fleet scale (≥100 tenants).

    Drives :class:`~repro.obs.agg.TelemetryAggregator` with a synthetic
    commit stream spread over 120 concurrent collaboration sets (tenants)
    and several windows, split across 4 per-site aggregators that are then
    fused with :func:`~repro.obs.agg.merge_agg_snapshots` — the exact
    shape ``repro top`` consumes.  Reports ingest throughput and the
    snapshot/merge cost, and asserts every tenant survives the pipeline.
    """
    import random

    from repro.obs.agg import TelemetryAggregator, merge_agg_snapshots

    tenants = 120
    events_per_tenant = 20 if quick else 60
    sites = 4
    rng = random.Random(0xA66)
    aggs = [
        TelemetryAggregator(window_ms=1000.0, keep_windows=8, site=s) for s in range(sites)
    ]
    total_events = tenants * events_per_tenant
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(events_per_tenant):
            time_ms = i * 250.0  # 4 events per tenant per window
            for t in range(tenants):
                agg = aggs[t % sites]
                tenant = f"obj:doc{t}"
                agg.inc(tenant, "commits", time_ms)
                agg.observe(tenant, "commit_latency_ms", time_ms, rng.lognormvariate(3.0, 0.7))
        ingest_s = time.perf_counter() - start
        start = time.perf_counter()
        snapshots = [agg.snapshot() for agg in aggs]
        snapshot_s = time.perf_counter() - start
        start = time.perf_counter()
        merged = merge_agg_snapshots(*snapshots)
        merge_s = time.perf_counter() - start
    finally:
        gc.enable()
    merged_tenants = {t for w in merged["windows"] for t in w["tenants"]}
    assert len(merged_tenants) == tenants, (len(merged_tenants), tenants)
    commits = sum(
        cell["counters"].get("commits", 0)
        for w in merged["windows"]
        for cell in w["tenants"].values()
    )
    return {
        "tenants": tenants,
        "sites": sites,
        "events": total_events,
        "windows_retained": len(merged["windows"]),
        "merged_commits": commits,
        "ingest_us_per_event": round(ingest_s / (total_events * 2) * 1e6, 3),
        "snapshot_ms": round(snapshot_s * 1e3, 3),
        "merge_ms": round(merge_s * 1e3, 3),
    }


def run(quick: bool = False, repeats: int = 0, sockets: bool = True) -> Dict[str, Any]:
    cfg = QUICK if quick else FULL
    transactions = cfg["transactions"]
    repeats = repeats or cfg["repeats"]

    runs: Dict[str, List[Dict[str, Any]]] = {"baseline": [], "disabled": [], "enabled": []}
    # Untimed warmup: the very first session pays import and allocator
    # warmup, which would otherwise bias whichever series runs first.
    bench_commit_throughput(transactions, observe=False)
    # Interleave the modes so drift (thermal, scheduling) hits all three
    # series equally; gate on best-of to shed one-off stalls.
    for _ in range(repeats):
        runs["baseline"].append(bench_commit_throughput(transactions, observe=False))
        runs["disabled"].append(bench_commit_throughput(transactions, observe=False))
        runs["enabled"].append(bench_commit_throughput(transactions, observe=True))

    def summarize(mode: str) -> Dict[str, Any]:
        walls = [r["wall_s"] for r in runs[mode]]
        best = min(walls)
        return {
            "wall_s": [round(w, 6) for w in walls],
            "best_s": round(best, 6),
            "best_cpu_s": round(min(r["cpu_s"] for r in runs[mode]), 6),
            "commits_per_sec": round(transactions / best, 1),
            "events": runs[mode][0]["events"],
            "emit_calls": runs[mode][0]["emit_calls"],
        }

    summary = {mode: summarize(mode) for mode in runs}
    disabled_s = summary["disabled"]["best_s"]
    enabled_s = summary["enabled"]["best_s"]
    events = summary["enabled"]["events"]
    # The gated statistic is the ratio of best-of CPU times: the workload
    # is pure CPU (simulated network), timing noise is one-sided (stalls
    # only ever slow a run down), and process_time is blind to scheduler
    # preemption — the dominant noise source on shared CI machines.
    best_ratio = summary["disabled"]["best_cpu_s"] / summary["baseline"]["best_cpu_s"]
    # Within-series spread of the baseline is the machine's demonstrated
    # measurement noise for this exact workload; the check gate widens its
    # tolerance to at least this, so a 5% contract is enforced for real on
    # quiet machines and degrades honestly instead of flaking on loaded ones.
    baseline_cpu = [r["cpu_s"] for r in runs["baseline"]]
    spread_pct = (max(baseline_cpu) / min(baseline_cpu) - 1.0) * 100
    result = {
        "schema": "bench_obs/v1",
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "transactions": transactions,
        "repeats": repeats,
        "modes": summary,
        "analysis": bench_analysis_cost(transactions, min(repeats, 3)),
        "overhead": {
            "disabled_vs_baseline_pct": round((best_ratio - 1.0) * 100, 2),
            "baseline_noise_pct": round(spread_pct, 2),
            "enabled_vs_disabled_pct": round((enabled_s / disabled_s - 1.0) * 100, 2),
            "recording_us_per_event": (
                round((enabled_s - disabled_s) / events * 1e6, 3) if events else None
            ),
        },
    }
    result["sketch"] = bench_sketch(quick)
    result["tenant_agg"] = bench_tenant_agg(quick)
    if sockets:
        result["sockets"] = bench_traced_sockets(quick)
    return result


#: Allowed traced-vs-untraced p50 RTT overhead on the real socket path.
#: Tracing adds ~4 bus emissions and one TraceContext per round trip —
#: single-digit microseconds against a localhost RTT two orders larger.
SOCKET_TOLERANCE_PCT = 10.0

#: Allowed 1%-sampled-vs-untraced p50 RTT overhead (floor; the measured
#: untraced noise widens it).  The not-sampled path is one sha256 of the
#: trace id (memoized per trace) plus a counter increment — it must cost
#: no more than tracing being off, or sampling defeats its own purpose.
SAMPLED_TOLERANCE_PCT = 5.0

#: Margin over the sketch's configured relative accuracy allowed for the
#: empirical quantile error: rank interpolation against a finite sample
#: adds up to one sample-spacing of quantization on top of the bucket
#: relative-error guarantee.
SKETCH_ERR_MARGIN = 1.05


def check(results: Dict[str, Any], tolerance_pct: float) -> List[str]:
    """Gate the zero-overhead-when-disabled contract; returns failures."""
    failures: List[str] = []
    modes = results["modes"]
    for mode in ("baseline", "disabled"):
        if modes[mode]["emit_calls"] != 0:
            failures.append(
                f"{mode}: EventBus.emit entered {modes[mode]['emit_calls']} times "
                "with the bus inactive — an emission guard is missing or broken"
            )
        if modes[mode]["events"] != 0:
            failures.append(f"{mode}: {modes[mode]['events']} events recorded on an idle bus")
    if modes["enabled"]["events"] == 0:
        failures.append("enabled: observe() recorded no events — instrumentation is dead")
    disabled_pct = abs(results["overhead"]["disabled_vs_baseline_pct"])
    effective_pct = max(tolerance_pct, results["overhead"]["baseline_noise_pct"])
    if disabled_pct > effective_pct:
        failures.append(
            f"disabled-mode CPU time diverges {disabled_pct:.2f}% from its paired "
            f"baseline (tolerance {tolerance_pct:.1f}%, machine noise "
            f"{results['overhead']['baseline_noise_pct']:.1f}%)"
        )
    sockets = results.get("sockets")
    if sockets:
        if sockets["untraced_emit_calls"] != 0:
            failures.append(
                f"sockets: untraced transports entered EventBus.emit "
                f"{sockets['untraced_emit_calls']} times — the zero-overhead "
                "guard is broken on the TCP path"
            )
        if sockets["traced_events"] == 0:
            failures.append(
                "sockets: traced ping-pong recorded no events — transport "
                "tracing is dead"
            )
        socket_limit = max(SOCKET_TOLERANCE_PCT, sockets["noise_pct"])
        if sockets["traced_overhead_pct"] > socket_limit:
            failures.append(
                f"sockets: traced ping-pong p50 is "
                f"{sockets['traced_overhead_pct']:.2f}% over untraced "
                f"(tolerance {SOCKET_TOLERANCE_PCT:.1f}%, measured noise "
                f"{sockets['noise_pct']:.1f}%)"
            )
        sampled_limit = max(SAMPLED_TOLERANCE_PCT, sockets["noise_pct"])
        if sockets["sampled_overhead_pct"] > sampled_limit:
            failures.append(
                f"sockets: 1%-sampled ping-pong p50 is "
                f"{sockets['sampled_overhead_pct']:.2f}% over untraced "
                f"(tolerance {SAMPLED_TOLERANCE_PCT:.1f}%, measured noise "
                f"{sockets['noise_pct']:.1f}%) — the not-sampled fast path "
                "grew a real per-frame cost"
            )
        if sockets["sampled_sends_dropped"] == 0:
            failures.append(
                "sockets: the 1% sampler never dropped a send across "
                "all repeats — sampling is not reaching the transport"
            )
    sketch = results.get("sketch")
    if sketch:
        bound = sketch["relative_accuracy"] * SKETCH_ERR_MARGIN
        for dist, row in sketch["distributions"].items():
            for key, err in row.items():
                if key.endswith("_rel_err") and err > bound:
                    failures.append(
                        f"sketch: {dist} {key[:-8]} relative error {err:.4f} "
                        f"exceeds the configured bound "
                        f"{sketch['relative_accuracy']:.4f} "
                        f"(x{SKETCH_ERR_MARGIN} sampling margin)"
                    )
    tenant_agg = results.get("tenant_agg")
    if tenant_agg and tenant_agg["tenants"] < 100:
        failures.append(
            f"tenant_agg: only {tenant_agg['tenants']} tenants exercised "
            "(the aggregation contract is >=100 concurrent collaboration sets)"
        )
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced sizes (CI smoke)")
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument("--repeats", type=int, default=0, help="override repeat count")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the zero-overhead-when-disabled contract (exit 1 on failure)",
    )
    parser.add_argument(
        "--tolerance-pct",
        type=float,
        default=5.0,
        help="allowed baseline/disabled wall-clock divergence (default 5%%)",
    )
    parser.add_argument(
        "--no-sockets",
        action="store_true",
        help="skip the traced-vs-untraced real-socket ping-pong series",
    )
    args = parser.parse_args(argv)

    results = run(quick=args.quick, repeats=args.repeats, sockets=not args.no_sockets)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    modes = results["modes"]
    for mode in ("baseline", "disabled", "enabled"):
        row = modes[mode]
        print(
            f"{mode:9s} best {row['best_s']:.3f}s  {row['commits_per_sec']:>7.1f} commits/s"
            f"  events={row['events']}"
        )
    overhead = results["overhead"]
    print(
        f"\ndisabled vs baseline: {overhead['disabled_vs_baseline_pct']:+.2f}%"
        f"   enabled vs disabled: {overhead['enabled_vs_disabled_pct']:+.2f}%"
        f"   recording cost: {overhead['recording_us_per_event']} us/event"
    )
    analysis = results["analysis"]
    print(
        f"analysis over {analysis['events']} events: "
        f"causal {analysis['analyze_us_per_event']} us/event"
        f"   health {analysis['health_us_per_event']} us/event"
    )
    sketch = results["sketch"]
    print(
        f"sketch: worst rel err {sketch['worst_rel_err']:.4f} "
        f"(bound {sketch['relative_accuracy']}), "
        f"observe {sketch['observe_ns']} ns, "
        f"16-shard merge {sketch['merge_16_shards_us']} us"
    )
    tenant_agg = results["tenant_agg"]
    print(
        f"tenant_agg: {tenant_agg['tenants']} tenants x {tenant_agg['sites']} sites, "
        f"ingest {tenant_agg['ingest_us_per_event']} us/event, "
        f"merge {tenant_agg['merge_ms']} ms"
    )
    if "sockets" in results:
        sockets = results["sockets"]
        print(
            f"sockets: untraced p50 {sockets['untraced_p50_us']} us, "
            f"traced p50 {sockets['traced_p50_us']} us "
            f"({sockets['traced_overhead_pct']:+.2f}%, "
            f"noise {sockets['noise_pct']:.2f}%), "
            f"{sockets['traced_events']} events recorded"
        )
        print(
            f"sampled (rate {sockets['sampled_rate']}): "
            f"p50 {sockets['sampled_p50_us']} us "
            f"({sockets['sampled_overhead_pct']:+.2f}% vs untraced), "
            f"{sockets['sampled_sends_dropped']} sends / "
            f"{sockets['sampled_deliveries_dropped']} deliveries sampled out"
        )
    print(f"wrote {args.out}")

    if args.check:
        failures = check(results, args.tolerance_pct)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"check passed (tolerance {args.tolerance_pct:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
