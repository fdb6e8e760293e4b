"""Tiny runs of each workload pass their own correctness checks."""

import asyncio
import dataclasses

import hostload
import simload
from measure import PER_LAYER

TINY_REMOTE = dataclasses.replace(hostload.REMOTE_WRITE, tenants=4, rate=120.0)
TINY_CONTENDED = dataclasses.replace(hostload.CONTENDED_RMW, tenants=2, rate=120.0)
LATENCIES = {f"{kind}_{label}_ms"
             for kind in ("commit", "notify") for label in ("p50", "p95", "p99")}


def run_host(config, trace):
    return asyncio.run(hostload.run(config, seed=7, seconds=0.9, trace=trace))


def test_tiny_remote_write_passes_checks():
    result = run_host(TINY_REMOTE, trace=False)
    assert result.problems == []
    assert result.failed == 0 and result.attempted > 20
    assert set(result.metrics) == {"setup_s", "commits_per_s", "cpu_us_per_commit"} | LATENCIES
    assert all(value > 0 for value, _unit in result.metrics.values())


def test_tiny_contended_rmw_passes_checks_traced():
    result = run_host(TINY_CONTENDED, trace=True)
    assert result.problems == []
    assert result.failed == 0
    assert list(result.metrics) == [name for name, _ in PER_LAYER]
    metrics = {name: value for name, (value, _unit) in result.metrics.items()}
    assert metrics["host.activate.calls"] == 2 * TINY_CONTENDED.tenants
    assert metrics["codec.encode.calls"] > 0 and metrics["tcp.frames_per_commit"] > 0
    assert metrics["commit.run.calls"] >= 1.0
    assert metrics["sim.messages_per_commit"] == 0


def test_tiny_sim_round_passes_checks_and_replays(monkeypatch):
    monkeypatch.setattr(simload, "ROUND_TXNS", 60)
    first, _ = simload.run_round(seed=3)
    again, _ = simload.run_round(seed=3)
    assert first.problems == []
    assert first.commits == 60
    assert simload.same_round(first, again)


def test_tiny_sim_traced_reads_zero_on_the_wire(monkeypatch):
    monkeypatch.setattr(simload, "ROUND_TXNS", 60)
    result = simload.run(seed=3, seconds=0.1, trace=True)
    assert result.problems == []
    metrics = {name: value for name, (value, _unit) in result.metrics.items()}
    for name in ("codec.encode.calls", "codec.decode.calls", "tcp.frames_per_commit",
                 "loop.lag_p99_ms", "host.activate.calls"):
        assert metrics[name] == 0
    assert metrics["sim.messages_per_commit"] > 0
    assert metrics["commit.validate.calls"] > 0
