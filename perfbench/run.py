#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload host-remote-write --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check prints the failures on standard error, no numbers, and
exits with status 1.  See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import gzip
import json
import os
import platform
import resource
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("host-remote-write", "host-contended-rmw", "sim-multiobject")


def fingerprint() -> Dict[str, Any]:
    """The machine a run was measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "loadavg_start": loadavg(),
    }


def loadavg() -> List[float]:
    """The 1, 5 and 15 minute load averages (empty where there are none)."""
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of /proc/stat (empty where there is none)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before: List[int], after: List[int]) -> float:
    """Share of machine CPU time the hypervisor took away between two reads."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import hostload
    import simload

    if name == "sim-multiobject":
        return simload.run(seed, seconds, trace)
    config = hostload.REMOTE_WRITE if name == "host-remote-write" else hostload.CONTENDED_RMW
    return asyncio.run(hostload.run(config, seed, seconds, trace))


def write_spans(name: str, seed: int, spans: Dict[str, List[Any]]) -> str:
    """Write the traced run's spans as gzipped JSON lines, one span a line."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl.gz")
    with gzip.open(path, "wt") as fh:
        for phase, phase_spans in spans.items():
            for span in phase_spans:
                fh.write(json.dumps([phase, *span]))
                fh.write("\n")
    return os.path.relpath(path, ROOT)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    from measure import END_TO_END, PER_LAYER

    machine = fingerprint()
    ticks = cpu_ticks()
    wall, cpu = time.perf_counter(), time.process_time()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if result.problems:
        print(f"{args.workload}: correctness check failed:", file=sys.stderr)
        for problem in result.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1

    metrics = dict(result.metrics)
    record = dict(result.record)
    spans = record.pop("spans", None)
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    machine["steal_pct"] = round(steal_pct(ticks, cpu_ticks()), 3)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine,
        run_wall_s=round(time.perf_counter() - wall, 6),
        run_cpu_s=round(time.process_time() - cpu, 6),
    )
    if spans is not None:
        record["spans_file"] = write_spans(args.workload, args.seed, spans)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:30s} {value:14.4f} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    listed = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
