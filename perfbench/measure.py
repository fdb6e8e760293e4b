"""Helpers shared by the benchmark workloads.

Everything here observes the program from outside: a view that logs
notifications, percentiles over latency samples the workloads collect,
deltas of the counters the program already keeps, a :class:`Tracer`
that wraps public functions of each layer with timing spans, and a
:class:`MachineSpeed` that times fixed reference work between sim
rounds.  Nothing in ``src/`` is modified; the tracer patches class and
module attributes and restores them on exit.
"""

from __future__ import annotations

import gc
import math
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.views import View

#: Samples that must lie strictly above a reported percentile.
BEYOND = 10


class Watch(View):
    """A view that logs the time and ``snapshot.ts`` of every notification.

    ``clock`` is wall time on the TCP workloads and simulated time on the
    simulator.  Timestamps are kept as their ``(counter, site)`` keys, which
    order as the timestamps do: a tuple of ints is one the garbage collector
    stops tracking, so a long log adds nothing to a full collection.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._times: List[float] = []
        self._keys: List[Tuple[int, int]] = []

    def update(self, changed, snapshot) -> None:
        self._times.append(self.clock())
        self._keys.append(snapshot.ts.key)

    def first_at_or_after(self, due: float, key: Tuple[int, int]) -> Optional[float]:
        """Time of the first notification after ``due`` with ``ts.key >= key``."""
        keys = self._keys
        for i in range(bisect_left(self._times, due), len(keys)):
            if keys[i] >= key:
                return self._times[i]
        return None

    def monotone(self) -> bool:
        """True when snapshot timestamps never went backwards."""
        keys = self._keys
        return all(b >= a for a, b in zip(keys, keys[1:]))


def transfer(src: Any, dst: Any) -> Callable[[], None]:
    """A transaction body: read both objects, move one unit from src to dst."""

    def body() -> None:
        a, b = src.get(), dst.get()
        src.set(a - 1)
        dst.set(b + 1)

    return body


def notify_latency(
    watches: Sequence[Watch], due: float, key: Tuple[int, int]
) -> Optional[float]:
    """Due time to the first remote notification covering the VT ``key`` (None: never)."""
    seen = [w.first_at_or_after(due, key) for w in watches]
    found = [t for t in seen if t is not None]
    return min(found) - due if found else None


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> Optional[Tuple[float, float, int]]:
    """``(value, percentile, n)`` for the nearest-rank ``q`` quantile.

    The percentile is capped so that at least :data:`BEYOND` samples lie
    above it: with too few samples for ``q`` the highest percentile that
    still has ten samples beyond it is reported instead, and the returned
    ``percentile`` says which one it was.  None when fewer than
    ``BEYOND + 1`` samples exist.
    """
    n = len(samples)
    if n <= BEYOND:
        return None
    ordered = sorted(samples)
    rank = min(max(math.ceil(q * n) - 1, 0), n - 1 - BEYOND)
    return ordered[rank], (rank + 1) / n, n


def histogram_quantile(
    bounds: Sequence[float], before: Sequence[int], after: Sequence[int], q: float
) -> float:
    """Upper bucket edge holding the ``q`` quantile of a histogram delta.

    ``before``/``after`` are bucket counts (one overflow bucket past the
    last bound).  The overflow bucket reports the last bound.  0.0 when the
    delta is empty.
    """
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    if total <= 0:
        return 0.0
    need = math.ceil(q * total)
    seen = 0
    for i, count in enumerate(delta):
        seen += count
        if seen >= need:
            return float(bounds[min(i, len(bounds) - 1)])
    return float(bounds[-1])


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def counters_of(source: Any) -> Dict[str, int]:
    """Counters of a ``SessionHost`` or ``Session``.

    ``source.counters()`` has the engine, view and transport counters; the
    per-site registries add the outbox (``wire.*``) ones it leaves out.
    """
    totals = dict(source.counters())
    for snap in source.metrics_snapshot():
        if snap["site"] == -1:  # the transport registry, already counted
            continue
        for key, value in snap["counters"].items():
            if not key.startswith("txn."):  # counters() has these by other names
                totals[key] = totals.get(key, 0) + value
    return totals


def counter_delta(
    before: Sequence[Mapping[str, int]], after: Sequence[Mapping[str, int]]
) -> Dict[str, int]:
    """Sum of per-source counter deltas.

    ``before[i]`` and ``after[i]`` are snapshots of the same source (one
    host, one session).  Each source's baseline is subtracted from that
    source's own reading exactly once, so adding two hosts together never
    subtracts a baseline twice.  Keys absent from a baseline count from 0.
    """
    if len(before) != len(after):
        raise ValueError("before and after must list the same sources")
    totals: Dict[str, int] = {}
    for base, now in zip(before, after):
        for key in set(base) | set(now):
            totals[key] = totals.get(key, 0) + now.get(key, 0) - base.get(key, 0)
    return totals


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

#: One recorded span: (name, start_ns, end_ns, parent index or -1, trace
#: id).  The trace id is the transaction VT as ``(counter, site)``, or None.
Span = Tuple[str, int, int, int, Any]


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, int]]:
    """Per span name: ``(calls, self_ns)``.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (children are clipped to the parent and
    overlapping children are counted once).
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent, _tid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, List[int]] = {}
    for index, (name, start, end, _parent, _tid) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, ns) for name, (calls, ns) in out.items()}


def _vt_key(vt: Any) -> Optional[Tuple[int, int]]:
    # A tuple of ints, so a recorded span holds no object the garbage
    # collector must keep tracking: millions of tracked spans would slow
    # every full collection of the traced run.
    return None if vt is None else vt.key


def _trace_id_of(message: Any) -> Optional[Tuple[int, int]]:
    return _vt_key(getattr(message, "txn_vt", None))


class Tracer:
    """Timing wrappers around the layer entry points, recording spans.

    :meth:`install` must run before any ``SiteRuntime`` is built: the site's
    route table binds the engine and view handlers at construction.  Spans
    stay in memory; :meth:`take` hands over everything recorded since the
    last call.  Use as a context manager so the originals come back.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Nanoseconds from each ``SiteRuntime.join`` call to its commit.
        self.join_waits: List[int] = []
        #: Encoded frame bytes, summed over ``codec.encode`` spans.
        self.encoded_bytes = 0

    # -- span recording --------------------------------------------------

    def _span(self, name: str, fn: Callable, tid_of_args=None, tid_of_result=None,
              on_result=None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            tid = tid_of_args(args) if tid_of_args is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tid)
            if tid_of_result is not None:
                spans[index] = (name, start, end, parent, tid_of_result(result))
            if on_result is not None:
                on_result(args, result, start)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        from repro.core.commit import TransactionEngine
        from repro.core.site import SiteRuntime
        from repro.core.views import ViewManager
        from repro.host import SessionHost
        from repro.transport import tcp

        msg_tid = lambda args: _trace_id_of(args[2])  # noqa: E731 - (self, src, msg)

        engine = TransactionEngine
        self._patch(engine, "run", self._span(
            "commit.run", engine.run, tid_of_result=lambda outcome: _vt_key(outcome.vt)))
        self._patch(engine, "on_propagate", self._span(
            "commit.validate", engine.on_propagate, msg_tid))
        for attr in ("on_confirm", "on_commit", "on_abort"):
            self._patch(engine, attr, self._span(
                "commit.resolve", engine.__dict__[attr], msg_tid))
        for attr in ("on_confirm_request", "on_confirm_reply", "on_write_confirmed"):
            self._patch(ViewManager, attr, self._span(
                "views.confirm", ViewManager.__dict__[attr], msg_tid))

        joins = self.join_waits

        def note_join_wait(args, outcome, start_ns):
            outcome.on_commit(
                lambda _o: joins.append(time.perf_counter_ns() - start_ns))

        self._patch(SiteRuntime, "join", self._span(
            "join", SiteRuntime.join, on_result=note_join_wait))
        self._patch(SiteRuntime, "import_invitation", self._span(
            "join", SiteRuntime.import_invitation))

        activate = self._span("host.activate", SessionHost.tenant)
        plain_tenant = SessionHost.tenant

        def tenant(host, tenant_id):
            if host.is_active(tenant_id):
                return plain_tenant(host, tenant_id)
            return activate(host, tenant_id)

        self._patch(SessionHost, "tenant", tenant)

        def count_bytes(args, frame, start_ns):
            self.encoded_bytes += len(frame)

        self._patch(tcp, "encode_frame", self._span(
            "codec.encode", tcp.encode_frame, lambda args: _trace_id_of(args[2]),
            on_result=count_bytes))
        self._patch(tcp, "decode_frame", self._span(
            "codec.decode", tcp.decode_frame,
            tid_of_result=lambda parts: _trace_id_of(parts[3])))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- harvesting ------------------------------------------------------

    def take(self) -> "TraceTake":
        """Everything recorded since the last call (no span may be open)."""
        if self._stack:
            raise RuntimeError("take() while a span is open")
        taken = TraceTake(list(self.spans), list(self.join_waits), self.encoded_bytes)
        self.spans[:] = []
        self.join_waits[:] = []
        self.encoded_bytes = 0
        return taken


class TraceTake(NamedTuple):
    """Spans and side tallies of one traced phase."""

    spans: List[Span]
    join_waits_ns: List[int]
    encoded_bytes: int


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: Items one pass of :func:`reference_slice` stores and sorts, and its
#: passes.  The table stays small so that the slice runs from cache
#: whatever the workload's heap looks like.
REFERENCE_ITEMS = 2_000
REFERENCE_PASSES = 40
#: CPU seconds one reference slice takes at the reference speed: the
#: median in an idle process on the 2-vCPU Xeon VM this benchmark was
#: built on.
REFERENCE_SLICE_S = 0.046


def reference_slice() -> float:
    """CPU seconds for a fixed piece of interpreter work: fill a dict of
    tuples and lists, then sort and walk it, :data:`REFERENCE_PASSES` times.

    The collector is off meanwhile: its passes would walk the workload's
    heap, and the slice would then time the program too.
    """
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(REFERENCE_PASSES):
            table = {}
            for i in range(REFERENCE_ITEMS):
                table[(i % 251, i)] = [i, str(i)]
            total = 0
            for key, value in sorted(table.items()):
                total += key[0] + len(value[1])
        return time.process_time() - start
    finally:
        gc.enable()


class MachineSpeed:
    """Reference slices timed between the rounds of a sim run.

    The CPU speed of a shared VM drifts over seconds: the same seeded sim
    round ran at 571 to 1,128 commits/s within one run, with neighbouring
    rounds at similar speeds, and a set of ten runs read 20% slower than
    five runs half an hour before it.  A slice before each round and after
    the last gives each round a :meth:`slowdown`; dividing the round's
    times by it makes the CPU-bound metrics read as at the reference
    speed.  The reference work runs none of the program's code, so a
    change in the program's work per commit is not scaled away.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []

    def sample(self) -> None:
        self.slices.append(reference_slice())

    def slowdown(self, part: int) -> float:
        """How much slower than the reference the machine ran during part
        ``part``: the mean of the slices just before and just after it,
        over :data:`REFERENCE_SLICE_S`."""
        return (self.slices[part] + self.slices[part + 1]) / 2 / REFERENCE_SLICE_S


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class Result(NamedTuple):
    """What one workload run reports.

    ``metrics`` maps a metric name to ``(value, unit)``.  ``problems`` lists
    failed correctness checks; a run with problems reports no numbers.
    ``record`` holds what goes beside the numbers: per-phase CPU and wall
    time, and the percentile and sample count behind each percentile.
    """

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    problems: List[str]
    record: Dict[str, Any]


#: Percentiles reported for commit and notify latency.
LATENCY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.5), ("p95", 0.95), ("p99", 0.99))

#: End-to-end metrics on the result line of an untraced run.  The p95 and
#: p99 latencies are printed and recorded but not listed: on a shared VM
#: they move with scheduler stalls from run to run by more than a bound
#: allows (see README.md).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("commits_per_s", "1/s"),
    ("cpu_us_per_commit", "us"),
    ("commit_p50_ms", "ms"),
    ("notify_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail_metrics(
    prefix: str, samples: Sequence[float], record: Dict[str, Any],
    quantiles: Sequence[Tuple[str, float]] = LATENCY_QUANTILES,
    required: bool = True,
) -> Dict[str, Tuple[float, str]]:
    """``<prefix>_<label>_ms`` per quantile, by the rule of :func:`percentile`.

    The value, the percentile actually used and its sample count go into
    ``record``.
    A required metric with too few samples raises; an optional one reads 0.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for label, q in quantiles:
        name = f"{prefix}_{label}_ms"
        found = percentile(samples, q)
        if found is None:
            if required:
                raise ValueError(f"{name}: only {len(samples)} samples")
            out[name] = (0.0, "ms")
            continue
        value, used, n = found
        out[name] = (value, "ms")
        record[name] = {"value": value, "percentile": round(100.0 * used, 3), "samples": n}
    return out


#: Per-layer metrics every traced run reports, with their units.  Counts
#: from the measured phase are divided by the commits of that phase (the
#: record's ``trace_commits``) so runs of different length compare.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("host.activate.calls", "count"),
    ("host.activate.busy_ms", "ms"),
    ("join.calls", "count"),
    ("join.wait_ms", "ms"),
    ("commit.run.calls", "1/commit"),
    ("commit.run.self_us", "us/commit"),
    ("commit.validate.calls", "1/commit"),
    ("commit.validate.self_us", "us/commit"),
    ("commit.resolve.calls", "1/commit"),
    ("commit.resolve.self_us", "us/commit"),
    ("commit.attempts_per_commit", "ratio"),
    ("commit.aborts_conflict", "1/commit"),
    ("views.confirm.calls", "1/commit"),
    ("views.confirm.self_us", "us/commit"),
    ("views.notifications", "1/commit"),
    ("views.commit_notifications", "1/commit"),
    ("outbox.messages_per_commit", "1/commit"),
    ("outbox.messages_per_envelope", "ratio"),
    ("codec.encode.calls", "1/commit"),
    ("codec.encode.self_us", "us/commit"),
    ("codec.decode.calls", "1/commit"),
    ("codec.decode.self_us", "us/commit"),
    ("codec.bytes_per_frame", "bytes"),
    ("tcp.frames_per_commit", "1/commit"),
    ("tcp.frames_per_write", "ratio"),
    ("tcp.write_flush_p99_ms", "ms"),
    ("tcp.queue_depth_max", "count"),
    ("loop.lag_p50_ms", "ms"),
    ("loop.lag_p99_ms", "ms"),
    ("sim.messages_per_commit", "1/commit"),
    ("sim.events", "1/commit"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(
    setup: TraceTake,
    phase: TraceTake,
    counters: Mapping[str, int],
    *,
    untraced_rate: float,
    traced_rate: float,
    lag_s: Sequence[float] = (),
    late_s: Sequence[float] = (),
    queue_depth_max: float = 0.0,
    write_flush_p99_ms: float = 0.0,
    sim_messages: int = 0,
    sim_events: int = 0,
) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``setup`` is the trace of the set-up, ``phase`` that of the measured
    phase, ``counters`` the counter deltas over that phase.
    """
    commits = counters.get("commits", 0)
    own = self_times(phase.spans)
    built = self_times(setup.spans)
    per_commit = lambda value: ratio(value, commits)  # noqa: E731
    values: Dict[str, float] = {
        "host.activate.calls": built.get("host.activate", (0, 0))[0],
        "host.activate.busy_ms": built.get("host.activate", (0, 0))[1] / 1e6,
        "join.calls": built.get("join", (0, 0))[0],
        "join.wait_ms": ratio(sum(setup.join_waits_ns), len(setup.join_waits_ns)) / 1e6,
        "commit.attempts_per_commit": ratio(commits + counters.get("aborts_conflict", 0), commits),
        "commit.aborts_conflict": per_commit(counters.get("aborts_conflict", 0)),
        "views.notifications": per_commit(counters.get("notifications", 0)),
        "views.commit_notifications": per_commit(counters.get("commit_notifications", 0)),
        "outbox.messages_per_commit": per_commit(counters.get("wire.messages_sent", 0)),
        "outbox.messages_per_envelope": ratio(
            counters.get("wire.messages_sent", 0), counters.get("wire.envelopes_sent", 0)),
        "codec.bytes_per_frame": ratio(phase.encoded_bytes, own.get("codec.encode", (0, 0))[0]),
        "tcp.frames_per_commit": per_commit(counters.get("transport.frames_sent", 0)),
        "tcp.frames_per_write": ratio(
            counters.get("transport.frames_sent", 0), counters.get("transport.writes", 0)),
        "tcp.write_flush_p99_ms": write_flush_p99_ms,
        "tcp.queue_depth_max": queue_depth_max,
        "sim.messages_per_commit": per_commit(sim_messages),
        "sim.events": per_commit(sim_events),
        "trace.overhead_pct": 100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
    }
    for span in ("commit.run", "commit.validate", "commit.resolve", "views.confirm",
                 "codec.encode", "codec.decode"):
        calls, self_ns = own.get(span, (0, 0))
        values[f"{span}.calls"] = per_commit(calls)
        values[f"{span}.self_us"] = per_commit(self_ns / 1e3)
    scratch: Dict[str, Any] = {}
    lag = tail_metrics("loop.lag", [s * 1e3 for s in lag_s], scratch,
                       quantiles=(("p50", 0.5), ("p99", 0.99)), required=False)
    values["loop.lag_p50_ms"] = lag["loop.lag_p50_ms"][0]
    values["loop.lag_p99_ms"] = lag["loop.lag_p99_ms"][0]
    late = tail_metrics("gen.late", [s * 1e3 for s in late_s], scratch,
                        quantiles=(("p99", 0.99),), required=False)
    values["gen.late_p99_ms"] = late["gen.late_p99_ms"][0]
    units = dict(PER_LAYER)
    return {name: (float(values[name]), units[name]) for name, _unit in PER_LAYER}
