"""Windowed per-tenant telemetry rollups: counters + quantile sketches.

The paper's §5.1.3 scalability argument is that commit cost is per
*collaboration set*, not global — so the telemetry must be per
collaboration set too.  A :class:`TelemetryAggregator` buckets counters
and :class:`~repro.obs.sketch.QuantileSketch` observations into tumbling
time windows keyed by a tenant label (one label per collaboration
set/object/customer), holding a bounded number of recent windows.  Time
comes from whichever clock stamps the events (simulated ms in the
simulator, :class:`~repro.obs.clock.WallClock` ms on the real socket
plane), so aggregation is deterministic under replay.

Snapshots are plain JSON dicts (``repro-agg/1``) in which sketches appear
in their :meth:`~repro.obs.sketch.QuantileSketch.to_dict` form; they are
mergeable across processes with :func:`merge_agg_snapshots` (counters
add, sketches bucket-merge) — the same discipline as the trace merge in
:mod:`repro.obs.merge`, and what lets ``repro top`` fuse the per-process
``agg*.json`` files that ``examples/two_process_tcp.py --trace-dir``
emits.

:class:`TenantTelemetry` adapts the event bus to the aggregator: it maps
each transaction to a tenant (the first object it touches, falling back
to the origin site), and derives per-tenant commit counts, commit
latency, abort counts, and notify lag from the protocol lifecycle events
— subscribe it like any other consumer (``bus.subscribe(telemetry)``).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.events import ProtocolEvent
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.obs.spans import MAX_LIVE_TXNS, LifecycleTracker

__all__ = [
    "AGG_FORMAT",
    "TelemetryAggregator",
    "TenantTelemetry",
    "merge_agg_snapshots",
]

AGG_FORMAT = "repro-agg/1"

#: Quantiles exported in snapshots and rendered by ``repro top``.
SNAPSHOT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class _TenantWindow:
    """One tenant's accumulators inside one time window."""

    __slots__ = ("counters", "sketches")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.sketches: Dict[str, QuantileSketch] = {}


class TelemetryAggregator:
    """Tumbling-window rollups keyed by (window index, tenant label).

    ``window_ms`` sets the window width; ``keep_windows`` bounds memory —
    when a new window opens beyond the horizon, the oldest completed
    windows are evicted (their data is assumed already snapshotted by the
    periodic flusher).  Eviction is by window index, so it is
    deterministic under replay regardless of flush timing.
    """

    def __init__(
        self,
        window_ms: float = 1000.0,
        keep_windows: int = 8,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        site: int = -1,
    ) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        if keep_windows < 1:
            raise ValueError("keep_windows must be >= 1")
        self.window_ms = float(window_ms)
        self.keep_windows = keep_windows
        self.relative_accuracy = relative_accuracy
        self.site = site
        # window index -> tenant label -> accumulators; OrderedDict in
        # insertion order == ascending window index (time is monotone).
        self._windows: "OrderedDict[int, Dict[str, _TenantWindow]]" = OrderedDict()

    # -- recording -------------------------------------------------------

    def _cell(self, tenant: str, time_ms: float) -> _TenantWindow:
        index = int(time_ms // self.window_ms)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = {}
            while len(self._windows) > self.keep_windows:
                self._windows.popitem(last=False)
        cell = window.get(tenant)
        if cell is None:
            cell = window[tenant] = _TenantWindow()
        return cell

    def inc(self, tenant: str, name: str, time_ms: float, delta: int = 1) -> None:
        """Bump counter ``name`` for ``tenant`` in the window of ``time_ms``."""
        counters = self._cell(tenant, time_ms).counters
        counters[name] = counters.get(name, 0) + delta

    def observe(self, tenant: str, name: str, time_ms: float, value: float) -> None:
        """Record ``value`` into tenant's ``name`` sketch in the window."""
        sketches = self._cell(tenant, time_ms).sketches
        sketch = sketches.get(name)
        if sketch is None:
            sketch = sketches[name] = QuantileSketch(self.relative_accuracy)
        sketch.observe(value)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-stable dump of every retained window."""
        windows: List[Dict[str, Any]] = []
        for index in sorted(self._windows):
            tenants: Dict[str, Any] = {}
            for tenant in sorted(self._windows[index]):
                cell = self._windows[index][tenant]
                tenants[tenant] = {
                    "counters": {k: cell.counters[k] for k in sorted(cell.counters)},
                    "sketches": {
                        k: cell.sketches[k].to_dict() for k in sorted(cell.sketches)
                    },
                    "quantiles": {
                        k: {
                            f"p{int(q * 100)}": round(cell.sketches[k].quantile(q), 6)
                            for q in SNAPSHOT_QUANTILES
                        }
                        for k in sorted(cell.sketches)
                    },
                }
            windows.append(
                {
                    "index": index,
                    "start_ms": index * self.window_ms,
                    "end_ms": (index + 1) * self.window_ms,
                    "tenants": tenants,
                }
            )
        return {
            "format": AGG_FORMAT,
            "site": self.site,
            "window_ms": self.window_ms,
            "windows": windows,
        }

    def to_json(self) -> str:
        """Canonical byte-stable serialization of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"

    def tenants(self) -> List[str]:
        """Every tenant label seen in the retained windows, sorted."""
        out = set()
        for window in self._windows.values():
            out.update(window)
        return sorted(out)

    def __repr__(self) -> str:
        return (
            f"TelemetryAggregator(window_ms={self.window_ms}, "
            f"{len(self._windows)} windows, {len(self.tenants())} tenants)"
        )


def merge_agg_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Fuse ``repro-agg/1`` snapshots from several sites/processes.

    Counters add; sketches bucket-merge
    (:meth:`~repro.obs.sketch.QuantileSketch.merge`); quantiles are
    re-derived from the merged sketches.  All inputs must share
    ``window_ms`` — windows are aligned by index, which is well-defined
    across processes only when their clocks share an origin (the
    simulator) or the consumer accepts window-granularity skew
    (``repro top`` over wall clocks).  Merging is commutative and
    associative up to float round-off in sketch sums, mirroring the
    sketch merge laws.
    """
    if not snapshots:
        return {"format": AGG_FORMAT, "site": -1, "window_ms": 0.0, "windows": []}
    window_ms = snapshots[0]["window_ms"]
    for snap in snapshots:
        if snap.get("format") != AGG_FORMAT:
            raise ValueError(f"not a {AGG_FORMAT} snapshot: {snap.get('format')!r}")
        if snap["window_ms"] != window_ms:
            raise ValueError(
                f"window_ms mismatch: {snap['window_ms']} vs {window_ms}"
            )
    # (window index, tenant) -> merged counters / sketches
    counters: Dict[Tuple[int, str], Dict[str, int]] = {}
    sketches: Dict[Tuple[int, str], Dict[str, QuantileSketch]] = {}
    for snap in snapshots:
        for window in snap["windows"]:
            index = window["index"]
            for tenant, cell in window["tenants"].items():
                key = (index, tenant)
                ctrs = counters.setdefault(key, {})
                for name, value in cell["counters"].items():
                    ctrs[name] = ctrs.get(name, 0) + value
                sks = sketches.setdefault(key, {})
                for name, data in cell["sketches"].items():
                    sketch = QuantileSketch.from_dict(data)
                    if name in sks:
                        sks[name].merge(sketch)
                    else:
                        sks[name] = sketch
    windows: List[Dict[str, Any]] = []
    for index in sorted({i for i, _ in counters}):
        tenants: Dict[str, Any] = {}
        for win_index, tenant in sorted(counters):
            if win_index != index:
                continue
            key = (index, tenant)
            tenants[tenant] = {
                "counters": {k: counters[key][k] for k in sorted(counters[key])},
                "sketches": {k: sketches[key][k].to_dict() for k in sorted(sketches[key])},
                "quantiles": {
                    k: {
                        f"p{int(q * 100)}": round(sketches[key][k].quantile(q), 6)
                        for q in SNAPSHOT_QUANTILES
                    }
                    for k in sorted(sketches[key])
                },
            }
        windows.append(
            {
                "index": index,
                "start_ms": index * window_ms,
                "end_ms": (index + 1) * window_ms,
                "tenants": tenants,
            }
        )
    return {
        "format": AGG_FORMAT,
        "site": -1,
        "window_ms": window_ms,
        "windows": windows,
    }


#: Lifecycle events TenantTelemetry reads; its tracker sees nothing else.
_TELEMETRY_KINDS = frozenset(
    {"txn_submitted", "guess_made", "op_applied", "committed", "aborted", "view_notified"}
)


def _object_tenant(event: ProtocolEvent) -> Optional[str]:
    obj = event.data.get("obj")
    return None if obj is None else f"obj:{obj}"


class TenantTelemetry:
    """Event-bus subscriber deriving per-tenant protocol metrics.

    Tenant attribution: a transaction belongs to the first object label
    its lifecycle mentions (``obj`` in ``guess_made`` / ``op_applied``
    data — the collaboration set it writes), falling back to
    ``site:<origin>`` for transactions whose recorded events never name
    an object.  The label lives on the transaction's lifecycle record
    (:class:`~repro.obs.spans.TxnSpan`); the tracker keeps ``max_txns``
    records and evicts the oldest first, deterministic under replay.

    Derived per-tenant series (all in the transaction origin's window):

    * ``commits`` / ``aborts`` — origin-site resolutions.
    * ``commit_latency_ms`` sketch — ``txn_submitted`` to origin
      ``committed``.
    * ``notify_lag_ms`` sketch — origin ``committed`` to each
      pessimistic ``view_notified`` (the NotifyLagSLO quantity).
    """

    def __init__(
        self,
        agg: Optional[TelemetryAggregator] = None,
        tenant_of: Optional[Callable[[ProtocolEvent], Optional[str]]] = None,
        max_txns: int = MAX_LIVE_TXNS,
    ) -> None:
        self.agg = agg if agg is not None else TelemetryAggregator()
        self._tenant_of = tenant_of if tenant_of is not None else _object_tenant
        self.lifecycle = LifecycleTracker(max_txns)

    def __call__(self, event: ProtocolEvent) -> None:
        self.observe(event)

    def observe(self, event: ProtocolEvent) -> None:
        vt = event.txn_vt
        if vt is None or event.kind not in _TELEMETRY_KINDS:
            return
        span = self.lifecycle.observe(event)
        if span is None:
            return
        if span.tenant is None:
            span.tenant = self._tenant_of(event)
        tenant = span.tenant if span.tenant is not None else f"site:{vt.site}"
        kind = event.kind
        if kind == "committed":
            if span.origin_commit is event:
                self.agg.inc(tenant, "commits", event.time_ms)
                if span.submitted is not None:
                    self.agg.observe(
                        tenant, "commit_latency_ms", event.time_ms,
                        event.time_ms - span.submitted.time_ms,
                    )
        elif kind == "aborted":
            if event.site == vt.site:
                self.agg.inc(tenant, "aborts", event.time_ms)
        elif kind == "view_notified":
            if event.data.get("mode") == "pessimistic" and span.origin_commit is not None:
                self.agg.observe(
                    tenant, "notify_lag_ms", event.time_ms,
                    event.time_ms - span.origin_commit.time_ms,
                )
