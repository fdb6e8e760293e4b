"""Transaction lifecycle spans reconstructed from the event stream.

A *span* is the causal story of one transaction attempt, keyed by its
virtual time: submit → guess → fanout → validate → commit/abort → notify.
Each retry executes under a fresh VT, so retries are separate spans linked
by the ``attempt`` number carried on ``txn_submitted``.

Spans are derived purely from recorded :class:`~repro.obs.events.ProtocolEvent`
sequences — nothing in the protocol tracks them at runtime — which keeps the
hot paths clean and makes span reconstruction usable on any saved timeline,
including the ones embedded in explorer violation artifacts.

The span is the one lifecycle record of :mod:`repro.obs`: a
:class:`LifecycleTracker` updates it one event at a time, and every
consumer — :func:`build_spans`, the causal analysis, tenant telemetry and
the notify-lag health rules — reads its marks instead of re-deriving them
from the timeline.  Live trackers keep at most :data:`MAX_LIVE_TXNS`
records, evicting the oldest first.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import ProtocolEvent
from repro.vtime import VirtualTime

#: Event kinds that participate in a transaction's lifecycle span.  Other
#: txn_vt-carrying kinds (snapshot_taken, message_sent) are contextual.
_SPAN_KINDS = frozenset(
    {
        "txn_submitted",
        "guess_made",
        "fanout_sent",
        "validated",
        "committed",
        "aborted",
        "view_notified",
        "repair_committed",
    }
)

#: Record bound of a live tracker: a subscriber that runs for the life of a
#: host keeps the lifecycles of at most this many recent transactions.
MAX_LIVE_TXNS = 4096


@dataclass
class TxnSpan:
    """One transaction attempt's lifecycle, with simulated-time phase marks.

    ``resolution`` is ``"committed"``, ``"aborted"``, or ``None`` when the
    trace ended mid-flight.  Resolution time is taken from the *origin
    site's* resolution event (the first one observed); replica applications
    of the same commit show up in :attr:`events` but don't move the marks.
    """

    vt: VirtualTime
    origin: int
    submit_ms: Optional[float] = None
    attempt: int = 1
    first_guess_ms: Optional[float] = None
    first_fanout_ms: Optional[float] = None
    first_validated_ms: Optional[float] = None
    resolved_ms: Optional[float] = None
    resolution: Optional[str] = None
    abort_reason: Optional[str] = None
    #: True when the transaction aborted before any fan-out was sent (user
    #: abort or a local-primary denial): the span is degenerate — no
    #: transit/validate phases exist — but it must still be reported, not
    #: silently dropped from span-derived analyses.
    aborted_pre_fanout: bool = False
    first_notify_ms: Optional[float] = None
    guesses: Dict[str, int] = field(default_factory=dict)
    fanout_sites: List[int] = field(default_factory=list)
    notify_count: int = 0
    events: List[ProtocolEvent] = field(default_factory=list)
    # Marks read by the causal analysis and the live consumers; they stay
    # out of to_dict(), so span dumps do not depend on them.
    #: The first ``txn_submitted`` event.
    submitted: Optional[ProtocolEvent] = None
    #: The first ``committed`` / ``aborted`` event at the VT's own site.
    origin_commit: Optional[ProtocolEvent] = None
    origin_abort: Optional[ProtocolEvent] = None
    #: The first denying ``validated`` event (``ok=False``).
    denial: Optional[ProtocolEvent] = None
    #: Site → (its first ``validated`` event, the ``TxnPropagateMsg``
    #: delivery at that site just before it, or None), in event order.
    validations: Dict[int, Tuple[ProtocolEvent, Optional[ProtocolEvent]]] = field(
        default_factory=dict
    )
    #: Latest ``TxnPropagateMsg`` delivery per site not yet validated at.
    deliveries: Dict[int, ProtocolEvent] = field(default_factory=dict)
    #: Telemetry label, set by the consumer that attributes the
    #: transaction to a tenant (:class:`~repro.obs.agg.TenantTelemetry`).
    tenant: Optional[str] = None

    @property
    def duration_ms(self) -> Optional[float]:
        """Submit to resolution, in simulated ms (None while in flight)."""
        if self.submit_ms is None or self.resolved_ms is None:
            return None
        return self.resolved_ms - self.submit_ms

    @property
    def validate_latency_ms(self) -> Optional[float]:
        """First fanout to first remote validation."""
        if self.first_fanout_ms is None or self.first_validated_ms is None:
            return None
        return self.first_validated_ms - self.first_fanout_ms

    @property
    def notify_lag_ms(self) -> Optional[float]:
        """Resolution to first view notification referencing this txn."""
        if self.resolved_ms is None or self.first_notify_ms is None:
            return None
        return self.first_notify_ms - self.resolved_ms

    @property
    def remote_validation(self) -> Tuple[Optional[ProtocolEvent], Optional[ProtocolEvent]]:
        """The first ``validated`` event away from the origin, with the
        propagate delivery that triggered it — (None, None) when the
        transaction was validated only at its origin."""
        for site, pair in self.validations.items():
            if site != self.origin:
                return pair
        return None, None

    @property
    def complete(self) -> bool:
        return self.submit_ms is not None and self.resolution is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vt": str(self.vt),
            "origin": self.origin,
            "attempt": self.attempt,
            "submit_ms": self.submit_ms,
            "first_guess_ms": self.first_guess_ms,
            "first_fanout_ms": self.first_fanout_ms,
            "first_validated_ms": self.first_validated_ms,
            "resolved_ms": self.resolved_ms,
            "resolution": self.resolution,
            "abort_reason": self.abort_reason,
            "aborted_pre_fanout": self.aborted_pre_fanout,
            "first_notify_ms": self.first_notify_ms,
            "duration_ms": self.duration_ms,
            "guesses": {k: self.guesses[k] for k in sorted(self.guesses)},
            "fanout_sites": list(self.fanout_sites),
            "notify_count": self.notify_count,
            "event_count": len(self.events),
        }


class LifecycleTracker:
    """Builds per-VT :class:`TxnSpan` records incrementally.

    :meth:`observe` folds one lifecycle event into its transaction's
    record and returns the record.  ``op_applied`` returns the record of
    a transaction already tracked without changing it; any other event
    returns None.  Records keep the order in which their spans first
    appeared.  With ``max_txns`` set the tracker serves a live consumer:
    it keeps that many records, evicts the oldest first, and skips the
    parts of a record only offline analysis reads (the event list,
    denials and per-site validations), so a record's size does not grow
    with its transaction.

    Several consumers may share one tracker and each feed it every event:
    observing the same event object twice in a row returns the record
    without folding the event in again.
    """

    def __init__(self, max_txns: Optional[int] = None) -> None:
        self.max_txns = max_txns
        self._offline = max_txns is None
        #: Keyed by ``vt.key``: a tuple hashes faster than a VirtualTime.
        self._records: "OrderedDict[Tuple[int, int], TxnSpan]" = OrderedDict()
        self._last: Optional[ProtocolEvent] = None
        self._last_record: Optional[TxnSpan] = None

    def __len__(self) -> int:
        return len(self._records)

    def get(self, vt: VirtualTime) -> Optional[TxnSpan]:
        return self._records.get(vt.key)

    def spans(self) -> List[TxnSpan]:
        """Every retained span, in order of first appearance."""
        return list(self._records.values())

    def observe(self, event: ProtocolEvent) -> Optional[TxnSpan]:
        if event is self._last:
            return self._last_record
        self._last = event
        self._last_record = span = self._fold(event)
        return span

    def _fold(self, event: ProtocolEvent) -> Optional[TxnSpan]:
        vt = event.txn_vt
        if vt is None:
            return None
        kind = event.kind
        if kind == "message_delivered":
            if self._offline and event.data.get("msg_type") == "TxnPropagateMsg":
                span = self._records.get(vt.key)
                if span is not None and event.site not in span.validations:
                    span.deliveries[event.site] = event
            return None
        if kind == "op_applied":
            # Names an object (tenant attribution) of a tracked transaction;
            # it does not open a span.
            return self._records.get(vt.key)
        if kind not in _SPAN_KINDS:
            return None
        span = self._records.get(vt.key)
        if span is None:
            span = self._records[vt.key] = TxnSpan(vt=vt, origin=event.site)
            if not self._offline and len(self._records) > self.max_txns:
                self._records.popitem(last=False)
        if self._offline:
            span.events.append(event)
        if kind == "txn_submitted":
            span.submit_ms = event.time_ms
            span.origin = event.site
            span.attempt = int(event.data.get("attempt", 1))
            if span.submitted is None:
                span.submitted = event
        elif kind == "guess_made":
            if span.first_guess_ms is None:
                span.first_guess_ms = event.time_ms
            guess = str(event.data.get("guess", "?"))
            span.guesses[guess] = span.guesses.get(guess, 0) + 1
        elif kind == "fanout_sent":
            if span.first_fanout_ms is None:
                span.first_fanout_ms = event.time_ms
            dst = event.data.get("dst")
            if dst is not None:
                span.fanout_sites.append(int(dst))
        elif kind == "validated":
            if span.first_validated_ms is None:
                span.first_validated_ms = event.time_ms
            if self._offline:
                if event.site not in span.validations:
                    delivery = span.deliveries.pop(event.site, None)
                    span.validations[event.site] = (event, delivery)
                if span.denial is None and not event.data.get("ok", True):
                    span.denial = event
        elif kind in ("committed", "aborted"):
            if span.resolution is None:
                span.resolution = kind
                span.resolved_ms = event.time_ms
                if kind == "aborted":
                    span.abort_reason = event.data.get("reason")
                    span.aborted_pre_fanout = span.first_fanout_ms is None
            if event.site == vt.site:
                if kind == "committed":
                    if span.origin_commit is None:
                        span.origin_commit = event
                elif span.origin_abort is None:
                    span.origin_abort = event
        elif kind == "view_notified":
            span.notify_count += 1
            if span.first_notify_ms is None:
                span.first_notify_ms = event.time_ms
        return span


def build_spans(events: Iterable[ProtocolEvent]) -> List[TxnSpan]:
    """Group an event stream into per-VT lifecycle spans.

    Spans come back ordered by first appearance in the stream, which for a
    recorded bus equals simulated-time order (seq breaks ties).  Events
    whose VT never saw a ``txn_submitted`` (e.g. a remote replica's view of
    a transaction when only one site was recorded) still form a span — its
    ``submit_ms`` stays None and ``complete`` is False.
    """
    tracker = LifecycleTracker()
    for event in events:
        tracker.observe(event)
    return tracker.spans()


def span_summary(spans: Iterable[TxnSpan]) -> Dict[str, Any]:
    """Aggregate statistics over a span list (used by `repro trace`)."""
    spans = list(spans)
    committed = [s for s in spans if s.resolution == "committed"]
    aborted = [s for s in spans if s.resolution == "aborted"]
    durations = sorted(s.duration_ms for s in committed if s.duration_ms is not None)
    return {
        "spans": len(spans),
        "committed": len(committed),
        "aborted": len(aborted),
        "aborted_pre_fanout": sum(1 for s in aborted if s.aborted_pre_fanout),
        "in_flight": len(spans) - len(committed) - len(aborted),
        "commit_duration_ms": {
            "min": durations[0] if durations else None,
            "max": durations[-1] if durations else None,
            "mean": round(sum(durations) / len(durations), 3) if durations else None,
        },
    }
