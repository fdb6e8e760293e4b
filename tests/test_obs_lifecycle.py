"""Tests for the shared transaction-lifecycle record (repro.obs.spans).

Every offline and live consumer of transaction lifecycles — spans, commit
critical paths, abort causal chains, tenant telemetry and the notify-lag
health rules — reads one per-VT record.  The digests below pin what those
consumers emit on two fixed-seed contended simulator trials (aborts,
straggler cascades, pessimistic views, notify-lag and burn-rate findings),
so any change to how the record is built shows up as a changed byte.
The bound tests check that live consumers keep at most a fixed number of
lifecycle records however long they run.
"""

import hashlib
import json

import pytest

from repro.explore.plan import sample_config
from repro.explore.trial import run_trial
from repro.obs import (
    HealthMonitor,
    TelemetryAggregator,
    TenantTelemetry,
    abort_causal_chain,
    analysis_json,
    analyze_events,
    build_causal_graph,
    build_spans,
    burn_rules,
    default_rules,
    run_health,
    span_summary,
)
from repro.obs.events import ProtocolEvent
from repro.vtime import VirtualTime


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def outputs_of(seed, index):
    config = sample_config(seed, index, mutations=(), faults=True)
    telemetry = TenantTelemetry(TelemetryAggregator(window_ms=500.0))
    result = run_trial(config, observe=True, subscribers=(telemetry,))
    events = result.events
    spans = build_spans(events)
    span_dump = json.dumps(
        {"spans": [s.to_dict() for s in spans], "summary": span_summary(spans)},
        sort_keys=True,
    )
    return {
        "spans": sha(span_dump),
        "analysis": sha(analysis_json(analyze_events(events))),
        "health": sha(run_health(events).to_json()),
        "health_burn": sha(run_health(events, default_rules() + burn_rules()).to_json()),
        "telemetry": sha(telemetry.agg.to_json()),
    }


#: Digests of the lifecycle consumers' outputs, taken before the lifecycle
#: record was shared (each consumer then derived lifecycles on its own).
GOLDEN = {
    (0, 0): {
        "spans": (
            "cab55f48913deeee306788642b6bcf36"
            "a207a271826d9339ee215995344f5bcd"
        ),
        "analysis": (
            "6276e2954a92e444ba508ec118dd29f3"
            "6d1deab5704395fa380e2d6a75d1c702"
        ),
        "health": (
            "0036eeca98303e85db3f0029a66fa6e6"
            "f84054f5222cf91f9bd915e9abd68369"
        ),
        "health_burn": (
            "9c956ce97cc88cd112e30caa80d57137"
            "f7d2f05aba51f8e538e971e28714083d"
        ),
        "telemetry": (
            "4de365464085e378c662ee1b07b55bcb"
            "0647964f84e5eea87922a65b5b3da7cf"
        ),
    },
    (1, 4): {
        "spans": (
            "2cf465c3a3f116dcf7a2bbe5973f0ab1"
            "2074f48c76144d05fe99ab0c74cea960"
        ),
        "analysis": (
            "582f0ed20ff8aaf8c59e0dafacdca5cc"
            "e9bad49dbc1eb0274023008dd5b4face"
        ),
        "health": (
            "5e8a1b9a98b8f9e297557860e04e165f"
            "7e22f7633ca1e9522b364bc6d0ef8933"
        ),
        "health_burn": (
            "eac8a760d35e08d6a80f8fc11b11d695"
            "4be50c890b1b1c8107688ad50d2b59b4"
        ),
        "telemetry": (
            "9447b9d64afdf8bafb1b149af91d4c0c"
            "d0d1c8e281e24447322eb6a8c0511dce"
        ),
    },
}


@pytest.mark.parametrize("seed,index", sorted(GOLDEN))
def test_lifecycle_consumer_outputs_are_unchanged(seed, index):
    assert outputs_of(seed, index) == GOLDEN[(seed, index)]


def notified_commit(counter, time_ms):
    """One committed, pessimistically notified transaction of site 0."""
    vt = VirtualTime(counter, 0)
    seq = 10 * counter
    return [
        ProtocolEvent(seq, time_ms, 0, "txn_submitted", vt, {"attempt": 1}),
        ProtocolEvent(seq + 1, time_ms, 0, "guess_made", vt, {"guess": "RL", "obj": "doc"}),
        ProtocolEvent(seq + 2, time_ms + 1.0, 0, "committed", vt, {"ops": 1}),
        ProtocolEvent(
            seq + 3, time_ms + 200.0, 1, "view_notified", vt,
            {"mode": "pessimistic", "kind": "commit", "changed": 1},
        ),
    ]


def test_live_health_monitor_lifecycle_state_is_bounded():
    monitor = HealthMonitor(default_rules() + burn_rules())
    for counter in range(3 * 4096):
        for event in notified_commit(counter, 10.0 * counter):
            monitor(event)
    lifecycle = monitor.lifecycle
    assert len(lifecycle) <= 4096
    readers = [rule for rule in monitor.rules if rule.lifecycle is not None]
    assert readers, "the notify-lag rules read transaction lifecycles"
    assert all(rule.lifecycle is lifecycle for rule in readers)
    # A live record keeps marks, not the transaction's events.
    assert not any(span.events for span in lifecycle.spans())
    # The bound evicts the oldest transactions, never the live ones: the
    # latest transactions still drive findings.
    assert monitor.report().by_rule()["notify_lag_slo"] == 3 * 4096


def test_message_to_the_next_same_site_event_names_the_hop():
    # A send whose delivery is the sender's next event at the same site
    # gives two edges between one pair of events: program order and the
    # message.  The path reports the message edge, as it always has.
    vt = VirtualTime(1, 0)
    events = [
        ProtocolEvent(0, 0.0, 0, "txn_submitted", vt, {"attempt": 1}),
        ProtocolEvent(1, 1.0, 0, "message_sent", vt, {"msg_id": 7, "msg_type": "AbortMsg"}),
        ProtocolEvent(2, 1.0, 0, "message_delivered", vt, {"msg_id": 7, "msg_type": "AbortMsg"}),
        ProtocolEvent(3, 2.0, 0, "aborted", vt, {"reason": "test"}),
    ]
    graph = build_causal_graph(events)
    assert graph.counts() == {"events": 4, "edges_program": 3, "edges_message": 1}
    assert [(h.kind, h.label) for h in graph.path(1, 2)] == [("message", "AbortMsg")]
    chain = abort_causal_chain(graph, vt)
    assert chain["connected"] and not chain["via_denial"]
    assert [h["kind"] for h in chain["hops"]] == ["program", "message", "program"]
