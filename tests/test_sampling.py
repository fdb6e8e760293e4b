"""Head-based trace sampling (repro.obs.sample) and its transport wiring.

The contract under test: the origin decides once per trace id, the
decision is a deterministic pure function (same everywhere, forever),
it rides the frame so receivers agree without local configuration, and
a sampled-out trace costs the sender one counter — no events, no
partial span trees on either side.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import AbortMsg, CommitMsg, Envelope
from repro.obs.sample import TraceSampler, sample_decision
from repro.transport.tcp import TcpTransport
from repro.vtime import VirtualTime

from tests.test_tcp_transport import two_addrs, wait_for

trace_ids = st.text(min_size=1, max_size=24)
rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# The pure decision function
# ---------------------------------------------------------------------------


class TestSampleDecision:
    @settings(max_examples=100)
    @given(trace_ids, rates)
    def test_deterministic(self, trace_id, rate):
        assert sample_decision(trace_id, rate) == sample_decision(trace_id, rate)

    @settings(max_examples=100)
    @given(trace_ids, rates, rates)
    def test_monotone_in_rate(self, trace_id, lo, hi):
        # A trace sampled at rate r stays sampled at every rate >= r, so
        # raising the rate only ever *adds* traces — operators can turn
        # the knob without losing the traces they were already following.
        if lo > hi:
            lo, hi = hi, lo
        if sample_decision(trace_id, lo):
            assert sample_decision(trace_id, hi)

    @settings(max_examples=50)
    @given(rates)
    def test_empty_trace_id_always_sampled(self, rate):
        assert sample_decision("", rate) is True

    @settings(max_examples=50)
    @given(trace_ids)
    def test_rate_bounds(self, trace_id):
        assert sample_decision(trace_id, 1.0) is True
        assert sample_decision(trace_id, 0.0) is False

    def test_observed_rate_tracks_configured_rate(self):
        ids = [f"{i}@0" for i in range(20_000)]
        for rate in (0.01, 0.1, 0.5):
            hits = sum(sample_decision(t, rate) for t in ids)
            observed = hits / len(ids)
            # SHA-256 is uniform: 20k Bernoulli trials put the observed
            # rate within ~5 sigma of the configured one.
            sigma = (rate * (1 - rate) / len(ids)) ** 0.5
            assert abs(observed - rate) < 5 * sigma + 1e-9, (rate, observed)

    def test_salt_changes_the_subset_not_the_rate(self):
        ids = [f"{i}@1" for i in range(10_000)]
        plain = {t for t in ids if sample_decision(t, 0.2)}
        salted = {t for t in ids if sample_decision(t, 0.2, salt="run2")}
        assert plain != salted  # different subset ...
        assert abs(len(salted) - len(plain)) < 0.05 * len(ids)  # ... same rate

    @settings(max_examples=100)
    @given(trace_ids, rates)
    def test_sampler_matches_pure_function(self, trace_id, rate):
        assert TraceSampler(rate).sample(trace_id) == sample_decision(trace_id, rate)


class TestTraceSampler:
    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            TraceSampler(-0.1)
        with pytest.raises(ValueError):
            TraceSampler(1.1)

    def test_memo_returns_cached_decision(self):
        sampler = TraceSampler(0.5)
        first = sampler.sample("7@3")
        assert sampler._memo == {"7@3": first}
        assert sampler.sample("7@3") == first

    def test_memo_eviction_keeps_decisions_stable(self):
        sampler = TraceSampler(0.5, memo_size=8)
        decisions = {t: sampler.sample(t) for t in (f"{i}@0" for i in range(50))}
        assert len(sampler._memo) <= 8
        # Eviction must only re-derive, never change, a decision.
        for trace_id, decision in decisions.items():
            assert sampler.sample(trace_id) == decision

    def test_edge_rates_skip_hashing_and_memo(self):
        always = TraceSampler(1.0)
        never = TraceSampler(0.0)
        assert always.sample("x@1") is True
        assert never.sample("x@1") is False
        assert always._memo == {} and never._memo == {}


# ---------------------------------------------------------------------------
# Envelope trace identity (the batched message plane must be sampleable)
# ---------------------------------------------------------------------------


class TestEnvelopeTraceIdentity:
    def test_envelope_takes_first_inner_txn_vt(self):
        env = Envelope(
            (CommitMsg(VirtualTime(5, 1), 12), AbortMsg(VirtualTime(6, 1), 13, "x"))
        )
        assert env.txn_vt == VirtualTime(5, 1)

    def test_envelope_skips_leading_control_messages(self):
        class Control:
            pass

        env = Envelope((Control(), CommitMsg(VirtualTime(9, 2), 3)))
        assert env.txn_vt == VirtualTime(9, 2)

    def test_envelope_of_control_messages_has_no_txn_vt(self):
        assert Envelope(()).txn_vt is None


# ---------------------------------------------------------------------------
# Transport integration over real sockets
# ---------------------------------------------------------------------------


def run_pair(rate, msgs, record_dropped=False, reply=False):
    """Send ``msgs`` a->b with samplers at ``rate`` on both ends."""

    async def main():
        addrs = two_addrs()
        a = TcpTransport(addrs, local_sites={0}, sampler=TraceSampler(rate, record_dropped=record_dropped))
        b = TcpTransport(addrs, local_sites={1}, sampler=TraceSampler(rate, record_dropped=record_dropped))
        a.bus.enable()
        b.bus.enable()
        inbox = []
        a.register(0, 0, lambda src, p: None)
        b.register(0, 1, lambda src, p: inbox.append(p))
        await a.start()
        await b.start()
        for m in msgs:
            a.send(0, 0, 1, m)
        await wait_for(lambda: len(inbox) == len(msgs), what="all frames delivered")
        await a.aquiesce(settle_ms=20.0)
        out = {
            "delivered": list(inbox),
            "a_events": list(a.bus.events),
            "b_events": list(b.bus.events),
            "a_sends_dropped": a.metrics.value("transport.sends_sampled_out"),
            "b_deliveries_dropped": b.metrics.value("transport.deliveries_sampled_out"),
        }
        await a.stop()
        await b.stop()
        return out

    return asyncio.run(main())


MSGS = [CommitMsg(VirtualTime(i, 0), i) for i in range(40)]


class TestTransportSampling:
    def test_every_message_still_delivered(self):
        # Sampling drops *telemetry*, never payloads.
        out = run_pair(0.0, MSGS)
        assert out["delivered"] == MSGS

    def test_rate_zero_records_nothing_but_counts_drops(self):
        out = run_pair(0.0, MSGS)
        assert [e for e in out["a_events"] if e.kind == "message_sent"] == []
        assert [e for e in out["b_events"] if e.kind == "message_delivered"] == []
        assert out["a_sends_dropped"] == len(MSGS)
        assert out["b_deliveries_dropped"] == len(MSGS)

    def test_rate_one_records_everything(self):
        out = run_pair(1.0, MSGS)
        sends = [e for e in out["a_events"] if e.kind == "message_sent"]
        delivers = [e for e in out["b_events"] if e.kind == "message_delivered"]
        assert len(sends) == len(MSGS)
        assert len(delivers) == len(MSGS)
        assert out["a_sends_dropped"] == 0
        assert out["b_deliveries_dropped"] == 0

    def test_sender_and_receiver_agree_per_trace(self):
        # The in-band flag, not receiver-side hashing, drives the receiver:
        # every recorded trace is complete (send on a, delivery on b) and
        # every dropped trace is absent from both timelines.
        out = run_pair(0.5, MSGS)
        sent_ids = {e.data["msg_id"] for e in out["a_events"] if e.kind == "message_sent"}
        delivered_ids = {
            e.data["msg_id"] for e in out["b_events"] if e.kind == "message_delivered"
        }
        assert sent_ids == delivered_ids
        assert 0 < len(sent_ids) < len(MSGS)
        assert out["a_sends_dropped"] == len(MSGS) - len(sent_ids)
        assert out["b_deliveries_dropped"] == len(MSGS) - len(delivered_ids)

    def test_decision_is_per_transaction_not_per_frame(self):
        # Frames of the same transaction share the trace id, so every
        # frame of a sampled transaction is recorded and every frame of a
        # dropped one is skipped — the merge sees whole span trees only.
        msgs = [CommitMsg(VirtualTime(i // 4, 0), i) for i in range(40)]
        out = run_pair(0.5, msgs)
        sent_traces = {}
        for e in out["a_events"]:
            if e.kind == "message_sent":
                sent_traces.setdefault(str(e.txn_vt), 0)
                sent_traces[str(e.txn_vt)] += 1
        # 10 distinct transactions x 4 frames: recorded ones are complete
        for trace, frames in sent_traces.items():
            assert frames == 4, (trace, frames)
        assert out["a_sends_dropped"] % 4 == 0
        # and the recorded set is exactly what the pure function predicts
        recorded = {e.txn_vt for e in out["a_events"] if e.kind == "message_sent"}
        expected = {
            VirtualTime(i, 0) for i in range(10) if sample_decision(f"{i}@0", 0.5)
        }
        assert recorded == expected

    def test_record_dropped_emits_markers(self):
        out = run_pair(0.0, MSGS, record_dropped=True)
        markers = [e for e in out["a_events"] if e.kind == "message_sent"]
        assert len(markers) == len(MSGS)
        assert all(e.data.get("sampled") is False for e in markers)
        # Receivers still record nothing for dropped traces.
        assert [e for e in out["b_events"] if e.kind == "message_delivered"] == []

    def test_envelopes_are_sampled_by_leading_transaction(self):
        envs = [
            Envelope(tuple(CommitMsg(VirtualTime(i, 0), j) for j in range(4)))
            for i in range(30)
        ]
        out = run_pair(0.5, envs)
        sends = [e for e in out["a_events"] if e.kind == "message_sent"]
        assert 0 < len(sends) < len(envs)
        assert out["a_sends_dropped"] == len(envs) - len(sends)
        # The decision matches the pure function on the leading txn's id.
        sampler = TraceSampler(0.5)
        expected_drops = sum(not sampler.sample(f"{i}@0") for i in range(30))
        assert out["a_sends_dropped"] == expected_drops

    def test_no_sampler_means_no_change(self):
        async def main():
            addrs = two_addrs()
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            a.bus.enable()
            b.bus.enable()
            inbox = []
            b.register(0, 1, lambda src, p: inbox.append(p))
            await a.start()
            await b.start()
            a.send(0, 0, 1, CommitMsg(VirtualTime(1, 0), 1))
            await wait_for(lambda: inbox, what="delivery")
            assert a.metrics.value("transport.sends_sampled_out") == 0
            assert b.metrics.value("transport.deliveries_sampled_out") == 0
            assert [e.kind for e in a.bus.events if e.kind == "message_sent"]
            await a.stop()
            await b.stop()

        asyncio.run(main())
