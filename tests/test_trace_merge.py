"""Tests for cross-process trace merging (repro.obs.merge + CLI).

The merge contract under test, straight from the tentpole acceptance
criteria: every send pairs with its delivery (zero unmatched edges on a
clean run), skew-aligned timestamps are monotone along every message
edge, and merging the same inputs twice is byte-identical.
"""

import asyncio
import json
import socket
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import CommitMsg
from repro.obs import load_timeline, merge_timelines
from repro.obs.causal import CausalGraph, events_from_timeline
from repro.obs.events import event_to_dict
from repro.transport.tcp import Placement, TcpTransport
from repro.vtime import VirtualTime


def ev(seq: int, t: float, site: int, kind: str, **data: Any) -> Dict[str, Any]:
    return {"seq": seq, "time_ms": t, "site": site, "kind": kind, "txn_vt": None, "data": data}


def two_proc_timelines(skew_ms: float = 1000.0):
    """Proc 1's clock runs ``skew_ms`` ahead; symmetric 2ms network delays.

    True times: p0 sends m1 at 10, p1 delivers at 12; p1 sends m2 at 20,
    p0 delivers at 22.  With symmetric delays the NTP-style estimator
    recovers the skew exactly.
    """
    p0 = [
        ev(0, 10.0, 0, "message_sent", dst=1, msg_id="0:1", msg_type="CommitMsg"),
        ev(1, 22.0, 0, "message_delivered", src=1, msg_id="1:1", msg_type="CommitMsg"),
    ]
    p1 = [
        ev(0, 12.0 + skew_ms, 1, "message_delivered", src=0, msg_id="0:1", msg_type="CommitMsg"),
        ev(1, 20.0 + skew_ms, 1, "message_sent", dst=0, msg_id="1:1", msg_type="CommitMsg"),
    ]
    return [p0, p1]


def edge_times(merged) -> Dict[str, Dict[str, float]]:
    """msg_id -> {"sent": t, "delivered": t} over the merged timeline."""
    out: Dict[str, Dict[str, float]] = {}
    for event in merged.events:
        if event["kind"] == "message_sent":
            out.setdefault(event["data"]["msg_id"], {})["sent"] = event["time_ms"]
        elif event["kind"] == "message_delivered":
            out.setdefault(event["data"]["msg_id"], {})["delivered"] = event["time_ms"]
    return out


class TestSyntheticMerge:
    def test_recovers_symmetric_clock_skew_exactly(self):
        merged = merge_timelines(two_proc_timelines(skew_ms=1000.0))
        assert merged.offsets_ms[0] == 0.0
        assert abs(merged.offsets_ms[1]) == pytest.approx(1000.0)
        # Adjusted times equal the true times.
        times = edge_times(merged)
        assert times["0:1"] == {"sent": 10.0, "delivered": 12.0}
        assert times["1:1"] == {"sent": 20.0, "delivered": 22.0}

    def test_zero_unmatched_and_full_pairing(self):
        merged = merge_timelines(two_proc_timelines())
        assert merged.pairs == 2
        assert merged.unmatched_sends == []
        assert merged.unmatched_deliveries == []
        assert merged.disconnected == []

    def test_message_edges_monotone_after_alignment(self):
        for skew in (0.0, -737.25, 12345.5):
            merged = merge_timelines(two_proc_timelines(skew_ms=skew))
            for msg_id, times in edge_times(merged).items():
                assert times["delivered"] >= times["sent"], (skew, msg_id)

    def test_merge_is_byte_identical_across_reruns(self):
        first = merge_timelines(two_proc_timelines()).to_jsonl()
        second = merge_timelines(two_proc_timelines()).to_jsonl()
        assert first == second

    def test_unmatched_send_is_reported(self):
        timelines = two_proc_timelines()
        timelines[0].append(
            ev(2, 30.0, 0, "message_sent", dst=1, msg_id="0:99", msg_type="CommitMsg")
        )
        merged = merge_timelines(timelines)
        assert merged.unmatched_sends == ["0:99"]
        assert merged.pairs == 2

    def test_unmatched_delivery_is_reported(self):
        timelines = two_proc_timelines()
        timelines[1].append(
            ev(2, 1030.0, 1, "message_delivered", src=0, msg_id="0:77", msg_type="CommitMsg")
        )
        merged = merge_timelines(timelines)
        assert merged.unmatched_deliveries == ["0:77"]

    def test_merged_timeline_feeds_causal_graph(self):
        merged = merge_timelines(two_proc_timelines())
        graph = CausalGraph(events_from_timeline(merged.events))
        # Both message edges survive the round trip into the HB DAG.
        assert sum(1 for e in graph.edges if e.kind == "message") == 2

    def test_program_order_preserved_per_process(self):
        merged = merge_timelines(two_proc_timelines(skew_ms=500.0))
        for proc in (0, 1):
            seqs = [e["data"]["orig_seq"] for e in merged.events if e["data"]["proc"] == proc]
            assert seqs == sorted(seqs)


delay_lists = st.lists(
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False), min_size=1, max_size=8
)


class TestAsymmetricDelayBias:
    """Pin the documented skew-estimator bias bound.

    The NTP-style estimate assumes the *fastest* message in each
    direction saw the same delay.  When the fastest forward delay is
    ``f`` and the fastest reverse delay is ``r``, the estimate is off by
    exactly ``(f - r) / 2`` — i.e. the error is bounded by half the
    delay asymmetry, never by the skew magnitude, and symmetric minimum
    delays recover the skew exactly no matter how asymmetric the rest of
    the traffic is.
    """

    def timelines(self, skew_ms, fwd_delays, rev_delays):
        """p1's clock ahead by ``skew_ms``; explicit per-message delays."""
        p0, p1 = [], []
        seq0 = seq1 = 0
        for i, d in enumerate(fwd_delays):
            t = 10.0 + 100.0 * i
            p0.append(ev(seq0, t, 0, "message_sent", dst=1, msg_id=f"0:{i+1}", msg_type="CommitMsg"))
            seq0 += 1
            p1.append(ev(seq1, t + d + skew_ms, 1, "message_delivered", src=0, msg_id=f"0:{i+1}", msg_type="CommitMsg"))
            seq1 += 1
        for j, d in enumerate(rev_delays):
            t = 15.0 + 100.0 * j
            p1.append(ev(seq1, t + skew_ms, 1, "message_sent", dst=0, msg_id=f"1:{j+1}", msg_type="CommitMsg"))
            seq1 += 1
            p0.append(ev(seq0, t + d, 0, "message_delivered", src=1, msg_id=f"1:{j+1}", msg_type="CommitMsg"))
            seq0 += 1
        return [p0, p1]

    @settings(max_examples=100)
    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        delay_lists,
        delay_lists,
    )
    def test_offset_error_is_half_the_minimum_delay_asymmetry(
        self, skew_ms, fwd_delays, rev_delays
    ):
        merged = merge_timelines(self.timelines(skew_ms, fwd_delays, rev_delays))
        bias = merged.offsets_ms[1] - skew_ms
        expected_bias = (min(fwd_delays) - min(rev_delays)) / 2.0
        assert bias == pytest.approx(expected_bias, abs=1e-5)
        # The documented bound: error <= asymmetry/2 <= half the fastest RTT.
        assert abs(bias) <= abs(min(fwd_delays) - min(rev_delays)) / 2.0 + 1e-5
        assert abs(bias) <= (min(fwd_delays) + min(rev_delays)) / 2.0 + 1e-5

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        delay_lists,
        delay_lists,
    )
    def test_symmetric_minimum_delays_recover_skew_exactly(
        self, skew_ms, min_delay, fwd_extra, rev_extra
    ):
        # Slower messages in either direction never perturb the estimate:
        # only the per-direction minimum matters.
        fwd = [min_delay] + [min_delay + d for d in fwd_extra]
        rev = [min_delay] + [min_delay + d for d in rev_extra]
        merged = merge_timelines(self.timelines(skew_ms, fwd, rev))
        assert merged.offsets_ms[1] == pytest.approx(skew_ms, abs=1e-5)

    def test_one_directional_traffic_absorbs_delay_into_offset(self):
        # With no reverse edges the fastest forward message is assumed
        # zero-delay: the offset absorbs its true delay (documented
        # degradation, still keeps every edge monotone).
        merged = merge_timelines(self.timelines(100.0, [4.0, 9.0], []))
        assert merged.offsets_ms[1] == pytest.approx(104.0)
        for times in edge_times(merged).values():
            assert times["delivered"] >= times["sent"]


class TestSampledOutMerge:
    def sampled_marker(self, seq, t, msg_id):
        return ev(
            seq, t, 0, "message_sent",
            dst=1, msg_id=msg_id, msg_type="CommitMsg", sampled=False,
        )

    def test_sampled_markers_not_counted_unmatched(self):
        timelines = two_proc_timelines()
        timelines[0].append(self.sampled_marker(2, 30.0, "0:50"))
        merged = merge_timelines(timelines)
        assert merged.unmatched_sends == []
        assert merged.sampled_out == ["0:50"]
        assert merged.pairs == 2

    def test_sampled_marker_with_delivery_is_an_ordinary_edge(self):
        # If a delivery *does* exist (e.g. mixed record_dropped configs),
        # the pair is matched and not tallied as sampled out.
        timelines = two_proc_timelines()
        timelines[0].append(self.sampled_marker(2, 30.0, "0:50"))
        timelines[1].append(
            ev(2, 1033.0, 1, "message_delivered", src=0, msg_id="0:50", msg_type="CommitMsg")
        )
        merged = merge_timelines(timelines)
        assert merged.sampled_out == []
        assert merged.pairs == 3

    def test_real_send_loss_still_reported_alongside_markers(self):
        timelines = two_proc_timelines()
        timelines[0].append(self.sampled_marker(2, 30.0, "0:50"))
        timelines[0].append(
            ev(3, 31.0, 0, "message_sent", dst=1, msg_id="0:51", msg_type="CommitMsg")
        )
        merged = merge_timelines(timelines)
        assert merged.unmatched_sends == ["0:51"]
        assert merged.sampled_out == ["0:50"]

    def test_cli_exits_zero_with_sampled_out_markers(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        timelines = two_proc_timelines()
        timelines[0].append(self.sampled_marker(2, 30.0, "0:50"))
        for proc, timeline in enumerate(timelines):
            path = tmp_path / f"trace{proc}.jsonl"
            path.write_text("\n".join(json.dumps(e) for e in timeline) + "\n")
            paths.append(str(path))
        out = tmp_path / "merged.jsonl"
        rc = main(["trace", "--merge", *paths, "--format", "jsonl", "--out", str(out), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampled_out"] == ["0:50"]
        assert doc["unmatched_sends"] == []


class TestLoadTimeline:
    def test_skips_non_event_lines(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        lines = [
            json.dumps({"flight": "repro-flight/1", "reason": "crash", "events": 1}),
            "",
            json.dumps(ev(1, 5.0, 0, "committed")),
            json.dumps(ev(0, 1.0, 0, "txn_submitted")),
        ]
        path.write_text("\n".join(lines) + "\n")
        events = load_timeline(str(path))
        # Header and blank dropped; events back in seq order.
        assert [e["seq"] for e in events] == [0, 1]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRealTransportMerge:
    def run_traced_pair(self, appends: int = 10):
        """Ping-pong over real sockets with both buses recording."""
        addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}

        async def scenario():
            a = TcpTransport(addrs, local_sites={0})
            b = TcpTransport(addrs, local_sites={1})
            a.bus.enable()
            b.bus.enable()
            done = asyncio.Event()
            seen: List[Any] = []

            def on_a(src, payload):
                seen.append(payload)
                if len(seen) >= appends:
                    done.set()

            a.register(0, 0, on_a)
            b.register(0, 1, lambda src, payload: b.send(0, 1, 0, payload))
            await a.start()
            await b.start()
            for i in range(appends):
                a.send(0, 0, 1, CommitMsg(VirtualTime(i + 1, 0), i))
            await asyncio.wait_for(done.wait(), timeout=10.0)
            await a.aquiesce()
            await b.aquiesce()
            timelines = [
                [event_to_dict(e) for e in a.bus.events],
                [event_to_dict(e) for e in b.bus.events],
            ]
            await a.stop()
            await b.stop()
            return timelines

        return asyncio.run(scenario())

    def test_end_to_end_merge_has_no_unmatched_edges(self):
        timelines = self.run_traced_pair()
        merged = merge_timelines(timelines)
        assert merged.unmatched_sends == []
        assert merged.unmatched_deliveries == []
        assert merged.pairs == 20  # 10 pings + 10 echoes
        for msg_id, times in edge_times(merged).items():
            assert times["delivered"] >= times["sent"], msg_id

    def test_end_to_end_merge_deterministic_given_inputs(self):
        timelines = self.run_traced_pair(appends=5)
        assert merge_timelines(timelines).to_jsonl() == merge_timelines(timelines).to_jsonl()

    def test_trace_ids_carry_txn_vt(self):
        timelines = self.run_traced_pair(appends=3)
        sent = [e for e in timelines[0] if e["kind"] == "message_sent"]
        assert sent and all(e["txn_vt"] for e in sent)


class TestTwoTenantMerge:
    """Two hosts, two tenants, and both hosts sending from tenant-local site 0.

    Tenant 1 keeps the symmetric layout (site 0 on host A); a placement
    override swaps tenant 2's sites (site 0 on host B).  Each host's
    ``message_sent`` events then carry the same tenant-local source site,
    so the merge can only pair every edge if ``msg_id`` names the process.
    """

    ROUNDS = 6

    def run_hosts(self):
        addrs = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
        placement = Placement(addrs, per_tenant={2: {0: addrs[1], 1: addrs[0]}})

        async def scenario():
            a = TcpTransport(addrs, local_sites={0}, placement=placement)
            b = TcpTransport(addrs, local_sites={1}, placement=placement)
            for host in (a, b):
                host.bus.enable()
            echoes: List[Any] = []
            # Site 1 of each tenant echoes to site 0; site 0 counts echoes.
            a.register(1, 0, lambda src, p: echoes.append(p))
            b.register(1, 1, lambda src, p: b.send(1, 1, 0, p))
            b.register(2, 0, lambda src, p: echoes.append(p))
            a.register(2, 1, lambda src, p: a.send(2, 1, 0, p))
            await a.start()
            await b.start()
            for i in range(self.ROUNDS):
                a.send(1, 0, 1, CommitMsg(VirtualTime(i + 1, 0), i))
                b.send(2, 0, 1, CommitMsg(VirtualTime(i + 1, 0), i))
            deadline = asyncio.get_running_loop().time() + 10.0
            while len(echoes) < 2 * self.ROUNDS:
                assert asyncio.get_running_loop().time() < deadline, "echoes lost"
                await asyncio.sleep(0.01)
            await a.aquiesce(settle_ms=20.0)
            await b.aquiesce(settle_ms=20.0)
            timelines = [[event_to_dict(e) for e in host.bus.events] for host in (a, b)]
            await a.stop()
            await b.stop()
            return timelines

        return asyncio.run(scenario())

    def test_every_edge_pairs_without_msg_id_collision(self, tmp_path):
        from repro.cli import main

        timelines = self.run_hosts()
        # Events keep tenant-local sites and carry the tenant: both hosts
        # send from site 0 (host A for tenant 1, host B for tenant 2).
        senders = [
            {(e["data"]["tenant"], e["site"]) for e in tl if e["kind"] == "message_sent"}
            for tl in timelines
        ]
        assert senders == [{(1, 0), (2, 1)}, {(2, 0), (1, 1)}]
        sent_ids = [
            e["data"]["msg_id"] for tl in timelines for e in tl if e["kind"] == "message_sent"
        ]
        assert len(sent_ids) == len(set(sent_ids)) == 4 * self.ROUNDS
        merged = merge_timelines(timelines)
        assert merged.pairs == 4 * self.ROUNDS
        assert merged.unmatched_sends == [] and merged.unmatched_deliveries == []
        paths = []
        for proc, timeline in enumerate(timelines):
            path = tmp_path / f"trace{proc}.jsonl"
            path.write_text("\n".join(json.dumps(e) for e in timeline) + "\n")
            paths.append(str(path))
        out = tmp_path / "merged.jsonl"
        args = ["trace", "--merge", *paths, "--format", "jsonl", "--out", str(out), "--quiet"]
        assert main(args) == 0


class TestMergeCli:
    def write_timelines(self, tmp_path):
        paths = []
        for proc, timeline in enumerate(two_proc_timelines()):
            path = tmp_path / f"trace{proc}.jsonl"
            path.write_text("\n".join(json.dumps(e) for e in timeline) + "\n")
            paths.append(str(path))
        return paths

    def test_merge_writes_jsonl_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        paths = self.write_timelines(tmp_path)
        out = tmp_path / "merged.jsonl"
        rc = main(["trace", "--merge", *paths, "--format", "jsonl", "--out", str(out), "--quiet"])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 4
        assert {l["kind"] for l in lines} == {"message_sent", "message_delivered"}

    def test_merge_exits_nonzero_on_unmatched(self, tmp_path, capsys):
        from repro.cli import main

        paths = self.write_timelines(tmp_path)
        extra = ev(2, 30.0, 0, "message_sent", dst=1, msg_id="0:99", msg_type="CommitMsg")
        with open(paths[0], "a") as fh:
            fh.write(json.dumps(extra) + "\n")
        out = tmp_path / "merged.jsonl"
        args = ["trace", "--merge", *paths, "--format", "jsonl", "--out", str(out), "--quiet"]
        assert main(args) == 1
        assert main(args + ["--allow-unmatched"]) == 0
