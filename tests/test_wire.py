"""Wire codec tests: golden bytes, full round-trip properties, rejection.

The golden-bytes cases pin the exact encoding of representative payloads:
any change to the byte layout (tag values, varint scheme, field order,
canonical collection ordering) fails here and forces a deliberate
``WIRE_VERSION`` bump.  The Hypothesis properties check, for every
registered message type, that ``decode(encode(x)) == x`` and that
re-encoding is byte-identical (the determinism the cross-process digest
comparison relies on).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.association import Invitation
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    ConfirmMsg,
    DelegateGrant,
    Envelope,
    FailQueryMsg,
    FailQueryReplyMsg,
    FailResolutionMsg,
    GraphRepairAckMsg,
    GraphRepairApplyMsg,
    GraphRepairProposeMsg,
    JoinReplyMsg,
    JoinRequestMsg,
    OpPayload,
    PathStep,
    ReadCheck,
    SlotId,
    SnapshotCheck,
    SnapshotConfirmMsg,
    SnapshotReplyMsg,
    TxnPropagateMsg,
    WriteConfirmedMsg,
    WriteOp,
)
from repro.core.repgraph import GraphNode, ReplicationGraph
from repro.errors import WireError
from repro.vtime import VT_ZERO, VirtualTime
from repro.wire import (
    FRAME_VERSION,
    MESSAGE_TYPES,
    WIRE_STRUCTS,
    WIRE_VERSION,
    TraceContext,
    decode,
    decode_frame,
    encode,
    encode_frame,
    register_struct,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

vts = st.builds(
    VirtualTime,
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=-1, max_value=64),
)
uids = st.from_regex(r"s[0-9]{1,2}:[a-z]{1,8}", fullmatch=True)
small_ints = st.integers(min_value=-(2**34), max_value=2**34)
clocks = st.integers(min_value=0, max_value=2**32)
ids = st.tuples(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=2**20))
texts = st.text(max_size=12)

slot_ids = st.builds(SlotId, vts, st.integers(min_value=0, max_value=1000))
path_steps = st.builds(PathStep, st.one_of(st.none(), texts), st.one_of(vts, slot_ids))
paths = st.tuples(*[path_steps] * 0) | st.builds(tuple, st.lists(path_steps, max_size=3))

#: Scalars + the structured values that appear inside op args / sync specs.
wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    small_ints,
    st.floats(allow_nan=False),
    texts,
    st.binary(max_size=8),
    vts,
    slot_ids,
)
wire_values = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.builds(tuple, st.lists(children, max_size=3)),
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(texts, small_ints, vts), children, max_size=3),
        st.frozensets(st.one_of(texts, small_ints, vts), max_size=3),
    ),
    max_leaves=8,
)

op_payloads = st.builds(
    OpPayload,
    st.sampled_from(["set", "insert", "remove", "put", "delete", "graph", "assoc", "sync", "structural"]),
    st.builds(tuple, st.lists(wire_values, max_size=3)),
)
write_ops = st.builds(WriteOp, uids, op_payloads, vts, vts, paths)
read_checks = st.builds(ReadCheck, uids, vts, vts, paths)
delegate_grants = st.builds(DelegateGrant, st.builds(tuple, st.lists(st.integers(0, 32), max_size=5)))
graph_nodes = st.builds(GraphNode, st.integers(min_value=0, max_value=64), uids)
graphs = st.builds(
    ReplicationGraph,
    st.frozensets(graph_nodes, min_size=1, max_size=4),
    st.frozensets(st.frozensets(uids, min_size=2, max_size=2), max_size=3),
)
snapshot_checks = st.builds(SnapshotCheck, uids, vts, vts, st.booleans(), paths)
vt_tuples = st.builds(tuple, st.lists(vts, max_size=4))
int_tuples = st.builds(tuple, st.lists(st.integers(0, 32), max_size=4))
uid_tuples = st.builds(tuple, st.lists(uids, max_size=4))

#: One strategy per wire-registered message type, covering every field.
MESSAGE_STRATEGIES = {
    TxnPropagateMsg: st.builds(
        TxnPropagateMsg,
        vts,
        st.integers(0, 64),
        st.builds(tuple, st.lists(write_ops, max_size=3)),
        st.builds(tuple, st.lists(read_checks, max_size=3)),
        clocks,
        st.one_of(st.none(), delegate_grants),
        st.booleans(),
    ),
    ConfirmMsg: st.builds(ConfirmMsg, vts, st.integers(0, 64), st.booleans(), clocks, texts),
    CommitMsg: st.builds(CommitMsg, vts, clocks),
    AbortMsg: st.builds(AbortMsg, vts, clocks, texts),
    SnapshotConfirmMsg: st.builds(
        SnapshotConfirmMsg, ids, st.integers(0, 64),
        st.builds(tuple, st.lists(snapshot_checks, max_size=3)), clocks,
    ),
    SnapshotReplyMsg: st.builds(SnapshotReplyMsg, ids, st.booleans(), uid_tuples, clocks),
    WriteConfirmedMsg: st.builds(WriteConfirmedMsg, uids, vts, vts, vts, clocks),
    JoinRequestMsg: st.builds(
        JoinRequestMsg, ids, st.integers(0, 64), vts, uids, uids, graphs, clocks,
    ),
    JoinReplyMsg: st.builds(
        JoinReplyMsg, ids, st.booleans(), wire_values, st.one_of(st.none(), graphs),
        vts, vts, vt_tuples, st.integers(0, 64), clocks, texts, st.booleans(),
    ),
    FailQueryMsg: st.builds(
        FailQueryMsg, ids, st.integers(0, 64), st.integers(0, 64), vt_tuples, clocks
    ),
    FailQueryReplyMsg: st.builds(
        FailQueryReplyMsg, ids, st.integers(0, 64), vt_tuples, vt_tuples, clocks
    ),
    FailResolutionMsg: st.builds(FailResolutionMsg, ids, vt_tuples, vt_tuples, clocks),
    GraphRepairProposeMsg: st.builds(
        GraphRepairProposeMsg, ids, st.integers(0, 64), st.integers(0, 64),
        uid_tuples, vts, clocks, int_tuples,
    ),
    GraphRepairAckMsg: st.builds(
        GraphRepairAckMsg, ids, st.integers(0, 64), st.booleans(), clocks
    ),
    GraphRepairApplyMsg: st.builds(
        GraphRepairApplyMsg, ids, st.integers(0, 64), uid_tuples, vts, clocks, int_tuples
    ),
}
MESSAGE_STRATEGIES[Envelope] = st.builds(
    Envelope,
    st.builds(
        tuple,
        st.lists(
            st.one_of(*[MESSAGE_STRATEGIES[t] for t in (CommitMsg, ConfirmMsg, AbortMsg)]),
            min_size=1,
            max_size=4,
        ),
    ),
)


def test_every_message_type_has_a_strategy():
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES)


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("msg_type", MESSAGE_TYPES, ids=lambda t: t.__name__)
def test_roundtrip_every_message_type(msg_type):
    @settings(max_examples=40)
    @given(MESSAGE_STRATEGIES[msg_type])
    def check(msg):
        data = encode(msg)
        back = decode(data)
        assert back == msg
        assert encode(back) == data

    check()


@settings(max_examples=60)
@given(wire_values)
def test_roundtrip_arbitrary_wire_values(value):
    data = encode(value)
    back = decode(data)
    assert back == value
    assert encode(back) == data


@settings(max_examples=30)
@given(graphs)
def test_roundtrip_replication_graphs(graph):
    data = encode(graph)
    assert decode(data) == graph
    assert encode(decode(data)) == data


def test_dict_and_frozenset_encoding_is_order_independent():
    assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})
    assert encode(frozenset({"x", "y", "z"})) == encode(frozenset({"z", "x", "y"}))


def test_invitation_roundtrip():
    inv = Invitation(inviter_site=3, assoc_uid="s3:doc.assoc", note="join me")
    assert decode(encode(inv)) == inv


def test_negative_and_large_ints():
    for n in (0, -1, 1, -(2**40), 2**40, 2**70, -(2**70)):
        assert decode(encode(n)) == n


def test_bool_is_not_confused_with_int():
    assert decode(encode(True)) is True
    assert decode(encode(False)) is False
    assert decode(encode(1)) == 1 and decode(encode(1)) is not True


# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------

GOLDEN = [
    (VirtualTime(7, 2), "010b0e04"),
    (CommitMsg(VirtualTime(5, 1), 12), "01280b0a020318"),
    (ConfirmMsg(VirtualTime(3, 0), 2, True, 9, ""), "01270b060003040103120500"),
    (
        TxnPropagateMsg(
            txn_vt=VirtualTime(9, 1),
            origin=1,
            writes=(
                WriteOp(
                    "s0:x",
                    OpPayload("set", (5,)),
                    VT_ZERO,
                    VirtualTime(9, 1),
                    (),
                ),
            ),
            read_checks=(ReadCheck("s1:y", VirtualTime(4, 0), VirtualTime(2, 0)),),
            clock=11,
            delegate=DelegateGrant((0, 1, 2)),
            force_confirm=False,
        ),
        "01260b12020302070123050473303a782205037365740701030a0b00010b12"
        "020700070124050473313a790b08000b04000700031625070303000302030402",
    ),
    (
        Envelope((CommitMsg(VirtualTime(5, 1), 12), AbortMsg(VirtualTime(6, 1), 13, "x"))),
        "01390702280b0a020318290b0c02031a050178",
    ),
    # Trace headers: the sampled flag (head-based sampling decision) is
    # the last field, so pre-sampling captures differ only in the one
    # trailing bool byte.
    (TraceContext(3, "5@1", 42), "013a03060503354031035401"),
    (TraceContext(3, "5@1", 42, False), "013a03060503354031035402"),
]


@pytest.mark.parametrize("value,hex_bytes", GOLDEN, ids=[type(v).__name__ for v, _ in GOLDEN])
def test_golden_bytes(value, hex_bytes):
    assert encode(value).hex() == hex_bytes
    assert decode(bytes.fromhex(hex_bytes)) == value


def test_version_byte_leads_every_payload():
    assert encode(None)[0] == WIRE_VERSION


# ---------------------------------------------------------------------------
# Rejection
# ---------------------------------------------------------------------------


def test_rejects_empty_payload():
    with pytest.raises(WireError):
        decode(b"")


def test_rejects_unknown_version():
    good = encode(42)
    with pytest.raises(WireError, match="version"):
        decode(bytes([WIRE_VERSION + 1]) + good[1:])


def test_rejects_unknown_tag():
    with pytest.raises(WireError, match="unknown wire tag"):
        decode(bytes([WIRE_VERSION, 0xFF]))


def test_rejects_trailing_garbage():
    with pytest.raises(WireError, match="trailing"):
        decode(encode(1) + b"\x00")


def test_rejects_truncated_struct():
    data = encode(CommitMsg(VirtualTime(5, 1), 12))
    with pytest.raises(WireError):
        decode(data[:-1])


def test_rejects_unencodable_value():
    with pytest.raises(WireError, match="not wire-encodable"):
        encode(object())


def test_rejects_invalid_struct_payload():
    # An encoded ReplicationGraph with zero nodes violates the class
    # invariant; the decoder must surface it as a WireError.
    import repro.wire.codec as codec

    tag = codec._STRUCTS_BY_CLASS[ReplicationGraph][0]
    bad = bytes([WIRE_VERSION, tag, codec._T_FROZENSET, 0, codec._T_FROZENSET, 0])
    with pytest.raises(WireError, match="ReplicationGraph"):
        decode(bad)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_register_struct_rejects_conflicts():
    @dataclasses.dataclass(frozen=True)
    class Other:
        x: int

    with pytest.raises(WireError, match="already registered"):
        register_struct(0x20, Other)  # 0x20 belongs to SlotId
    with pytest.raises(WireError, match="tags must be"):
        register_struct(0x05, Other)  # primitive range
    register_struct(0x20, SlotId)  # re-registering the same pair is a no-op


def test_register_struct_extension_roundtrips():
    @dataclasses.dataclass(frozen=True)
    class CustomPing:
        nonce: int
        tag: str

    register_struct(0xFE, CustomPing)
    msg = CustomPing(nonce=99, tag="hi")
    assert decode(encode(msg)) == msg


def test_all_structs_are_dataclasses_in_field_order():
    for cls in WIRE_STRUCTS:
        assert dataclasses.is_dataclass(cls)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def test_frame_roundtrip():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    frame = encode_frame(3, 7, msg, None, 0)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert decode_frame(frame[4:]) == (0, 3, 7, msg, None)


def test_frame_rejects_non_tuple_body():
    body = bytes([FRAME_VERSION]) + encode("just a string")[1:]
    with pytest.raises(WireError, match="5-tuple"):
        decode_frame(body)


# Golden frames: version byte 0x04 + (tenant, src, dst, payload,
# trace-or-None) 5-tuple, untraced and traced, including the trailing
# sampled flag (True=0x01 here; the head-dropped variant pins the False
# byte).  Every tenant, 0 included, uses this one layout.
GOLDEN_FRAME = "0000001004070503120306030e280b0a02031800"
GOLDEN_FRAME_TRACED = (
    "0000001a04070503120306030e280b0a0203183a03060503354031035401"
)
GOLDEN_FRAME_DROPPED = (
    "0000001a04070503120306030e280b0a0203183a03060503354031035402"
)

# Bodies in the retired frame layouts, pinned as they were written: v1
# (src, dst, payload) triple, v2 traced 4-tuple, v3 tenant 5-tuple.
RETIRED_BODIES = {
    "v1": "0107030306030e280b0a020318",
    "v2": "0207040306030e280b0a0203183a03060503354031035401",
    "v3": "03070503120306030e280b0a02031800",
}


def test_golden_frame_bytes():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(3, "5@1", 42)
    assert encode_frame(3, 7, msg, None, 9).hex() == GOLDEN_FRAME
    assert encode_frame(3, 7, msg, trace, 9).hex() == GOLDEN_FRAME_TRACED
    dropped = TraceContext(3, "5@1", 42, sampled=False)
    assert encode_frame(3, 7, msg, dropped, 9).hex() == GOLDEN_FRAME_DROPPED


def test_sampled_out_trace_rides_the_frame():
    # The origin's head-drop decision must survive the wire so every
    # receiving process skips the same trace (repro.obs.sample).
    frame = bytes.fromhex(GOLDEN_FRAME_DROPPED)
    trace = decode_frame(frame[4:])[4]
    assert trace == TraceContext(3, "5@1", 42, sampled=False)
    assert trace.sampled is False


def test_frame_body_is_the_encoded_5_tuple():
    # Behind the length prefix: the frame version byte, then exactly what
    # encode() writes for the routing 5-tuple after its own version byte.
    msg = CommitMsg(VirtualTime(5, 1), 12)
    frame = encode_frame(3, 7, msg, None, 9)
    assert frame[4] == FRAME_VERSION
    assert frame[5:] == encode((9, 3, 7, msg, None))[1:]


def test_traced_frame_roundtrip_and_msg_id():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(origin=3, trace_id="5@1", parent_span=42)
    frame = encode_frame(3, 7, msg, trace, 0)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    tenant, src, dst, payload, got = decode_frame(frame[4:])
    assert (tenant, src, dst, payload) == (0, 3, 7, msg)
    assert got == trace
    assert got.msg_id == "3:42"


def test_traced_frame_rejects_trailing_bytes():
    traced = bytes.fromhex(GOLDEN_FRAME_TRACED)
    with pytest.raises(WireError, match="trailing"):
        decode_frame(traced[4:] + b"\x00")


def test_tenant_zero_is_an_ordinary_frame_field():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    zero = encode_frame(3, 7, msg, None, 0)
    nine = encode_frame(3, 7, msg, None, 9)
    # Same layout and length; only the tenant field differs.
    assert len(zero) == len(nine)
    assert zero[:8] == nine[:8] and zero[9:] == nine[9:]
    assert decode_frame(zero[4:]) == (0, 3, 7, msg, None)


def test_tenant_frame_roundtrip_with_and_without_trace():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    trace = TraceContext(3, "5@1", 42)
    plain = encode_frame(3, 7, msg, None, 9)
    assert plain[4] == FRAME_VERSION
    assert int.from_bytes(plain[:4], "big") == len(plain) - 4
    assert decode_frame(plain[4:]) == (9, 3, 7, msg, None)
    traced = encode_frame(3, 7, msg, trace, 9)
    assert decode_frame(traced[4:]) == (9, 3, 7, msg, trace)


@pytest.mark.parametrize("layout", sorted(RETIRED_BODIES))
def test_decode_frame_rejects_retired_versions(layout):
    with pytest.raises(WireError, match="unsupported frame version"):
        decode_frame(bytes.fromhex(RETIRED_BODIES[layout]))


def test_frame_rejects_negative_tenant():
    # decode_frame takes outside input: a negative tenant id is corruption.
    msg = CommitMsg(VirtualTime(5, 1), 12)
    body = bytes([FRAME_VERSION]) + encode((-1, 3, 7, msg, None))[1:]
    with pytest.raises(WireError, match="negative tenant"):
        decode_frame(body)


def test_traced_frame_rejects_malformed_4_tuple():
    # The retired traced layout (src, dst, payload, trace) with a 4th
    # element that is not a TraceContext is corruption under any version
    # byte: the old one is unsupported, the current one wants a 5-tuple.
    msg = CommitMsg(VirtualTime(5, 1), 12)
    tail = encode((3, 7, msg, "oops"))[1:]
    with pytest.raises(WireError, match="unsupported frame version"):
        decode_frame(bytes([2]) + tail)
    with pytest.raises(WireError, match="5-tuple"):
        decode_frame(bytes([FRAME_VERSION]) + tail)
    trace = TraceContext(3, "5@1", 42)
    body = bytes([FRAME_VERSION]) + encode((9, 3, 7, msg, trace))[1:]
    assert decode_frame(body) == (9, 3, 7, msg, trace)


def test_tenant_frame_rejects_malformed_5_tuple():
    msg = CommitMsg(VirtualTime(5, 1), 12)
    for bad in ((9, 3, 7, msg, "oops"), (9, 3, 7, msg), (3, 7, msg)):
        body = bytes([FRAME_VERSION]) + encode(bad)[1:]
        with pytest.raises(WireError, match="5-tuple"):
            decode_frame(body)
