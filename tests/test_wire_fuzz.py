"""Adversarial decode fuzzing: malformed bytes must fail *cleanly*.

The decoder's contract is that any byte string either decodes to a value or
raises :class:`WireError` — never IndexError, struct.error, UnicodeError,
RecursionError, or a hang.  The compiled unpackers take many speculative
fast paths (fused tag reads, span memos, inline varints), so these
properties hammer them with arbitrary bytes, mutated valid frames, and
truncations of valid frames — through both :func:`decode` and the frame
decoder :func:`decode_frame`, which must also reject bodies written in the
retired frame layouts.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import OpPayload, TxnPropagateMsg, WriteOp
from repro.errors import WireError
from repro.vtime import VirtualTime
from repro.wire import TraceContext, decode, decode_frame, encode, encode_frame
from repro.wire.codec import FRAME_VERSION, WIRE_VERSION


def _decode_or_wire_error(data):
    """Each decoder may succeed or raise WireError; anything else is a bug."""
    for decoder in (decode, decode_frame):
        try:
            decoder(data)
        except WireError:
            pass


def _retired_frame_bodies():
    """Frame bodies in the retired v1/v2/v3 layouts (routing tuple after
    version bytes 1, 2 and 3), as processes of earlier releases wrote them."""
    msg = TxnPropagateMsg(
        txn_vt=VirtualTime(3, 0), origin=0, writes=(), read_checks=(), clock=3
    )
    trace = TraceContext(0, "3@0", 1)
    return [
        encode((0, 1, msg)),
        bytes([2]) + encode((0, 1, msg, trace))[1:],
        bytes([3]) + encode((4, 0, 1, msg, None))[1:],
    ]


RETIRED_FRAME_BODIES = _retired_frame_bodies()


def _sample_frames():
    writes = tuple(
        WriteOp(
            object_uid=f"s{i}:ctr",
            op=OpPayload(kind="set", args=(i,)),
            read_vt=VirtualTime(40, 2),
            graph_vt=VirtualTime(12, 0),
        )
        for i in range(3)
    )
    msg = TxnPropagateMsg(
        txn_vt=VirtualTime(41, 2), origin=2, writes=writes, read_checks=(), clock=57
    )
    trace = TraceContext(1, "41@2", 7)
    return [
        encode(msg),
        encode({"k": (VirtualTime(1, 0), b"\x00\xff")}),
        encode([None, True, -(2**40), 2.5, frozenset({1, 2})]),
        encode_frame(0, 1, msg, None, 5)[4:],
        encode_frame(0, 1, msg, trace, 0)[4:],
    ] + RETIRED_FRAME_BODIES


SAMPLE_FRAMES = _sample_frames()


@settings(max_examples=300)
@given(st.binary(max_size=256))
@example(b"")
@example(bytes([WIRE_VERSION]))
@example(bytes([WIRE_VERSION, 0x0B]))  # VT tag, no varints
@example(bytes([WIRE_VERSION, 0x05, 0x7F]))  # str header, no payload
@example(bytes([WIRE_VERSION, 0x07, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]))  # huge tuple
@example(bytes([WIRE_VERSION, 0x80]))  # continuation bit, no next byte
@example(bytes([WIRE_VERSION, 0x26]))  # struct tag, no fields
def test_arbitrary_bytes_never_escape_wire_error(data):
    _decode_or_wire_error(data)


@settings(max_examples=200)
@given(
    st.sampled_from(SAMPLE_FRAMES),
    st.data(),
)
def test_mutated_valid_frames_never_escape_wire_error(frame, data):
    pos = data.draw(st.integers(0, len(frame) - 1))
    new_byte = data.draw(st.integers(0, 255))
    mutated = frame[:pos] + bytes([new_byte]) + frame[pos + 1 :]
    _decode_or_wire_error(mutated)


@settings(max_examples=200)
@given(st.sampled_from(SAMPLE_FRAMES), st.data())
def test_truncated_valid_frames_never_escape_wire_error(frame, data):
    cut = data.draw(st.integers(0, len(frame) - 1))
    _decode_or_wire_error(frame[:cut])


@settings(max_examples=100)
@given(st.sampled_from(SAMPLE_FRAMES), st.binary(min_size=1, max_size=8))
def test_trailing_garbage_raises_wire_error(frame, suffix):
    for decoder in (decode, decode_frame):
        with pytest.raises(WireError):
            decoder(frame + suffix)


@settings(max_examples=200)
@given(st.binary(max_size=64))
def test_memoryview_input_behaves_like_bytes(data):
    try:
        from_bytes = decode(data)
        bytes_ok = True
    except WireError as exc:
        from_bytes = str(exc)
        bytes_ok = False
    try:
        from_view = decode(memoryview(data))
        view_ok = True
    except WireError as exc:
        from_view = str(exc)
        view_ok = False
    assert bytes_ok == view_ok
    if bytes_ok:
        assert from_view == from_bytes


@settings(max_examples=200)
@given(st.binary(max_size=128))
@example(RETIRED_FRAME_BODIES[0])
@example(RETIRED_FRAME_BODIES[1])
@example(RETIRED_FRAME_BODIES[2])
def test_frame_body_decoder_never_escapes_wire_error(body):
    try:
        decode_frame(body)
    except WireError:
        return
    # Only a body in the current layout may decode at all.
    assert body[0] == FRAME_VERSION


def test_deep_nesting_does_not_blow_the_stack():
    # 2000 nested single-element tuples: decode must either succeed or fail
    # cleanly, not die with RecursionError.
    depth = 2000
    payload = bytes([WIRE_VERSION]) + bytes([0x07, 0x01]) * depth + bytes([0x00])
    try:
        value = decode(payload)
    except WireError:
        return
    for _ in range(depth):
        assert isinstance(value, tuple) and len(value) == 1
        value = value[0]
    assert value is None
