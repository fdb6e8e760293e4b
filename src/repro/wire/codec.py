"""The DECAF wire codec: a deterministic, versioned binary format.

Everything a site sends to a peer — every message dataclass in
:mod:`repro.core.messages`, the virtual times they carry, replication
graphs, invitations, nested sync/child specs — encodes to bytes through
this module, so payloads can cross a real process boundary (the
:class:`~repro.transport.tcp.TcpTransport`) instead of travelling as live
Python references through in-memory queues.

Design rules:

* **Versioned.**  Every encoded payload starts with a one-byte format
  version.  A decoder that sees an unknown version raises
  :class:`~repro.errors.WireError` immediately — no best-effort parsing.
* **Registry-tagged.**  Each value form has a one-byte tag.  Primitive
  tags (ints, strings, tuples, ...) are fixed; protocol dataclasses are
  entered in a registry mapping tag ↔ class, and encode as the tag
  followed by the dataclass fields in declaration order.  Extensions
  register new structs with :func:`register_struct`; unknown tags are a
  hard decode error.
* **Deterministic.**  Encoding is a pure function of the value: dict
  entries and frozenset elements are ordered by their encoded bytes, so
  ``encode(decode(encode(x))) == encode(x)`` byte-for-byte.  This is what
  makes golden-bytes tests, cross-process digest comparison, and
  replayable traces possible.
* **Self-contained.**  Varints for all integers (arbitrary precision),
  IEEE-754 big-endian for floats, UTF-8 for strings.  No pickling, no
  code execution on decode.

Hot-path architecture (docs/WIRE.md has the full treatment):

* **Precompiled packers.**  :func:`register_struct` generates a
  specialized encode closure and decode closure per dataclass — tag byte
  and field walk baked into straight-line code — and installs them in the
  type-keyed encoder dispatch and the 256-entry tag table.  The original
  generic implementation survives verbatim in :mod:`repro.wire.reference`
  and property tests assert byte-identical output.
* **One join per frame.**  Encoders append pre-built byte constants
  (fused tag+payload singletons for small ints, small string/collection
  headers) to one parts list; ``b"".join`` runs once per payload.
* **Zero-copy cursor decode.**  The decoder walks ``(buf, pos)`` with a
  per-tag function table; ``memoryview``/``bytearray`` inputs are
  consumed in place without intermediate slicing, and malformed input
  surfaces as :class:`WireError` at the ``decode()`` boundary — never
  ``IndexError``/``struct.error``/``RecursionError``.
* **Interning.**  Decoded :class:`~repro.vtime.VirtualTime` values, short
  strings (site/object uids), and structs opting in via
  ``__wire_intern__`` (e.g. ``SlotId``) are shared through bounded caches
  so repeated decodes of one collaboration's traffic reuse objects, and
  each ``VirtualTime`` caches its canonical encoding so dict/frozenset
  canonicalization stops re-encoding keys.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from repro.vtime import VirtualTime

#: Current wire-format version.  Bump on any incompatible layout change;
#: decoders reject every version they do not implement.
WIRE_VERSION = 1

#: Version byte of every frame body, which is this byte followed by the
#: ``(tenant, src, dst, payload, trace-or-None)`` 5-tuple.  The retired
#: frame layouts used 1, 2 and 3, so a body in any of them is rejected
#: rather than misread (docs/WIRE.md).
FRAME_VERSION = 4

# ---------------------------------------------------------------------------
# Primitive tags (0x00–0x1F reserved for the codec itself)
# ---------------------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_FROZENSET = 0x0A
_T_VT = 0x0B

# ---------------------------------------------------------------------------
# Pre-built byte constants (one object per frequent prefix, so encoders
# append shared singletons instead of constructing bytes per value)
# ---------------------------------------------------------------------------

_BYTE = tuple(bytes((i,)) for i in range(256))

_B_NONE = _BYTE[_T_NONE]
_B_TRUE = _BYTE[_T_TRUE]
_B_FALSE = _BYTE[_T_FALSE]
_B_INT = _BYTE[_T_INT]
_B_FLOAT = _BYTE[_T_FLOAT]
_B_STR = _BYTE[_T_STR]
_B_BYTES = _BYTE[_T_BYTES]
_B_TUPLE = _BYTE[_T_TUPLE]
_B_LIST = _BYTE[_T_LIST]
_B_DICT = _BYTE[_T_DICT]
_B_FROZENSET = _BYTE[_T_FROZENSET]
_B_VT = _BYTE[_T_VT]

#: Fused tag+varint singletons: a small int/length encodes as ONE append.
_INT1 = tuple(_B_INT + _BYTE[z] for z in range(128))
_STR_HDR = tuple(_B_STR + _BYTE[n] for n in range(128))
_BYTES_HDR = tuple(_B_BYTES + _BYTE[n] for n in range(128))
_TUPLE_HDR = tuple(_B_TUPLE + _BYTE[n] for n in range(128))
_LIST_HDR = tuple(_B_LIST + _BYTE[n] for n in range(128))
_DICT_HDR = tuple(_B_DICT + _BYTE[n] for n in range(128))
_FROZENSET_HDR = tuple(_B_FROZENSET + _BYTE[n] for n in range(128))

_PACK_D = struct.Struct(">d").pack
_UNPACK_D = struct.Struct(">d").unpack_from

# ---------------------------------------------------------------------------
# Struct registry (tags 0x20–0xFF)
# ---------------------------------------------------------------------------

#: tag -> (class, field names in declaration order)
_STRUCTS_BY_TAG: Dict[int, Tuple[type, Tuple[str, ...]]] = {}
#: class -> (tag, field names)
_STRUCTS_BY_CLASS: Dict[type, Tuple[int, Tuple[str, ...]]] = {}

#: Exact-type encoder dispatch: ``type(value) -> fn(out, value)``.
_ENCODERS: Dict[type, Callable[[List[bytes], Any], None]] = {}
#: Tag-indexed decoder table: ``fn(buf, pos) -> (value, pos)`` or None.
_DECODERS: List[Optional[Callable[[Any, int], Tuple[Any, int]]]] = [None] * 256

# ---------------------------------------------------------------------------
# Interning caches (bounded: cleared wholesale when full, so a burst of
# unique values cannot grow them without bound)
# ---------------------------------------------------------------------------

#: Decoded VirtualTime instances, keyed on the raw zigzag varint values.
#: The common case (both varints single-byte) uses the fused int key
#: ``z1 * 128 + z2``; larger pairs fall back to a ``(z1, z2)`` tuple key.
#: int and tuple keys never compare equal, so one dict serves both.
_VT_CACHE: Dict[Any, VirtualTime] = {}
_VT_CACHE_MAX = 1 << 16
_STR_CACHE: Dict[bytes, str] = {}
_STR_CACHE_MAX = 1 << 12
_STR_INTERN_MAX_LEN = 40
#: Span-memo for decoded ``__wire_intern__`` structs.  Keyed by the first
#: :data:`_SPAN_PREFIX_LEN` bytes at the struct's tag position (a bucket
#: selector, nothing more); each bucket holds ``(span, instance)`` pairs
#: where ``span`` is the struct's complete encoding, tag byte included.
#: A lookup only reuses an instance after verifying that the bytes at the
#: cursor equal the full cached span — the decoder is a deterministic
#: function of its input, so identical bytes decode to an identical value
#: and the memo may skip the parse *and* the construction.  Bucket
#: collisions or prefix matches with differing tails simply fail the
#: verify and fall through to a normal parse; soundness never rests on
#: the prefix.
_STRUCT_CACHE: Dict[bytes, List[Tuple[bytes, Any]]] = {}
_STRUCT_CACHE_MAX = 1 << 13
_SPAN_PREFIX_LEN = 12
_SPAN_BUCKET_MAX = 8


def _memo_span(prefix: Any, span: Any, value: Any) -> None:
    """Record a freshly parsed interned-struct span in the memo."""
    bucket = _STRUCT_CACHE.get(prefix)
    if bucket is None:
        if len(_STRUCT_CACHE) >= _STRUCT_CACHE_MAX:
            _STRUCT_CACHE.clear()
        _STRUCT_CACHE[bytes(prefix)] = [(bytes(span), value)]
    elif len(bucket) < _SPAN_BUCKET_MAX:
        bucket.append((bytes(span), value))


def _stamp_wire(value: Any, out: List[bytes], mark: int) -> None:
    """Cache the canonical encoding of an interned struct on the instance.

    ``out[mark:]`` is exactly the tag byte plus field encodings this packer
    just appended for ``value``.  The write goes through
    ``object.__setattr__`` because the frozen dataclass ``__setattr__``
    refuses everything; the ``_wire`` key lands in the instance ``__dict__``
    beside the fields without affecting ``==``/``hash`` (dataclasses
    compare by field, not by dict).
    """
    object.__setattr__(value, "_wire", b"".join(out[mark:]))


# ---------------------------------------------------------------------------
# Varint helpers (multi-byte slow paths; single bytes use the fused tables)
# ---------------------------------------------------------------------------


def _append_uvarint(out: List[bytes], value: int) -> None:
    while value > 0x7F:
        out.append(_BYTE[(value & 0x7F) | 0x80])
        value >>= 7
    out.append(_BYTE[value])


def _read_uvarint(data: Any, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    pos += 1
    if byte < 0x80:
        return byte, pos
    value = byte & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _read_svarint(data: Any, pos: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(data, pos)
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


# ---------------------------------------------------------------------------
# Primitive encoders
# ---------------------------------------------------------------------------


def _enc_none(out: List[bytes], value: Any) -> None:
    out.append(_B_NONE)


def _enc_bool(out: List[bytes], value: Any) -> None:
    out.append(_B_TRUE if value else _B_FALSE)


def _enc_int(out: List[bytes], value: int) -> None:
    z = (value << 1) if value >= 0 else ((-value << 1) - 1)
    if z < 0x80:
        out.append(_INT1[z])
    else:
        out.append(_B_INT)
        _append_uvarint(out, z)


def _enc_float(out: List[bytes], value: float) -> None:
    out.append(_B_FLOAT)
    out.append(_PACK_D(value))


def _enc_str(out: List[bytes], value: str) -> None:
    raw = value.encode("utf-8")
    n = len(raw)
    if n < 128:
        out.append(_STR_HDR[n])
    else:
        out.append(_B_STR)
        _append_uvarint(out, n)
    out.append(raw)


def _enc_bytes(out: List[bytes], value: bytes) -> None:
    n = len(value)
    if n < 128:
        out.append(_BYTES_HDR[n])
    else:
        out.append(_B_BYTES)
        _append_uvarint(out, n)
    out.append(value)


def _enc_vt(out: List[bytes], value: VirtualTime) -> None:
    # Each VT caches its canonical encoding (tag + two zigzag varints) the
    # first time it crosses the wire: commit fan-out re-encodes the same
    # timestamps once per destination, and dict/frozenset canonicalization
    # re-encodes them once per containing collection.
    try:
        out.append(value._wire)
    except AttributeError:
        parts: List[bytes] = [_B_VT]
        counter = value.counter
        z = (counter << 1) if counter >= 0 else ((-counter << 1) - 1)
        if z < 0x80:
            parts.append(_BYTE[z])
        else:
            _append_uvarint(parts, z)
        site = value.site
        z = (site << 1) if site >= 0 else ((-site << 1) - 1)
        if z < 0x80:
            parts.append(_BYTE[z])
        else:
            _append_uvarint(parts, z)
        raw = b"".join(parts)
        object.__setattr__(value, "_wire", raw)
        out.append(raw)


def _enc_value(out: List[bytes], value: Any) -> None:
    """Generic dispatch: exact-type table first, isinstance fallback after."""
    enc = _ENCODERS.get(value.__class__)
    if enc is None:
        _enc_fallback(out, value)
    else:
        enc(out, value)


def _enc_items(out: List[bytes], value: Any) -> None:
    """Shared element loop for tuples and lists: ints and virtual times —
    the bulk of real traffic — inline; everything else via the dispatch."""
    encoders = _ENCODERS
    for item in value:
        cls = item.__class__
        if cls is int:
            z = (item << 1) if item >= 0 else ((-item << 1) - 1)
            if z < 0x80:
                out.append(_INT1[z])
            else:
                out.append(_B_INT)
                _append_uvarint(out, z)
        elif cls is VirtualTime:
            raw = getattr(item, "_wire", None)
            if raw is not None:
                out.append(raw)
            else:
                _enc_vt(out, item)
        else:
            enc = encoders.get(cls)
            if enc is None:
                _enc_fallback(out, item)
            else:
                enc(out, item)


def _enc_tuple(out: List[bytes], value: tuple) -> None:
    n = len(value)
    if n < 128:
        out.append(_TUPLE_HDR[n])
    else:
        out.append(_B_TUPLE)
        _append_uvarint(out, n)
    if n:
        _enc_items(out, value)


def _enc_list(out: List[bytes], value: list) -> None:
    n = len(value)
    if n < 128:
        out.append(_LIST_HDR[n])
    else:
        out.append(_B_LIST)
        _append_uvarint(out, n)
    if n:
        _enc_items(out, value)


def _enc_dict(out: List[bytes], value: dict) -> None:
    # Canonical order: entries sorted by their encoded key bytes, so two
    # equal dicts always encode identically.  (Keys with equal encodings
    # would decode equal, hence be the same key — sorting the (key, value)
    # byte pairs matches the reference codec exactly.)
    n = len(value)
    if n < 128:
        out.append(_DICT_HDR[n])
    else:
        out.append(_B_DICT)
        _append_uvarint(out, n)
    if n == 0:
        return
    if n == 1:
        ((key, val),) = value.items()
        _enc_value(out, key)
        _enc_value(out, val)
        return
    entries = []
    for key, val in value.items():
        kparts: List[bytes] = []
        _enc_value(kparts, key)
        vparts: List[bytes] = []
        _enc_value(vparts, val)
        entries.append((b"".join(kparts), b"".join(vparts)))
    entries.sort()
    for kbytes, vbytes in entries:
        out.append(kbytes)
        out.append(vbytes)


def _enc_frozenset(out: List[bytes], value: frozenset) -> None:
    # Canonical order: elements sorted by their encoded bytes.
    n = len(value)
    if n < 128:
        out.append(_FROZENSET_HDR[n])
    else:
        out.append(_B_FROZENSET)
        _append_uvarint(out, n)
    if n == 0:
        return
    items = []
    for item in value:
        parts: List[bytes] = []
        _enc_value(parts, item)
        items.append(b"".join(parts))
    items.sort()
    out.extend(items)


def _enc_fallback(out: List[bytes], value: Any) -> None:
    """Subclasses and unregistered types: the reference isinstance chain."""
    if value is None:
        out.append(_B_NONE)
    elif value is True:
        out.append(_B_TRUE)
    elif value is False:
        out.append(_B_FALSE)
    elif isinstance(value, VirtualTime):
        _enc_vt(out, value)
    elif isinstance(value, int):  # after bool/VT checks
        _enc_int(out, value)
    elif isinstance(value, float):
        _enc_float(out, value)
    elif isinstance(value, str):
        _enc_str(out, value)
    elif isinstance(value, bytes):
        _enc_bytes(out, value)
    elif isinstance(value, tuple):
        _enc_tuple(out, value)
    elif isinstance(value, list):
        _enc_list(out, value)
    elif isinstance(value, dict):
        _enc_dict(out, value)
    elif isinstance(value, frozenset):
        _enc_frozenset(out, value)
    else:
        entry = _STRUCTS_BY_CLASS.get(type(value))
        if entry is None:
            raise WireError(
                f"{type(value).__name__} is not wire-encodable; register it "
                "with repro.wire.register_struct"
            )
        _ENCODERS[type(value)](out, value)


_ENCODERS[type(None)] = _enc_none
_ENCODERS[bool] = _enc_bool
_ENCODERS[int] = _enc_int
_ENCODERS[float] = _enc_float
_ENCODERS[str] = _enc_str
_ENCODERS[bytes] = _enc_bytes
_ENCODERS[tuple] = _enc_tuple
_ENCODERS[list] = _enc_list
_ENCODERS[dict] = _enc_dict
_ENCODERS[frozenset] = _enc_frozenset
_ENCODERS[VirtualTime] = _enc_vt


# ---------------------------------------------------------------------------
# Primitive decoders — each takes (buf, pos past the tag byte) and returns
# (value, new pos).  buf is bytes or a memoryview; out-of-range reads raise
# IndexError, converted to WireError at the decode() boundary.
# ---------------------------------------------------------------------------


def _dec_none(data: Any, pos: int) -> Tuple[None, int]:
    return None, pos


def _dec_true(data: Any, pos: int) -> Tuple[bool, int]:
    return True, pos


def _dec_false(data: Any, pos: int) -> Tuple[bool, int]:
    return False, pos


def _dec_int(data: Any, pos: int) -> Tuple[int, int]:
    raw = data[pos]
    pos += 1
    if raw >= 0x80:
        raw &= 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            raw |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
    return ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1)), pos


def _dec_float(data: Any, pos: int) -> Tuple[float, int]:
    if pos + 8 > len(data):
        raise WireError("truncated float")
    return _UNPACK_D(data, pos)[0], pos + 8


def _dec_str(data: Any, pos: int) -> Tuple[str, int]:
    n = data[pos]
    if n < 0x80:
        pos += 1
    else:
        n, pos = _read_uvarint(data, pos)
    end = pos + n
    if end > len(data):
        raise WireError("truncated string")
    raw = data[pos:end]
    if n <= _STR_INTERN_MAX_LEN:
        # Short strings are site/object uids and op kinds that repeat across
        # a collaboration's whole message stream — intern them so repeated
        # decodes share one object (and skip the UTF-8 decode on a hit).
        # memoryview slices hash/compare like their bytes, so lookups stay
        # zero-copy; only a cache miss materializes the key.
        cached = _STR_CACHE.get(raw)
        if cached is not None:
            return cached, end
        text = sys.intern(str(raw, "utf-8"))
        if len(_STR_CACHE) >= _STR_CACHE_MAX:
            _STR_CACHE.clear()
        _STR_CACHE[bytes(raw)] = text
        return text, end
    return str(raw, "utf-8"), end


def _dec_bytes(data: Any, pos: int) -> Tuple[bytes, int]:
    n, pos = _read_uvarint(data, pos)
    end = pos + n
    if end > len(data):
        raise WireError("truncated bytes")
    return bytes(data[pos:end]), end


def _dec_items(data: Any, pos: int, n: int) -> Tuple[list, int]:
    """Shared element loop for tuples and lists, mirroring :func:`_enc_items`:
    single-byte ints and virtual times decode inline."""
    decoders = _DECODERS
    items = []
    append = items.append
    for _ in range(n):
        tag = data[pos]
        if tag == 0x03:
            z = data[pos + 1]
            if z < 0x80:
                item = (z >> 1) if not z & 1 else -((z + 1) >> 1)
                pos += 2
            else:
                item, pos = _dec_int(data, pos + 1)
        elif tag == 0x0B:
            item, pos = _dec_vt(data, pos + 1)
        else:
            fn = decoders[tag]
            if fn is None:
                raise WireError(f"unknown wire tag {tag:#x}")
            item, pos = fn(data, pos + 1)
        append(item)
    return items, pos


def _dec_tuple(data: Any, pos: int) -> Tuple[tuple, int]:
    n = data[pos]
    if n < 0x80:
        pos += 1
    else:
        n, pos = _read_uvarint(data, pos)
    if not n:
        return (), pos
    items, pos = _dec_items(data, pos, n)
    return tuple(items), pos


def _dec_list(data: Any, pos: int) -> Tuple[list, int]:
    n = data[pos]
    if n < 0x80:
        pos += 1
    else:
        n, pos = _read_uvarint(data, pos)
    if not n:
        return [], pos
    return _dec_items(data, pos, n)


def _dec_dict(data: Any, pos: int) -> Tuple[dict, int]:
    n, pos = _read_uvarint(data, pos)
    decoders = _DECODERS
    mapping = {}
    for _ in range(n):
        fn = decoders[data[pos]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[pos]:#x}")
        key, pos = fn(data, pos + 1)
        fn = decoders[data[pos]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[pos]:#x}")
        val, pos = fn(data, pos + 1)
        mapping[key] = val
    return mapping, pos


def _dec_frozenset(data: Any, pos: int) -> Tuple[frozenset, int]:
    n, pos = _read_uvarint(data, pos)
    decoders = _DECODERS
    elems = []
    append = elems.append
    for _ in range(n):
        fn = decoders[data[pos]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[pos]:#x}")
        item, pos = fn(data, pos + 1)
        append(item)
    fs = frozenset(elems)
    if len(fs) != n:
        raise WireError("frozenset payload contains duplicate elements")
    return fs, pos


def _dec_vt(data: Any, pos: int) -> Tuple[VirtualTime, int]:
    # The cache is keyed on the raw zigzag varint values (bijective with
    # (counter, site)), so the hit path never un-zigzags at all.
    z1 = data[pos]
    if z1 < 0x80:
        pos += 1
    else:
        z1, pos = _read_uvarint(data, pos)
    z2 = data[pos]
    if z2 < 0x80:
        pos += 1
    else:
        z2, pos = _read_uvarint(data, pos)
    key: Any = z1 * 128 + z2 if z1 < 0x80 and z2 < 0x80 else (z1, z2)
    vt = _VT_CACHE.get(key)
    if vt is None:
        if len(_VT_CACHE) >= _VT_CACHE_MAX:
            _VT_CACHE.clear()
        vt = VirtualTime(
            (z1 >> 1) if not z1 & 1 else -((z1 + 1) >> 1),
            (z2 >> 1) if not z2 & 1 else -((z2 + 1) >> 1),
        )
        if z1 < 0x80 and z2 < 0x80:
            # Pre-stamp the canonical encoding so re-encoding this VT (fan
            # out, relays) is a single cached append from the start.
            object.__setattr__(vt, "_wire", bytes((_T_VT, z1, z2)))
        _VT_CACHE[key] = vt
    return vt, pos


def _dec_any(data: Any, pos: int) -> Tuple[Any, int]:
    """Decode one value of unknown type: table dispatch on the tag byte."""
    fn = _DECODERS[data[pos]]
    if fn is None:
        raise WireError(f"unknown wire tag {data[pos]:#x}")
    return fn(data, pos + 1)


_DECODERS[_T_NONE] = _dec_none
_DECODERS[_T_TRUE] = _dec_true
_DECODERS[_T_FALSE] = _dec_false
_DECODERS[_T_INT] = _dec_int
_DECODERS[_T_FLOAT] = _dec_float
_DECODERS[_T_STR] = _dec_str
_DECODERS[_T_BYTES] = _dec_bytes
_DECODERS[_T_TUPLE] = _dec_tuple
_DECODERS[_T_LIST] = _dec_list
_DECODERS[_T_DICT] = _dec_dict
_DECODERS[_T_FROZENSET] = _dec_frozenset
_DECODERS[_T_VT] = _dec_vt


# ---------------------------------------------------------------------------
# Packer compilation
#
# register_struct() compiles one specialized encoder and one specialized
# decoder per struct.  The compiler is annotation-directed: each field's
# declared type selects an inline fast path (small ints, cached virtual
# times, interned short strings, typed tuples), and fields or tuple
# elements declared as already-registered structs are expanded INLINE into
# the parent's generated code — a TxnPropagateMsg decodes its WriteOps and
# their OpPayloads in one flat function, with no per-struct call overhead.
# Annotations are hints, not contracts: every generated fast path guards on
# the actual wire tag / runtime class and falls back to fully generic
# dispatch, so a mis-annotated field still round-trips correctly.
# ---------------------------------------------------------------------------

#: Registered struct classes by bare name, for resolving string annotations
#: like ``op: OpPayload`` at compile time.  A name registered twice (two
#: structs with the same ``__name__``) maps to None: ambiguous, never
#: inlined.
_STRUCT_NAMES: Dict[str, Optional[type]] = {}

#: Maximum nesting depth of inline expansion (struct-in-tuple-in-struct...).
#: Beyond this the generated code falls back to table dispatch; the limit
#: bounds generated-code size, not expressible values.
_MAX_INLINE_DEPTH = 6


def _field_spec(tp: Any) -> Tuple[str, Optional[str]]:
    """Classify a dataclass field annotation as ``(kind, detail)``.

    ``detail`` carries the element annotation for homogeneous tuples and
    the class name for struct-typed (or Optional struct) fields.  This is
    plain string matching over the source annotation (``from __future__
    import annotations`` keeps them as strings); anything unrecognized
    becomes the fully generic kind ``any``.
    """
    if not isinstance(tp, str):
        tp = getattr(tp, "__name__", "")
    tp = tp.replace(" ", "").replace("typing.", "")
    if tp == "int":
        return "int", None
    if tp == "str":
        return "str", None
    if tp == "bool":
        return "bool", None
    if tp == "VirtualTime":
        return "vt", None
    if tp == "Optional[VirtualTime]":
        return "optvt", None
    if tp.startswith(("Tuple[", "tuple[")) and tp.endswith("]"):
        inner = tp[tp.index("[") + 1 : -1]
        if inner.endswith(",..."):
            return "tuple", inner[:-4]
        if "[" not in inner and len(set(inner.split(","))) == 1:
            return "tuple", inner.split(",")[0]
        return "tuple", None
    if tp == "tuple":
        return "tuple", None
    if tp.startswith("Optional[") and tp.endswith("]"):
        return "optobj", tp[9:-1]
    if tp.isidentifier() and tp not in ("Any", "object"):
        return "obj", tp
    return "any", None


def _plain_init_dataclass(cls: type) -> bool:
    """True when ``cls(*values)`` only assigns fields — i.e. the generated
    ``__init__`` with no ``__post_init__`` hook — so the decoder may build
    instances directly without skipping any validation."""
    params = getattr(cls, "__dataclass_params__", None)
    return (
        params is not None
        and params.init
        and not hasattr(cls, "__post_init__")
        and "__slots__" not in cls.__dict__
    )


class _Codegen:
    """State for one compilation: emitted lines, the exec namespace, and a
    counter for unique local names (inline expansion nests scopes in one
    function body, so every live-across-statements local is suffixed)."""

    def __init__(self, namespace: Dict[str, Any]) -> None:
        self.lines: List[str] = []
        self.ns = namespace
        self._uid = 0

    def add(self, indent: int, block: str) -> None:
        pad = "    " * indent
        for line in block.split("\n"):
            self.lines.append(pad + line if line else line)

    def uid(self) -> int:
        self._uid += 1
        return self._uid

    def bind(self, prefix: str, obj: Any) -> str:
        name = f"{prefix}{self.uid()}"
        self.ns[name] = obj
        return name

    def source(self) -> str:
        return "\n".join(self.lines)


def _inline_decode_target(detail: Optional[str]) -> Optional[type]:
    """The registered class a decode site may expand inline, or None.

    Only plain-init structs qualify: classes with ``__post_init__``
    invariants must run their constructor.  ``__wire_intern__`` classes
    inline too — the span-cache lookup is emitted as part of the inline
    body, so interning costs no call overhead.
    """
    cls = _STRUCT_NAMES.get(detail) if detail else None
    if (
        cls is not None
        and cls in _STRUCTS_BY_CLASS
        and _plain_init_dataclass(cls)
    ):
        return cls
    return None


# --- encode emission -------------------------------------------------------


def _emit_enc_vt_body(g: _Codegen, ind: int, var: str) -> None:
    # cached canonical encoding: one getattr + one append on the hot path
    g.add(
        ind,
        f"""\
w = _ga({var}, "_wire", None)
if w is not None:
    append(w)
else:
    _ev(out, {var})""",
    )


def _emit_enc_struct_body(g: _Codegen, ind: int, var: str, cls: type, depth: int) -> None:
    tag, fields = _STRUCTS_BY_CLASS[cls]
    interned = bool(getattr(cls, "__wire_intern__", False))
    if interned:
        # Per-instance cached canonical encoding, the VirtualTime._wire
        # pattern one level up: commit fan-out encodes the same frozen
        # value object once per destination, every encode after the first
        # is one getattr + one append.  (Per-instance, not per-value —
        # value-keyed caching would conflate 1/True/1.0 and 0.0/-0.0,
        # which compare equal but encode differently.)
        u = g.uid()
        g.add(ind, f"w{u} = _ga({var}, '_wire', None)")
        g.add(ind, f"if w{u} is not None:\n    append(w{u})\nelse:")
        ind += 1
        g.add(ind, f"m{u} = len(out)")
    g.add(ind, f"append({g.bind('_t', _BYTE[tag])})")
    specs = tuple(_field_spec(f.type) for f in dataclasses.fields(cls))
    for name, spec in zip(fields, specs):
        fv = f"x{g.uid()}"
        g.add(ind, f"{fv} = {var}.{name}")
        _emit_encode(g, ind, fv, spec, depth + 1)
    if interned:
        g.add(ind, f"_stamp({var}, out, m{u})")


def _emit_encode(g: _Codegen, ind: int, var: str, spec: Tuple[str, Optional[str]], depth: int) -> None:
    """Emit code encoding the value held in local ``var`` (appends to the
    shared parts list ``out`` via the hoisted ``append``)."""
    kind, detail = spec
    if kind == "int":
        g.add(
            ind,
            f"""\
if {var}.__class__ is _int:
    z = ({var} << 1) if {var} >= 0 else ((-{var} << 1) - 1)
    if z < 0x80:
        append(_INT1[z])
    else:
        append(_B_INT)
        _uv(out, z)
else:
    _gen(out, {var})""",
        )
    elif kind == "vt":
        g.add(ind, f"if {var}.__class__ is _VT:")
        _emit_enc_vt_body(g, ind + 1, var)
        g.add(ind, f"else:\n    _gen(out, {var})")
    elif kind == "optvt":
        g.add(ind, f"if {var} is None:\n    append(_B_NONE)\nelif {var}.__class__ is _VT:")
        _emit_enc_vt_body(g, ind + 1, var)
        g.add(ind, f"else:\n    _gen(out, {var})")
    elif kind == "str":
        g.add(
            ind,
            f"""\
if {var}.__class__ is _str:
    r = {var}.encode("utf-8")
    n = len(r)
    if n < 0x80:
        append(_STR_HDR[n])
    else:
        append(_B_STR)
        _uv(out, n)
    append(r)
else:
    _gen(out, {var})""",
        )
    elif kind == "bool":
        g.add(
            ind,
            f"""\
if {var} is True:
    append(_B_TRUE)
elif {var} is False:
    append(_B_FALSE)
else:
    _gen(out, {var})""",
        )
    elif kind == "tuple" and depth < _MAX_INLINE_DEPTH:
        elem = f"e{g.uid()}"
        g.add(
            ind,
            f"""\
if {var}.__class__ is _tuple:
    n = len({var})
    if n < 0x80:
        append(_TUPLE_HDR[n])
    else:
        append(_B_TUPLE)
        _uv(out, n)
    for {elem} in {var}:""",
        )
        _emit_encode(g, ind + 2, elem, _field_spec(detail) if detail else ("any", None), depth + 1)
        g.add(ind, f"else:\n    _gen(out, {var})")
    elif kind in ("obj", "optobj"):
        cls = _STRUCT_NAMES.get(detail) if detail else None
        inline = (
            cls is not None and cls in _STRUCTS_BY_CLASS and depth < _MAX_INLINE_DEPTH
        )
        if kind == "optobj":
            g.add(ind, f"if {var} is None:\n    append(_B_NONE)")
            branch, ind2 = "elif", ind
        else:
            branch, ind2 = "if", ind
        if inline:
            kn = g.bind("_c", cls)
            g.add(ind2, f"{branch} {var}.__class__ is {kn}:")
            _emit_enc_struct_body(g, ind2 + 1, var, cls, depth)
            g.add(ind2, f"else:\n    _gen(out, {var})")
        elif kind == "optobj":
            g.add(ind2, f"else:\n    _gen(out, {var})")
        else:
            g.add(
                ind,
                f"""\
e = _ENC.get({var}.__class__)
if e is None:
    _FB(out, {var})
else:
    e(out, {var})""",
            )
    else:  # "any" (and depth-capped tuples): the generic dispatch chain
        g.add(
            ind,
            f"""\
c = {var}.__class__
if c is _int:
    z = ({var} << 1) if {var} >= 0 else ((-{var} << 1) - 1)
    if z < 0x80:
        append(_INT1[z])
    else:
        append(_B_INT)
        _uv(out, z)
elif c is _VT:""",
        )
        _emit_enc_vt_body(g, ind + 1, var)
        g.add(
            ind,
            f"""\
elif {var} is None:
    append(_B_NONE)
elif c is _bool:
    append(_B_TRUE if {var} else _B_FALSE)
else:
    e = _ENC.get(c)
    if e is None:
        _FB(out, {var})
    else:
        e(out, {var})""",
        )


def _compile_packer(tag: int, cls: type) -> Callable:
    """Generate the specialized encoder for one struct: flat straight-line
    code appending the tag byte then every field (nested registered structs
    and typed tuple elements included) to the shared parts list."""
    namespace: Dict[str, Any] = {
        "_ENC": _ENCODERS,
        "_FB": _enc_fallback,
        "_gen": _enc_value,
        "_ev": _enc_vt,
        "_uv": _append_uvarint,
        "_ga": getattr,
        "_stamp": _stamp_wire,
        "_int": int,
        "_bool": bool,
        "_str": str,
        "_tuple": tuple,
        "_VT": VirtualTime,
        "_INT1": _INT1,
        "_STR_HDR": _STR_HDR,
        "_TUPLE_HDR": _TUPLE_HDR,
        "_B_INT": _B_INT,
        "_B_STR": _B_STR,
        "_B_TUPLE": _B_TUPLE,
        "_B_NONE": _B_NONE,
        "_B_TRUE": _B_TRUE,
        "_B_FALSE": _B_FALSE,
    }
    g = _Codegen(namespace)
    g.add(0, "def _pack(out, value):")
    g.add(1, "append = out.append")
    _emit_enc_struct_body(g, 1, "value", cls, 0)
    exec(compile(g.source(), f"<wire-packer-{tag:#x}>", "exec"), namespace)
    return namespace["_pack"]


# --- decode emission -------------------------------------------------------


def _emit_dec_int_body(g: _Codegen, ind: int, var: str) -> None:
    # caller has verified the tag byte at ``pos`` is _T_INT
    g.add(
        ind,
        f"""\
z = data[pos + 1]
if z < 0x80:
    {var} = (z >> 1) if not z & 1 else -((z + 1) >> 1)
    pos += 2
else:
    {var}, pos = _di(data, pos + 1)""",
    )


def _emit_dec_vt_body(g: _Codegen, ind: int, var: str) -> None:
    # caller has verified the tag byte at ``pos`` is _T_VT; the fast path
    # is both zigzag varints single-byte and the pair already interned
    g.add(
        ind,
        f"""\
z1 = data[pos + 1]
if z1 < 0x80:
    z2 = data[pos + 2]
    if z2 < 0x80:
        {var} = _VTC(z1 * 128 + z2)
        pos += 3
        if {var} is None:
            {var}, pos = _dv(data, pos - 2)
    else:
        {var}, pos = _dv(data, pos + 1)
else:
    {var}, pos = _dv(data, pos + 1)""",
    )


def _emit_dec_struct_body(g: _Codegen, ind: int, var: str, cls: type, depth: int) -> None:
    """Emit the body decoding struct ``cls`` (tag already consumed) into
    ``var``: field-by-field inline decode, then one instance-dict swap.

    ``__wire_intern__`` classes first consult the span memo: if the bytes
    at the cursor equal a previously parsed span, the parse *and* the
    construction are skipped and the shared instance is reused.  (The span
    is deliberately *not* stamped as the instance's ``_wire`` encode
    cache: the decoder tolerates non-canonical input — overlong varints,
    unsorted dict entries — and replaying such a span from encode would
    break byte determinism.  Encode stamps canonically on first use.)
    """
    _tag, fields = _STRUCTS_BY_CLASS[cls]
    interned = bool(getattr(cls, "__wire_intern__", False))
    u = g.uid()
    if interned:
        # the caller just consumed the tag byte, so the span starts at pos-1
        g.add(
            ind,
            f"""\
sp{u} = pos - 1
{var} = None
c{u} = _IC(data[sp{u}:sp{u} + {_SPAN_PREFIX_LEN}])
if c{u} is not None:
    for s{u}, v{u} in c{u}:
        n{u} = len(s{u})
        if data[sp{u}:sp{u} + n{u}] == s{u}:
            {var} = v{u}
            pos = sp{u} + n{u}
            break
if {var} is None:""",
        )
        ind += 1
    specs = tuple(_field_spec(f.type) for f in dataclasses.fields(cls))
    vnames = []
    for spec in specs:
        fv = f"f{g.uid()}"
        vnames.append(fv)
        _emit_decode(g, ind, fv, spec, depth + 1)
    kn = g.bind("_c", cls)
    items = ", ".join(f"'{nm}': {fv}" for nm, fv in zip(fields, vnames))
    # one swap of the whole instance dict: the per-class __dict__ descriptor
    # set is the cheapest way in (the frozen dataclass __setattr__ refuses
    # even __dict__, and object.__setattr__ re-resolves the descriptor on
    # every call)
    setter = vars(cls).get("__dict__")
    g.add(ind, f"{var} = _new({kn})")
    if setter is not None:
        g.add(ind, f"{g.bind('_sd', setter.__set__)}({var}, {{{items}}})")
    else:  # __dict__ descriptor lives on a base class; take the slow door
        g.add(ind, f"_osa({var}, '__dict__', {{{items}}})")
    if interned:
        g.add(ind, f"_AI(data[sp{u}:sp{u} + {_SPAN_PREFIX_LEN}], data[sp{u}:pos], {var})")


def _emit_decode(g: _Codegen, ind: int, var: str, spec: Tuple[str, Optional[str]], depth: int) -> None:
    """Emit code decoding one value at ``(data, pos)`` into local ``var``,
    advancing ``pos`` past it."""
    kind, detail = spec
    if kind == "int":
        g.add(ind, "if data[pos] == 0x03:")
        _emit_dec_int_body(g, ind + 1, var)
        g.add(ind, f"else:\n    {var}, pos = _da(data, pos)")
    elif kind == "vt":
        g.add(ind, "if data[pos] == 0x0B:")
        _emit_dec_vt_body(g, ind + 1, var)
        g.add(ind, f"else:\n    {var}, pos = _da(data, pos)")
    elif kind == "optvt":
        t = f"t{g.uid()}"
        g.add(
            ind,
            f"""\
{t} = data[pos]
if {t} == 0x00:
    {var} = None
    pos += 1
elif {t} == 0x0B:""",
        )
        _emit_dec_vt_body(g, ind + 1, var)
        g.add(ind, f"else:\n    {var}, pos = _da(data, pos)")
    elif kind == "str":
        g.add(
            ind,
            f"""\
if data[pos] == 0x05:
    n = data[pos + 1]
    if n < 0x80:
        end = pos + 2 + n
        if end <= len(data):
            {var} = _SC(data[pos + 2:end])
            if {var} is None:
                {var}, end = _ds(data, pos + 1)
            pos = end
        else:
            {var}, pos = _ds(data, pos + 1)
    else:
        {var}, pos = _ds(data, pos + 1)
else:
    {var}, pos = _da(data, pos)""",
        )
    elif kind == "bool":
        t = f"t{g.uid()}"
        g.add(
            ind,
            f"""\
{t} = data[pos]
if {t} == 0x01:
    {var} = True
    pos += 1
elif {t} == 0x02:
    {var} = False
    pos += 1
else:
    {var}, pos = _da(data, pos)""",
        )
    elif kind == "tuple" and depth < _MAX_INLINE_DEPTH:
        u = g.uid()
        acc, ap, elem = f"l{u}", f"ap{u}", f"e{u}"
        g.add(
            ind,
            f"""\
if data[pos] == 0x07:
    n = data[pos + 1]
    if n < 0x80:
        pos += 2
        if n:
            {acc} = []
            {ap} = {acc}.append
            for _ in range(n):""",
        )
        _emit_decode(g, ind + 4, elem, _field_spec(detail) if detail else ("any", None), depth + 1)
        g.add(
            ind,
            f"""\
                {ap}({elem})
            {var} = _tu({acc})
        else:
            {var} = ()
    else:
        {var}, pos = _dt(data, pos + 1)
else:
    {var}, pos = _da(data, pos)""",
        )
    elif kind in ("obj", "optobj"):
        cls = _inline_decode_target(detail) if depth < _MAX_INLINE_DEPTH else None
        if kind == "optobj":
            t = f"t{g.uid()}"
            g.add(ind, f"{t} = data[pos]\nif {t} == 0x00:\n    {var} = None\n    pos += 1")
            if cls is not None:
                g.add(ind, f"elif {t} == {_STRUCTS_BY_CLASS[cls][0]:#x}:")
                g.add(ind + 1, "pos += 1")
                _emit_dec_struct_body(g, ind + 1, var, cls, depth)
            g.add(ind, f"else:\n    {var}, pos = _da(data, pos)")
        elif cls is not None:
            g.add(ind, f"if data[pos] == {_STRUCTS_BY_CLASS[cls][0]:#x}:")
            g.add(ind + 1, "pos += 1")
            _emit_dec_struct_body(g, ind + 1, var, cls, depth)
            g.add(ind, f"else:\n    {var}, pos = _da(data, pos)")
        else:
            g.add(ind, f"{var}, pos = _da(data, pos)")
    else:  # "any" (and depth-capped tuples): the generic dispatch chain
        t = f"t{g.uid()}"
        g.add(
            ind,
            f"""\
{t} = data[pos]
if {t} == 0x03:""",
        )
        _emit_dec_int_body(g, ind + 1, var)
        g.add(ind, f"elif {t} == 0x0B:")
        _emit_dec_vt_body(g, ind + 1, var)
        g.add(
            ind,
            f"""\
elif {t} == 0x00:
    {var} = None
    pos += 1
elif {t} == 0x01:
    {var} = True
    pos += 1
elif {t} == 0x02:
    {var} = False
    pos += 1
else:
    fn = _DEC[{t}]
    if fn is None:
        raise _WE('unknown wire tag %#x' % {t})
    {var}, pos = fn(data, pos + 1)""",
        )


def _compile_unpacker(tag: int, cls: type) -> Callable:
    """Generate the specialized decoder for one struct.

    Plain dataclasses (generated ``__init__``, no ``__post_init__``) are
    built by swapping in the instance ``__dict__`` directly — the same
    result as the constructor at a fraction of the cost — and their
    registered nested structs decode inline in the same function.  Classes
    with invariants (e.g. :class:`ReplicationGraph`) go through
    ``cls(*values)`` so their validation still runs, and constructor
    failures surface as :class:`WireError` exactly as in the reference
    decoder.
    """
    namespace: Dict[str, Any] = {
        "_DEC": _DECODERS,
        "_WE": WireError,
        "_di": _dec_int,
        "_dv": _dec_vt,
        "_da": _dec_any,
        "_ds": _dec_str,
        "_dt": _dec_tuple,
        "_tu": tuple,
        "_new": object.__new__,
        "_osa": object.__setattr__,
        "_VTC": _VT_CACHE.get,
        "_SC": _STR_CACHE.get,
        "_IC": _STRUCT_CACHE.get,
        "_AI": _memo_span,
    }
    g = _Codegen(namespace)
    g.add(0, "def _unpack(data, pos):")
    if _plain_init_dataclass(cls):
        _emit_dec_struct_body(g, 1, "value", cls, 0)
        g.add(1, "return value, pos")
    else:
        _, fields = _STRUCTS_BY_CLASS[cls]
        specs = tuple(_field_spec(f.type) for f in dataclasses.fields(cls))
        vnames = []
        for spec in specs:
            fv = f"f{g.uid()}"
            vnames.append(fv)
            _emit_decode(g, 1, fv, spec, 1)
        kn = g.bind("_c", cls)
        g.add(1, "try:")
        g.add(2, f"return {kn}({', '.join(vnames)}), pos")
        g.add(1, "except Exception as exc:")
        g.add(
            2,
            f"raise _WE('invalid %s payload: %s' % ({kn}.__name__, exc)) from exc",
        )
    exec(compile(g.source(), f"<wire-unpacker-{tag:#x}>", "exec"), namespace)
    return namespace["_unpack"]


def _interning_unpacker(base: Callable) -> Callable:
    """Wrap a struct unpacker with the span memo.

    Only ``__wire_intern__`` classes that cannot take the plain-init fast
    path use this wrapper (plain dataclasses get the memo emitted inline).
    Skipping the parse also skips the constructor's validation, which is
    sound: identical bytes already validated once.
    """

    def _unpack(data: Any, pos: int) -> Tuple[Any, int]:
        start = pos - 1  # include the already-consumed tag byte
        bucket = _STRUCT_CACHE.get(data[start : start + _SPAN_PREFIX_LEN])
        if bucket is not None:
            for span, value in bucket:
                end = start + len(span)
                if data[start:end] == span:
                    return value, end
        value, pos = base(data, pos)
        _memo_span(data[start : start + _SPAN_PREFIX_LEN], data[start:pos], value)
        return value, pos

    return _unpack


def register_struct(tag: int, cls: type) -> None:
    """Enter a frozen dataclass into the wire registry under ``tag``.

    The encoding is the tag byte followed by the field values in dataclass
    declaration order; decode reconstructs via the positional constructor.
    Tags below 0x20 are reserved for codec primitives.  Registering the
    same (tag, class) pair twice is a no-op; conflicting registrations are
    an error — tags are a wire contract, not a runtime convenience.

    Registration compiles the specialized packer/unpacker pair for the
    class and installs them in the dispatch tables; a class whose
    ``__wire_intern__`` attribute is true additionally gets a bounded
    decode-side intern cache (see :data:`repro.core.messages.SlotId`).
    """
    if not 0x20 <= tag <= 0xFF:
        raise WireError(f"struct tags must be in [0x20, 0xFF], got {tag:#x}")
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls.__name__} is not a dataclass")
    fields = tuple(f.name for f in dataclasses.fields(cls))
    existing = _STRUCTS_BY_TAG.get(tag)
    if existing is not None:
        if existing[0] is cls:
            return
        raise WireError(
            f"wire tag {tag:#x} already registered for {existing[0].__name__}"
        )
    if cls in _STRUCTS_BY_CLASS:
        raise WireError(
            f"{cls.__name__} already registered under tag {_STRUCTS_BY_CLASS[cls][0]:#x}"
        )
    _STRUCTS_BY_TAG[tag] = (cls, fields)
    _STRUCTS_BY_CLASS[cls] = (tag, fields)
    # Name -> class map for annotation-directed inlining; an ambiguous name
    # (two registered classes sharing __name__) is poisoned to None so it is
    # never inlined (already-compiled packers are unaffected: tags are
    # immutable, so inlined copies can never go stale).
    _STRUCT_NAMES[cls.__name__] = (
        None if cls.__name__ in _STRUCT_NAMES else cls
    )
    _ENCODERS[cls] = _compile_packer(tag, cls)
    unpacker = _compile_unpacker(tag, cls)
    if getattr(cls, "__wire_intern__", False) and not _plain_init_dataclass(cls):
        # plain-init classes get the span cache emitted inline instead
        unpacker = _interning_unpacker(unpacker)
    _DECODERS[tag] = unpacker


#: The canonical tag assignments.  Order and values are part of the wire
#: contract (docs/WIRE.md); append new structs, never renumber.
@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Trace context carried in a traced frame.

    ``origin`` names the sending process (its transport's lowest local
    site id, whatever tenant-local site sent); ``trace_id`` is the txn-VT-derived
    trace identifier (``counter@site`` form, empty when the payload
    carries no transaction VT); ``parent_span`` is the sender-side message sequence
    number — ``f"{origin}:{parent_span}"`` is the cross-process ``msg_id``
    that pairs a ``message_sent`` event in one process's timeline with the
    ``message_delivered`` event in another's (repro.obs.merge).

    ``sampled`` carries the origin's head-based sampling decision in-band
    (repro.obs.sample): every site on the transaction's path records or
    skips the same trace, so partial span trees cannot occur.  Untraced
    frames carry None in its place.
    """

    origin: int
    trace_id: str
    parent_span: int
    sampled: bool = True

    @property
    def msg_id(self) -> str:
        """The globally unique send identifier this context names."""
        return f"{self.origin}:{self.parent_span}"


_REGISTRY: Tuple[Tuple[int, type], ...] = (
    (0x20, SlotId),
    (0x21, PathStep),
    (0x22, OpPayload),
    (0x23, WriteOp),
    (0x24, ReadCheck),
    (0x25, DelegateGrant),
    (0x26, TxnPropagateMsg),
    (0x27, ConfirmMsg),
    (0x28, CommitMsg),
    (0x29, AbortMsg),
    (0x2A, SnapshotCheck),
    (0x2B, SnapshotConfirmMsg),
    (0x2C, SnapshotReplyMsg),
    (0x2D, WriteConfirmedMsg),
    (0x2E, JoinRequestMsg),
    (0x2F, JoinReplyMsg),
    (0x30, FailQueryMsg),
    (0x31, FailQueryReplyMsg),
    (0x32, FailResolutionMsg),
    (0x33, GraphRepairProposeMsg),
    (0x34, GraphRepairAckMsg),
    (0x35, GraphRepairApplyMsg),
    (0x36, GraphNode),
    (0x37, ReplicationGraph),
    (0x38, Invitation),
    (0x39, Envelope),
    (0x3A, TraceContext),
)

for _tag, _cls in _REGISTRY:
    register_struct(_tag, _cls)

#: The TraceContext packer, bound once — encode_frame appends a trace
#: header per traced frame, so it skips the dispatch-dict lookup.
_TRACE_ENCODER = _ENCODERS[TraceContext]

#: Every registered wire struct, in tag order (test parametrization).
WIRE_STRUCTS: Tuple[type, ...] = tuple(cls for _tag, cls in _REGISTRY)

#: The protocol message types a transport may be handed (excludes the
#: nested payload structs that only ever appear inside other messages).
MESSAGE_TYPES: Tuple[type, ...] = (
    TxnPropagateMsg,
    ConfirmMsg,
    CommitMsg,
    AbortMsg,
    SnapshotConfirmMsg,
    SnapshotReplyMsg,
    WriteConfirmedMsg,
    JoinRequestMsg,
    JoinReplyMsg,
    FailQueryMsg,
    FailQueryReplyMsg,
    FailResolutionMsg,
    GraphRepairProposeMsg,
    GraphRepairAckMsg,
    GraphRepairApplyMsg,
    Envelope,
)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

_VERSION_PREFIX = _BYTE[WIRE_VERSION]


def encode(value: Any) -> bytes:
    """Serialize ``value`` (a protocol message or wire-safe value) to bytes."""
    out: List[bytes] = [_VERSION_PREFIX]
    enc = _ENCODERS.get(value.__class__)
    if enc is None:
        _enc_fallback(out, value)
    else:
        enc(out, value)
    return b"".join(out)


def decode(data: Any) -> Any:
    """Parse bytes produced by :func:`encode`; rejects unknown versions,
    unknown tags, truncated payloads, and trailing garbage.

    Accepts ``bytes`` or any buffer (``memoryview``/``bytearray``) — buffer
    inputs are consumed in place, without copying the payload.  Malformed
    input of any shape raises :class:`WireError`; no other exception type
    escapes this boundary.
    """
    if not data:
        raise WireError("empty payload")
    if data.__class__ is not bytes and data.__class__ is not memoryview:
        data = memoryview(data)
    version = data[0]
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this codec speaks {WIRE_VERSION})"
        )
    return _decode_after_version(data)


def _decode_after_version(data: Any) -> Any:
    """The one value after a body's version byte; anything else is WireError."""
    try:
        fn = _DECODERS[data[1]]
        if fn is None:
            raise WireError(f"unknown wire tag {data[1]:#x}")
        value, pos = fn(data, 2)
    except WireError:
        raise
    except Exception as exc:
        # Truncation (IndexError), bad floats (struct.error), invalid UTF-8,
        # unhashable keys (TypeError), pathological nesting (RecursionError):
        # all malformed-input shapes surface as WireError.
        raise WireError(f"malformed payload: {exc.__class__.__name__}: {exc}") from exc
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after payload")
    return value


# ---------------------------------------------------------------------------
# Framing (length-prefixed, for stream transports)
# ---------------------------------------------------------------------------

#: Size of the frame length prefix in bytes (big-endian unsigned).
FRAME_HEADER_BYTES = 4

#: Upper bound on a single frame body.  A frame claiming more than this is
#: treated as stream corruption, not a legitimate payload.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Prefix of every frame body: version byte + 5-tuple header.
_FRAME_PREFIX = _BYTE[FRAME_VERSION] + _TUPLE_HDR[5]


def encode_frame(
    src: int,
    dst: int,
    payload: Any,
    trace: Optional[TraceContext],
    tenant: int,
) -> bytes:
    """One length-prefixed routed frame.

    The body is the :data:`FRAME_VERSION` byte followed by the
    ``(tenant, src, dst, payload, trace-or-None)`` 5-tuple.  The length
    prefix, version byte, routing fields, payload and trace all land in
    one parts list joined once — a single allocation per frame.
    """
    parts: List[bytes] = [b"", _FRAME_PREFIX]
    _enc_int(parts, tenant)
    _enc_int(parts, src)
    _enc_int(parts, dst)
    enc = _ENCODERS.get(payload.__class__)
    if enc is None:
        _enc_fallback(parts, payload)
    else:
        enc(parts, payload)
    if trace is None:
        parts.append(_B_NONE)
    else:
        _TRACE_ENCODER(parts, trace)
    body_len = sum(map(len, parts))
    if body_len > MAX_FRAME_BYTES:
        raise WireError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
    parts[0] = body_len.to_bytes(FRAME_HEADER_BYTES, "big")
    return b"".join(parts)


def decode_frame(body: Any) -> Tuple[int, int, int, Any, Optional[TraceContext]]:
    """Parse a frame body into ``(tenant, src, dst, payload, trace)``.

    Like :func:`decode`, accepts ``bytes`` or a zero-copy buffer view, and
    malformed input of any shape — a body in a retired frame layout or a
    negative tenant id included — raises :class:`WireError` only.
    """
    if not body:
        raise WireError("empty frame body")
    if body.__class__ is not bytes and body.__class__ is not memoryview:
        body = memoryview(body)
    version = body[0]
    if version != FRAME_VERSION:
        raise WireError(
            f"unsupported frame version {version} (this codec speaks {FRAME_VERSION})"
        )
    value = _decode_after_version(body)
    if (
        not isinstance(value, tuple)
        or len(value) != 5
        or not isinstance(value[0], int)
        or not isinstance(value[1], int)
        or not isinstance(value[2], int)
        or not (value[4] is None or isinstance(value[4], TraceContext))
    ):
        raise WireError("frame body is not a (tenant, src, dst, payload, trace) 5-tuple")
    if value[0] < 0:
        raise WireError(f"frame carries negative tenant id {value[0]}")
    return value  # type: ignore[return-value]
