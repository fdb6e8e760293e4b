"""Wire format for the DECAF message plane.

:mod:`repro.wire.codec` — deterministic, versioned binary codec for every
protocol message, built around per-struct compiled packers, interning
caches, and a span memo; :mod:`repro.wire.reference` — the original
generic implementation, kept as the executable specification the compiled
codec is property-tested against; :mod:`repro.wire.batch` — per-destination
outbox that coalesces a protocol turn's fan-out into
:class:`~repro.core.messages.Envelope` frames.
"""

from repro.wire.codec import (
    FRAME_HEADER_BYTES,
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    TraceContext,
    WIRE_STRUCTS,
    WIRE_VERSION,
    decode,
    decode_frame,
    encode,
    encode_frame,
    register_struct,
)
from repro.wire.batch import Outbox

__all__ = [
    "FRAME_HEADER_BYTES",
    "FRAME_VERSION",
    "MAX_FRAME_BYTES",
    "MESSAGE_TYPES",
    "TraceContext",
    "WIRE_STRUCTS",
    "WIRE_VERSION",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
    "register_struct",
    "Outbox",
]
