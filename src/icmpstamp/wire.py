"""Bit-exact codec for ICMP timestamp request/reply payloads.

Wire layout (20 bytes, all fields big-endian):

    byte 0      type (13 request / 14 reply)
    byte 1      code (0)
    bytes 2-3   checksum
    bytes 4-5   identifier
    bytes 6-7   sequence number
    bytes 8-11  originate timestamp
    bytes 12-15 receive timestamp
    bytes 16-19 transmit timestamp

Timestamps carry milliseconds since UTC midnight unless the most
significant bit is set, in which case the value is non-standard.  The
codec deals only with the ICMP payload; IP headers belong to the
transport layer.

``TimestampMessage`` is an immutable ``NamedTuple`` in wire order.  Its
constructor checks every field and names the first out of range;
``decode``, whose fields are in range by construction, builds it with
``tuple.__new__``, without the checks.

The checksum and byte swap are plain Python.  Since 2**16 is 1 modulo
0xFFFF, the sum of a buffer's 16-bit words is congruent to the buffer
read as one integer, and a message's to the sum of its fields with the
type counted 256 times, so ``fill_checksum`` packs no image.

Each packet of a scan is one Python frame in each layer it crosses, and
these functions define what those frames compute without calling them:
``probes.craft`` sums a probe's fields as ``fill_checksum`` does and
packs them with ``LAYOUT``, ``responder.respond`` checks a request as
``verify_checksum`` does and sums its reply as ``fill_checksum`` does,
and ``unpack_reply`` checks a received packet's length, type and
checksum and reads its fields in one call, summing it in line, so the
engine builds no ``TimestampMessage`` while it matches replies.  The
tests hold each in-line sum to ``fill_checksum``, and each in-line check
to ``verify_checksum``, which with ``internet_checksum`` defines the
checksum over bytes.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

TIMESTAMP_REQUEST = 13
TIMESTAMP_REPLY = 14
MESSAGE_LEN = 20

# ``LAYOUT.pack(*fields)`` is the wire image of the eight fields in wire
# order, the checksum emitted verbatim: ``encode`` without the message.
LAYOUT = struct.Struct("!BBHHHIII")
_U16 = 0xFFFF
_U32 = 0xFFFFFFFF
# Builds a NamedTuple from a tuple of its fields without the class's own
# ``__new__`` and without ``_make``'s arity check: for callers whose field
# count is fixed by construction.
_new = tuple.__new__
# Bit widths of the fields after the type.  Out of range, a field (negative
# included) shifted by its width is not zero, and neither is a group's OR.
_WIDTHS = (8, 16, 16, 16, 32, 32, 32)


class WireError(ValueError):
    """Malformed timestamp message or field out of range."""


class TruncatedMessage(WireError):
    """Buffer shorter than the 20-byte timestamp message."""


class NotATimestamp(WireError):
    """ICMP type is neither timestamp request (13) nor reply (14)."""


class BadChecksum(WireError):
    """The ones'-complement sum over a whole reply does not verify."""


def kernel_backend() -> str:
    """Always ``"pure"``: the kernels have one, pure-Python, implementation.

    Kept because the benchmark prints it in every run's header.
    """
    return "pure"


class _MessageFields(NamedTuple):
    icmp_type: int
    code: int
    checksum: int
    ident: int
    seq: int
    orig_ts: int
    recv_ts: int
    xmit_ts: int


class TimestampMessage(_MessageFields):
    """One ICMP timestamp request or reply.

    The constructor checks every field; ``_make`` and ``_replace`` do not.
    """

    __slots__ = ()

    def __new__(
        cls, icmp_type: int, code: int = 0, checksum: int = 0, ident: int = 0,
        seq: int = 0, orig_ts: int = 0, recv_ts: int = 0, xmit_ts: int = 0,
    ):
        self = tuple.__new__(
            cls, (icmp_type, code, checksum, ident, seq, orig_ts, recv_ts, xmit_ts)
        )
        self.__post_init__()
        return self

    def __post_init__(self):
        icmp_type, code, checksum, ident, seq, orig_ts, recv_ts, xmit_ts = self
        if icmp_type != TIMESTAMP_REQUEST and icmp_type != TIMESTAMP_REPLY:
            raise NotATimestamp(f"icmp_type must be 13 or 14, got {icmp_type}")
        if code >> 8 or (checksum | ident | seq) >> 16 or (orig_ts | recv_ts | xmit_ts) >> 32:
            for name, bits, value in zip(self._fields[1:], _WIDTHS, self[1:]):
                if value >> bits:
                    raise WireError(f"{name} out of {bits}-bit range: {value}")


def encode(msg: TimestampMessage) -> bytes:
    """Serialize to the 20-byte wire image.

    The checksum field is emitted verbatim; callers decide whether it is
    valid (bad-checksum probes rely on this).
    """
    return LAYOUT.pack(*msg)


def unpack_reply(buf) -> tuple[int, int, int, int, int, int, int, int] | None:
    """The eight fields of the timestamp reply at the start of ``buf``, in
    wire order, once every check on it holds; None for a timestamp request.

    The checks run in this order: length (``TruncatedMessage`` below 20
    bytes), type (``NotATimestamp`` for types other than 13 and 14, None
    for 13), then the checksum over the whole buffer, padding included, as
    ``verify_checksum`` sums it (``BadChecksum``).
    """
    if len(buf) < MESSAGE_LEN:
        raise TruncatedMessage(f"need {MESSAGE_LEN} bytes, got {len(buf)}")
    icmp_type = buf[0]
    if icmp_type != TIMESTAMP_REPLY:
        if icmp_type == TIMESTAMP_REQUEST:
            return None
        raise NotATimestamp(f"ICMP type {icmp_type} is not a timestamp message")
    # ``verify_checksum``'s test without its frame.  The sum folds to 0xFFFF
    # iff the buffer, read as one integer, is a nonzero multiple of 0xFFFF,
    # and this one is not zero: its type byte is 14.  An odd buffer's zero
    # pad byte multiplies it by 256, which is prime to 0xFFFF.
    if int.from_bytes(buf, "big") % _U16:
        raise BadChecksum("checksum over the reply does not verify")
    return LAYOUT.unpack_from(buf)


def decode(buf) -> TimestampMessage:
    """Parse the timestamp message at the start of ``buf``.

    Raises TruncatedMessage below 20 bytes and NotATimestamp for other
    ICMP types.  Bytes past 20 (middleboxes pad) are ignored.
    """
    if len(buf) < MESSAGE_LEN:
        raise TruncatedMessage(f"need {MESSAGE_LEN} bytes, got {len(buf)}")
    icmp_type = buf[0]
    if icmp_type != TIMESTAMP_REQUEST and icmp_type != TIMESTAMP_REPLY:
        raise NotATimestamp(f"ICMP type {icmp_type} is not a timestamp message")
    return _new(TimestampMessage, LAYOUT.unpack_from(buf))


def _ones_complement_sum(data) -> int:
    """Sum of ``data``'s big-endian 16-bit words, carries folded back in.

    Odd-length input is padded with one zero byte for summation.  Since
    2**16 is 1 modulo 0xFFFF, the buffer read as one big-endian integer
    is congruent to the sum of its words; folding the carries keeps that
    residue, and a folded sum of words not all zero lies in [1, 0xFFFF].
    """
    value = int.from_bytes(data, "big")
    if len(data) & 1:
        value <<= 8
    return (value - 1) % _U16 + 1 if value else 0


def internet_checksum(data) -> int:
    """RFC 1071 ones'-complement checksum of ``data``.

    Placing the result in the message's checksum field makes the
    ones'-complement sum over the whole message fold to 0xFFFF.
    """
    return ~_ones_complement_sum(data) & _U16


def verify_checksum(msg_bytes) -> bool:
    """True iff the checksum over the full message (field included) holds."""
    if len(msg_bytes) < MESSAGE_LEN:
        raise TruncatedMessage(f"need {MESSAGE_LEN} bytes, got {len(msg_bytes)}")
    return _ones_complement_sum(msg_bytes) == _U16


def byte_swap_32(x: int) -> int:
    """Reverse the four bytes of ``x``; involutive."""
    if not 0 <= x <= _U32:
        raise ValueError(f"not a 32-bit unsigned value: {x}")
    return (
        ((x & 0x000000FF) << 24)
        | ((x & 0x0000FF00) << 8)
        | ((x >> 8) & 0x0000FF00)
        | ((x >> 24) & 0x000000FF)
    )


def fill_checksum(msg: TimestampMessage) -> TimestampMessage:
    """Return ``msg`` with a freshly computed, valid checksum field.

    Modulo 0xFFFF, the first word is congruent to 256 times the type plus
    the code, and each timestamp's two words to the timestamp, so the
    fields' sum folds to the words' folded sum.  A field out of range (a
    ``_replace``d one) raises the ``WireError`` the constructor would
    raise, naming it.
    """
    icmp_type, code, _, ident, seq, orig_ts, recv_ts, xmit_ts = msg
    # A field out of range (see ``_WIDTHS``): the constructor raises, naming it.
    if (icmp_type | code) >> 8 or (ident | seq) >> 16 or (orig_ts | recv_ts | xmit_ts) >> 32:
        TimestampMessage(icmp_type, code, 0, ident, seq, orig_ts, recv_ts, xmit_ts)
    total = (icmp_type << 8) + code + ident + seq + orig_ts + recv_ts + xmit_ts
    # Only an all-zero message sums to 0; any other folds into [1, 0xFFFF].
    return msg._replace(checksum=~((total - 1) % _U16 + 1 if total else 0) & _U16)
