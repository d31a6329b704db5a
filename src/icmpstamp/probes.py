"""The four timestamp request types and reply tamper verification.

A request's verification fields are chosen by a hash when it is
crafted:

* standard / bad-checksum / duplicate requests derive (id, seq) from the
  low 32 bits of MD5(destination . originate_timestamp);
* bad-clock requests pick (id, seq) and derive the originate timestamp
  from the low 32 bits of MD5(destination . id . seq).

The engine keeps every probe it sends and binds each reply to one, so a
reply is verified against the stored probe field by field, not by hashing
it again: any in-flight rewrite of the source address, originate
timestamp, identifier or sequence number shows as a difference.  MD5 is
fine for crafting: nothing relies on it resisting collision search.

Hash input convention: the destination IPv4 address as 4 big-endian
bytes, then the originate timestamp as 4 big-endian bytes (or id and seq
as 2+2 big-endian bytes).  "Low 32 bits" means the final four digest
bytes read big-endian; id takes the high 16 of those bits, seq the low
16.
"""

from __future__ import annotations

import random
import socket
from enum import Enum
from hashlib import md5
from typing import NamedTuple

from icmpstamp import wire
from icmpstamp.clock import ms_since_utc_midnight
from icmpstamp.wire import TIMESTAMP_REPLY, TIMESTAMP_REQUEST, TimestampMessage


class IdentityEnum(Enum):
    """An Enum whose members hash by identity, as they compare: in C, where
    ``Enum.__hash__`` runs Python code for every set or dict access."""

    __hash__ = object.__hash__


class ProbeKind(IdentityEnum):
    STANDARD = "standard"
    BAD_CLOCK = "bad_clock"
    BAD_CHECKSUM = "bad_checksum"
    DUPLICATE = "duplicate"


# The per-probe paths read these members as module names: on Python 3.11
# and older, ``EnumType.__getattr__`` makes a lookup on an Enum class cost
# several global reads.
_STANDARD, _BAD_CLOCK, _BAD_CHECKSUM, _DUPLICATE = ProbeKind


class TamperVerdict(IdentityEnum):
    CLEAN = "clean"
    ORIGINATE_MODIFIED = "originate_modified"
    ID_SEQ_MODIFIED = "id_seq_modified"
    UNMATCHED = "unmatched"


_CLEAN, _ORIGINATE_MODIFIED, _ID_SEQ_MODIFIED, _UNMATCHED = TamperVerdict

# The ``make_*`` functions build each probe from its five fields with this,
# skipping the generated ``__new__`` (and its defaults) of ``ProbeRecord``.
_new = tuple.__new__


class ProbeRecord(NamedTuple):
    """One sent probe: what went out, where, and when (microseconds since
    the Unix epoch)."""

    kind: ProbeKind
    dest: str
    send_time: int
    message: TimestampMessage
    round_no: int = 0


class ProbeOutcome(NamedTuple):
    """One sent probe and whatever came back for it, and when (microseconds
    since the Unix epoch)."""

    probe: ProbeRecord
    reply: TimestampMessage | None = None
    arrival: int | None = None
    tamper: TamperVerdict | None = None


def dest_bytes(dest: str) -> bytes:
    """The 4-byte big-endian form of a dotted-quad IPv4 address.

    Accepts exactly what ``ipaddress.IPv4Address`` accepts, which is
    already canonical text, and raises ``ValueError`` for anything else:
    ``inet_pton``, unlike ``inet_aton``, takes only four decimal parts with
    no leading zeros, and raises ``ValueError`` itself for a NUL or an
    unencodable character.
    """
    try:
        return socket.inet_pton(socket.AF_INET, dest)
    except (OSError, ValueError):
        raise ValueError(f"not an IPv4 address: {dest!r}") from None


def hash_id_seq(dest: str, orig_ts: int) -> tuple[int, int]:
    """(id, seq) for a probe whose originate timestamp is authoritative."""
    digest = md5(dest_bytes(dest) + orig_ts.to_bytes(4, "big")).digest()
    low32 = int.from_bytes(digest[-4:], "big")
    return low32 >> 16, low32 & 0xFFFF


def hash_orig(dest: str, ident: int, seq: int) -> int:
    """Originate timestamp for a bad-clock probe with chosen (id, seq)."""
    digest = md5(
        dest_bytes(dest) + ident.to_bytes(2, "big") + seq.to_bytes(2, "big")
    ).digest()
    return int.from_bytes(digest[-4:], "big")


def make_standard(dest: str, now: int) -> ProbeRecord:
    """Correct originate timestamp, zeroed receive/transmit fields."""
    orig = ms_since_utc_midnight(now)
    ident, seq = hash_id_seq(dest, orig)
    msg = wire.build_message(TIMESTAMP_REQUEST, ident, seq, orig)
    return _new(ProbeRecord, (_STANDARD, dest, now, msg, 0))


def make_bad_clock(dest: str, ident: int, seq: int, now: int) -> ProbeRecord:
    """Hash-derived originate timestamp; generally not a valid time of day."""
    orig = hash_orig(dest, ident, seq)
    msg = wire.build_message(TIMESTAMP_REQUEST, ident, seq, orig)
    return _new(ProbeRecord, (_BAD_CLOCK, dest, now, msg, 0))


def make_bad_checksum(dest: str, now: int, rng: random.Random) -> ProbeRecord:
    """A standard probe carrying a deliberately wrong checksum.

    The checksum is drawn uniformly and redrawn until the message actually
    fails verification (this also skips the rare second value that the
    ones'-complement sum accepts).
    """
    orig = ms_since_utc_midnight(now)
    ident, seq = hash_id_seq(dest, orig)
    valid = wire.message_checksum(TIMESTAMP_REQUEST, 0, ident, seq, orig, 0, 0)
    while True:
        checksum = rng.getrandbits(16)
        # 0x0000 and 0xFFFF are both zero in ones'-complement arithmetic
        # (RFC 1624), so a checksum verifies iff it equals the valid one
        # modulo 0xFFFF.
        if checksum % 0xFFFF != valid % 0xFFFF:
            msg = _new(TimestampMessage, (TIMESTAMP_REQUEST, 0, checksum, ident, seq, orig, 0, 0))
            return _new(ProbeRecord, (_BAD_CHECKSUM, dest, now, msg, 0))


def make_duplicate(dest: str, now: int) -> ProbeRecord:
    """All three timestamps preset to the same correct value.

    Sent a few seconds after the standard probe; a responder echoing these
    fields back unchanged exposes itself as a reflector, and one returning
    the same constant as before exposes a stuck clock.
    """
    orig = ms_since_utc_midnight(now)
    ident, seq = hash_id_seq(dest, orig)
    msg = wire.build_message(TIMESTAMP_REQUEST, ident, seq, orig, orig, orig)
    return _new(ProbeRecord, (_DUPLICATE, dest, now, msg, 1))


def verify_reply(
    probe: ProbeRecord, reply: TimestampMessage, reply_src: str
) -> TamperVerdict:
    """Check a reply against the stored probe it was bound to.

    The verdict names the first field group that differs from the probe,
    checked in order: source address, originate timestamp, then
    id/sequence.  Nothing is hashed: for every probe the ``make_*``
    functions craft, the stored fields are what the hash chose.  So a
    bad-clock reply whose rewritten (id, seq) happens to hash to the same
    originate timestamp (probability 2**-32 per rewritten reply) is
    ``ID_SEQ_MODIFIED``; recomputing the hash used to call it ``CLEAN``.
    """
    if reply.icmp_type != TIMESTAMP_REPLY:
        raise ValueError(f"not a timestamp reply: type {reply.icmp_type}")
    if reply_src != probe.dest and dest_bytes(reply_src) != dest_bytes(probe.dest):
        return _UNMATCHED
    sent = probe.message
    if reply.orig_ts != sent.orig_ts:
        return _ORIGINATE_MODIFIED
    if reply.ident != sent.ident or reply.seq != sent.seq:
        return _ID_SEQ_MODIFIED
    return _CLEAN
