"""The four timestamp request types and reply tamper verification.

A request's verification fields are chosen by a hash when it is
crafted:

* standard / bad-checksum / duplicate requests derive (id, seq) from the
  low 32 bits of MD5(destination . originate_timestamp);
* bad-clock requests pick (id, seq) and derive the originate timestamp
  from the low 32 bits of MD5(destination . id . seq).

``craft`` makes a probe of any kind in one call, from the destination's
address already packed to 4 bytes.  It returns the three numbers that
rebuild the request, (id, seq) as one 32-bit key, the originate
timestamp and the checksum, and the 20-byte wire image: the engine
stores the numbers in arrays, sends the image as it is, and builds no
object for the probe until the target's record is made.  ``craft`` holds
the only copy of both hash recipes, and sums the request's checksum in
line as ``wire.fill_checksum`` defines it; the tests hold it to that.
``sent_probe`` is the one builder of a probe: from ``craft``'s numbers
it builds the request, and from the reply bytes the engine kept, the
answered outcome with its tamper verdict.  The ``make_*`` functions
return the unanswered probe, one function per kind.

A probe is one ``ProbeOutcome``: as sent, it is its own unanswered
outcome, and a reply bound to it makes the answered one.  It holds no
destination: the engine files each reply under its source, so a reply
with a rewritten source is never compared with its sender's probes.  A
bound reply is verified against the stored request field by field, not
by hashing it again: any in-flight rewrite of the originate timestamp,
identifier or sequence number shows as a difference.  MD5 is fine for
crafting: nothing relies on it resisting collision search.

The hash is CPython's built-in ``_md5.md5``, which costs about a third of
OpenSSL's ``hashlib.md5`` on an 8-byte input, once per probe.  A build
made without it (``--with-builtin-hashlib-hashes`` not listing md5) uses
``hashlib.md5`` with ``usedforsecurity=False``, which a FIPS-mode OpenSSL
also accepts.  Both give the same digest.

Hash input convention: the destination IPv4 address as 4 big-endian
bytes, then the originate timestamp as 4 big-endian bytes (or id and seq
as 2+2 big-endian bytes).  "Low 32 bits" means the final four digest
bytes read big-endian; id takes the high 16 of those bits, seq the low
16.
"""

from __future__ import annotations

import hashlib
import random
import socket
import struct
from enum import Enum
from functools import partial
from typing import NamedTuple

from icmpstamp import wire
from icmpstamp.clock import DAY_MS
from icmpstamp.wire import TIMESTAMP_REPLY, TIMESTAMP_REQUEST, TimestampMessage

try:
    from _md5 import md5
except ImportError:
    md5 = partial(hashlib.md5, usedforsecurity=False)


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
    # Read from result files; a scan never writes it.
    UNMATCHED = "unmatched"


_CLEAN, _ORIGINATE_MODIFIED, _ID_SEQ_MODIFIED, _ = TamperVerdict

# ``sent_probe`` builds each probe, its request and its reply from all
# their fields with this, skipping the generated ``__new__`` (and its
# defaults) of each class.
_new = tuple.__new__
_pack = wire.LAYOUT.pack
_unpack_from = wire.LAYOUT.unpack_from

# The hash inputs (see the module docstring) and the digest's low 32 bits.
_orig_input = struct.Struct("!4sI").pack
_id_seq_input = struct.Struct("!4sHH").pack
_low32 = struct.Struct("!12xI").unpack


class ProbeOutcome(NamedTuple):
    """One sent probe: what went out and when, and whatever came back for
    it and when (instants in microseconds since the Unix epoch).

    A probe as sent is unanswered: its reply, arrival and tamper verdict
    are None.  An answered one holds all three.
    """

    kind: ProbeKind
    send_time: int
    request: TimestampMessage
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


def craft(kind: ProbeKind, packed: bytes, now: int, rng) -> tuple[int, int, int, bytes]:
    """The probe of ``kind`` sent at ``now`` to ``packed``, an address as
    ``dest_bytes`` packs it: ``(key, orig, checksum, image)``, where
    ``key`` is ``id << 16 | seq`` and ``image`` the 20-byte wire image.
    ``sent_probe(kind, now, key, orig, checksum)`` is the probe itself.

    ``rng`` gives what a kind draws, in this order: a bad-clock probe's
    id, then its sequence number, from which the originate timestamp is
    hashed; a bad-checksum probe's checksum, redrawn until the message
    fails verification.  Standard and duplicate probes draw nothing.

    The time of day and the valid checksum are computed here, in this one
    frame per probe, as ``clock.ms_since_utc_midnight`` and
    ``wire.fill_checksum`` define them; the duplicate's preset stamps are
    the ones ``sent_probe`` puts in its request.
    """
    if kind is _BAD_CLOCK:
        ident = rng.getrandbits(16)
        seq = rng.getrandbits(16)
        key = ident << 16 | seq
        (orig,) = _low32(md5(_id_seq_input(packed, ident, seq)).digest())
    else:
        orig = now // 1000 % DAY_MS
        (key,) = _low32(md5(_orig_input(packed, orig)).digest())
        ident = key >> 16
        seq = key & 0xFFFF
    stamp = orig if kind is _DUPLICATE else 0
    # ``wire.fill_checksum`` of these fields, every one in range: the type
    # counts 256 times and makes the sum nonzero, so it folds into [1, 0xFFFF].
    total = (TIMESTAMP_REQUEST << 8) + ident + seq + orig + stamp + stamp
    checksum = ~((total - 1) % 0xFFFF + 1) & 0xFFFF
    if kind is _BAD_CHECKSUM:
        # 0x0000 and 0xFFFF are both zero in ones'-complement arithmetic
        # (RFC 1624), so a checksum verifies iff it equals the valid one
        # modulo 0xFFFF; this also skips the rare second value that the
        # sum accepts.
        valid = checksum % 0xFFFF
        checksum = rng.getrandbits(16)
        while checksum % 0xFFFF == valid:
            checksum = rng.getrandbits(16)
    image = _pack(TIMESTAMP_REQUEST, 0, checksum, ident, seq, orig, stamp, stamp)
    return key, orig, checksum, image


def sent_probe(
    kind: ProbeKind, now: int, key: int, orig: int, checksum: int,
    reply: bytes | None = None, arrival: int | None = None,
) -> ProbeOutcome:
    """The probe of ``kind`` sent at ``now`` whose request ``craft``
    described by ``key``, ``orig`` and ``checksum``.

    Without ``reply`` it is unanswered.  Given ``reply``, the 20 bytes of
    a timestamp reply that ``wire.unpack_reply`` accepted, and its
    ``arrival``, it is answered, with the verdict of ``verify_reply``.
    """
    # A duplicate presets all three timestamps to the same value, every
    # other kind zeroes receive and transmit.
    stamp = orig if kind is _DUPLICATE else 0
    request = _new(TimestampMessage, (
        TIMESTAMP_REQUEST, 0, checksum, key >> 16, key & 0xFFFF, orig, stamp, stamp,
    ))
    probe = _new(ProbeOutcome, (kind, now, request, None, None, None))
    if reply is None:
        return probe
    message = _new(TimestampMessage, _unpack_from(reply))
    # ``verify_reply`` is read from the module on each call, so a wrapper
    # put on it sees every bind.
    return _new(ProbeOutcome, (
        kind, now, request, message, arrival, verify_reply(probe, message),
    ))


class _Given:
    """Hands ``craft`` chosen values where it draws from a generator."""

    def __init__(self, *values: int):
        self._values = iter(values)

    def getrandbits(self, _bits: int) -> int:
        return next(self._values)


def make_standard(dest: str, now: int) -> ProbeOutcome:
    """Correct originate timestamp, zeroed receive/transmit fields."""
    return sent_probe(_STANDARD, now, *craft(_STANDARD, dest_bytes(dest), now, None)[:3])


def make_bad_clock(dest: str, ident: int, seq: int, now: int) -> ProbeOutcome:
    """Hash-derived originate timestamp; generally not a valid time of day."""
    crafted = craft(_BAD_CLOCK, dest_bytes(dest), now, _Given(ident, seq))
    return sent_probe(_BAD_CLOCK, now, *crafted[:3])


def make_bad_checksum(dest: str, now: int, rng: random.Random) -> ProbeOutcome:
    """A standard probe carrying a deliberately wrong checksum.

    The checksum is drawn uniformly and redrawn until the message actually
    fails verification.
    """
    return sent_probe(_BAD_CHECKSUM, now, *craft(_BAD_CHECKSUM, dest_bytes(dest), now, rng)[:3])


def make_duplicate(dest: str, now: int) -> ProbeOutcome:
    """All three timestamps preset to the same correct value.

    Sent a few seconds after the standard probe; a responder echoing these
    fields back unchanged exposes itself as a reflector, and one returning
    the same constant as before exposes a stuck clock.
    """
    return sent_probe(_DUPLICATE, now, *craft(_DUPLICATE, dest_bytes(dest), now, None)[:3])


def verify_reply(probe: ProbeOutcome, reply: TimestampMessage) -> TamperVerdict:
    """Check a reply against the stored probe it was bound to, which was
    sent to the reply's source: the engine files replies by source.

    The verdict names the first field group that differs from the probe,
    checked in order: originate timestamp, then id/sequence.  Nothing is
    hashed: for every probe ``craft`` makes, the stored fields are what
    the hash chose.  So a
    bad-clock reply whose rewritten (id, seq) happens to hash to the same
    originate timestamp (probability 2**-32 per rewritten reply) is
    ``ID_SEQ_MODIFIED``; recomputing the hash used to call it ``CLEAN``.
    """
    if reply.icmp_type != TIMESTAMP_REPLY:
        raise ValueError(f"not a timestamp reply: type {reply.icmp_type}")
    sent = probe.request
    if reply.orig_ts != sent.orig_ts:
        return _ORIGINATE_MODIFIED
    if reply.ident != sent.ident or reply.seq != sent.seq:
        return _ID_SEQ_MODIFIED
    return _CLEAN
