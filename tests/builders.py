"""Shared test helpers: oracles and observation builders.

reference_checksum is an independent re-implementation of the Internet
checksum (byte-at-a-time with immediate end-around carry) used to check
the production checksum; keep it naive on purpose.  former_verify_reply
is the stateless verifier that hashed each reply again, kept as the
reference that field-by-field verification is compared with.
former_infer_timezone is the timezone lookup that tested every table
entry in turn, kept as the reference for the table's day-circle index;
reference_closest_ms measures every pair of entries, as the reference for
which margins a table admits.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from hashlib import md5
from ipaddress import IPv4Address

from icmpstamp import wire
from icmpstamp.classify import HostObservation
from icmpstamp.clock import DAY_MS, OffsetTable, offset_millis
from icmpstamp.probes import (
    ProbeKind,
    ProbeOutcome,
    TamperVerdict,
    make_bad_checksum,
    make_bad_clock,
    make_duplicate,
    make_standard,
    verify_reply,
)
from icmpstamp.responder import BehaviorConfig, respond
from icmpstamp.wire import TimestampMessage

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
BASE_DAY_US = 1_538_784_000_000_000  # 2018-10-06T00:00:00Z
# The README demo scan's output (fixtures/demo_*.txt, --rate 200 --seed 7
# --vantage demo).
DEMO_SCAN_SHA256 = "d94b3e737ed901f55c463e790a04199475205a7eb8988ed5816d3d4767b83194"


def epoch_us(instant: datetime) -> int:
    """An aware instant in microseconds since the Unix epoch."""
    return (instant - EPOCH) // timedelta(microseconds=1)


def at_ms(ms: int) -> int:
    """Instant ``ms`` milliseconds into the reference UTC day, in
    microseconds since the Unix epoch."""
    return BASE_DAY_US + ms * 1000


def reference_checksum(data: bytes) -> int:
    """RFC 1071 reference: fold the carry after every 16-bit word."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def former_verify_reply(
    probe: ProbeOutcome, reply: TimestampMessage, dest: str
) -> TamperVerdict:
    """The verdict of the verifier that recomputed the MD5 fields from the
    reply to ``probe``, sent to ``dest``: originate timestamp, then the
    hash relation."""
    if reply.icmp_type != wire.TIMESTAMP_REPLY:
        raise ValueError(f"not a timestamp reply: type {reply.icmp_type}")
    packed = IPv4Address(dest).packed
    if reply.orig_ts != probe.request.orig_ts:
        return TamperVerdict.ORIGINATE_MODIFIED
    if probe.kind is ProbeKind.BAD_CLOCK:
        payload = packed + reply.ident.to_bytes(2, "big") + reply.seq.to_bytes(2, "big")
        low32 = int.from_bytes(md5(payload).digest()[-4:], "big")
        intact = reply.orig_ts == low32
    else:
        payload = packed + reply.orig_ts.to_bytes(4, "big")
        low32 = int.from_bytes(md5(payload).digest()[-4:], "big")
        intact = (reply.ident, reply.seq) == (low32 >> 16, low32 & 0xFFFF)
    return TamperVerdict.CLEAN if intact else TamperVerdict.ID_SEQ_MODIFIED


def reference_closest_ms(offsets) -> int | None:
    """The day-circle distance between the two closest of ``offsets``,
    found by measuring every pair; None for fewer than two."""
    points = [offset_millis(o) % DAY_MS for o in offsets]
    distances = [
        min(abs(a - b), DAY_MS - abs(a - b))
        for k, a in enumerate(points)
        for b in points[k + 1:]
    ]
    return min(distances, default=None)


def margin_refusal(margin_ms: int, closest_ms: int) -> str:
    """The text a table whose closest entries are ``closest_ms`` apart
    refuses ``margin_ms`` with."""
    return (
        f"margin {margin_ms} ms is more than half the {closest_ms} ms "
        "between the closest candidate offsets; narrow the margin or thin the table"
    )


def former_infer_timezone(
    reply: TimestampMessage, probe_orig: int, table: OffsetTable, margin: int
) -> float | None:
    """The offset of the one table entry within ``margin`` ms, found by
    testing every entry in table order; a margin more than half the distance
    between the two closest entries is refused with the table's text."""
    recv = reply.recv_ts
    if recv & (1 << 31) or recv >= DAY_MS:
        return None
    closest = reference_closest_ms(table.offsets)
    if closest is not None and 2 * margin > closest:
        raise ValueError(margin_refusal(margin, closest))
    # d is recv minus the expectation, taken forward round the day circle;
    # the circular distance is min(d, DAY_MS - d).
    matches = [
        o
        for o in table.offsets
        if (d := (recv - probe_orig - offset_millis(o)) % DAY_MS) < margin or DAY_MS - d < margin
    ]
    assert len(matches) <= 1, matches
    return matches[0] if matches else None


def echo_reply(probe: ProbeOutcome, recv: int, xmit: int) -> TimestampMessage:
    """An untampered reply to ``probe`` with chosen receive/transmit values."""
    msg = probe.request
    return wire.fill_checksum(
        TimestampMessage(
            wire.TIMESTAMP_REPLY,
            ident=msg.ident,
            seq=msg.seq,
            orig_ts=msg.orig_ts,
            recv_ts=recv,
            xmit_ts=xmit,
        )
    )


def pair_for(probe: ProbeOutcome, reply: TimestampMessage) -> ProbeOutcome:
    return probe._replace(
        reply=reply,
        arrival=probe.send_time,
        tamper=verify_reply(probe, reply),
    )


def observe_direct(
    cfg: BehaviorConfig,
    start_ms: int,
    rng: random.Random,
    *,
    dest: str = "198.51.100.77",
    spacing_ms: int = 10,
    gap_ms: int = 3000,
) -> HostObservation:
    """Probe one simulated host at exact instants, no transport in between.

    Probe order and spacing mirror a scan round: standard, bad-clock, and
    bad-checksum ``spacing_ms`` apart, then the duplicate after ``gap_ms``.
    The responder's clock is evaluated exactly at each send instant.
    """
    instants = (start_ms, start_ms + spacing_ms, start_ms + 2 * spacing_ms,
                start_ms + gap_ms)
    probes = (
        make_standard(dest, at_ms(instants[0])),
        make_bad_clock(dest, rng.getrandbits(16), rng.getrandbits(16), at_ms(instants[1])),
        make_bad_checksum(dest, at_ms(instants[2]), rng),
        make_duplicate(dest, at_ms(instants[3])),
    )
    pairs = []
    for probe, t in zip(probes, instants):
        raw = respond(cfg, wire.encode(probe.request), at_ms(t), rng)
        if raw is None:
            continue
        reply = wire.decode(raw)
        pairs.append(
            probe._replace(reply=reply, arrival=at_ms(t), tamper=verify_reply(probe, reply))
        )
    return HostObservation(pairs)
