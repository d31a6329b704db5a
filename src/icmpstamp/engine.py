"""Scan orchestration: target ingestion, pacing, reply matching, emission.

The engine sends all four requests to every target from one schedule:
first a seeded pseudo-random permutation of every target's standard,
bad-clock and bad-checksum requests, so probes spread across networks in
time; then each target's duplicate-timestamp request, in the order of the
target's first probe, no earlier than a configurable gap after its
standard request so elapsed time is measurable.  Pacing: after each send,
the next may go out one interval (1 s / rate, rounded up to a whole µs)
after the later of the previous send's slot and its actual send time.

One logical sender and one logical receiver interleave on the transport:
before each send the engine matches every reply ``receive(slot)``
returns, and sends once it returns None, at the slot.  Every wait is the
transport's: the engine reads the clock only for the first slot and each
send time.  A reply is matched only against the probes sent to its own
source, at most four, in send order: the first unanswered probe with the
reply's (id, seq), or else the first unanswered probe with its originate
timestamp.  Replies that match no probe are logged, never bound.  This
filing by source is the scan's one check of a reply's source.

Each packet takes one pass in each direction.  A target's address is
packed to 4 bytes once, when the targets file is read, and each probe is
one ``probes.craft`` call that returns the probe kept and the image
sent.  Each arriving packet is one ``wire.unpack_reply`` call that checks
its length, type and checksum and reads its fields; a
``TimestampMessage`` is built only for a reply that binds.

A target's scan state is one list, the probes sent to it in send order.
A probe as sent is its own unanswered ``ProbeOutcome``; a bound reply
replaces it with the answered one, so the list is the target's record as
it stands.  No fact the scan holds elsewhere is stored beside the list:
the packed address is read from the targets map, the duplicate's slot
from the send time of the standard probe in the list, whether the target
answered from its list when its record is made (a target with no
answered probe is skipped before anything is built for it), and the
closing count of probes sent from the lists' total length.  Duplicate
replies are counted in a map that holds only the targets that have one.

The engine knows a transport only by the contract in ``transport``; the
CLI builds the transport a scan runs on and writes every file.
"""

from __future__ import annotations

import logging
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

from icmpstamp.classify import HostObservation, fingerprint_observation
from icmpstamp.clock import DAY_MS
from icmpstamp.probes import (
    ProbeKind,
    ProbeOutcome,
    craft,
    dest_bytes,
    # Not called here: the benchmark's spans wrap each ``make_*`` function
    # on every module that holds it, and its tests check this one.
    make_standard,  # noqa: F401
    verify_reply,
)
from icmpstamp.results import ResultRecord
from icmpstamp.textfile import parse_lines
from icmpstamp.transport import TransportError
from icmpstamp.wire import BadChecksum, TimestampMessage, WireError, unpack_reply

log = logging.getLogger(__name__)

# The per-probe paths read these members as module names: on Python 3.11
# and older, ``EnumType.__getattr__`` makes a lookup on an Enum class cost
# several global reads.
_STANDARD, _BAD_CLOCK, _BAD_CHECKSUM, _DUPLICATE = ProbeKind

# Every kind but the duplicate, which goes out in the second round.
_ROUND_ONE_ORDER = (_STANDARD, _BAD_CLOCK, _BAD_CHECKSUM)

# Builds a NamedTuple from a tuple of all its fields, without the class's
# generated ``__new__``: for the per-packet paths, whose field counts are
# fixed here.
_new = tuple.__new__


@dataclass(frozen=True)
class ScanConfig:
    """Everything a scan run needs; the transport is supplied separately."""

    targets_path: str
    inter_round_gap_ms: int = 3000
    rate_pps: int = 100
    timeout_ms: int = 5000
    seed: int = 0
    vantage: str = ""

    def __post_init__(self):
        if self.rate_pps < 1:
            raise ValueError(f"rate_pps must be >= 1: {self.rate_pps}")
        # The gap's floor keeps elapsed time measurable.  A day bounds both
        # waits: reply timestamps wrap once a day, so a longer gap could not
        # be measured from them, and no reply is worth a longer wait.
        if not 1000 <= self.inter_round_gap_ms <= DAY_MS:
            raise ValueError(
                f"inter_round_gap_ms must be 1000 to {DAY_MS} ms: {self.inter_round_gap_ms}"
            )
        if not 0 < self.timeout_ms <= DAY_MS:
            raise ValueError(f"timeout_ms must be 1 to {DAY_MS} ms: {self.timeout_ms}")


def _parse_target(text: str) -> tuple[str, bytes]:
    """``text`` and its packed form, once ``dest_bytes`` accepts it: what it
    accepts is already a canonical dotted quad."""
    return text, dest_bytes(text)


def load_targets(path) -> dict[str, bytes]:
    """One IPv4 address per line, each mapped to its 4 packed bytes, in
    first-seen order; duplicates dropped."""
    return dict(parse_lines(path, _parse_target))


class ScanAborted(TransportError):
    """The transport failed mid-scan; raised after the scan's last record.

    ``unsent`` lists, in targets-file order, every target whose duplicate
    request was not sent (any record of theirs is partial).
    """

    def __init__(self, reason: str, unsent: list[str]):
        super().__init__(reason)
        self.unsent = unsent


def run_scan(cfg: ScanConfig, transport) -> Iterator[ResultRecord]:
    """Execute a scan; the iterator yields one ResultRecord per responsive target.

    The targets are read and checked before this returns, so a bad targets
    file raises here, before a probe is sent or an output is opened.  On
    transport failure the records gathered so far are still yielded, and
    ``ScanAborted`` is raised after the final record.
    """
    return _scan(cfg, transport, load_targets(cfg.targets_path))


def _scan(cfg: ScanConfig, transport, targets: dict[str, bytes]) -> Iterator[ResultRecord]:
    rng = random.Random(cfg.seed)

    schedule = [(t, k) for t in targets for k in _ROUND_ONE_ORDER]
    rng.shuffle(schedule)
    # Each target's duplicate, in the order of its first round-one probe.
    schedule += [(t, _DUPLICATE) for t in dict.fromkeys(t for t, _ in schedule)]

    # Each target's probes in send order; a probe is unanswered while its
    # reply is None.
    state: dict[str, list[ProbeOutcome]] = {t: [] for t in targets}
    # Only the targets that have a duplicate reply.
    duplicate_replies: dict[str, int] = {}
    discarded = 0
    # The transport's methods, looked up once per scan.
    now_us, receive, send = transport.now, transport.receive, transport.send

    def bind(probes: list[ProbeOutcome], i: int, fields, arrival: int) -> None:
        kind, send_time, request, _, _, _ = probe = probes[i]
        reply = _new(TimestampMessage, fields)
        tamper = verify_reply(probe, reply)
        probes[i] = _new(ProbeOutcome, (kind, send_time, request, reply, arrival, tamper))

    def handle(src: str, data: bytes, arrival: int) -> None:
        nonlocal discarded
        try:
            fields = unpack_reply(data)
        except BadChecksum:
            discarded += 1
            log.info("reply with bad checksum from %s", src)
            return
        except WireError:
            discarded += 1
            log.info("undecodable packet from %s", src)
            return
        if fields is None:
            # A timestamp request is not a reply: ignored, not discarded.
            return
        _, _, _, ident, seq, orig_ts, _, _ = fields
        probes = state.get(src, ())
        keyed = False
        by_orig = None
        for i, probe in enumerate(probes):
            _, _, _, sent_ident, sent_seq, sent_orig, _, _ = probe.request
            if sent_ident == ident and sent_seq == seq:
                if probe.reply is None:
                    bind(probes, i, fields, arrival)
                    return
                keyed = True
            elif by_orig is None and sent_orig == orig_ts and probe.reply is None:
                by_orig = i
        if keyed:
            # Every probe with this (id, seq) already holds a reply.
            duplicate_replies[src] = duplicate_replies.get(src, 0) + 1
        elif by_orig is not None:
            # No (id, seq) match: fall back to the originate timestamp so
            # replies whose id/seq were rewritten in flight are still
            # observed (they classify as tampered, never as clean).
            bind(probes, by_orig, fields, arrival)
        else:
            discarded += 1
            log.info("unmatched reply from %s (id=%d seq=%d)", src, ident, seq)

    # No 1-second window holds more than rate_pps sends.
    interval = math.ceil(1_000_000 / cfg.rate_pps)
    gap = cfg.inter_round_gap_ms * 1000
    next_slot = now_us()
    last_send: int | None = None
    aborted: Exception | None = None

    try:
        for dest, kind in schedule:
            probes = state[dest]
            slot = next_slot
            if kind is _DUPLICATE:
                # The duplicate is timed from the standard probe, which
                # round one, earlier in the schedule, put in the list.
                for probe in probes:
                    if probe.kind is _STANDARD:
                        due = probe.send_time + gap
                        break
                if due > slot:
                    slot = due
            while (item := receive(slot)) is not None:
                handle(*item)
            now = now_us()
            probe, image = craft(kind, targets[dest], now, rng)
            send(dest, image)
            probes.append(probe)
            last_send = now
            next_slot = (next_slot if next_slot > now else now) + interval

        if last_send is not None:
            deadline = last_send + cfg.timeout_ms * 1000
            while (item := receive(deadline)) is not None:
                handle(*item)
    except (TransportError, OSError) as exc:
        aborted = exc

    log.info("sent %d probes; discarded %d unmatched or malformed replies",
             sum(map(len, state.values())), discarded)

    for target, probes in state.items():
        if all(p.reply is None for p in probes):
            continue
        outcomes = tuple(probes)
        duplicates = duplicate_replies.get(target, 0)
        obs = HostObservation(outcomes, duplicates)
        yield ResultRecord(
            target, cfg.vantage, outcomes, fingerprint_observation(obs),
            duplicates, transport.tz,
        )

    if aborted is not None:
        # A target's duplicate is the last of its four probes.
        unsent = [t for t, probes in state.items() if len(probes) < len(ProbeKind)]
        raise ScanAborted(str(aborted), unsent) from aborted
