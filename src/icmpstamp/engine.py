"""Scan orchestration: target ingestion, pacing, reply matching, emission.

The engine sends all four requests to every target from one schedule:
first a seeded pseudo-random permutation of every target's standard,
bad-clock and bad-checksum requests, so probes spread across networks in
time; then each target's duplicate-timestamp request, in the order of the
target's first probe, no earlier than a configurable gap after its
standard request so elapsed time is measurable.  The permutation is
``draws.shuffle``'s, which makes the draws ``Random.shuffle`` makes, and
so the same permutation, in fewer Python frames.  Pacing: after each send,
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
one ``probes.craft`` call that returns the numbers kept and the image
sent; its checksum is summed in line, held by the tests to
``wire.fill_checksum``.  Each arriving packet is one ``wire.unpack_reply``
call that checks its length, type and checksum, summed in line as
``wire.verify_checksum`` defines it, and reads its fields.

The scan's state is flat storage by number, allocated whole before the
first send, so that it holds no object per probe for the collector to
track.  Target ``i`` is the ``i``-th of the targets file, and its probe
of kind ``k`` (``ProbeKind`` order, the duplicate last) is probe
``p = 4*i + k``.  The schedule is an array of probe numbers.  Per probe,
arrays hold the send instant and the (id, seq), originate timestamp and
checksum that rebuild the request; a list holds the reply's first 20
bytes, None while it is unanswered, and an array its arrival.  Per target,
a byte counts the probes sent and four more hold their kinds in send
order, which is the order replies are matched in.  One map files a source
under its target's number.  Duplicate replies are counted in a map that
holds only the targets that have one.

Objects are built once, when a target's record is made, by one
``probes.sent_probe`` call per probe: from the stored numbers and reply
bytes it builds the probe's ``ProbeOutcome`` and request, and a bound
reply's message and tamper verdict.  The engine knows neither the
layout of a message nor how a verdict is reached.  A target with no
bound reply is skipped before anything is built for it.

The engine knows a transport only by the contract in ``transport``; the
CLI builds the transport a scan runs on and writes every file.
"""

from __future__ import annotations

import logging
import math
import random
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from icmpstamp.classify import HostObservation, fingerprint_observation
from icmpstamp.clock import DAY_MS
from icmpstamp.draws import shuffle
from icmpstamp.probes import (
    ProbeKind,
    craft,
    dest_bytes,
    # Not called here: the benchmark's spans wrap each ``make_*`` function
    # on every module that holds it, and its tests check this one.
    make_standard,  # noqa: F401
    sent_probe,
)
from icmpstamp.results import ResultRecord
from icmpstamp.textfile import parse_lines
from icmpstamp.transport import TransportError
from icmpstamp.wire import MESSAGE_LEN, BadChecksum, WireError, unpack_reply

log = logging.getLogger(__name__)

# Probe ``k`` of a target is its kind ``_KINDS[k]``: a tuple, because on
# Python 3.11 and older a lookup on an Enum class costs several global
# reads.  The duplicate is the last kind, sent in the second round.
_KINDS = tuple(ProbeKind)
_DUPLICATE_K = 3
# Builds each ``ResultRecord`` from all its fields, skipping the generated
# ``__new__``.
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
    targets = load_targets(cfg.targets_path)
    # Only these outlive this call: the scan does not hold ``targets``.
    names = list(targets)
    index = {name: i for i, name in enumerate(names)}
    return _scan(cfg, transport, names, list(targets.values()), index)


def _schedule(n: int, rng: random.Random) -> array:
    """The probe numbers of ``n`` targets in send order (see the module
    docstring)."""
    # Round one: every target's first three probes, shuffled with the draws
    # ``rng.shuffle`` would make.  The shuffle draws on the length alone, so
    # it permutes these as it would the (target, kind) pairs they number.
    schedule = array("I", range(4 * n))
    del schedule[_DUPLICATE_K::4]
    shuffle(rng.getrandbits, schedule)
    # Round two: each target's duplicate, in the order of its first
    # round-one probe.
    seen = bytearray(n)
    duplicates = array("I")
    for p in schedule:
        i = p >> 2
        if not seen[i]:
            seen[i] = 1
            duplicates.append(p | _DUPLICATE_K)
    schedule += duplicates
    return schedule


def _scan(
    cfg: ScanConfig, transport, names: list[str], packed: list[bytes], index: dict[str, int]
) -> Iterator[ResultRecord]:
    """The scan proper: target ``i`` is ``names[i]``, its address packed as
    ``packed[i]``, and ``index`` maps each name back to its ``i``."""
    n = len(names)
    rng = random.Random(cfg.seed)
    schedule = _schedule(n, rng)

    # Per probe (see the module docstring).
    send_times = array("q", [0]) * (4 * n)
    keys = array("I", [0]) * (4 * n)
    origs = array("I", [0]) * (4 * n)
    checksums = array("H", [0]) * (4 * n)
    replies: list[bytes | None] = [None] * (4 * n)
    arrivals = array("q", [0]) * (4 * n)
    # Per target: the number of probes sent, and their kinds in send order
    # at 4*i to 4*i + n_sent[i] - 1.
    n_sent = bytearray(n)
    order = bytearray(4 * n)
    # Only the targets that have a duplicate reply.
    duplicate_replies: dict[int, int] = {}
    discarded = 0
    # The transport's methods, looked up once per scan.
    now_us, receive, send = transport.now, transport.receive, transport.send

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
        i = index.get(src)
        if i is not None:
            key = ident << 16 | seq
            base = i << 2
            keyed = False
            by_orig = -1
            for k in order[base:base + n_sent[i]]:
                p = base + k
                if keys[p] == key:
                    if replies[p] is None:
                        replies[p] = data[:MESSAGE_LEN]
                        arrivals[p] = arrival
                        return
                    keyed = True
                elif by_orig < 0 and origs[p] == orig_ts and replies[p] is None:
                    by_orig = p
            if keyed:
                # Every probe with this (id, seq) already holds a reply.
                duplicate_replies[i] = duplicate_replies.get(i, 0) + 1
                return
            if by_orig >= 0:
                # No (id, seq) match: fall back to the originate timestamp
                # so replies whose id/seq were rewritten in flight are still
                # observed (they classify as tampered, never as clean).
                replies[by_orig] = data[:MESSAGE_LEN]
                arrivals[by_orig] = arrival
                return
        discarded += 1
        log.info("unmatched reply from %s (id=%d seq=%d)", src, ident, seq)

    # No 1-second window holds more than rate_pps sends.
    interval = math.ceil(1_000_000 / cfg.rate_pps)
    gap = cfg.inter_round_gap_ms * 1000
    next_slot = now_us()
    last_send: int | None = None
    aborted: Exception | None = None

    try:
        for p in schedule:
            i = p >> 2
            k = p & 3
            slot = next_slot
            if k == _DUPLICATE_K:
                # Timed from the standard probe, sent in round one.
                due = send_times[p - _DUPLICATE_K] + gap
                if due > slot:
                    slot = due
            while (item := receive(slot)) is not None:
                handle(*item)
            now = now_us()
            key, orig, checksum, image = craft(_KINDS[k], packed[i], now, rng)
            send(names[i], image)
            send_times[p] = now
            keys[p] = key
            origs[p] = orig
            checksums[p] = checksum
            sent = n_sent[i]
            order[(i << 2) + sent] = k
            n_sent[i] = sent + 1
            last_send = now
            next_slot = (next_slot if next_slot > now else now) + interval

        if last_send is not None:
            deadline = last_send + cfg.timeout_ms * 1000
            while (item := receive(deadline)) is not None:
                handle(*item)
    except (TransportError, OSError) as exc:
        aborted = exc

    log.info("sent %d probes; discarded %d unmatched or malformed replies",
             sum(n_sent), discarded)

    vantage = cfg.vantage
    for i, target in enumerate(names):
        base = i << 2
        if not any(replies[base:base + 4]):
            continue
        outcomes = []
        for k in order[base:base + n_sent[i]]:
            p = base + k
            outcomes.append(sent_probe(
                _KINDS[k], send_times[p], keys[p], origs[p], checksums[p], replies[p], arrivals[p],
            ))
        outcomes = tuple(outcomes)
        duplicates = duplicate_replies.get(i, 0)
        obs = HostObservation(outcomes, duplicates)
        yield _new(ResultRecord, (
            target, vantage, outcomes, fingerprint_observation(obs), duplicates,
        ))

    if aborted is not None:
        # A target's duplicate is the last of its four probes.
        unsent = [names[i] for i in range(n) if n_sent[i] < len(ProbeKind)]
        raise ScanAborted(str(aborted), unsent) from aborted
