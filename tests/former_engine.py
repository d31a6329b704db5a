"""The scan engine as it stood before its state became per-probe arrays.

Each target's scan state is one list, the ``ProbeOutcome``s sent to it in
send order; a bound reply replaces its probe with the answered outcome,
built and verified as the reply arrives.  Kept as the reference that the
array engine's records and aborts are compared with: ``former_scan``
takes the arguments of ``engine._scan`` and must yield the same records
and raise the same ``ScanAborted``.
"""

from __future__ import annotations

import logging
import math
import random
from collections.abc import Iterator

from icmpstamp.classify import HostObservation, fingerprint_observation
from icmpstamp.engine import ScanAborted, ScanConfig
from icmpstamp.probes import ProbeKind, ProbeOutcome, craft, sent_probe, verify_reply
from icmpstamp.results import ResultRecord
from icmpstamp.transport import TransportError
from icmpstamp.wire import BadChecksum, TimestampMessage, WireError, unpack_reply

log = logging.getLogger("icmpstamp.engine")

_STANDARD, _BAD_CLOCK, _BAD_CHECKSUM, _DUPLICATE = ProbeKind
_ROUND_ONE_ORDER = (_STANDARD, _BAD_CLOCK, _BAD_CHECKSUM)
_new = tuple.__new__


def former_craft(kind, packed, now, rng):
    """The unanswered probe and its wire image, as ``craft`` returned them."""
    key, orig, checksum, image = craft(kind, packed, now, rng)
    return sent_probe(kind, now, key, orig, checksum), image


def former_scan(cfg: ScanConfig, transport, targets: dict[str, bytes]) -> Iterator[ResultRecord]:
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
            probe, image = former_craft(kind, targets[dest], now, rng)
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
            target, cfg.vantage, outcomes, fingerprint_observation(obs), duplicates,
        )

    if aborted is not None:
        # A target's duplicate is the last of its four probes.
        unsent = [t for t, probes in state.items() if len(probes) < len(ProbeKind)]
        raise ScanAborted(str(aborted), unsent) from aborted
