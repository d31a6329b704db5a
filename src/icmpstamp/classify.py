"""Map collected probe/reply observations to behavior fingerprints.

Three independent verdicts are produced for a host:

* implementation classes: how the responder fills the reply fields
  (normal, lazy, stuck, reflection, byte-order bugs, ...);
* timekeeping: what unit and reference the clock counts in
  (milliseconds or seconds since UTC midnight, or Unix epoch seconds);
* correctness: whether the receive timestamp lands within the error
  margin of our originate timestamp, possibly after byte-swapping or
  clearing the most significant bit.

Classes are not mutually exclusive; a set is returned.  Every rule reads
the earliest-sent clean reply to each probe kind (standard, bad clock,
bad checksum, duplicate), which ``HostObservation`` picks out once when it
is built.  Tampered replies set the ``tampered_replies`` flag, but never
influence classes, timekeeping or correctness.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from icmpstamp.clock import (
    DAY_MS,
    OffsetTable,
    circular_diff,
    ms_since_utc_midnight,
    normalize_offset,
    offsets_equal,
)
from icmpstamp.probes import IdentityEnum, ProbeKind, ProbeOutcome, TamperVerdict
from icmpstamp.wire import TimestampMessage, byte_swap_32

MSB = 1 << 31
SECONDS_PER_DAY = 86_400
US_PER_DAY = SECONDS_PER_DAY * 1_000_000
CONSTANT_LE_ONE = byte_swap_32(1)  # 0x01000000

# The per-host rules read these members as module names: on Python 3.11
# and older, ``EnumType.__getattr__`` makes a lookup on an Enum class cost
# several global reads.
_STANDARD, _BAD_CLOCK, _BAD_CHECKSUM, _DUPLICATE = ProbeKind
_CLEAN = TamperVerdict.CLEAN


class ImplClass(IdentityEnum):
    NORMAL = "normal"
    LAZY = "lazy"
    CHECKSUM_LAZY = "checksum_lazy"
    STUCK = "stuck"
    CONSTANT_0 = "constant_0"
    CONSTANT_1 = "constant_1"
    CONSTANT_LE_1 = "constant_le_1"
    REFLECTION = "reflection"
    NON_UTC = "non_utc"
    TIMEZONE = "timezone"
    LITTLE_ENDIAN = "little_endian"
    HTONS_BUG = "htons_bug"
    UNKNOWN = "unknown"


class Timekeeping(IdentityEnum):
    MILLISECOND = "millisecond"
    SECOND = "second"
    EPOCH = "epoch"
    UNKNOWN = "unknown"


class Correctness(IdentityEnum):
    CORRECT = "correct"
    CORRECT_LE = "correct_le"
    CORRECT_MSB = "correct_msb"
    INCORRECT = "incorrect"


# As for ProbeKind above, the rules read the members as module names.
(_NORMAL, _LAZY, _CHECKSUM_LAZY, _STUCK, _CONSTANT_0, _CONSTANT_1, _CONSTANT_LE_1,
 _REFLECTION, _NON_UTC, _TIMEZONE, _LITTLE_ENDIAN, _HTONS_BUG, _UNKNOWN) = ImplClass
_MILLISECOND, _SECOND, _EPOCH, _TK_UNKNOWN = Timekeeping
_CORRECT, _CORRECT_LE, _CORRECT_MSB, _INCORRECT = Correctness


@dataclass(frozen=True)
class CorrectnessPolicy:
    """The classification setting: the error margin for calling a timestamp
    correct (strict less-than) and the candidate offsets a timezone is read
    from, within that same margin.

    The margin must be usable with the table (``OffsetTable.check_margin``),
    so a policy holds an admitted pair or raises ``ValueError`` when it is
    made.
    """

    margin_ms: int = 200
    # Frozen, so every policy made with the default table shares it.
    table: OffsetTable = OffsetTable()

    def __post_init__(self):
        if not 0 < self.margin_ms < 43_200_000:
            raise ValueError(f"margin_ms out of range: {self.margin_ms}")
        self.table.check_margin(self.margin_ms)

    def offset_near(self, point_ms: int) -> float | None:
        """The table's entry less than the margin from ``point_ms`` on the
        day circle, or None; ``point_ms`` is in [0, DAY_MS).  One binary
        search over the table's index finds it."""
        table, margin, points = self.table, self.margin_ms, self.table._points
        if point_ms < margin:
            point_ms += DAY_MS
        lo = bisect_right(points, point_ms - margin)
        if lo < len(points) and points[lo] < point_ms + margin:
            return table.offsets[table._entries[lo]]
        return None


class _ObservationFields(NamedTuple):
    duplicate_replies: int
    first: dict[ProbeKind, ProbeOutcome]
    tampered: bool


class HostObservation(_ObservationFields):
    """Everything collected for one target address, as classification reads it.

    Built as ``HostObservation(outcomes, duplicate_replies=0)``; the
    target's address is its record's, not the observation's.  ``outcomes``
    may hold every probe sent to the target, each one
    ``ProbeOutcome``: an answered one has a reply, an arrival instant and a
    tamper verdict, and an unanswered one, whose reply is None, is
    skipped.  One pass at construction derives what the rules need:
    ``first`` maps each probe kind to its earliest-sent clean outcome (the
    first of ties), and ``tampered`` says whether any answered outcome's
    verdict is not clean.  The observation is an immutable
    ``NamedTuple`` of those three fields, made in one tuple build with no
    per-field attribute writes; ``_make`` and ``_replace`` skip the pass.
    A scan builds one only for a target with an answered probe.
    """

    __slots__ = ()

    def __new__(cls, outcomes, duplicate_replies: int = 0):
        first: dict[ProbeKind, ProbeOutcome] = {}
        tampered = False
        for p in outcomes:
            if p.reply is None:
                continue
            if p.tamper is not _CLEAN:
                tampered = True
                continue
            seen = first.get(p.kind)
            if seen is None or p.send_time < seen.send_time:
                first[p.kind] = p
        return tuple.__new__(cls, (duplicate_replies, first, tampered))


class Fingerprint(NamedTuple):
    """Behavior summary for one host; the host's address is its record's."""

    classes: frozenset[ImplClass]
    timekeeping: Timekeeping
    correctness: Correctness
    tz_offset: float | None = None
    flags: frozenset[str] = frozenset()


# ``fingerprint_observation`` builds each ``Fingerprint`` from all its
# fields with this, skipping the generated ``__new__``.
_new = tuple.__new__


def classify_correctness(
    reply: TimestampMessage, probe_orig: int, policy: CorrectnessPolicy
) -> Correctness:
    """Correctness of the receive timestamp against our originate timestamp.

    Tried in order: as-is, byte-swapped, with the most significant bit
    cleared.  All comparisons are strict and on the day circle.
    """
    m = policy.margin_ms
    recv = reply.recv_ts
    if abs(circular_diff(recv % DAY_MS, probe_orig)) < m:
        return _CORRECT
    if abs(circular_diff(byte_swap_32(recv) % DAY_MS, probe_orig)) < m:
        return _CORRECT_LE
    if recv & MSB and abs(circular_diff((recv - MSB) % DAY_MS, probe_orig)) < m:
        return _CORRECT_MSB
    return _INCORRECT


def infer_timezone(
    reply: TimestampMessage, probe_orig: int, policy: CorrectnessPolicy
) -> float | None:
    """The offset of the policy's table explaining the receive timestamp
    within the policy's margin, if any.

    The receive value must be interpretable as day milliseconds (most
    significant bit clear, below one day).  Candidate expectations are
    computed modulo one day, so a host nine hours ahead that appears
    fifteen hours behind still matches +9.
    """
    recv = reply.recv_ts
    if recv & MSB or recv >= DAY_MS:
        return None
    return policy.offset_near((recv - probe_orig) % DAY_MS)


def detect_htons_bug(obs: HostObservation) -> bool:
    """Reply timestamps truncated to zeroed low 16 bits, on both request types.

    Requires the standard and bad-clock replies to agree so that a correct
    clock caught at a 65,536 ms boundary does not false-positive.  All-zero
    values are a stuck-at-zero clock, not the truncation bug.  Missing
    either reply is indeterminate and reported as False.
    """
    std = obs.first.get(_STANDARD)
    bad_clock = obs.first.get(_BAD_CLOCK)
    if std is None or bad_clock is None:
        return False
    # The four values' OR is 0 only if all are zero, and has zeroed low
    # 16 bits only if each has.
    v = std.reply.recv_ts | std.reply.xmit_ts | bad_clock.reply.recv_ts | bad_clock.reply.xmit_ts
    return v != 0 and not v & 0xFFFF


def _implementation(
    obs: HostObservation, policy: CorrectnessPolicy
) -> tuple[set[ImplClass], float | None]:
    """Every implementation fingerprint rule that fires ({UNKNOWN} if none
    does), and the offset that ``infer_timezone`` found for the standard
    reply (None if there is none), from one evaluation of it.

    ``obs`` holds at least one clean reply: ``fingerprint_observation``
    classifies an observation without one before calling this.
    """
    classes: set[ImplClass] = set()
    tz_offset: float | None = None
    std = obs.first.get(_STANDARD)
    dup = obs.first.get(_DUPLICATE)

    if _BAD_CHECKSUM in obs.first:
        classes.add(_CHECKSUM_LAZY)

    if std is not None:
        recv, xmit = std.reply.recv_ts, std.reply.xmit_ts
        orig = std.request.orig_ts
        if recv != xmit and recv != 0 and xmit != 0:
            classes.add(_NORMAL)
        if recv == xmit != 0:
            classes.add(_LAZY)
        if recv > MSB - 1 and xmit > MSB - 1:
            classes.add(_NON_UTC)
        tz_offset = infer_timezone(std.reply, orig, policy)
        if tz_offset is not None:
            classes.add(_TIMEZONE)
        if abs(circular_diff(byte_swap_32(recv) % DAY_MS, orig)) < policy.margin_ms:
            classes.add(_LITTLE_ENDIAN)

    if std is not None and dup is not None:
        s_recv, s_xmit = std.reply.recv_ts, std.reply.xmit_ts
        d_recv, d_xmit = dup.reply.recv_ts, dup.reply.xmit_ts
        dup_req_value = dup.request.recv_ts
        all_zero = s_recv == s_xmit == d_recv == d_xmit == 0
        if all_zero:
            # An all-zero observation could also be a reflector echoing the
            # zeroed standard request, but zeros carry no positive evidence
            # of copying; the constant interpretation wins (flagged by
            # fingerprint_observation when truly ambiguous).
            classes.add(_STUCK)
            classes.add(_CONSTANT_0)
        else:
            if s_recv == s_xmit == d_recv == d_xmit and s_recv != dup_req_value:
                classes.add(_STUCK)
                if s_recv == 1:
                    classes.add(_CONSTANT_1)
                elif s_recv == CONSTANT_LE_ONE:
                    classes.add(_CONSTANT_LE_1)
            if (s_recv, s_xmit) == (std.request.recv_ts, std.request.xmit_ts) and (
                d_recv, d_xmit
            ) == (dup.request.recv_ts, dup.request.xmit_ts):
                classes.add(_REFLECTION)

    if detect_htons_bug(obs):
        classes.add(_HTONS_BUG)

    if not classes:
        classes.add(_UNKNOWN)
    return classes, tz_offset


def _circular_diff_seconds(a: int, b: int) -> int:
    d = (a - b) % SECONDS_PER_DAY
    return d if d <= SECONDS_PER_DAY // 2 else d - SECONDS_PER_DAY


def classify_timekeeping(obs: HostObservation) -> Timekeeping:
    """What unit and reference the responder's clock counts in.

    Compares the elapsed time reported by the standard and duplicate
    replies against the actual gap between the two sends.  A reply-field
    difference within 400 ms of the gap means milliseconds; within 2 s
    (for values that parse as seconds of day) means seconds.  Epoch
    keepers are recognized in two steps: the receive value read as Unix
    epoch seconds must fall on the send date, and its seconds-since-UTC-
    midnight must be within 2 s of the true value.
    """
    std = obs.first.get(_STANDARD)
    dup = obs.first.get(_DUPLICATE)
    if std is None or dup is None:
        return _TK_UNKNOWN

    send_us = std.send_time
    # Through float seconds, as ``timedelta.total_seconds() * 1000`` computes
    # it: a verdict at a half-millisecond gap depends on this rounding.
    gap_ms = round((dup.send_time - send_us) / 1_000_000 * 1000)
    s_recv, d_recv = std.reply.recv_ts, dup.reply.recv_ts

    reported_ms = circular_diff(d_recv % DAY_MS, s_recv % DAY_MS)
    if abs(reported_ms - gap_ms) < 400:
        return _MILLISECOND

    if s_recv < SECONDS_PER_DAY and d_recv < SECONDS_PER_DAY:
        reported_s = _circular_diff_seconds(d_recv, s_recv)
        if abs(reported_s * 1000 - gap_ms) < 2000:
            return _SECOND

    if s_recv // SECONDS_PER_DAY == send_us // US_PER_DAY:
        true_seconds = ms_since_utc_midnight(send_us) // 1000
        if abs(s_recv % SECONDS_PER_DAY - true_seconds) <= 2:
            return _EPOCH

    return _TK_UNKNOWN


def fingerprint_observation(
    obs: HostObservation, policy: CorrectnessPolicy = CorrectnessPolicy()
) -> Fingerprint:
    """Full fingerprint for one observation: classes + timekeeping + correctness.

    Flags record soft conditions: missing prerequisite replies, the
    all-zero reflection ambiguity, tampered or duplicate replies.  An
    observation whose answered probes are all tampered gets {UNKNOWN},
    incorrect, no timezone and the ``all_replies_tampered`` flag.  One with
    no answered probe raises ``ValueError``: any verdict would be made up.
    The default policy is frozen, so every host classified with it shares it.
    """
    if not obs.first:
        if not obs.tampered:
            raise ValueError("no answered probe to classify")
        return _new(Fingerprint, (
            frozenset({_UNKNOWN}), _TK_UNKNOWN, _INCORRECT, None,
            frozenset({"all_replies_tampered"}),
        ))
    classes, tz_offset = _implementation(obs, policy)
    flags: set[str] = set()

    std = obs.first.get(_STANDARD)
    dup = obs.first.get(_DUPLICATE)

    if std is not None:
        correctness = classify_correctness(std.reply, std.request.orig_ts, policy)
    else:
        correctness = _INCORRECT
        flags.add("no_standard_reply")

    timekeeping = classify_timekeeping(obs)
    if std is None or dup is None:
        flags.add("timekeeping_indeterminate")
    if std is None or _BAD_CLOCK not in obs.first:
        flags.add("htons_indeterminate")
    # CONSTANT_0 means the standard and duplicate replies were all zero.
    if _CONSTANT_0 in classes and dup.request.recv_ts == 0:
        flags.add("reflection_ambiguous")
    if obs.duplicate_replies:
        flags.add("duplicate_replies")
    if obs.tampered:
        flags.add("tampered_replies")

    return _new(Fingerprint, (
        frozenset(classes), timekeeping, correctness, tz_offset, frozenset(flags),
    ))


def _merge_offset(a: float | None, b: float | None) -> float | None:
    if a == b:
        return a
    if a is None or b is None or not offsets_equal(a, b):
        return None
    return normalize_offset(a)


def merge_fingerprints(a: Fingerprint, b: Fingerprint) -> Fingerprint:
    """Consensus of two vantage points' fingerprints for the same target.

    A fingerprint does not hold its target: the caller pairs them, as
    ``reports.merge_records`` does by the records' targets.  Classes
    intersect (a host must exhibit a behavior from both vantages to keep
    it); disagreeing correctness, timekeeping, or timezone verdicts are
    downgraded.  Two offsets that name the same point on the
    day circle (+12 and -12, or +9 and -15) agree, and the merge keeps its
    normalized form.  Idempotent and commutative.
    """
    classes = a.classes & b.classes
    if not classes:
        classes = frozenset({_UNKNOWN})
    return Fingerprint(
        classes=classes,
        timekeeping=a.timekeeping if a.timekeeping == b.timekeeping else _TK_UNKNOWN,
        correctness=a.correctness if a.correctness == b.correctness else _INCORRECT,
        tz_offset=_merge_offset(a.tz_offset, b.tz_offset),
        flags=a.flags | b.flags,
    )
