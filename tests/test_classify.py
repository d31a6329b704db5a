"""Classification rules: correctness margins, implementation classes,
timekeeping, timezone inference, merge semantics."""

import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import (
    EPOCH,
    at_ms,
    echo_reply,
    former_infer_timezone,
    margin_refusal,
    pair_for,
    reference_closest_ms,
)
from icmpstamp.classify import (
    CONSTANT_LE_ONE,
    MSB,
    Correctness,
    CorrectnessPolicy,
    Fingerprint,
    HostObservation,
    ImplClass,
    Timekeeping,
    classify_correctness,
    classify_timekeeping,
    detect_htons_bug,
    fingerprint_observation,
    infer_timezone,
    merge_fingerprints,
)
from icmpstamp.clock import (
    DAY_MS,
    DEFAULT_OFFSET_HOURS,
    OffsetTable,
    circular_diff,
    offset_millis,
)
from icmpstamp.probes import (
    ProbeKind,
    ProbeOutcome,
    TamperVerdict,
    make_bad_checksum,
    make_bad_clock,
    make_duplicate,
    make_standard,
)
from icmpstamp.wire import TimestampMessage, byte_swap_32

POLICY = CorrectnessPolicy()

DEST = "198.51.100.7"
ORIG = 45_296_789  # 12:34:56.789Z


def admits(offsets, margin_ms):
    """Whether a table of ``offsets`` admits ``margin_ms``, by the
    reference's pairwise measure."""
    closest = reference_closest_ms(offsets)
    return closest is None or 2 * margin_ms <= closest


def reply_msg(recv, xmit, orig=ORIG, ident=0, seq=0):
    return TimestampMessage(14, ident=ident, seq=seq, orig_ts=orig, recv_ts=recv, xmit_ts=xmit)


def build_pairs(
    std=None,
    dup=None,
    bad_clock=None,
    bad_checksum=None,
    t0=ORIG,
    gap_ms=3000,
):
    """Outcomes of echo replies carrying the given (recv, xmit) pairs, and
    the four probes."""
    rng = random.Random(11)
    probes = {
        "std": make_standard(DEST, at_ms(t0)),
        "bad_clock": make_bad_clock(DEST, 0x0A0B, 0x0C0D, at_ms(t0 + 10)),
        "bad_checksum": make_bad_checksum(DEST, at_ms(t0 + 20), rng),
        "dup": make_duplicate(DEST, at_ms(t0 + gap_ms)),
    }
    fields = {"std": std, "dup": dup, "bad_clock": bad_clock, "bad_checksum": bad_checksum}
    pairs = [
        pair_for(probes[name], echo_reply(probes[name], *values))
        for name, values in fields.items()
        if values is not None
    ]
    return pairs, probes


def build_obs(**fields):
    """Observation with echo replies carrying the given (recv, xmit) pairs."""
    pairs, probes = build_pairs(**fields)
    return HostObservation(pairs), probes


class TestCorrectness:
    def test_within_margin(self):
        assert classify_correctness(reply_msg(45_296_900, 0), ORIG, POLICY) is Correctness.CORRECT

    def test_byte_swapped(self):
        swapped = byte_swap_32(ORIG)
        assert swapped == 2_502_734_594
        assert classify_correctness(reply_msg(swapped, 0), ORIG, POLICY) is Correctness.CORRECT_LE

    def test_msb_set(self):
        recv = ORIG + 2**31
        assert classify_correctness(reply_msg(recv, 0), ORIG, POLICY) is Correctness.CORRECT_MSB

    def test_boundary_is_strict(self):
        assert classify_correctness(reply_msg(ORIG + 199, 0), ORIG, POLICY) is Correctness.CORRECT
        assert classify_correctness(reply_msg(ORIG + 200, 0), ORIG, POLICY) is Correctness.INCORRECT

    def test_msb_set_but_wrong_time_incorrect(self):
        recv = (ORIG + 7_000_000) | 2**31
        assert classify_correctness(reply_msg(recv, 0), ORIG, POLICY) is Correctness.INCORRECT

    def test_wrap_across_midnight(self):
        assert classify_correctness(reply_msg(100, 0), 86_399_990, POLICY) is Correctness.CORRECT


class TestInferTimezone:
    def test_plus_nine(self):
        assert infer_timezone(reply_msg(77_696_789, 0), ORIG, POLICY) == 9.0

    def test_correct_reply_has_no_offset(self):
        assert infer_timezone(reply_msg(45_296_800, 0), ORIG, POLICY) is None

    def test_wrap_looks_fifteen_hours_behind(self):
        # +9 host probed late in the UTC day: 80,000,000 + 9h wraps to 26,000,000.
        assert infer_timezone(reply_msg(26_000_000, 0), 80_000_000, POLICY) == 9.0

    def test_msb_set_not_interpretable(self):
        assert infer_timezone(reply_msg(77_696_789 | 2**31, 0), ORIG, POLICY) is None

    def test_beyond_one_day_not_interpretable(self):
        assert infer_timezone(reply_msg(DAY_MS + 5, 0), ORIG, POLICY) is None

    def test_minus_twelve_stays_table_entry(self):
        recv = (ORIG - 12 * 3_600_000) % DAY_MS
        assert infer_timezone(reply_msg(recv, 0), ORIG, POLICY) == -12.0

    def test_wide_margin_is_ambiguous(self):
        # Wider than half the 30 minutes between +3 and +3.5: refused when
        # the policy is made, before any receive value (halfway between +3
        # and +3.5, or near none) is looked up.
        with pytest.raises(ValueError) as info:
            CorrectnessPolicy(margin_ms=900_001)
        assert str(info.value) == margin_refusal(900_001, 1_800_000)

    def test_fingerprint_refuses_a_margin_the_table_does_not_admit(self):
        obs, _ = build_obs(std=(77_696_789, 77_696_790))  # nine hours ahead
        table = OffsetTable((9.0, 11.0))
        fp = fingerprint_observation(obs, CorrectnessPolicy(3_600_000, table))
        assert fp.tz_offset == 9.0
        with pytest.raises(ValueError) as info:
            CorrectnessPolicy(3_600_001, table)
        assert str(info.value) == margin_refusal(3_600_001, 7_200_000)

    @staticmethod
    @st.composite
    def day_circle_cases(draw):
        offsets = draw(st.lists(st.integers(-48, 48), max_size=8, unique=True))
        offsets = tuple(n / 2 for n in offsets)
        orig = draw(st.integers(0, DAY_MS - 1))
        margins = st.integers(1, 5_000) | st.integers(1, 43_199_999)
        closest = reference_closest_ms(offsets)
        if closest:
            # Either side of the widest margin admitted, half the closest
            # spacing (at most 6 h for two or more entries).
            margins |= st.integers(closest // 2 - 1, closest // 2 + 1)
        margin = draw(margins)
        if offsets and draw(st.booleans()):
            # Land on or near a candidate's margin edge, either side.
            centre = orig + offset_millis(draw(st.sampled_from(offsets)))
            delta = draw(st.sampled_from([-1, 1])) * (margin + draw(st.integers(-2, 1)))
            recv = (centre + delta) % DAY_MS
        else:
            recv = draw(st.integers(0, 2**32 - 1))
        return recv, orig, margin, offsets

    @given(day_circle_cases())
    def test_matches_day_circle_formula(self, case):
        recv, orig, margin, offsets = case
        table = OffsetTable(offsets)
        if recv & 2**31 or recv >= DAY_MS:
            matches = []
        else:
            # The former test, through the validating circular_diff.
            matches = [
                o for o in offsets
                if abs(circular_diff(recv, (orig + offset_millis(o)) % DAY_MS)) < margin
            ]
        if recv & 2**31 or recv >= DAY_MS or admits(offsets, margin):
            assert len(matches) <= 1
        if admits(offsets, margin):
            expected = matches[0] if matches else None
            policy = CorrectnessPolicy(margin, table)
            assert infer_timezone(reply_msg(recv, 0, orig=orig), orig, policy) == expected
        else:
            with pytest.raises(ValueError) as info:
                CorrectnessPolicy(margin, table)
            assert str(info.value) == margin_refusal(margin, reference_closest_ms(offsets))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(ProbeKind)),
            st.integers(0, 3),
            # None: the probe went unanswered.
            st.sampled_from([None, *TamperVerdict]),
        ),
        max_size=8,
    ),
    st.sampled_from(list(ProbeKind)),
)
@example(  # a tie: the first sent in list order wins
    [(ProbeKind.STANDARD, 1, TamperVerdict.CLEAN)] * 2, ProbeKind.STANDARD
)
@example([(ProbeKind.STANDARD, 1, None)], ProbeKind.STANDARD)
def test_first_clean_is_the_earliest_clean_outcome(spec, kind):
    reply = reply_msg(0, 0)
    outcomes = [
        ProbeOutcome(k, at_ms(t), reply, reply, at_ms(t), verdict)
        if verdict is not None
        else ProbeOutcome(k, at_ms(t), reply)
        for k, t, verdict in spec
    ]
    obs = HostObservation(outcomes)
    pairs = [o for o in outcomes if o.reply is not None]
    # The former formula: min() over a filtered list keeps the first of ties.
    clean = [p for p in pairs if p.tamper is TamperVerdict.CLEAN]
    candidates = [p for p in clean if p.kind is kind]
    expected = min(candidates, key=lambda p: p.send_time) if candidates else None
    assert obs.first.get(kind) is expected
    assert obs.tampered == (len(clean) < len(pairs))


@st.composite
def timezone_lookups(draw):
    """A table, a margin, an originate value and a receive value.

    Tables may repeat an entry, hold both +12 and -12 (one point on the day
    circle), or hold entries outside [-12, +12]; margins run up to half a
    day, and include the widest the table admits and the next one up.
    Receive values include ones with the MSB set or of a day or more, and
    ones on either side of an entry's margin edge.
    """
    entry = (
        st.sampled_from(DEFAULT_OFFSET_HOURS + (12.0, -12.0))
        | st.integers(-100, 100).map(lambda n: n / 2)
    )
    offsets = tuple(draw(st.lists(entry, max_size=40)))
    margins = st.integers(1, 5_000) | st.integers(1, DAY_MS // 2 - 1)
    closest = reference_closest_ms(offsets)
    if closest:
        margins |= st.sampled_from([closest // 2, closest // 2 + 1])
    margin = draw(margins)
    orig = draw(st.integers(0, DAY_MS - 1) | st.integers(0, 2**32 - 1))
    if offsets and draw(st.booleans()):
        centre = orig + offset_millis(draw(st.sampled_from(offsets)))
        delta = draw(st.sampled_from([-1, 1])) * (margin + draw(st.integers(-2, 1)))
        recv = (centre + delta) % DAY_MS | draw(st.sampled_from([0, 2**31]))
    else:
        recv = draw(st.integers(0, 2**32 - 1) | st.integers(DAY_MS - 5, DAY_MS + 5))
    return OffsetTable(offsets), margin, orig, recv


@given(timezone_lookups())
@settings(max_examples=500)
def test_timezone_lookup_equals_former_linear_scan(lookup):
    # Over admitted pairs the policy's lookup agrees with the former one; a
    # pair the table does not admit is refused when the policy is made, with
    # the text the former lookup refuses it with once the receive value is a
    # time of day.
    table, margin, orig, recv = lookup
    reply = reply_msg(recv, 0, orig=orig)
    former = _result(former_infer_timezone, reply, orig, table, margin)
    if admits(table.offsets, margin):
        assert infer_timezone(reply, orig, CorrectnessPolicy(margin, table)) == former
    else:
        new = _result(CorrectnessPolicy, margin, table)
        assert new == margin_refusal(margin, reference_closest_ms(table.offsets))
        if recv < DAY_MS:
            assert new == former


# 32-bit timestamps, weighted to where the htons rule turns: zero, a
# multiple of 65,536, and a multiple of 65,536 with one low bit set.
htons_values = st.one_of(
    st.just(0),
    st.integers(0, 0xFFFF).map(lambda high: high << 16),
    st.builds(lambda high, bit: high << 16 | 1 << bit, st.integers(0, 0xFFFF), st.integers(0, 15)),
    st.integers(0, 2**32 - 1),
)


class TestHtonsBug:
    def test_both_replies_truncated(self):
        obs, _ = build_obs(std=(0x00020000, 0x00020000), bad_clock=(0x00020000, 0x00020000))
        assert detect_htons_bug(obs)

    def test_bad_clock_disagrees(self):
        obs, _ = build_obs(std=(0x00020000, 0x00020000), bad_clock=(0x00020001, 0x00020000))
        assert not detect_htons_bug(obs)

    def test_all_zero_is_constant_zero_instead(self):
        obs, _ = build_obs(std=(0, 0), bad_clock=(0, 0))
        assert not detect_htons_bug(obs)

    def test_missing_reply_indeterminate(self):
        obs, _ = build_obs(std=(0x00020000, 0x00020000))
        assert not detect_htons_bug(obs)
        fp = fingerprint_observation(obs)
        assert "htons_indeterminate" in fp.flags

    @given(st.none() | st.tuples(htons_values, htons_values),
           st.none() | st.tuples(htons_values, htons_values))
    @example((0, 0), (0, 0))
    @example((0, 0), (0, 1))
    @example((0x10000, 0), (0, 0))
    @example((0x10000, 0x10000), None)
    def test_equals_former_definition(self, std, bad_clock):
        # ``_former_htons`` is the rule as two ``all(...)`` tests defined it.
        pairs, _ = build_pairs(std=std, bad_clock=bad_clock)
        former = _former_htons(_FormerObservation(pairs, 0))
        assert detect_htons_bug(HostObservation(pairs)) == former


class TestImplementationClasses:
    def test_lazy_timezone_example(self):
        tz = 32_400_000
        obs, _ = build_obs(
            std=(ORIG + tz, ORIG + tz),
            dup=((ORIG + 3000 + tz) % DAY_MS, (ORIG + 3000 + tz) % DAY_MS),
        )
        assert fingerprint_observation(obs, POLICY).classes == {
            ImplClass.LAZY,
            ImplClass.TIMEZONE,
        }

    def test_all_zero_is_stuck_constant_zero(self):
        obs, _ = build_obs(std=(0, 0), dup=(0, 0))
        assert fingerprint_observation(obs, POLICY).classes == {
            ImplClass.STUCK,
            ImplClass.CONSTANT_0,
        }

    def test_reflection_echoes_duplicate_request(self):
        pairs, probes = build_pairs(std=(0, 0))
        dup_probe = probes["dup"]
        dup_orig = dup_probe.request.orig_ts
        obs = HostObservation(
            [*pairs, pair_for(dup_probe, echo_reply(dup_probe, dup_orig, dup_orig))]
        )
        assert fingerprint_observation(obs, POLICY).classes == {ImplClass.REFLECTION}

    def test_normal(self):
        obs, _ = build_obs(std=(ORIG + 40, ORIG + 43))
        assert fingerprint_observation(obs, POLICY).classes == {ImplClass.NORMAL}

    def test_lazy(self):
        obs, _ = build_obs(std=(ORIG + 40, ORIG + 40))
        assert fingerprint_observation(obs, POLICY).classes == {ImplClass.LAZY}

    def test_checksum_lazy(self):
        obs, _ = build_obs(std=(ORIG + 40, ORIG + 40), bad_checksum=(ORIG + 60, ORIG + 60))
        assert fingerprint_observation(obs, POLICY).classes == {
            ImplClass.LAZY,
            ImplClass.CHECKSUM_LAZY,
        }

    def test_non_utc_needs_both_fields(self):
        both = ORIG | 2**31
        obs, _ = build_obs(std=(both, both))
        assert ImplClass.NON_UTC in fingerprint_observation(obs, POLICY).classes
        obs2, _ = build_obs(std=(both, ORIG))
        assert ImplClass.NON_UTC not in fingerprint_observation(obs2, POLICY).classes

    def test_little_endian(self):
        swapped = byte_swap_32(ORIG + 5)
        obs, _ = build_obs(std=(swapped, swapped))
        classes = fingerprint_observation(obs, POLICY).classes
        assert ImplClass.LITTLE_ENDIAN in classes

    def test_stuck_nonzero_constant(self):
        c = 123_456
        obs, _ = build_obs(std=(c, c), dup=(c, c))
        assert fingerprint_observation(obs, POLICY).classes == {
            ImplClass.LAZY,
            ImplClass.STUCK,
        }

    def test_stuck_requires_constant_differ_from_duplicate_request(self):
        # A "constant" equal to the duplicate request's preset fields is
        # indistinguishable from an echo; the rule refuses to call it stuck.
        pairs, probes = build_pairs(std=(0, 0))
        dup_probe = probes["dup"]
        v = dup_probe.request.orig_ts
        obs = HostObservation([*pairs, pair_for(dup_probe, echo_reply(dup_probe, v, v))])
        classes = fingerprint_observation(obs, POLICY).classes
        assert ImplClass.STUCK not in classes

    def test_constant_one(self):
        obs, _ = build_obs(std=(1, 1), dup=(1, 1))
        assert fingerprint_observation(obs, POLICY).classes == {
            ImplClass.LAZY,
            ImplClass.STUCK,
            ImplClass.CONSTANT_1,
        }

    def test_constant_le_one(self):
        le1 = byte_swap_32(1)
        obs, _ = build_obs(std=(le1, le1), dup=(le1, le1))
        assert fingerprint_observation(obs, POLICY).classes == {
            ImplClass.LAZY,
            ImplClass.STUCK,
            ImplClass.CONSTANT_LE_1,
        }

    def test_constant_le_one_with_bad_clock_also_matches_htons_rule(self):
        # 0x01000000 has zeroed low bytes, so the truncation signature fires
        # once the bad-clock reply repeats it; an accepted rule overlap.
        le1 = byte_swap_32(1)
        obs, _ = build_obs(std=(le1, le1), dup=(le1, le1), bad_clock=(le1, le1))
        assert fingerprint_observation(obs, POLICY).classes == {
            ImplClass.LAZY,
            ImplClass.STUCK,
            ImplClass.CONSTANT_LE_1,
            ImplClass.HTONS_BUG,
        }

    def test_unclassifiable_is_unknown(self):
        obs, _ = build_obs(std=(0, 0x00ABCD01))
        assert fingerprint_observation(obs, POLICY).classes == {ImplClass.UNKNOWN}

    def test_no_clean_replies_is_unknown_and_all_tampered(self):
        pairs, probes = build_pairs()
        std = probes["std"]
        tampered_reply = TimestampMessage(
            14,
            ident=std.request.ident,
            seq=std.request.seq,
            orig_ts=std.request.orig_ts + 1,
            recv_ts=5,
            xmit_ts=5,
        )
        obs = HostObservation(
            [
                *pairs,
                std._replace(reply=tampered_reply, arrival=std.send_time,
                             tamper=TamperVerdict.ORIGINATE_MODIFIED),
            ],
        )
        assert fingerprint_observation(obs, POLICY) == Fingerprint(
            classes=frozenset({ImplClass.UNKNOWN}),
            timekeeping=Timekeeping.UNKNOWN,
            correctness=Correctness.INCORRECT,
            tz_offset=None,
            flags=frozenset({"all_replies_tampered"}),
        )


class TestClassSetInvariants:
    reply_fields = st.tuples(
        st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF)
    )

    @given(reply_fields, st.one_of(st.none(), reply_fields))
    def test_exhaustive_and_constants_imply_stuck(self, std_fields, dup_fields):
        obs, _ = build_obs(std=std_fields, dup=dup_fields)
        classes = fingerprint_observation(obs, POLICY).classes
        assert classes  # anything with a clean reply gets at least Unknown
        constants = {ImplClass.CONSTANT_0, ImplClass.CONSTANT_1, ImplClass.CONSTANT_LE_1}
        if classes & constants:
            assert ImplClass.STUCK in classes
        assert not (
            {ImplClass.NORMAL, ImplClass.LAZY} <= classes
        )  # mutually exclusive on one observation


class TestTimekeeping:
    def test_millisecond(self):
        obs, _ = build_obs(std=(ORIG, ORIG), dup=(ORIG + 3001, ORIG + 3001))
        assert classify_timekeeping(obs) is Timekeeping.MILLISECOND

    def test_second(self):
        secs = ORIG // 1000
        obs, _ = build_obs(std=(secs, secs), dup=(secs + 3, secs + 3))
        assert classify_timekeeping(obs) is Timekeeping.SECOND

    def test_epoch(self):
        # Calendar oracle for 2018-10-06T12:34:56Z.
        epoch = int(datetime(2018, 10, 6, 12, 34, 56, tzinfo=timezone.utc).timestamp())
        assert epoch == 1_538_829_296
        obs, _ = build_obs(std=(epoch, epoch), dup=(epoch + 3, epoch + 3))
        assert classify_timekeeping(obs) is Timekeeping.EPOCH

    def test_epoch_wrong_date_unknown(self):
        stale = int(datetime(2018, 10, 5, 12, 34, 56, tzinfo=timezone.utc).timestamp())
        obs, _ = build_obs(std=(stale, stale), dup=(stale + 3, stale + 3))
        assert classify_timekeeping(obs) is Timekeeping.UNKNOWN

    def test_stuck_clock_unknown(self):
        obs, _ = build_obs(std=(5, 5), dup=(5, 5))
        assert classify_timekeeping(obs) is Timekeeping.UNKNOWN

    def test_missing_duplicate_unknown(self):
        obs, _ = build_obs(std=(ORIG, ORIG))
        assert classify_timekeeping(obs) is Timekeeping.UNKNOWN
        fp = fingerprint_observation(obs)
        assert "timekeeping_indeterminate" in fp.flags

    def test_millisecond_with_msb_set(self):
        # The non-UTC bit shifts both readings identically; elapsed time is
        # still measured in milliseconds.
        msb = 2**31
        obs, _ = build_obs(std=(ORIG | msb, ORIG | msb), dup=((ORIG + 3000) | msb, (ORIG + 3000) | msb))
        assert classify_timekeeping(obs) is Timekeeping.MILLISECOND

    @given(
        st.integers(-2 * 86_400_000_000, 2 * 86_400_000_000)
        | st.integers(-86_400_000, 86_400_000).map(lambda ms: ms * 1000 + 500)
    )
    def test_gap_rounds_as_timedelta_did(self, gap_us):
        # Half-millisecond gaps are where a different rounding would show.
        assert round(gap_us / 1_000_000 * 1000) == round(
            timedelta(microseconds=gap_us).total_seconds() * 1000
        )


def fp(classes, timekeeping=Timekeeping.MILLISECOND, correctness=Correctness.CORRECT,
       tz=None, flags=frozenset()):
    return Fingerprint(
        classes=frozenset(classes),
        timekeeping=timekeeping,
        correctness=correctness,
        tz_offset=tz,
        flags=frozenset(flags),
    )


class TestMerge:
    def test_disjoint_classes_become_unknown(self):
        merged = merge_fingerprints(fp({ImplClass.NORMAL}), fp({ImplClass.LAZY}))
        assert merged.classes == {ImplClass.UNKNOWN}

    def test_idempotent_on_equal(self):
        a = fp({ImplClass.LAZY, ImplClass.TIMEZONE}, tz=9.0)
        assert merge_fingerprints(a, a) == a

    def test_correctness_disagreement_downgrades(self):
        merged = merge_fingerprints(
            fp({ImplClass.LAZY}, correctness=Correctness.CORRECT),
            fp({ImplClass.LAZY}, correctness=Correctness.CORRECT_LE),
        )
        assert merged.correctness is Correctness.INCORRECT

    def test_timekeeping_disagreement_downgrades(self):
        merged = merge_fingerprints(
            fp({ImplClass.LAZY}, timekeeping=Timekeeping.MILLISECOND),
            fp({ImplClass.LAZY}, timekeeping=Timekeeping.SECOND),
        )
        assert merged.timekeeping is Timekeeping.UNKNOWN

    def test_tz_disagreement_drops_offset(self):
        merged = merge_fingerprints(fp({ImplClass.TIMEZONE}, tz=9.0), fp({ImplClass.TIMEZONE}, tz=8.0))
        assert merged.tz_offset is None

    @pytest.mark.parametrize("a, b, merged", [(12.0, -12.0, 12.0), (9.0, -15.0, 9.0)])
    def test_same_offset_on_the_day_circle_kept_normalized(self, a, b, merged):
        for x, y in ((a, b), (b, a)):
            result = merge_fingerprints(
                fp({ImplClass.TIMEZONE}, tz=x), fp({ImplClass.TIMEZONE}, tz=y)
            )
            assert result.tz_offset == merged
            assert result.classes == {ImplClass.TIMEZONE}

    fingerprints = st.builds(
        fp,
        classes=st.frozensets(st.sampled_from(sorted(ImplClass, key=lambda c: c.value)), min_size=1),
        timekeeping=st.sampled_from(sorted(Timekeeping, key=lambda t: t.value)),
        correctness=st.sampled_from(sorted(Correctness, key=lambda c: c.value)),
        tz=st.sampled_from([None, 9.0, -3.5, 12.0, -12.0, -15.0]),
        flags=st.frozensets(st.sampled_from(["x", "y"]), max_size=2),
    )

    @given(fingerprints)
    def test_idempotent(self, a):
        assert merge_fingerprints(a, a) == a

    @given(fingerprints, fingerprints)
    def test_commutative(self, a, b):
        assert merge_fingerprints(a, b) == merge_fingerprints(b, a)

    @given(fingerprints, fingerprints)
    def test_class_monotone(self, a, b):
        merged = merge_fingerprints(a, b)
        floor = {ImplClass.UNKNOWN}
        assert merged.classes <= a.classes or merged.classes == floor
        assert merged.classes <= b.classes or merged.classes == floor


class TestFingerprintObservation:
    def test_full_lazy_host(self):
        obs, _ = build_obs(std=(ORIG + 30, ORIG + 30), dup=(ORIG + 3030, ORIG + 3030))
        result = fingerprint_observation(obs)
        assert result.classes == {ImplClass.LAZY}
        assert result.timekeeping is Timekeeping.MILLISECOND
        assert result.correctness is Correctness.CORRECT
        assert result.tz_offset is None

    def test_no_standard_reply_flagged(self):
        obs, _ = build_obs(bad_checksum=(ORIG, ORIG))
        result = fingerprint_observation(obs)
        assert result.correctness is Correctness.INCORRECT
        assert "no_standard_reply" in result.flags
        assert ImplClass.CHECKSUM_LAZY in result.classes

    def test_reflection_ambiguity_flag_at_midnight(self):
        pairs, probes = build_pairs(std=(0, 0), t0=0, gap_ms=DAY_MS)  # duplicate orig wraps to 0
        dup_probe = probes["dup"]
        assert dup_probe.request.orig_ts == 0
        obs = HostObservation([*pairs, pair_for(dup_probe, echo_reply(dup_probe, 0, 0))])
        result = fingerprint_observation(obs)
        # At exact midnight the zero reply also satisfies the byte-swap rule
        # (swap(0) == 0 == orig); the constant interpretation still wins over
        # reflection and the ambiguity is flagged.
        assert {ImplClass.STUCK, ImplClass.CONSTANT_0} <= result.classes
        assert ImplClass.REFLECTION not in result.classes
        assert "reflection_ambiguous" in result.flags

    def test_tampered_pairs_flagged_but_excluded(self):
        pairs, probes = build_pairs(std=(ORIG + 30, ORIG + 30), dup=(ORIG + 3030, ORIG + 3030))
        std = probes["std"]
        tampered = TimestampMessage(
            14,
            ident=std.request.ident,
            seq=std.request.seq,
            orig_ts=std.request.orig_ts + 1,
            recv_ts=7,
            xmit_ts=7,
        )
        obs = HostObservation(
            [*pairs, std._replace(reply=tampered, arrival=std.send_time,
                                  tamper=TamperVerdict.ORIGINATE_MODIFIED)],
        )
        result = fingerprint_observation(obs)
        assert "tampered_replies" in result.flags
        assert result.classes == {ImplClass.LAZY}

    def test_duplicate_replies_flagged(self):
        pairs, _ = build_pairs(std=(ORIG + 30, ORIG + 30))
        obs = HostObservation(pairs, duplicate_replies=2)
        assert "duplicate_replies" in fingerprint_observation(obs).flags


class _FormerObservation:
    """The observation as classified before ``HostObservation.first``:
    each rule looked its replies up again with ``first_clean``."""

    def __init__(self, pairs, duplicate_replies):
        self.pairs = list(pairs)
        self.duplicate_replies = duplicate_replies

    def clean_pairs(self):
        return [p for p in self.pairs if p.tamper is TamperVerdict.CLEAN]

    def first_clean(self, kind):
        first = None
        for p in self.pairs:
            if (
                p.tamper is TamperVerdict.CLEAN
                and p.kind is kind
                and (first is None or p.send_time < first.send_time)
            ):
                first = p
        return first


def _former_htons(obs):
    std = obs.first_clean(ProbeKind.STANDARD)
    bad_clock = obs.first_clean(ProbeKind.BAD_CLOCK)
    if std is None or bad_clock is None:
        return False
    values = (std.reply.recv_ts, std.reply.xmit_ts, bad_clock.reply.recv_ts, bad_clock.reply.xmit_ts)
    if all(v == 0 for v in values):
        return False
    return all(v % 65536 == 0 for v in values)


def _former_implementation(obs, policy):
    if not obs.clean_pairs():
        raise ValueError("no clean replies")
    classes = set()
    std = obs.first_clean(ProbeKind.STANDARD)
    dup = obs.first_clean(ProbeKind.DUPLICATE)
    if obs.first_clean(ProbeKind.BAD_CHECKSUM) is not None:
        classes.add(ImplClass.CHECKSUM_LAZY)
    if std is not None:
        recv, xmit = std.reply.recv_ts, std.reply.xmit_ts
        orig = std.request.orig_ts
        if recv != xmit and recv != 0 and xmit != 0:
            classes.add(ImplClass.NORMAL)
        if recv == xmit != 0:
            classes.add(ImplClass.LAZY)
        if recv > MSB - 1 and xmit > MSB - 1:
            classes.add(ImplClass.NON_UTC)
        if former_infer_timezone(std.reply, orig, policy.table, policy.margin_ms) is not None:
            classes.add(ImplClass.TIMEZONE)
        if abs(circular_diff(byte_swap_32(recv) % DAY_MS, orig)) < policy.margin_ms:
            classes.add(ImplClass.LITTLE_ENDIAN)
    if std is not None and dup is not None:
        s_recv, s_xmit = std.reply.recv_ts, std.reply.xmit_ts
        d_recv, d_xmit = dup.reply.recv_ts, dup.reply.xmit_ts
        if s_recv == s_xmit == d_recv == d_xmit == 0:
            classes.add(ImplClass.STUCK)
            classes.add(ImplClass.CONSTANT_0)
        else:
            if s_recv == s_xmit == d_recv == d_xmit and s_recv != dup.request.recv_ts:
                classes.add(ImplClass.STUCK)
                if s_recv == 1:
                    classes.add(ImplClass.CONSTANT_1)
                elif s_recv == CONSTANT_LE_ONE:
                    classes.add(ImplClass.CONSTANT_LE_1)
            if (s_recv, s_xmit) == (std.request.recv_ts, std.request.xmit_ts) and (
                d_recv,
                d_xmit,
            ) == (dup.request.recv_ts, dup.request.xmit_ts):
                classes.add(ImplClass.REFLECTION)
    if _former_htons(obs):
        classes.add(ImplClass.HTONS_BUG)
    return classes or {ImplClass.UNKNOWN}


def _former_timekeeping(obs):
    std = obs.first_clean(ProbeKind.STANDARD)
    dup = obs.first_clean(ProbeKind.DUPLICATE)
    if std is None or dup is None:
        return Timekeeping.UNKNOWN
    std_send = EPOCH + timedelta(microseconds=std.send_time)
    dup_send = EPOCH + timedelta(microseconds=dup.send_time)
    gap_ms = round((dup_send - std_send).total_seconds() * 1000)
    s_recv, d_recv = std.reply.recv_ts, dup.reply.recv_ts
    if abs(circular_diff(d_recv % DAY_MS, s_recv % DAY_MS) - gap_ms) < 400:
        return Timekeeping.MILLISECOND
    if s_recv < 86_400 and d_recv < 86_400:
        d = (d_recv - s_recv) % 86_400
        reported_s = d if d <= 43_200 else d - 86_400
        if abs(reported_s * 1000 - gap_ms) < 2000:
            return Timekeeping.SECOND
    try:
        as_epoch = datetime.fromtimestamp(s_recv, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        as_epoch = None
    if as_epoch is not None:
        send_utc = std_send.astimezone(timezone.utc)
        if as_epoch.date() == send_utc.date():
            true_seconds = (
                (send_utc.hour * 60 + send_utc.minute) * 60 + send_utc.second
            )
            if abs(s_recv % 86_400 - true_seconds) <= 2:
                return Timekeeping.EPOCH
    return Timekeeping.UNKNOWN


def _former_fingerprint(obs, policy):
    if not obs.clean_pairs():
        return Fingerprint(
            classes=frozenset({ImplClass.UNKNOWN}),
            timekeeping=Timekeeping.UNKNOWN,
            correctness=Correctness.INCORRECT,
            flags=frozenset({"all_replies_tampered"}),
        )
    classes = _former_implementation(obs, policy)
    flags = set()
    std = obs.first_clean(ProbeKind.STANDARD)
    dup = obs.first_clean(ProbeKind.DUPLICATE)
    bad_clock = obs.first_clean(ProbeKind.BAD_CLOCK)
    tz_offset = None
    if std is not None:
        correctness = classify_correctness(std.reply, std.request.orig_ts, policy)
        tz_offset = former_infer_timezone(
            std.reply, std.request.orig_ts, policy.table, policy.margin_ms
        )
    else:
        correctness = Correctness.INCORRECT
        flags.add("no_standard_reply")
    timekeeping = _former_timekeeping(obs)
    if std is None or dup is None:
        flags.add("timekeeping_indeterminate")
    if std is None or bad_clock is None:
        flags.add("htons_indeterminate")
    if std is not None and dup is not None:
        values = (std.reply.recv_ts, std.reply.xmit_ts, dup.reply.recv_ts, dup.reply.xmit_ts)
        if all(v == 0 for v in values) and dup.request.recv_ts == 0:
            flags.add("reflection_ambiguous")
    if obs.duplicate_replies:
        flags.add("duplicate_replies")
    if any(p.tamper is not TamperVerdict.CLEAN for p in obs.pairs):
        flags.add("tampered_replies")
    return Fingerprint(
        classes=frozenset(classes),
        timekeeping=timekeeping,
        correctness=correctness,
        tz_offset=tz_offset,
        flags=frozenset(flags),
    )


@st.composite
def _observation_parts(draw):
    """0-8 answered outcomes whose reply fields often repeat one another,
    their request's fields or the values each rule singles out."""
    base_ms = draw(st.integers(0, DAY_MS - 1))

    def special(send_ms):
        orig = send_ms % DAY_MS
        return (
            st.integers(0, 0xFFFFFFFF)
            | st.sampled_from([0, 1, CONSTANT_LE_ONE, orig, byte_swap_32(orig), orig | MSB])
            | st.integers(0, 0xFFFF).map(lambda v: v << 16)
            | st.integers(-48, 48).map(lambda n: (orig + n * 1_800_000) % DAY_MS)
            | st.integers(-3_000, 3_000).map(lambda d: (orig + d) % DAY_MS)
            | st.integers(-4, 4).map(lambda d: (orig // 1000 + d) % 86_400)
            | st.integers(-4, 4).map(lambda d: at_ms(send_ms) // 1_000_000 + d)
        )

    constants = st.sampled_from([0, 1, CONSTANT_LE_ONE])
    shared = draw(st.lists(constants | special(base_ms), min_size=1, max_size=3))
    host = draw(st.sampled_from(["mixed", "constant", "reflector"]))
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(list(ProbeKind)))
        send_ms = base_ms + draw(st.sampled_from([0, 10, 20, 3000, 3010, DAY_MS]))
        orig = send_ms % DAY_MS
        req_fields = draw(
            st.sampled_from([(0, 0), (orig, orig)]) | st.tuples(special(send_ms), special(send_ms))
        )
        if host == "constant":
            recv = xmit = shared[0]
        elif host == "reflector":
            recv, xmit = req_fields
        else:
            values = st.sampled_from(shared) | st.sampled_from(req_fields) | special(send_ms)
            recv = draw(values)
            xmit = draw(st.just(recv) | values)
        request = TimestampMessage(13, orig_ts=orig, recv_ts=req_fields[0], xmit_ts=req_fields[1])
        verdict = draw(st.just(TamperVerdict.CLEAN) | st.sampled_from(list(TamperVerdict)))
        pairs.append(ProbeOutcome(kind, at_ms(send_ms), request,
                                  reply_msg(recv, xmit, orig=orig), at_ms(send_ms), verdict))
    return pairs, draw(st.integers(0, 2))


def _result(fn, *args):
    """What ``fn`` returns, or the text of the margin refusal it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        if not str(exc).startswith("margin "):
            raise
        return str(exc)


@given(
    _observation_parts(),
    st.none()
    | st.tuples(
        st.lists(st.integers(-48, 48), max_size=8, unique=True).map(
            lambda ns: OffsetTable(tuple(n / 2 for n in ns))
        ),
        st.integers(1, 5_000) | st.integers(900_000, 2_000_000),
    ),
)
@example(  # all-zero replies, duplicate request not zero: constant, not ambiguous
    (build_pairs(std=(0, 0), dup=(0, 0))[0], 0), None
)
@example(([], 0), None)  # no answered probe
@settings(max_examples=300)
def test_fingerprint_equals_former_lookups(parts, custom):
    pairs, duplicate_replies = parts
    policy = POLICY
    if custom is not None:
        table, margin = custom
        policy = _result(CorrectnessPolicy, margin, table)
        if not admits(table.offsets, margin):
            # A pair the table does not admit is refused when the policy is
            # made, whatever the observation: no lookup is reached.
            assert policy == margin_refusal(margin, reference_closest_ms(table.offsets))
            return
    obs = HostObservation(pairs, duplicate_replies)
    former = _former_fingerprint(_FormerObservation(pairs, duplicate_replies), policy)
    if pairs:
        assert fingerprint_observation(obs, policy) == former
    else:
        # Every drawn probe is answered, so no pair means no answered probe:
        # the former all_replies_tampered verdict would be made up.
        with pytest.raises(ValueError) as info:
            fingerprint_observation(obs, policy)
        assert str(info.value) == "no answered probe to classify"
