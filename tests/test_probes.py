"""Probe construction and tamper-verification tests.

The MD5-derived expectations are frozen from the documented convention:
destination as 4 big-endian bytes concatenated with the originate
timestamp (4 bytes) or id+seq (2+2 bytes); low 32 bits = last four digest
bytes big-endian; id gets the high half.
"""

import json
import os
import random
import subprocess
import sys
from hashlib import md5
from ipaddress import IPv4Address
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import at_ms, echo_reply, former_verify_reply, pair_for
from icmpstamp import wire
from icmpstamp import probes
from icmpstamp.clock import ms_since_utc_midnight
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

DEST = "192.0.2.1"
NOON_ISH = at_ms(45_296_789)  # 12:34:56.789Z


def reference_low32(payload: bytes) -> int:
    """Independent MD5 oracle: last four digest bytes, big-endian."""
    return int.from_bytes(md5(payload).digest()[-4:], "big")


def rewrite_mask(bits):
    """An XOR mask for a field: 0 keeps it, and half the draws rewrite it,
    so every subset of the rewritten fields is likely."""
    return st.one_of(st.just(0), st.integers(1, 2**bits - 1))


class TestStandard:
    def test_fields(self):
        probe = make_standard(DEST, NOON_ISH)
        msg = probe.request
        assert probe.kind is ProbeKind.STANDARD
        assert msg.orig_ts == 45_296_789
        assert msg.recv_ts == 0 and msg.xmit_ts == 0
        expected = reference_low32(bytes([192, 0, 2, 1]) + (45_296_789).to_bytes(4, "big"))
        assert (msg.ident, msg.seq) == (expected >> 16, expected & 0xFFFF)
        assert (msg.ident, msg.seq) == (0x2C15, 0x3156)  # frozen from the oracle

    def test_deterministic(self):
        a = make_standard(DEST, NOON_ISH)
        b = make_standard(DEST, NOON_ISH)
        assert (a.request.ident, a.request.seq) == (b.request.ident, b.request.seq)

    def test_checksum_valid(self):
        probe = make_standard(DEST, NOON_ISH)
        assert wire.verify_checksum(wire.encode(probe.request))


class TestBadClock:
    def test_orig_from_hash(self):
        probe = make_bad_clock(DEST, 0x0001, 0x0002, NOON_ISH)
        expected = reference_low32(bytes([192, 0, 2, 1, 0x00, 0x01, 0x00, 0x02]))
        assert probe.request.orig_ts == expected == 0xA5780DF3
        assert probe.request.recv_ts == 0 and probe.request.xmit_ts == 0

    def test_deterministic(self):
        a = make_bad_clock(DEST, 7, 9, NOON_ISH)
        b = make_bad_clock(DEST, 7, 9, NOON_ISH)
        assert a.request.orig_ts == b.request.orig_ts

    def test_checksum_valid(self):
        probe = make_bad_clock(DEST, 7, 9, NOON_ISH)
        assert wire.verify_checksum(wire.encode(probe.request))

    def test_msb_set_about_half_the_time(self):
        # The hash output should not correlate with time of day.
        values = [
            make_bad_clock(DEST, i, (i * 7) & 0xFFFF, 0).request.orig_ts for i in range(2000)
        ]
        msb_fraction = sum(1 for v in values if v >> 31) / len(values)
        assert 0.44 < msb_fraction < 0.56


class TestBadChecksum:
    def test_never_verifies(self):
        rng = random.Random(3)
        for _ in range(50):
            probe = make_bad_checksum(DEST, NOON_ISH, rng)
            assert not wire.verify_checksum(wire.encode(probe.request))

    def test_same_orig_and_id_as_standard(self):
        rng = random.Random(4)
        probe = make_bad_checksum(DEST, NOON_ISH, rng)
        std = make_standard(DEST, NOON_ISH)
        assert probe.request.orig_ts == std.request.orig_ts
        assert (probe.request.ident, probe.request.seq) == (std.request.ident, std.request.seq)

    def test_wrong_checksums_roughly_uniform(self):
        # Chi-square over 16 buckets of the 16-bit space; 10,000 samples.
        rng = random.Random(5)
        counts = [0] * 16
        samples = 10_000
        for _ in range(samples):
            probe = make_bad_checksum(DEST, NOON_ISH, rng)
            counts[probe.request.checksum >> 12] += 1
        expected = samples / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 37.70  # chi-square 99.9% quantile, 15 dof

    @given(st.integers(0, 2**32 - 1), st.integers(0, 86_399_999), st.integers(1, 20))
    def test_same_draws_as_redraw_loop(self, seed, ms, count):
        # The former construction: re-encode each drawn checksum and keep
        # the first that fails verification.
        def redraw_loop(dest, now, rng):
            base = make_standard(dest, now)
            while True:
                candidate = base.request._replace(checksum=rng.getrandbits(16))
                if not wire.verify_checksum(wire.encode(candidate)):
                    return candidate

        ours, theirs = random.Random(seed), random.Random(seed)
        for i in range(count):
            now = at_ms((ms + 997 * i) % 86_400_000)
            probe = make_bad_checksum(DEST, now, ours)
            assert probe.request == redraw_loop(DEST, now, theirs)
            assert ours.getstate() == theirs.getstate()

    def test_both_zero_checksums_redrawn(self):
        # A message whose valid checksum is 0x0000 also verifies with
        # 0xFFFF (ones'-complement zero); find such a message and force a
        # generator that offers both before a wrong value.
        for ms in range(86_400_000 // 2, 86_400_000):
            if make_standard(DEST, at_ms(ms)).request.checksum == 0:
                break
        else:
            pytest.fail("no zero-checksum probe found")

        class Scripted(random.Random):
            def getrandbits(self, k):
                return self.draws.pop(0)

        rng = Scripted()
        rng.draws = [0x0000, 0xFFFF, 0x1234]
        assert make_bad_checksum(DEST, at_ms(ms), rng).request.checksum == 0x1234
        assert rng.draws == []


class TestDuplicate:
    def test_midnight_all_zero(self):
        probe = make_duplicate(DEST, at_ms(0))
        msg = probe.request
        assert msg.orig_ts == msg.recv_ts == msg.xmit_ts == 0

    def test_three_equal_fields(self):
        msg = make_duplicate(DEST, NOON_ISH).request
        assert msg.orig_ts == msg.recv_ts == msg.xmit_ts == 45_296_789

    def test_shares_id_seq_with_standard(self):
        dup = make_duplicate(DEST, NOON_ISH).request
        std = make_standard(DEST, NOON_ISH).request
        assert (dup.ident, dup.seq) == (std.ident, std.seq)


class TestVerifyReply:
    def test_clean_echo(self):
        probe = make_standard(DEST, NOON_ISH)
        reply = echo_reply(probe, 1, 2)
        assert verify_reply(probe, reply) is TamperVerdict.CLEAN

    def test_originate_modified(self):
        probe = make_standard(DEST, NOON_ISH)
        reply = echo_reply(probe, 1, 2)
        tampered = wire.TimestampMessage(
            14,
            ident=reply.ident,
            seq=reply.seq,
            orig_ts=reply.orig_ts + 1,
            recv_ts=1,
            xmit_ts=2,
        )
        assert verify_reply(probe, tampered) is TamperVerdict.ORIGINATE_MODIFIED

    def test_id_modified(self):
        probe = make_standard(DEST, NOON_ISH)
        reply = echo_reply(probe, 1, 2)
        tampered = wire.TimestampMessage(
            14,
            ident=reply.ident ^ 1,
            seq=reply.seq,
            orig_ts=reply.orig_ts,
            recv_ts=1,
            xmit_ts=2,
        )
        assert verify_reply(probe, tampered) is TamperVerdict.ID_SEQ_MODIFIED

    def test_bad_clock_round_trip(self):
        probe = make_bad_clock(DEST, 0x1234, 0x5678, NOON_ISH)
        reply = echo_reply(probe, 5, 6)
        assert verify_reply(probe, reply) is TamperVerdict.CLEAN

    def test_bad_clock_id_modified(self):
        probe = make_bad_clock(DEST, 0x1234, 0x5678, NOON_ISH)
        reply = echo_reply(probe, 5, 6)
        tampered = wire.TimestampMessage(
            14,
            ident=reply.ident,
            seq=reply.seq ^ 0x8000,
            orig_ts=reply.orig_ts,
            recv_ts=5,
            xmit_ts=6,
        )
        assert verify_reply(probe, tampered) is TamperVerdict.ID_SEQ_MODIFIED

    def test_request_type_rejected(self):
        probe = make_standard(DEST, NOON_ISH)
        with pytest.raises(ValueError):
            verify_reply(probe, probe.request)

    @given(
        kind=st.sampled_from(ProbeKind),
        dest=st.integers(0, 2**32 - 1).map(lambda n: str(IPv4Address(n))),
        now=st.integers(0, 86_400_000_000 - 1).map(lambda us: at_ms(0) + us),
        bad_clock_id_seq=st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        rng_seed=st.integers(0, 2**32 - 1),
        orig_mask=rewrite_mask(32),
        ident_mask=rewrite_mask(16),
        seq_mask=rewrite_mask(16),
    )
    def test_agrees_with_former_hashing_verifier(
        self, kind, dest, now, bad_clock_id_seq, rng_seed, orig_mask, ident_mask, seq_mask,
    ):
        if kind is ProbeKind.STANDARD:
            probe = make_standard(dest, now)
        elif kind is ProbeKind.BAD_CLOCK:
            probe = make_bad_clock(dest, *bad_clock_id_seq, now)
        elif kind is ProbeKind.BAD_CHECKSUM:
            probe = make_bad_checksum(dest, now, random.Random(rng_seed))
        else:
            probe = make_duplicate(dest, now)
        echo = echo_reply(probe, 11, 12)
        reply = echo._replace(
            orig_ts=echo.orig_ts ^ orig_mask,
            ident=echo.ident ^ ident_mask,
            seq=echo.seq ^ seq_mask,
        )
        expected = former_verify_reply(probe, reply, dest)
        if expected is TamperVerdict.CLEAN and (ident_mask or seq_mask):
            # The one change: a rewritten (id, seq) that reproduces a
            # bad-clock probe's hashed originate timestamp (pinned below).
            expected = TamperVerdict.ID_SEQ_MODIFIED
        assert verify_reply(probe, reply) is expected

    def test_bad_clock_hash_collision_is_id_seq_modified(self):
        # (1, 0x2C09) and (1, 0x8056) hash to the same originate timestamp
        # for DEST, found by a birthday search over (id, seq).
        first, second = (make_bad_clock(DEST, 1, seq, 0) for seq in (0x2C09, 0x8056))
        assert first.request.orig_ts == second.request.orig_ts == 0xD37D6348
        probe = make_bad_clock(DEST, 1, 0x2C09, NOON_ISH)
        reply = echo_reply(probe, 5, 6)._replace(seq=0x8056)
        assert former_verify_reply(probe, reply, DEST) is TamperVerdict.CLEAN
        assert verify_reply(probe, reply) is TamperVerdict.ID_SEQ_MODIFIED

    def test_hashes_nothing(self, monkeypatch):
        standard = make_standard(DEST, NOON_ISH)
        bad_clock = make_bad_clock(DEST, 0x1234, 0x5678, NOON_ISH)
        standard_echo = echo_reply(standard, 1, 2)
        bad_clock_echo = echo_reply(bad_clock, 1, 2)

        def no_md5(*args):
            raise AssertionError("verify_reply hashed")

        monkeypatch.setattr(probes, "md5", no_md5)
        cases = [
            (standard, standard_echo, TamperVerdict.CLEAN),
            (bad_clock, bad_clock_echo, TamperVerdict.CLEAN),
            (standard, standard_echo._replace(orig_ts=7), TamperVerdict.ORIGINATE_MODIFIED),
            (standard, standard_echo._replace(ident=standard_echo.ident ^ 1),
             TamperVerdict.ID_SEQ_MODIFIED),
            (bad_clock, bad_clock_echo._replace(seq=0), TamperVerdict.ID_SEQ_MODIFIED),
        ]
        for probe, reply, verdict in cases:
            assert verify_reply(probe, reply) is verdict

    @given(st.integers(0, 63), st.sampled_from(["standard", "duplicate", "bad_clock"]))
    def test_any_bit_flip_in_verified_fields_detected(self, bit, kind):
        if kind == "standard":
            probe = make_standard(DEST, NOON_ISH)
        elif kind == "duplicate":
            probe = make_duplicate(DEST, NOON_ISH)
        else:
            probe = make_bad_clock(DEST, 0x0A0B, 0x0C0D, NOON_ISH)
        base = echo_reply(probe, 11, 12)
        ident, seq, orig = base.ident, base.seq, base.orig_ts
        if bit < 16:
            ident ^= 1 << bit
        elif bit < 32:
            seq ^= 1 << (bit - 16)
        else:
            orig ^= 1 << (bit - 32)
        flipped = wire.TimestampMessage(
            14, ident=ident, seq=seq, orig_ts=orig, recv_ts=11, xmit_ts=12
        )
        assert verify_reply(probe, flipped) is not TamperVerdict.CLEAN


def former_probe(kind, dest, now, rng):
    """The probe as the chain of calls before ``craft`` built it: hash with
    the oracle, then a message with a valid checksum, or one drawn wrong."""
    packed = IPv4Address(dest).packed
    recv = 0
    if kind is ProbeKind.BAD_CLOCK:
        ident, seq = rng.getrandbits(16), rng.getrandbits(16)
        orig = reference_low32(packed + ident.to_bytes(2, "big") + seq.to_bytes(2, "big"))
    else:
        orig = ms_since_utc_midnight(now)
        low32 = reference_low32(packed + orig.to_bytes(4, "big"))
        ident, seq = low32 >> 16, low32 & 0xFFFF
        if kind is ProbeKind.DUPLICATE:
            recv = orig
    msg = wire.fill_checksum(
        wire.TimestampMessage(wire.TIMESTAMP_REQUEST, 0, 0, ident, seq, orig, recv, recv)
    )
    if kind is ProbeKind.BAD_CHECKSUM:
        while True:
            candidate = msg._replace(checksum=rng.getrandbits(16))
            if not wire.verify_checksum(wire.encode(candidate)):
                msg = candidate
                break
    return ProbeOutcome(kind, now, msg)


@given(
    kind=st.sampled_from(ProbeKind),
    dest=st.integers(0, 2**32 - 1).map(lambda n: str(IPv4Address(n))),
    now=st.integers(0, 2**53),
    seed=st.integers(0, 2**32 - 1),
)
def test_craft_is_the_probe_makers_and_the_encoder(kind, dest, now, seed):
    ours, makers, former = (random.Random(seed) for _ in range(3))
    key, orig, checksum, image = probes.craft(kind, probes.dest_bytes(dest), now, ours)
    probe = probes.sent_probe(kind, now, key, orig, checksum)
    if kind is ProbeKind.STANDARD:
        made = make_standard(dest, now)
    elif kind is ProbeKind.BAD_CLOCK:
        made = make_bad_clock(dest, makers.getrandbits(16), makers.getrandbits(16), now)
    elif kind is ProbeKind.BAD_CHECKSUM:
        made = make_bad_checksum(dest, now, makers)
    else:
        made = make_duplicate(dest, now)
    expected = former_probe(kind, dest, now, former)
    assert probe == made == expected
    assert type(probe) is ProbeOutcome and type(probe.request) is wire.TimestampMessage
    # As sent, a probe is its own unanswered outcome.
    assert probe.reply is probe.arrival is probe.tamper is None
    # The same draws, in the same order.
    assert ours.getstate() == makers.getstate() == former.getstate()
    assert image == wire.encode(probe.request)
    assert wire.verify_checksum(image) is (kind is not ProbeKind.BAD_CHECKSUM)


@given(
    kind=st.sampled_from(ProbeKind),
    packed=st.binary(min_size=4, max_size=4),
    now=st.integers(0, 2**53),
    seed=st.integers(0, 2**32 - 1),
)
def test_crafted_checksum_is_message_checksum(kind, packed, now, seed):
    # ``craft`` computes in line what ``wire.fill_checksum`` computes.
    key, orig, checksum, image = probes.craft(kind, packed, now, random.Random(seed))
    if kind is not ProbeKind.BAD_CLOCK:
        assert orig == ms_since_utc_midnight(now)
    stamp = orig if kind is ProbeKind.DUPLICATE else 0
    tail = (key >> 16, key & 0xFFFF, orig, stamp, stamp)
    valid = wire.fill_checksum(wire.TimestampMessage(wire.TIMESTAMP_REQUEST, 0, 0, *tail)).checksum
    if kind is ProbeKind.BAD_CHECKSUM:
        assert image == wire.LAYOUT.pack(wire.TIMESTAMP_REQUEST, 0, checksum, *tail)
        assert not wire.verify_checksum(image)
    else:
        assert checksum == valid
        assert image == wire.LAYOUT.pack(wire.TIMESTAMP_REQUEST, 0, valid, *tail)


# A reply as its responder sent it: echoed, or with one field group
# rewritten in flight as the simulator's tamper modes rewrite it, and the
# verdict that names it.
_REWRITES = {
    None: (lambda msg: msg, TamperVerdict.CLEAN),
    "orig_ts": (
        lambda msg: msg._replace(orig_ts=(msg.orig_ts + 1) & 0xFFFFFFFF),
        TamperVerdict.ORIGINATE_MODIFIED,
    ),
    "id_seq": (lambda msg: msg._replace(ident=msg.ident ^ 1), TamperVerdict.ID_SEQ_MODIFIED),
}


@given(
    kind=st.sampled_from(ProbeKind),
    packed=st.binary(min_size=4, max_size=4),
    now=st.integers(0, 2**53),
    seed=st.integers(0, 2**32 - 1),
    stamps=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    rewrite=st.sampled_from(list(_REWRITES)),
    arrival=st.integers(0, 2**53),
)
def test_sent_probe_with_a_reply_is_the_two_step_build(
    kind, packed, now, seed, stamps, rewrite, arrival,
):
    # Given the 20 reply bytes the engine keeps, ``sent_probe`` builds what
    # the unanswered probe and the decoded reply built in two steps.
    key, orig, checksum, _ = probes.craft(kind, packed, now, random.Random(seed))
    probe = probes.sent_probe(kind, now, key, orig, checksum)
    # Unanswered, it is the probe as before: the former request tail, in
    # which a duplicate presets all three timestamps.
    stamp = orig if kind is ProbeKind.DUPLICATE else 0
    request = (wire.TIMESTAMP_REQUEST, 0, checksum, key >> 16, key & 0xFFFF, orig, stamp, stamp)
    assert probe == ProbeOutcome(kind, now, wire.TimestampMessage(*request))
    # The engine passes an unanswered probe's unset arrival along.
    assert probes.sent_probe(kind, now, key, orig, checksum, None, 0) == probe
    change, verdict = _REWRITES[rewrite]
    data = wire.encode(wire.fill_checksum(change(echo_reply(probe, *stamps))))
    answered = probes.sent_probe(kind, now, key, orig, checksum, data, arrival)
    assert answered == pair_for(probe, wire.decode(data))._replace(arrival=arrival)
    assert type(answered) is ProbeOutcome and type(answered.reply) is wire.TimestampMessage
    assert answered.tamper is verdict


def test_sent_probe_verifies_through_the_module_global(monkeypatch):
    # A wrapper put on ``probes.verify_reply`` sees every bind.
    verdicts = []

    def counting(probe, reply):
        verdicts.append(verify_reply(probe, reply))
        return verdicts[-1]

    monkeypatch.setattr(probes, "verify_reply", counting)
    key, orig, checksum, _ = probes.craft(ProbeKind.STANDARD, bytes(4), NOON_ISH, None)
    probe = probes.sent_probe(ProbeKind.STANDARD, NOON_ISH, key, orig, checksum)
    data = wire.encode(echo_reply(probe, 1, 2))
    answered = probes.sent_probe(ProbeKind.STANDARD, NOON_ISH, key, orig, checksum, data, 5)
    assert verdicts == [TamperVerdict.CLEAN] and answered.tamper is TamperVerdict.CLEAN


# Crafts each case of a JSON list read from stdin, with CPython's built-in
# MD5 blocked as in a build made without it, and writes the results.
_CRAFT_WITHOUT_BUILTIN_MD5 = """
import hashlib, json, random, sys
sys.modules["_md5"] = None
from icmpstamp import probes
assert probes.md5.func is hashlib.md5, probes.md5
out = []
for kind, dest, now, seed in json.load(sys.stdin):
    key, orig, checksum, image = probes.craft(
        probes.ProbeKind(kind), probes.dest_bytes(dest), now, random.Random(seed)
    )
    out.append([key, orig, checksum, image.hex()])
json.dump(out, sys.stdout)
"""


def test_hashes_with_the_built_in_md5_where_there_is_one():
    builtin = pytest.importorskip("_md5")
    assert probes.md5 is builtin.md5


@settings(max_examples=5, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([kind.value for kind in ProbeKind]),
        st.integers(0, 2**32 - 1).map(lambda n: str(IPv4Address(n))),
        st.integers(0, 2**53),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1, max_size=40,
))
def test_craft_without_the_built_in_md5_is_the_same(cases):
    src = str(Path(probes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-c", _CRAFT_WITHOUT_BUILTIN_MD5], input=json.dumps(cases),
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    expected = []
    for kind, dest, now, seed in cases:
        key, orig, checksum, image = probes.craft(
            ProbeKind(kind), probes.dest_bytes(dest), now, random.Random(seed)
        )
        expected.append([key, orig, checksum, image.hex()])
    assert json.loads(done.stdout) == expected


class TestDestBytes:
    @pytest.mark.parametrize(
        "text",
        ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "1.2.3.04", " 1.2.3.4",
         "1.2.3.4 ", "1..3.4", "0x1.2.3.4", "1.2.3.4/32", "::1", "1.2.3.-4", "\u0661.2.3.4"],
    )
    def test_rejects_what_ipaddress_rejects(self, text):
        with pytest.raises(ValueError):
            IPv4Address(text)
        with pytest.raises(ValueError):
            probes.dest_bytes(text)

    @given(st.text(alphabet="0123456789.x -", max_size=17))
    def test_agrees_with_ipaddress(self, text):
        try:
            expected = IPv4Address(text).packed
        except ValueError:
            expected = None
        try:
            got = probes.dest_bytes(text)
        except ValueError:
            got = None
        assert got == expected

    @given(st.integers(0, 2**32 - 1))
    def test_every_address_round_trips(self, n):
        addr = IPv4Address(n)
        assert probes.dest_bytes(str(addr)) == addr.packed


def test_duplicate_probe_carries_its_kind_and_send_time():
    probe = make_duplicate(DEST, NOON_ISH)
    assert probe.kind is ProbeKind.DUPLICATE
    assert probe.send_time == NOON_ISH
    later = make_duplicate(DEST, NOON_ISH + 3_000_000)
    assert later.request.orig_ts == 45_296_789 + 3000
