"""Result persistence: lossless round-trip, stable bytes, observation rebuild,
the line template against ``json.dumps``, and the reader's type checks."""

import json
import random
import re
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from builders import EPOCH, at_ms, echo_reply, epoch_us, pair_for
from icmpstamp import results
from icmpstamp.classify import (
    Correctness,
    Fingerprint,
    HostObservation,
    ImplClass,
    Timekeeping,
    fingerprint_observation,
)
from icmpstamp.clock import DAY_MS
from icmpstamp.engine import ScanConfig, run_scan
from icmpstamp.probes import (
    ProbeKind,
    ProbeOutcome,
    TamperVerdict,
    make_bad_clock,
    make_duplicate,
    make_standard,
)
from icmpstamp.reports import merge_records
from icmpstamp.responder import SimNetwork
from icmpstamp.results import (
    ResultRecord,
    observation_from_record,
    read_records,
    record_from_dict,
    record_from_line,
    record_to_line,
    write_records,
)
from icmpstamp.wire import TimestampMessage, decode, encode

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sample_record(target="10.7.0.1", answered=True):
    rng = random.Random(5)
    t0 = 41_000_000 + rng.randrange(1000)
    probes = [
        make_standard(target, at_ms(t0)),
        make_bad_clock(target, rng.getrandbits(16), rng.getrandbits(16), at_ms(t0 + 10)),
        make_duplicate(target, at_ms(t0 + 3000)),
    ]
    outcomes = []
    pairs = []
    for probe in probes:
        if answered:
            reply = echo_reply(probe, t0 + 40, t0 + 40)
            pair = pair_for(probe, reply)
            pairs.append(pair)
            outcomes.append(pair)
        else:
            outcomes.append(probe)
    obs = HostObservation(pairs, duplicate_replies=1)
    fp = fingerprint_observation(obs) if answered else None
    if fp is None:
        from icmpstamp.classify import Correctness, Fingerprint, ImplClass, Timekeeping

        fp = Fingerprint(frozenset({ImplClass.UNKNOWN}), Timekeeping.UNKNOWN, Correctness.INCORRECT)
    return ResultRecord(target, "lab", tuple(outcomes), fp, duplicate_replies=1)


class TestRoundTrip:
    def test_answered_record(self):
        rec = sample_record()
        assert record_from_line(record_to_line(rec)) == rec

    def test_unanswered_probes_survive(self):
        rec = sample_record(answered=False)
        assert record_from_line(record_to_line(rec)) == rec

    def test_read_back_types(self):
        # Equality alone would also hold for bare tuples of the same fields.
        rec = record_from_line(record_to_line(sample_record()))
        assert type(rec) is ResultRecord and type(rec.fingerprint) is Fingerprint
        for outcome in rec.outcomes:
            assert type(outcome) is ProbeOutcome
            for msg in (outcome.request, outcome.reply):
                assert type(msg) is TimestampMessage
                assert type(decode(encode(msg))) is TimestampMessage
                assert decode(encode(msg)) == msg
        outcome = rec.outcomes[0]
        for obj, name in [(rec, "target"), (rec.fingerprint, "classes"), (outcome, "reply"),
                          (outcome, "send_time"), (outcome.reply, "recv_ts")]:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))

    def test_line_bytes_are_stable(self):
        rec = sample_record()
        assert record_to_line(rec) == record_to_line(rec)

    def test_file_round_trip(self, tmp_path):
        records = [sample_record(f"10.7.1.{i}") for i in range(1, 6)]
        path = tmp_path / "out.jsonl"
        assert write_records(path, records) == 5
        assert read_records(path) == records

    def test_read_records_returns_a_list(self, tmp_path):
        # The benchmark's reclassify workload takes its len() and reads it
        # twice; a streaming reader must be a function of its own.
        records = [sample_record(f"10.7.2.{i}") for i in range(1, 4)]
        path = tmp_path / "out.jsonl"
        write_records(path, records)
        read = read_records(path)
        assert type(read) is list and len(read) == 3
        assert list(read) == list(read) == records

    def test_bad_line_named(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"not": "a record"}\n')
        try:
            read_records(path)
        except ValueError as exc:
            assert "out.jsonl:1" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_non_object_line_named(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text(record_to_line(sample_record()) + "\n[]\n")
        with pytest.raises(ValueError, match="out.jsonl:2: bad record"):
            read_records(path)


def test_observation_rebuild_reclassifies_identically():
    rec = sample_record()
    obs = observation_from_record(rec)
    assert fingerprint_observation(obs) == rec.fingerprint


def former_record_to_dict(rec):
    """The dict the line used to be dumped from, with sorted keys."""

    def message(m):
        return {"type": m.icmp_type, "code": m.code, "checksum": m.checksum, "id": m.ident,
                "seq": m.seq, "orig": m.orig_ts, "recv": m.recv_ts, "xmit": m.xmit_ts}

    def instant(us):
        t = EPOCH + timedelta(microseconds=us)
        return t.isoformat(timespec="microseconds")

    fp = rec.fingerprint
    return {
        "target": rec.target,
        "vantage": rec.vantage,
        "probes": [
            {
                "kind": o.kind.value,
                "send_time": instant(o.send_time),
                "round": 1 if o.kind is ProbeKind.DUPLICATE else 0,
                "request": message(o.request),
                "reply": message(o.reply) if o.reply else None,
                "arrival": instant(o.arrival) if o.arrival else None,
                "tamper": o.tamper.value if o.tamper else None,
            }
            for o in rec.outcomes
        ],
        "duplicate_replies": rec.duplicate_replies,
        "fingerprint": {
            "target": rec.target,
            "classes": sorted(c.value for c in fp.classes),
            "timekeeping": fp.timekeeping.value,
            "correctness": fp.correctness.value,
            "tz_offset": fp.tz_offset,
            # The flags as JSON reads them back: a pair of lone surrogates
            # comes back as the one character it encodes.
            "flags": sorted(set(json.loads(json.dumps(list(fp.flags))))),
        },
    }


def former_line(rec):
    return json.dumps(former_record_to_dict(rec), sort_keys=True, separators=(",", ":"))


# Characters JSON must escape or that stress ASCII escaping, lone
# surrogates included, mixed into arbitrary text.
awkward = st.characters() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff"]
)
texts = st.text(awkward, max_size=8)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)


def messages_with(orig):
    return st.builds(
        TimestampMessage, st.sampled_from([13, 14]), st.integers(0, 0xFF), u16, u16, u16,
        orig, u32, u32,
    )


messages = messages_with(u32)
# The reader refuses a standard request whose originate is not a time of day.
standard_requests = messages_with(st.integers(0, DAY_MS - 1))
# Every instant a line can hold: any UTC time of the calendar, whole
# seconds among them.
instants = st.datetimes(timezones=st.just(timezone.utc)).flatmap(
    lambda t: st.sampled_from([t, t.replace(microsecond=0)])
).map(epoch_us)


@st.composite
def records(draw):
    target = draw(texts)
    outcomes = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(ProbeKind))
        request = draw(standard_requests if kind is ProbeKind.STANDARD else messages)
        probe = ProbeOutcome(kind, draw(instants), request)
        if draw(st.booleans()):
            outcomes.append(probe)
        else:
            outcomes.append(probe._replace(reply=draw(messages), arrival=draw(instants),
                                           tamper=draw(st.sampled_from(TamperVerdict))))
    fingerprint = Fingerprint(
        draw(st.frozensets(st.sampled_from(ImplClass))),
        draw(st.sampled_from(Timekeeping)),
        draw(st.sampled_from(Correctness)),
        draw(st.none() | st.integers(-14, 14) | st.floats(allow_nan=False, allow_infinity=False)),
        draw(st.frozensets(texts, max_size=4)),
    )
    return ResultRecord(target, draw(texts), tuple(outcomes), fingerprint,
                        draw(st.integers(0, 2**40)))


@given(records(), texts)
def test_a_fingerprint_target_not_the_records_is_rejected(rec, other):
    # The writer cannot put another target in the fingerprint, so the
    # reader is fed one by hand.
    d = json.loads(record_to_line(rec))
    d["fingerprint"]["target"] = other
    line = json.dumps(d)
    # Both as JSON reads them: a pair of lone surrogates reads as one character.
    target, read = d["target"], json.loads(line)["fingerprint"]["target"]
    if read == target:
        assert record_to_line(record_from_line(line)) == record_to_line(rec)
        return
    with pytest.raises(ValueError) as info:
        record_from_line(line)
    assert str(info.value) == f"fingerprint target {read!r} is not the record's {target!r}"


class TestLineTemplate:
    @given(records())
    def test_built_records(self, rec):
        assert record_to_line(rec) == former_line(rec)

    @given(records())
    def test_parsed_records(self, rec):
        line = former_line(rec)
        parsed = record_from_line(line)
        assert record_to_line(parsed) == former_line(parsed) == line

    def test_surrogate_pair_flags(self):
        # "\ud800\udfff" is written as the escape of U+103FF and read back as
        # that character, which sorts after "\udfff" and equals the third flag.
        fp = Fingerprint(frozenset(), Timekeeping.MILLISECOND, Correctness.CORRECT, None,
                         frozenset({'"\ud800\udfff', '"\udfff', '"\U000103ff'}))
        line = record_to_line(ResultRecord("t", "v", (), fp))
        assert '"flags":["\\"\\udfff","\\"\\ud800\\udfff"]' in line
        assert record_to_line(record_from_line(line)) == line

    @given(records(), texts)
    def test_merged_records(self, rec, other_vantage):
        (merged,) = merge_records([rec], [ResultRecord(rec.target, other_vantage, (), rec.fingerprint)])
        assert merged.outcomes == ()
        assert record_to_line(merged) == former_line(merged)

    def test_engine_records(self):
        cfg = ScanConfig(str(FIXTURES / "demo_targets.txt"), rate_pps=200, seed=7, vantage="demo")
        scanned = list(run_scan(cfg, SimNetwork.from_file(FIXTURES / "demo_hosts.txt")))
        assert len(scanned) == 19
        for rec in scanned:
            assert record_to_line(rec) == former_line(rec)

    @pytest.mark.parametrize("offsets", [[0, 0.0, -0.0, 1, 1.0], [1.0, 1, -0.0, 0.0, 0]])
    def test_offsets_of_one_verdict_are_written_as_they_are(self, offsets):
        # 0, 0.0 and -0.0 are equal, as are 1 and 1.0, yet each is written
        # as itself; the verdict's text is cached without its offset.
        fp = sample_record().fingerprint
        for tz_offset in offsets:
            rec = ResultRecord("t", "v", (), fp._replace(tz_offset=tz_offset))
            line = record_to_line(rec)
            assert line == former_line(rec)
            assert record_to_line(record_from_line(line)) == line

    def test_the_verdict_cache_is_bounded(self):
        fp = sample_record().fingerprint
        bound = results._MAX_FINGERPRINTS
        for n in range(bound + 10):
            rec = ResultRecord("t", "v", (), fp._replace(flags=frozenset({f"flag{n}"})))
            assert record_to_line(rec) == former_line(rec)
            assert len(results._FINGERPRINT_TEXT) <= bound


@given(instants)
@example(0)
@example(-1)
@example(epoch_us(datetime.min.replace(tzinfo=timezone.utc)))
@example(epoch_us(datetime.max.replace(tzinfo=timezone.utc)))
def test_instant_text_is_isoformat_and_reads_back(instant_us):
    # Every instant is written in UTC.
    probe = ProbeOutcome(ProbeKind.STANDARD, instant_us, TimestampMessage(13))
    fp = Fingerprint(frozenset(), Timekeeping.UNKNOWN, Correctness.INCORRECT)
    line = record_to_line(ResultRecord("t", "v", (probe,), fp))
    expected = EPOCH + timedelta(microseconds=instant_us)
    text = json.loads(line)["probes"][0]["send_time"]
    assert text == expected.isoformat(timespec="microseconds")
    assert text.endswith("+00:00")
    assert record_from_line(line).outcomes[0].send_time == instant_us


def moved(text, tz):
    """The instant ``text`` names, written in ``tz``."""
    return datetime.fromisoformat(text).astimezone(tz).isoformat(timespec="microseconds")


@pytest.mark.parametrize("probe_no, key", [(0, "arrival"), (2, "send_time")])
def test_instants_in_different_offsets_are_a_bad_record(tmp_path, probe_no, key):
    # The same instant, written in another offset than the record's others,
    # which are in UTC as every instant must be.
    d = json.loads(record_to_line(sample_record()))
    probe = d["probes"][probe_no]
    probe[key] = text = moved(probe[key], timezone(timedelta(hours=1)))
    path = tmp_path / "out.jsonl"
    path.write_text(record_to_line(sample_record()) + "\n" + json.dumps(d) + "\n")
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == (
        f"{path}:2: bad record: {key} must be in UTC (+00:00), got {text!r}"
    )


# Every offset ``datetime`` can hold but zero, to the microsecond.
nonzero_offsets = st.integers(-86_399_999_999, 86_399_999_999).filter(bool).map(
    lambda us: timezone(timedelta(microseconds=us))
)


@given(records(), nonzero_offsets, st.sampled_from(["send_time", "arrival"]))
def test_any_instant_off_utc_is_refused(rec, tz, key):
    d = json.loads(record_to_line(rec))
    instants = [p for p in d["probes"] if p[key] is not None]
    if not instants:
        return
    # The instant's UTC wall time with ``tz``'s offset: moving the instant
    # itself overflows at either end of the calendar.
    offset = datetime(2000, 1, 1, tzinfo=tz).isoformat()[19:]
    instants[-1][key] = instants[-1][key][:-6] + offset
    with pytest.raises(ValueError, match=f"^{key} must be in UTC"):
        record_from_line(json.dumps(d))


@given(records(), st.integers(1, 999_999), st.sampled_from("+-"), st.booleans(),
       st.sampled_from(["send_time", "arrival"]))
def test_an_offset_of_a_fraction_of_a_second_is_refused(rec, us, sign, trimmed, key):
    # ``fromisoformat`` reads ``+00:00:00.5`` as UTC, dropping the fraction.
    d = json.loads(record_to_line(rec))
    instants = [p for p in d["probes"] if p[key] is not None]
    if not instants:
        return
    fraction = f"{us:06d}".rstrip("0") if trimmed else f"{us:06d}"
    text = instants[-1][key][:-6] + f"{sign}00:00:00.{fraction}"
    instants[-1][key] = text
    with pytest.raises(ValueError) as info:
        record_from_line(json.dumps(d))
    assert str(info.value) == f"{key} must be in UTC (+00:00), got {text!r}"


@pytest.mark.parametrize("text", [
    "2018-10-06T09:13:27+00:00:00.5",
    "2000-01-01T00:00:00.000000+00:00:00.000001",
    "2018-10-06T09:13:27-00:00:00,5",
    "20181006T091327+000000.5",
])
def test_a_fractional_zero_offset_is_not_read_as_utc(tmp_path, text):
    # Each of these once read as UTC, its offset's fraction dropped.
    d = json.loads(record_to_line(sample_record()))
    d["probes"][0]["send_time"] = text
    path = tmp_path / "frac.jsonl"
    path.write_text(json.dumps(d) + "\n")
    with pytest.raises(ValueError) as info:
        read_records(path)
    assert str(info.value) == (
        f"{path}:1: bad record: send_time must be in UTC (+00:00), got {text!r}"
    )


# Python 3.10's ``fromisoformat`` reads only ``+HH:MM[:SS[.ffffff]]`` offsets.
ZERO_OFFSETS = ["+00:00", "+00:00:00", "-00:00"] + (
    ["Z", "+0000", "+00"] if sys.version_info >= (3, 11) else []
)


@pytest.mark.parametrize("suffix", ZERO_OFFSETS)
def test_a_zero_offset_with_no_fraction_is_utc(suffix):
    d = json.loads(record_to_line(sample_record()))
    written = d["probes"][0]["send_time"]
    d["probes"][0]["send_time"] = written[:-6] + suffix
    assert record_from_line(json.dumps(d)) == sample_record()


# Where in a written line's dict to put what.  Each value was once read
# without complaint, into a record that could not be written back as read
# or that broke a report later.
ILL_TYPED = {
    "code_bool": (("probes", 0, "request", "code"), True),
    "seq_float": (("probes", 0, "reply", "seq"), 17972.0),
    "round_string": (("probes", 0, "round"), "0"),
    "round_list": (("probes", 0, "round"), [0]),
    "duplicate_replies_string": (("duplicate_replies",), "1"),
    "duplicate_replies_list": (("duplicate_replies",), [1]),
    "duplicate_replies_negative": (("duplicate_replies",), -3),
    "target_int": (("target",), 167_772_161),
    "fingerprint_target_null": (("fingerprint", "target"), None),
    "vantage_null": (("vantage",), None),
    "flag_int": (("fingerprint", "flags"), [1]),
    "flags_string": (("fingerprint", "flags"), "tampered_replies"),
    "tz_offset_nan": (("fingerprint", "tz_offset"), float("nan")),
    "tz_offset_string": (("fingerprint", "tz_offset"), "x"),
    "tz_offset_bool": (("fingerprint", "tz_offset"), True),
    "reply_empty_object": (("probes", 0, "reply"), {}),
    "tamper_empty_string": (("probes", 0, "tamper"), ""),
    "send_time_naive": (("probes", 0, "send_time"), "2018-10-06T11:23:20.123000"),
    "arrival_naive": (("probes", 0, "arrival"), "2018-10-06T11:23:20.163000"),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_ill_typed_field_is_a_bad_record(tmp_path, case):
    where, value = ILL_TYPED[case]
    d = json.loads(record_to_line(sample_record()))
    holder = d
    for key in where[:-1]:
        holder = holder[key]
    holder[where[-1]] = value
    path = tmp_path / "out.jsonl"
    path.write_text(record_to_line(sample_record()) + "\n" + json.dumps(d) + "\n")
    with pytest.raises(ValueError, match="out.jsonl:2: bad record"):
        read_records(path)


# Where each enum's value sits in a written line's dict, and values of
# every type JSON reads that are none of its members'.
ENUM_FIELDS = {
    ProbeKind: ("probes", 0, "kind"),
    TamperVerdict: ("probes", 0, "tamper"),
    ImplClass: ("fingerprint", "classes", 0),
    Timekeeping: ("fingerprint", "timekeeping"),
    Correctness: ("fingerprint", "correctness"),
}
NOT_MEMBERS = ["x", "STANDARD", None, ["standard"], {"clean": 1}, 1, 0, True, 1.5]


@pytest.mark.parametrize("enum, value", [
    pytest.param(enum, value, id=f"{enum.__name__}-{value!r}")
    for enum in ENUM_FIELDS
    for value in NOT_MEMBERS
    # An unanswered probe's tamper is null.
    if not (enum is TamperVerdict and value is None)
])
def test_enum_value_not_a_member_is_named_with_its_enum(tmp_path, enum, value):
    *path, key = ENUM_FIELDS[enum]
    d = json.loads(record_to_line(sample_record()))
    holder = d
    for step in path:
        holder = holder[step]
    holder[key] = value
    out = tmp_path / "out.jsonl"
    out.write_text(json.dumps(d) + "\n")
    with pytest.raises(ValueError) as info:
        read_records(out)
    assert str(info.value) == f"{out}:1: bad record: {value!r} is not a valid {enum.__name__}"


@pytest.mark.parametrize("field, value, error", [
    ("seq", 1 << 16, "seq out of 16-bit range: 65536"),
    ("orig", -1, "orig_ts out of 32-bit range: -1"),
    ("type", 8, "icmp_type must be 13 or 14, got 8"),
    ("type", True, "message fields must be integers, got True"),
    ("orig", DAY_MS, f"a standard request's orig must be below {DAY_MS}, got {DAY_MS}"),
])
def test_message_field_out_of_range_is_a_bad_record(tmp_path, field, value, error):
    # A message read from a file is checked as its constructor checks it.
    # Probe 0 is the standard probe: its request's originate, but not its
    # reply's, must also be a time of day.
    for message in ("request", "reply"):
        d = json.loads(record_to_line(sample_record()))
        d["probes"][0][message][field] = value
        path = tmp_path / "out.jsonl"
        path.write_text(json.dumps(d) + "\n")
        if error.startswith("a standard request's") and message == "reply":
            assert len(read_records(path)) == 1
            continue
        with pytest.raises(ValueError, match=f"out.jsonl:1: bad record: {error}$"):
            read_records(path)


def former_message_from_dict(d):
    """How a message was read before the one-pass check: every field's
    type, then the constructor's range checks."""
    fields = (d["type"], d["code"], d["checksum"], d["id"],
              d["seq"], d["orig"], d["recv"], d["xmit"])
    for value in fields:
        if type(value) is not int:
            raise ValueError(f"message fields must be integers, got {value!r}")
    return TimestampMessage(*fields)


MESSAGE_KEYS = ("type", "code", "checksum", "id", "seq", "orig", "recv", "xmit")
MESSAGE_BITS = (8, 8, 16, 16, 16, 32, 32, 32)
# Ints out of range for some or all fields, and values of every other
# type JSON reads.
ODD_FIELDS = (
    st.sampled_from([-1, 1 << 8, 1 << 16, 1 << 32, True, False, None, "", "13"]) | st.floats()
)


def assert_message_read_as_before(message, m):
    """``m`` as the bad-clock probe's ``message`` reads as the former reader
    read it: the same message, or a ``ValueError`` with the same text.

    Not the standard probe's: its request's originate must also be a time
    of day."""
    d = json.loads(record_to_line(sample_record()))
    assert d["probes"][1]["kind"] == "bad_clock"
    d["probes"][1][message] = m
    line = json.dumps(d)
    try:
        expected = former_message_from_dict(m)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            record_from_line(line)
        assert str(raised.value) == str(exc)
    else:
        outcome = record_from_line(line).outcomes[1]
        got = outcome.request if message == "request" else outcome.reply
        assert type(got) is TimestampMessage and got == expected


@st.composite
def message_dicts(draw):
    """A message's fields, each in its bit range, with up to two replaced by
    odd values; the type is often, but not always, 13 or 14."""
    fields = [draw(st.integers(0, (1 << bits) - 1)) for bits in MESSAGE_BITS]
    fields[0] = draw(st.sampled_from([13, 14]) | st.integers(0, 0xFF))
    for i in draw(st.lists(st.integers(0, 7), max_size=2)):
        fields[i] = draw(ODD_FIELDS)
    return dict(zip(MESSAGE_KEYS, fields))


@given(st.sampled_from(["request", "reply"]), message_dicts())
def test_message_check_accepts_what_the_constructor_accepts(message, m):
    assert_message_read_as_before(message, m)


def test_message_check_rejects_each_odd_field_alone():
    # A check that misses one field's type or range shows only when that
    # field alone is odd, which random draws seldom make.
    valid = dict(zip(MESSAGE_KEYS, (13, 0, 0xFFFF, 0xFFFF, 0xFFFF, 2**32 - 1, 0, 0)))
    for message in ("request", "reply"):
        assert_message_read_as_before(message, valid)
        for key, bits in zip(MESSAGE_KEYS, MESSAGE_BITS):
            for value in (-1, 1 << bits, True, 1.0, "1", None):
                assert_message_read_as_before(message, {**valid, key: value})


@pytest.mark.parametrize("value", ["zalgo", ["standard"], None])
def test_unknown_probe_kind_is_a_value_error(value):
    d = json.loads(record_to_line(sample_record()))
    d["probes"][0]["kind"] = value
    with pytest.raises(ValueError, match="is not a valid ProbeKind"):
        record_from_line(json.dumps(d))


def with_tz_offset(text):
    """A written line whose fingerprint's ``tz_offset`` is the JSON ``text``."""
    d = json.loads(record_to_line(sample_record()))
    d["fingerprint"]["tz_offset"] = "TZ"
    return json.dumps(d).replace('"TZ"', text)


def test_an_integer_tz_offset_beyond_a_float_is_refused():
    # Testing it for finiteness raised OverflowError, which no reader caught.
    with pytest.raises(ValueError) as info:
        record_from_line(with_tz_offset(str(10**400)))
    assert str(info.value) == f"tz_offset must be null or a finite number, got {10**400!r}"


# A string, a number or a literal in a written line (all of its text is
# ASCII), in order.
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[-\d][-+.\deE]*|null|true|false')
# JSON texts that orjson and json read apart, or one refuses: integers
# beyond 64 bits, numbers beyond a double, NaN and the infinities, lone
# surrogates, negative zero; and values of every other type.
ODD_VALUES = (
    st.sampled_from([
        str(2**64), str(2**64 - 1), str(-2**63 - 1), str(-2**63), "1" + "0" * 400,
        "1e400", "-1e400", "1e-400", "-1e-400", "NaN", "Infinity", "-Infinity",
        "-0", "-0.0", '"\\ud800"', '"\\udfff\\ud800"', "[]", "[1]", "{}", "null", "true",
    ])
    | st.integers(-2**65, 2**65).map(str)
    | st.floats().map(json.dumps)
    | texts.map(json.dumps)
)
blanks = st.text(st.sampled_from(" \t\n\r"), max_size=3)


@st.composite
def odd_lines(draw):
    """A written line with one string, number or literal replaced, maybe
    with blanks around it, a key given twice and a byte order mark."""
    line = record_to_line(draw(records()))
    tokens = list(TOKEN.finditer(line))
    token = draw(st.sampled_from(tokens))
    line = (
        f"{line[:token.start()]}{draw(blanks)}{draw(ODD_VALUES)}{draw(blanks)}"
        f"{line[token.end():]}"
    )
    keys = [t for t in TOKEN.finditer(line) if line[t.end():t.end() + 1] == ":"]
    if keys and draw(st.booleans()):
        # json keeps the value of a key's last pair.
        key = draw(st.sampled_from(keys))
        line = f"{line[:key.start()]}{key.group()}:{draw(ODD_VALUES)},{line[key.start():]}"
    return draw(st.sampled_from(["", "\ufeff"])) + line


def read_or_refusal(read, line):
    """The line the record ``read(line)`` returns writes, or the type and
    text of what it raises for a bad record."""
    try:
        return record_to_line(read(line))
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def deep_extra_key():
    """A written line with one more key, nested past json's recursion limit."""
    line = record_to_line(sample_record())
    return '{"deep":' + "[" * 100_000 + "]" * 100_000 + "," + line[1:]


@given(odd_lines())
@example(with_tz_offset(str(2**64)))
@example(with_tz_offset(str(-2**63 - 1)))
@example(with_tz_offset(str(10**400)))
@example(record_to_line(sample_record()._replace(fingerprint=sample_record().fingerprint._replace(
    flags=frozenset({"\ud800"})))))
@example(deep_extra_key())
def test_the_fast_decoder_reads_every_line_as_json_does(line):
    # Where orjson imports, ``record_from_line`` decodes with it; each line
    # must read to the record json reads, or fail with json's error.
    orjson = pytest.importorskip("orjson", exc_type=ImportError)
    reference = read_or_refusal(lambda text: record_from_dict(json.loads(text)), line)
    assert read_or_refusal(record_from_line, line) == reference
    # orjson is imported on the first line read, which this line may be.
    assert results._fast_loads is orjson.loads
