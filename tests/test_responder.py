"""Simulated responder behavior and the in-memory network."""

import dataclasses
import random
import struct
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import at_ms, epoch_us
from icmpstamp import responder, wire
from icmpstamp.classify import ImplClass
from icmpstamp.clock import DAY_MS
from icmpstamp.engine import ScanConfig, run_scan
from icmpstamp.probes import make_standard
from icmpstamp.responder import (
    DEFAULT_STUCK_VALUE,
    BehaviorConfig,
    SimNetwork,
    load_behavior_file,
    respond,
)
from icmpstamp.results import record_from_line, record_to_line
from icmpstamp.wire import TimestampMessage, byte_swap_32

NOON_ISH = at_ms(45_296_789)  # 12:34:56.789Z
NOON_ISH_START = datetime(2018, 10, 6, 12, 34, 56, 789000, tzinfo=timezone.utc)
DEST = "203.0.113.5"


def request_bytes(dest=DEST, now=NOON_ISH):
    return wire.encode(make_standard(dest, now).request)


def answer(cfg, req=None, now=NOON_ISH, seed=9):
    raw = respond(cfg, req or request_bytes(), now, random.Random(seed))
    assert raw is not None
    return wire.decode(raw)


class TestBehaviorConfig:
    def test_constant_zero_forces_stuck_value(self):
        assert BehaviorConfig(ImplClass.CONSTANT_0).stuck_value == 0

    def test_constant_zero_conflicting_value_rejected(self):
        with pytest.raises(ValueError):
            BehaviorConfig(ImplClass.CONSTANT_0, stuck_value=5)

    def test_constant_le_one_value(self):
        assert BehaviorConfig(ImplClass.CONSTANT_LE_1).stuck_value == byte_swap_32(1)

    def test_stuck_gets_default_constant(self):
        assert BehaviorConfig(ImplClass.STUCK).stuck_value == DEFAULT_STUCK_VALUE

    def test_timezone_requires_offset(self):
        with pytest.raises(ValueError):
            BehaviorConfig(ImplClass.TIMEZONE)

    def test_quarter_hour_offset_rejected(self):
        with pytest.raises(ValueError):
            BehaviorConfig(ImplClass.TIMEZONE, tz_offset_hours=5.75)

    def test_bad_units_rejected(self):
        with pytest.raises(ValueError):
            BehaviorConfig(units="minutes")

    def test_bad_loss_rejected(self):
        with pytest.raises(ValueError):
            BehaviorConfig(loss_rate=1.5)

    def test_stuck_value_beyond_32_bits_rejected(self):
        assert BehaviorConfig(ImplClass.STUCK, stuck_value=0xFFFFFFFF).stuck_value == 0xFFFFFFFF
        for value in (1 << 32, -1):
            with pytest.raises(ValueError, match=f"^stuck_value outside 32 bits: {value}$"):
                BehaviorConfig(ImplClass.STUCK, stuck_value=value)

    @pytest.mark.parametrize(
        "field, value",
        [("clock_error_ms", DAY_MS + 1), ("clock_error_ms", -DAY_MS - 1),
         ("latency_ms", DAY_MS + 1), ("jitter_ms", DAY_MS + 1)],
    )
    def test_delay_beyond_one_day_rejected(self, field, value):
        BehaviorConfig(**{field: value - (1 if value > 0 else -1)})
        with pytest.raises(ValueError, match=str(value)):
            BehaviorConfig(**{field: value})

    def test_bad_tamper_rejected(self):
        with pytest.raises(ValueError):
            BehaviorConfig(tamper="payload")


class TestRespond:
    def test_lazy_single_lookup(self):
        reply = answer(BehaviorConfig(ImplClass.LAZY))
        assert reply.recv_ts == reply.xmit_ts == 45_296_789

    def test_reply_copies_orig_id_seq(self):
        req = make_standard(DEST, NOON_ISH).request
        reply = answer(BehaviorConfig(ImplClass.LAZY))
        assert reply.icmp_type == 14
        assert (reply.ident, reply.seq, reply.orig_ts) == (req.ident, req.seq, req.orig_ts)

    def test_reply_checksum_valid(self):
        raw = respond(BehaviorConfig(ImplClass.LAZY), request_bytes(), NOON_ISH, random.Random(1))
        assert wire.verify_checksum(raw)

    def test_reflection(self):
        req = wire.fill_checksum(
            TimestampMessage(13, ident=1, seq=2, orig_ts=3, recv_ts=7, xmit_ts=9)
        )
        reply = answer(BehaviorConfig(ImplClass.REFLECTION), wire.encode(req))
        assert (reply.recv_ts, reply.xmit_ts) == (7, 9)

    def test_lazy_timezone_plus_nine(self):
        reply = answer(BehaviorConfig(ImplClass.TIMEZONE, tz_offset_hours=9))
        assert reply.recv_ts == reply.xmit_ts == 77_696_789

    def test_clock_error_applied(self):
        reply = answer(BehaviorConfig(ImplClass.LAZY, clock_error_ms=-250))
        assert reply.recv_ts == 45_296_789 - 250

    def test_normal_two_lookups(self):
        reply = answer(BehaviorConfig(ImplClass.NORMAL))
        assert reply.recv_ts == 45_296_789
        assert 1 <= reply.xmit_ts - reply.recv_ts <= 5

    def test_stuck_constant(self):
        reply = answer(BehaviorConfig(ImplClass.STUCK, stuck_value=99))
        assert reply.recv_ts == reply.xmit_ts == 99

    def test_msb_set(self):
        reply = answer(BehaviorConfig(ImplClass.NON_UTC))
        assert reply.recv_ts == (45_296_789 | 2**31)

    def test_little_endian_byte_order(self):
        reply = answer(BehaviorConfig(ImplClass.LITTLE_ENDIAN))
        assert reply.recv_ts == byte_swap_32(45_296_789)

    def test_htons_truncation_zeroes_low_bytes(self):
        reply = answer(BehaviorConfig(ImplClass.HTONS_BUG))
        assert reply.recv_ts % 65536 == 0
        assert reply.recv_ts != 0
        later = answer(BehaviorConfig(ImplClass.HTONS_BUG), now=NOON_ISH + 3_000_000)
        assert later.recv_ts != reply.recv_ts  # varies with the clock

    def test_seconds_units(self):
        reply = answer(BehaviorConfig(ImplClass.LAZY, units="s"))
        assert reply.recv_ts == 45_296_789 // 1000

    def test_epoch_units(self):
        reply = answer(BehaviorConfig(ImplClass.LAZY, units="epoch"))
        assert reply.recv_ts == NOON_ISH // 1_000_000

    def test_unknown_fields_resolve_to_nothing(self):
        reply = answer(BehaviorConfig(ImplClass.UNKNOWN))
        assert reply.recv_ts == 0
        assert reply.xmit_ts != 0
        assert reply.xmit_ts % 65536 != 0
        assert reply.xmit_ts < 2**31

    def test_bad_checksum_dropped_by_default(self):
        req = bytearray(request_bytes())
        req[2] ^= 0xFF  # corrupt the checksum
        assert respond(BehaviorConfig(ImplClass.LAZY), bytes(req), NOON_ISH, random.Random(1)) is None

    def test_checksum_lazy_answers_bad_checksum(self):
        req = bytearray(request_bytes())
        req[2] ^= 0xFF
        raw = respond(BehaviorConfig(ImplClass.CHECKSUM_LAZY), bytes(req), NOON_ISH, random.Random(1))
        assert raw is not None

    def test_total_loss(self):
        assert respond(BehaviorConfig(loss_rate=1.0), request_bytes(), NOON_ISH, random.Random(1)) is None

    def test_malformed_request_ignored(self):
        assert respond(BehaviorConfig(), b"\x0d\x00\x00", NOON_ISH, random.Random(1)) is None

    def test_reply_input_ignored(self):
        reply_in = wire.encode(wire.fill_checksum(TimestampMessage(14)))
        assert respond(BehaviorConfig(), reply_in, NOON_ISH, random.Random(1)) is None

    def test_orig_tamper(self):
        req = make_standard(DEST, NOON_ISH).request
        reply = answer(BehaviorConfig(ImplClass.LAZY, tamper="orig_ts"))
        assert reply.orig_ts == req.orig_ts + 1

    def test_id_tamper(self):
        req = make_standard(DEST, NOON_ISH).request
        reply = answer(BehaviorConfig(ImplClass.LAZY, tamper="id_seq"))
        assert reply.ident == req.ident ^ 1


def former_shape(cfg, value):
    """``_shape`` as it was, when it read the flags each class forced on."""
    cls = cfg.impl_class
    truncate_htons = cls is ImplClass.HTONS_BUG
    msb_set = cls is ImplClass.NON_UTC
    byte_order = "little" if cls is ImplClass.LITTLE_ENDIAN else "big"
    if truncate_htons:
        value = ((value & 0xFF) << 24) | (((value >> 8) & 0xFF) << 16)
    if msb_set:
        value |= 2**31
    if byte_order == "little":
        value = byte_swap_32(value)
    return value & 0xFFFFFFFF


def former_respond(cfg, request_bytes, now, rng):
    """``respond`` as it was when it decoded the request into a message,
    then packed the reply from its fields, and read the flags each class
    forced on."""
    respond_to_bad_checksum = cfg.impl_class is ImplClass.CHECKSUM_LAZY
    if cfg.loss_rate and rng.random() < cfg.loss_rate:
        return None
    try:
        req = wire.decode(request_bytes)
    except wire.WireError:
        return None
    if req.icmp_type != wire.TIMESTAMP_REQUEST:
        return None
    if not wire.verify_checksum(request_bytes) and not respond_to_bad_checksum:
        return None

    cls = cfg.impl_class
    if cls is ImplClass.REFLECTION:
        recv, xmit = req.recv_ts, req.xmit_ts
    elif cls in responder._STUCK_FAMILY:
        recv = xmit = cfg.stuck_value
    elif cls is ImplClass.NORMAL:
        recv = former_shape(cfg, responder._clock_value(cfg, now))
        processing = rng.randint(1, 5)
        xmit = former_shape(
            cfg, responder._clock_value(cfg, now + processing * 1000)
        )
    elif cls is ImplClass.UNKNOWN:
        recv = 0
        xmit = responder._unresolvable_value(responder._clock_value(cfg, now))
    else:
        recv = xmit = former_shape(cfg, responder._clock_value(cfg, now))

    ident, seq, orig = req.ident, req.seq, req.orig_ts
    if cfg.tamper == "orig_ts":
        orig = (orig + 1) & 0xFFFFFFFF
    elif cfg.tamper == "id_seq":
        ident ^= 0x0001
    return wire.encode(wire.fill_checksum(
        wire.TimestampMessage(wire.TIMESTAMP_REPLY, 0, 0, ident, seq, orig, recv, xmit)
    ))


@st.composite
def configs(draw):
    cls = draw(st.sampled_from(list(ImplClass)))
    tz = draw(st.sampled_from([None, -3.5, 9.0]))
    return BehaviorConfig(
        cls,
        tz_offset_hours=9.0 if cls is ImplClass.TIMEZONE and tz is None else tz,
        units=draw(st.sampled_from(["ms", "s", "epoch"])),
        clock_error_ms=draw(st.integers(-DAY_MS, DAY_MS)),
        loss_rate=draw(st.sampled_from([0.0, 0.5])),
        tamper=draw(st.sampled_from([None, "orig_ts", "id_seq", "source"])),
    )


@st.composite
def payloads(draw):
    """0 to 40 bytes: mostly timestamp-shaped, some raw."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    icmp_type = draw(st.sampled_from([13, 13, 14, 0, 8, 255]))
    code = draw(st.sampled_from([0, 0, 0, 1, 255]))
    words = draw(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)))
    stamps = draw(st.tuples(*[st.integers(0, 0xFFFFFFFF)] * 3))
    # ``_make`` skips the constructor's type check: any type is summed.
    unchecked = wire.TimestampMessage._make((icmp_type, code, 0, *words, *stamps))
    checksum = wire.fill_checksum(unchecked).checksum
    if draw(st.booleans()):
        checksum = draw(st.integers(0, 0xFFFF))
    image = struct.pack("!BBHHHIII", icmp_type, code, checksum, *words, *stamps)
    cut = draw(st.integers(0, 40))
    return (image + draw(st.binary(min_size=20, max_size=20)))[:cut]


def valid_requests():
    """Well-formed type-13 requests with a valid checksum, the payloads
    that reach a host's class."""
    u16, u32 = st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
    return st.builds(lambda *fields: wire.encode(wire.fill_checksum(
        wire.TimestampMessage(wire.TIMESTAMP_REQUEST, 0, 0, *fields)
    )), u16, u16, u32, u32, u32)


class TestRespondMatchesFormerPath:
    @staticmethod
    def check(cfg, payload, ms, seed):
        now = at_ms(ms)
        rng, former_rng = random.Random(seed), random.Random(seed)
        reply = respond(cfg, payload, now, rng)
        assert reply == former_respond(cfg, payload, now, former_rng)
        assert reply is None or type(reply) is bytes
        assert rng.getstate() == former_rng.getstate()

    @settings(max_examples=500)
    @given(configs(), payloads(), st.integers(0, DAY_MS - 1), st.integers(0, 2**32))
    def test_same_reply_and_draws(self, cfg, payload, ms, seed):
        self.check(cfg, payload, ms, seed)

    @settings(max_examples=300)
    @given(configs(), valid_requests(), st.integers(0, DAY_MS - 1), st.integers(0, 2**32))
    def test_same_reply_to_valid_requests(self, cfg, payload, ms, seed):
        self.check(cfg, payload, ms, seed)


@st.composite
def requests_with_any_checksum(draw):
    """A type-13 buffer of 20 to 23 bytes, odd lengths included: a valid
    request, its checksum redrawn half the time, then a tail."""
    image = bytearray(draw(valid_requests()))
    if draw(st.booleans()):
        struct.pack_into("!H", image, 2, draw(st.integers(0, 0xFFFF)))
    return bytes(image) + draw(st.binary(max_size=3))


@settings(max_examples=300)
@given(configs().map(lambda cfg: dataclasses.replace(cfg, loss_rate=0.0)),
       requests_with_any_checksum(), st.integers(0, DAY_MS - 1), st.integers(0, 2**32))
def test_respond_checks_and_packs_as_wire_does(cfg, request, ms, seed):
    # ``respond`` checks and sums in line what ``wire.verify_checksum`` and
    # ``wire.fill_checksum`` do, for every class and tamper mode.
    reply = respond(cfg, request, at_ms(ms), random.Random(seed))
    lazy = cfg.impl_class is ImplClass.CHECKSUM_LAZY
    assert (reply is not None) is (lazy or wire.verify_checksum(request))
    if reply is not None:
        assert wire.verify_checksum(reply)
        fields = wire.LAYOUT.unpack(reply)
        expected = wire.TimestampMessage(wire.TIMESTAMP_REPLY, 0, 0, *fields[3:])
        assert reply == wire.encode(wire.fill_checksum(expected))


class TestSimNetwork:
    def host(self, **kw):
        return {DEST: BehaviorConfig(**kw)}

    def test_unknown_destination_drops(self):
        net = SimNetwork(self.host(), start=NOON_ISH_START)
        net.send("198.51.100.99", request_bytes("198.51.100.99"))
        assert net.receive(net.now() + 1000 * 1000) is None

    def test_round_trip(self):
        net = SimNetwork(self.host(), latency_ms=10, start=NOON_ISH_START)
        net.send(DEST, request_bytes())
        src, data, arrival = net.receive(net.now() + 1000 * 1000)
        assert src == DEST
        assert wire.decode(data).icmp_type == 14
        assert arrival == NOON_ISH + 10_000

    def test_latency_bounds(self):
        net = SimNetwork(self.host(latency_ms=5, jitter_ms=7), latency_ms=10, jitter_ms=3, seed=2,
                         start=NOON_ISH_START)
        for _ in range(50):
            sent_at = net.now()
            net.send(DEST, request_bytes(now=sent_at))
            _, _, arrival = net.receive(net.now() + 10_000 * 1000)
            delta = (arrival - sent_at) / 1000
            assert 15 <= delta <= 25

    @pytest.mark.parametrize("kw", [{"latency_ms": DAY_MS + 1}, {"jitter_ms": DAY_MS + 1},
                                    {"latency_ms": -1}])
    def test_delay_beyond_one_day_rejected(self, kw):
        with pytest.raises(ValueError, match="latency and jitter must be 0 to"):
            SimNetwork(self.host(), **kw)

    @pytest.mark.parametrize("kw", [{"loss_rate": 2}, {"loss_rate": -0.5},
                                    {"loss_rate": float("nan")},
                                    {"start": NOON_ISH_START.replace(tzinfo=None)}])
    def test_unmodelable_network_rejected(self, kw):
        with pytest.raises(ValueError, match="loss_rate outside|timezone-aware"):
            SimNetwork(self.host(), **kw)

    def test_total_loss_yields_nothing(self):
        net = SimNetwork(self.host(), loss_rate=1.0, start=NOON_ISH_START)
        for _ in range(20):
            net.send(DEST, request_bytes())
        assert net.receive(net.now() + 1000 * 1000) is None

    def test_deterministic_under_seed(self):
        def run():
            net = SimNetwork(self.host(jitter_ms=9), seed=42, start=NOON_ISH_START)
            out = []
            for _ in range(10):
                net.send(DEST, request_bytes(now=net.now()))
                out.append(net.receive(net.now() + 5000 * 1000))
            return out

        assert run() == run()

    def test_clock_advances_on_empty_receive(self):
        net = SimNetwork(self.host(), start=NOON_ISH_START)
        assert net.receive(net.now() + 250 * 1000) is None
        assert net.now() == NOON_ISH + 250_000

    @given(
        st.datetimes(datetime(1970, 1, 1), datetime(2100, 1, 1), timezones=st.just(timezone.utc)),
        st.none() | st.integers(0, DAY_MS),
        st.data(),
    )
    def test_a_wait_ends_exactly_at_its_deadline(self, start, latency_ms, data):
        # To the µs, for waits from 1 µs to a day: an empty network wakes
        # at the deadline, and a queued reply is returned, the clock moved
        # to its arrival, only if it arrives by the deadline.  A deadline
        # drawn next to the arrival tests the boundary.
        net = SimNetwork(self.host(latency_ms=latency_ms or 0), start=start)
        before = net.now()
        near = (latency_ms or 0) * 1000
        wait_us = data.draw(
            st.integers(1, DAY_MS * 1000)
            | st.sampled_from([near - 1, near, near + 1]).map(
                lambda w: min(max(w, 1), DAY_MS * 1000)
            )
        )
        deadline = before + wait_us
        if latency_ms is not None:
            net.send(DEST, request_bytes(now=before))
        arrival = before + near
        got = net.receive(deadline)
        if latency_ms is not None and arrival <= deadline:
            assert got[2] == arrival == net.now()
        else:
            assert got is None
            assert net.now() == deadline
        # A deadline the clock has reached returns at once.
        now = net.now()
        assert net.receive(now) is None
        assert net.now() == now

    def test_sleep_until_never_goes_backward(self):
        net = SimNetwork(self.host(), start=NOON_ISH_START)
        net.sleep_until(NOON_ISH - 5_000_000)
        assert net.now() == NOON_ISH

    def test_tampered_source(self):
        net = SimNetwork(self.host(tamper="source"), start=NOON_ISH_START)
        net.send(DEST, request_bytes())
        src, _, _ = net.receive(net.now() + 1000 * 1000)
        assert src != DEST


@pytest.fixture(scope="module")
def dest_targets(tmp_path_factory):
    targets = tmp_path_factory.mktemp("start") / "targets.txt"
    targets.write_text(f"{DEST}\n")
    return targets


@given(st.datetimes(timezones=st.integers(-23 * 60 - 59, 23 * 60 + 59).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)))
@example(datetime(9999, 12, 31, 23, 59, 58, tzinfo=timezone.utc))
@example(datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=5))))
@example(datetime(1970, 1, 1, tzinfo=timezone.utc))
@example(datetime(1970, 1, 1, 5, 29, 59, tzinfo=timezone(timedelta(hours=5, minutes=30))))
@example(datetime(8999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc))
def test_a_start_is_refused_or_scans_into_lines_that_read_back(dest_targets, start):
    # Any aware start of the calendar: either the network refuses it, or a
    # one-host scan from it writes lines the reader takes back unchanged.
    try:
        net = SimNetwork({DEST: BehaviorConfig(ImplClass.LAZY)}, start=start)
    except ValueError as exc:
        assert str(exc).startswith("start must be at or after 1970-01-01T00:00:00Z")
        return
    assert net.now() == epoch_us(start)
    lines = [record_to_line(r) for r in run_scan(ScanConfig(str(dest_targets)), net)]
    assert len(lines) == 1
    assert [record_to_line(record_from_line(line)) for line in lines] == lines


class TestBehaviorFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text(
            "# demo fixture\n"
            "@network latency=10 jitter=5 seed=7 start=2018-10-06T12:00:00Z\n"
            "192.0.2.1 lazy\n"
            "192.0.2.2 timezone tz=+9\n"
            "192.0.2.3 stuck value=0xbeef latency=20\n"
            "192.0.2.4 lazy units=s loss=0.25 tamper=orig_ts\n"
        )
        hosts, params = load_behavior_file(path)
        assert params["latency_ms"] == 10 and params["seed"] == 7
        assert params["start"].hour == 12
        assert hosts["192.0.2.2"].tz_offset_hours == 9.0
        assert hosts["192.0.2.3"].stuck_value == 0xBEEF
        assert hosts["192.0.2.4"].units == "s"
        assert hosts["192.0.2.4"].tamper == "orig_ts"

    def test_bad_address_names_line(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("192.0.2.1 lazy\nnot-an-ip lazy\n")
        with pytest.raises(ValueError, match="hosts.txt:2"):
            load_behavior_file(path)

    def test_bad_class_names_line(self, tmp_path):
        path = tmp_path / "hosts.txt"
        for line, reason in [
            ("192.0.2.1 sleepy", "unknown implementation class 'sleepy'"),
            ("192.0.2.1", "no implementation class: expected <ipv4> <class> [key=value ...]"),
            ("192.0.2.1 lazy latency=abc", "bad value for latency: 'abc'"),
            ("192.0.2.1 timezone tz", "bad value for tz: ''"),
            ("192.0.2.1 stuck value=0xbeefy", "bad value for value: '0xbeefy'"),
            ("@network start=noon", "bad value for start: 'noon'"),
            ("@network start=1969-12-31T23:59:59.999999Z",
             "start must be at or after 1970-01-01T00:00:00Z and before "
             "9000-01-01T00:00:00Z: 1969-12-31T23:59:59.999999+00:00"),
        ]:
            path.write_text(f"{line}\n")
            with pytest.raises(ValueError) as exc:
                load_behavior_file(path)
            assert str(exc.value) == f"{path}:1: {reason}"

    def test_duplicate_host_rejected(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("192.0.2.1 lazy\n192.0.2.1 normal\n")
        with pytest.raises(ValueError, match="hosts.txt:2"):
            load_behavior_file(path)

    @pytest.mark.parametrize("line", ["checksum_lazy bad_checksum=0", "little_endian byte_order=big",
                                      "non_utc msb=0", "htons_bug truncate=0"])
    def test_class_behaviour_keys_rejected(self, tmp_path, line):
        # The class alone shapes the reply; a setting that restates it is
        # refused rather than ignored.
        path = tmp_path / "hosts.txt"
        path.write_text(f"192.0.2.1 lazy\n192.0.2.2 {line}\n")
        key = line.split()[1].split("=")[0]
        with pytest.raises(ValueError, match=f"hosts.txt:2: unknown key '{key}'$"):
            load_behavior_file(path)

    def test_infinite_tz_names_line(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("192.0.2.1 lazy\n192.0.2.2 timezone tz=inf\n")
        with pytest.raises(ValueError, match="hosts.txt:2"):
            load_behavior_file(path)

    def test_from_file_network(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("@network start=2018-10-06T01:02:03Z\n192.0.2.1 lazy\n")
        net = SimNetwork.from_file(path)
        assert net.now() == epoch_us(datetime(2018, 10, 6, 1, 2, 3, tzinfo=timezone.utc))
