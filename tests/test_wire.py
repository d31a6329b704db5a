"""Byte-level codec tests: exact layouts, checksum math, byte swap."""

import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from builders import reference_checksum
from icmpstamp import wire
from icmpstamp.wire import (
    BadChecksum,
    NotATimestamp,
    TimestampMessage,
    TruncatedMessage,
    WireError,
    byte_swap_32,
    decode,
    encode,
    fill_checksum,
    internet_checksum,
    unpack_reply,
    verify_checksum,
)

messages = st.builds(
    TimestampMessage,
    icmp_type=st.sampled_from([13, 14]),
    code=st.integers(0, 0xFF),
    checksum=st.integers(0, 0xFFFF),
    ident=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFF),
    orig_ts=st.integers(0, 0xFFFFFFFF),
    recv_ts=st.integers(0, 0xFFFFFFFF),
    xmit_ts=st.integers(0, 0xFFFFFFFF),
)


class TestEncode:
    def test_all_zero_request_layout(self):
        buf = encode(TimestampMessage(13))
        assert buf == bytes([0x0D]) + bytes(19)

    def test_length_is_20(self):
        assert len(encode(TimestampMessage(14, orig_ts=1, recv_ts=2, xmit_ts=3))) == 20

    def test_orig_ts_big_endian(self):
        # Independent oracle: int.to_bytes big-endian on 45,296,789.
        buf = encode(TimestampMessage(13, orig_ts=45_296_789))
        assert buf[8:12] == (45_296_789).to_bytes(4, "big")
        assert buf[8:12] == bytes.fromhex("02b32c95")

    def test_round_trip_example(self):
        msg = TimestampMessage(14, ident=0xBEEF, seq=0x0001, orig_ts=1, recv_ts=2, xmit_ts=3)
        assert decode(encode(msg)) == msg

    def test_invalid_type_rejected(self):
        with pytest.raises(NotATimestamp):
            TimestampMessage(8)

    def test_field_range_rejected(self):
        with pytest.raises(WireError):
            TimestampMessage(13, ident=0x1_0000)
        with pytest.raises(WireError):
            TimestampMessage(13, orig_ts=1 << 32)

    @pytest.mark.parametrize(
        "name, bits",
        [("checksum", 16), ("ident", 16), ("seq", 16),
         ("orig_ts", 32), ("recv_ts", 32), ("xmit_ts", 32)],
    )
    @pytest.mark.parametrize("high", [False, True])
    def test_range_error_names_the_field(self, name, bits, high):
        bad = 1 << bits if high else -1
        with pytest.raises(WireError) as info:
            TimestampMessage(13, **{name: bad})
        assert str(info.value) == f"{name} out of {bits}-bit range: {bad}"
        assert type(info.value) is WireError

    def test_first_bad_field_is_reported(self):
        with pytest.raises(NotATimestamp, match="icmp_type must be 13 or 14, got 8"):
            TimestampMessage(8, code=-1, ident=-1)
        with pytest.raises(WireError, match="^code out of 8-bit range: 256$"):
            TimestampMessage(13, code=256, ident=-1)
        with pytest.raises(WireError, match="^seq out of 16-bit range"):
            TimestampMessage(13, seq=-1, xmit_ts=-1)

    @given(messages)
    def test_round_trip_property(self, msg):
        assert decode(encode(msg)) == msg


class TestDecode:
    def test_all_zero_request(self):
        msg = decode(bytes([0x0D]) + bytes(19))
        assert msg == TimestampMessage(13)

    def test_short_buffer(self):
        with pytest.raises(TruncatedMessage):
            decode(bytes(19))

    def test_echo_request_rejected(self):
        with pytest.raises(NotATimestamp):
            decode(bytes([0x08]) + bytes(19))

    def test_trailing_bytes_flagged_but_ignored(self):
        padded = encode(TimestampMessage(14, recv_ts=7)) + b"\x99\x99"
        assert decode(padded) == TimestampMessage(14, recv_ts=7)

    def test_accepts_bytearray(self):
        assert decode(bytearray(encode(TimestampMessage(13)))).icmp_type == 13

    # Random bytes seldom start with type 13 or 14, so real messages with
    # a random tail are drawn beside them.
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.builds(lambda m, tail: encode(m) + tail, messages, st.binary(max_size=44)),
        )
    )
    def test_arbitrary_bytes(self, buf):
        # Any input either fails as a WireError or decodes to a message
        # whose wire image is the first 20 bytes.
        try:
            msg = decode(buf)
        except WireError:
            return
        assert encode(msg) == buf[:20]

    @given(st.binary(max_size=40))
    def test_decode_is_the_layout_read_after_its_checks(self, buf):
        # Below 20 bytes a TruncatedMessage, for a type other than 13 and 14
        # a NotATimestamp, and otherwise the first 20 bytes' fields.
        try:
            msg = decode(buf)
        except WireError as exc:
            if len(buf) < 20:
                assert type(exc) is TruncatedMessage
                assert str(exc) == f"need 20 bytes, got {len(buf)}"
            else:
                assert type(exc) is NotATimestamp
                assert buf[0] not in (13, 14)
                assert str(exc) == f"ICMP type {buf[0]} is not a timestamp message"
            return
        assert len(buf) >= 20 and buf[0] in (13, 14)
        assert tuple(msg) == struct.unpack("!BBHHHIII", buf[:20])


class TestUnpackReply:
    REPLY = encode(fill_checksum(
        TimestampMessage(14, 0, 0, 0x1234, 0x5678, 45_296_789, 45_296_800, 45_296_801)
    ))

    def test_valid_reply_is_its_fields(self):
        assert unpack_reply(self.REPLY) == tuple(decode(self.REPLY))

    def test_request_is_none(self):
        assert unpack_reply(encode(fill_checksum(TimestampMessage(13, 0, 0, 1, 2, 3)))) is None
        assert unpack_reply(bytes([13]) + bytes(19)) is None  # whatever its checksum

    def test_zero_padding_keeps_the_checksum(self):
        for pad in range(1, 6):
            assert unpack_reply(self.REPLY + bytes(pad)) == tuple(decode(self.REPLY))

    def test_other_padding_is_summed(self):
        with pytest.raises(BadChecksum):
            unpack_reply(self.REPLY + b"\x01")

    @pytest.mark.parametrize("icmp_type", [0, 3, 8, 15])
    def test_other_types_are_not_timestamps(self, icmp_type):
        with pytest.raises(NotATimestamp):
            unpack_reply(bytes([icmp_type]) + self.REPLY[1:])

    def test_short_buffer(self):
        with pytest.raises(TruncatedMessage):
            unpack_reply(self.REPLY[:19])

    # Real replies with a tail, a flipped bit or either type are drawn
    # beside random bytes, which seldom start with type 13 or 14.
    @given(
        st.one_of(
            st.binary(max_size=48),
            st.builds(
                lambda m, tail, bit: bytes(
                    b ^ (1 << bit % 8) * (i == bit // 8)
                    for i, b in enumerate(encode(fill_checksum(m)) + tail)
                ),
                messages.map(lambda m: m._replace(code=0)),
                st.one_of(st.just(b""), st.binary(max_size=8).map(lambda b: bytes(len(b))),
                          st.binary(max_size=8)),
                st.integers(0, 400),
            ),
        )
    )
    def test_is_decode_then_verify_checksum(self, buf):
        # The one-pass check agrees with the two calls it stands for: decode
        # (length, type), requests set aside, then the checksum.
        try:
            msg = decode(buf)
        except WireError as exc:
            with pytest.raises(type(exc)) as raised:
                unpack_reply(buf)
            assert str(raised.value) == str(exc)
            return
        if msg.icmp_type == 13:
            assert unpack_reply(buf) is None
        elif not verify_checksum(buf):
            with pytest.raises(BadChecksum):
                unpack_reply(buf)
        else:
            assert unpack_reply(buf) == tuple(msg)


@st.composite
def padded_replies(draw):
    """A type-14 buffer of 20 to 27 bytes, odd lengths included: its tail
    zero or drawn, its checksum drawn or the one that makes the whole
    buffer, tail included, verify."""
    fields = draw(messages.map(lambda m: m._replace(icmp_type=14)))
    tail = draw(st.one_of(st.binary(max_size=7).map(lambda b: bytes(len(b))),
                          st.binary(max_size=7)))
    buf = bytearray(encode(fields._replace(checksum=0)) + tail)
    checksum = draw(st.one_of(st.just(internet_checksum(buf)), st.integers(0, 0xFFFF)))
    struct.pack_into("!H", buf, 2, checksum)
    return bytes(buf)


@given(padded_replies())
@example(bytes(20))
@example(bytes(21))
@example(bytes([14]) + bytes(19))
@example(bytes([14]) + bytes(20))
def test_unpack_reply_refuses_exactly_what_verify_checksum_refuses(buf):
    # ``unpack_reply`` sums in line what ``verify_checksum`` sums.
    if buf[0] != 14:
        # The all-zero buffer, which does not verify, is no reply either.
        assert not verify_checksum(buf)
        with pytest.raises(NotATimestamp):
            unpack_reply(buf)
        return
    if verify_checksum(buf):
        assert unpack_reply(buf) == wire.LAYOUT.unpack_from(buf)
    else:
        with pytest.raises(BadChecksum):
            unpack_reply(buf)


class TestInternetChecksum:
    def test_known_vector(self):
        assert internet_checksum(bytes([0x0D]) + bytes(19)) == 0xF2FF

    def test_all_zero(self):
        assert internet_checksum(bytes(20)) == 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x0d") == internet_checksum(b"\x0d\x00")

    @given(st.binary(min_size=20, max_size=20))
    def test_matches_reference(self, buf):
        assert internet_checksum(buf) == reference_checksum(buf)

    def test_thousand_random_buffers(self):
        import random

        rng = random.Random(1071)
        for _ in range(1000):
            buf = rng.randbytes(20)
            assert internet_checksum(buf) == reference_checksum(buf)

    # The wire kernel and the independent reference in builders.py are the
    # two implementations left; they must agree on any length, odd or even.
    @given(st.binary(min_size=0, max_size=64))
    def test_backends_agree(self, buf):
        assert len({internet_checksum(buf), reference_checksum(buf)}) == 1


class TestVerifyChecksum:
    def test_filled_message_verifies(self):
        msg = fill_checksum(TimestampMessage(13, ident=5, seq=6, orig_ts=45_296_789))
        assert verify_checksum(encode(msg))

    def test_bit_flip_detected(self):
        msg = fill_checksum(TimestampMessage(13, orig_ts=45_296_789))
        buf = bytearray(encode(msg))
        buf[9] ^= 0x01  # one bit inside orig_ts
        assert not verify_checksum(bytes(buf))

    def test_random_wrong_checksum_fails(self):
        import random

        rng = random.Random(7)
        msg = fill_checksum(TimestampMessage(13, orig_ts=123))
        for _ in range(50):
            wrong = rng.getrandbits(16)
            if wrong == msg.checksum:
                continue
            buf = encode(TimestampMessage(13, checksum=wrong, orig_ts=123))
            assert not verify_checksum(buf)

    def test_short_buffer_rejected(self):
        with pytest.raises(TruncatedMessage):
            verify_checksum(bytes(10))

    @given(messages, st.integers(0, 159))
    def test_single_bit_sensitivity(self, msg, bit):
        buf = bytearray(encode(fill_checksum(msg)))
        buf[bit // 8] ^= 1 << (bit % 8)
        assert not verify_checksum(bytes(buf))


class TestByteSwap:
    def test_one(self):
        assert byte_swap_32(0x00000001) == 0x01000000

    def test_known_value(self):
        # Oracle: struct round trip through the opposite byte order.
        expected = struct.unpack("<I", struct.pack(">I", 45_296_789))[0]
        assert byte_swap_32(45_296_789) == expected == 2_502_734_594

    @given(st.integers(0, 0xFFFFFFFF))
    def test_involution(self, x):
        assert byte_swap_32(byte_swap_32(x)) == x

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            byte_swap_32(-1)
        with pytest.raises(ValueError):
            byte_swap_32(1 << 32)

    @given(st.integers(0, 0xFFFFFFFF))
    def test_matches_struct(self, x):
        assert byte_swap_32(x) == struct.unpack("<I", struct.pack(">I", x))[0]


def test_backend_reports_something():
    assert wire.kernel_backend() == "pure"


def test_fill_checksum_round_trips_valid():
    msg = fill_checksum(TimestampMessage(14, recv_ts=99, xmit_ts=99))
    assert verify_checksum(encode(msg))
    assert decode(encode(msg)) == msg


def build_message(icmp_type, ident, seq, orig_ts, recv_ts=0, xmit_ts=0):
    """The code-0 message with these fields and a valid checksum, built by
    the checking constructor and ``fill_checksum``."""
    return fill_checksum(TimestampMessage(icmp_type, 0, 0, ident, seq, orig_ts, recv_ts, xmit_ts))


class TestMessageBuilding:
    """Building a message packs and constructs it once; same result as before."""

    @staticmethod
    def replace_formula(msg):
        # The former fill_checksum: two replace() round trips and an encode.
        return msg._replace(checksum=internet_checksum(encode(msg._replace(checksum=0))))

    @given(messages)
    def test_fill_checksum_matches_replace_formula(self, msg):
        filled = fill_checksum(msg)
        assert filled == self.replace_formula(msg)
        assert verify_checksum(encode(filled))
        zeroed = encode(msg._replace(checksum=0))
        assert filled.checksum == reference_checksum(zeroed)

    # Types 13 and 14 and code 0 are drawn often, so the checked build runs.
    @given(
        st.sampled_from([13, 14]) | st.integers(0, 0xFF),
        st.just(0) | st.integers(0, 0xFF),
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        st.tuples(*[st.integers(0, 0xFFFFFFFF)] * 3),
    )
    def test_field_sum_is_the_image_checksum(self, icmp_type, code, words, stamps):
        # fill_checksum sums fields, not the packed zero-checksum image; ``_make``
        # skips the constructor's type check, so any type is summed.
        image = struct.pack("!BBHHHIII", icmp_type, code, 0, *words, *stamps)
        unchecked = TimestampMessage._make((icmp_type, code, 0, *words, *stamps))
        checksum = fill_checksum(unchecked).checksum
        assert checksum == internet_checksum(image) == reference_checksum(image)
        if icmp_type in (13, 14) and code == 0:
            packed = encode(build_message(icmp_type, *words, *stamps))
            assert packed == image[:2] + checksum.to_bytes(2, "big") + image[4:]
            assert verify_checksum(packed)

    @pytest.mark.parametrize(
        "fields, name",
        [((13, 0, -1, 0, 0, 0, 0), "ident"),
         ((13, 0, 0, 0x1_0000, 0, 0, 0), "seq"),
         ((14, 0, 0, 0, 0, 1 << 32, 0), "recv_ts"),
         ((13, 256, 0, 0, 0, 0, 0), "code")],
    )
    def test_out_of_range_field_is_a_wire_error(self, fields, name):
        # ``_make``, which ``_replace`` calls, skips the constructor's checks.
        msg = TimestampMessage._make(fields[:2] + (0,) + fields[2:])
        with pytest.raises(WireError, match=f"^{name} out of"):
            fill_checksum(msg)

    def test_bad_type_is_not_a_timestamp(self):
        with pytest.raises(NotATimestamp):
            build_message(8, 0, 0, 0)
