"""Raw-transport plumbing that can be tested without privileges."""

import errno
import socket
import time
from ipaddress import IPv4Address

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from icmpstamp.transport import (
    PrivilegeError,
    RawTransport,
    TransportError,
    strip_ip_header,
)
from icmpstamp.wire import TimestampMessage, decode, encode


def ipv4_header(ihl_words=5, version=4):
    first = (version << 4) | ihl_words
    return bytes([first]) + bytes(ihl_words * 4 - 1)


class TestStripIpHeader:
    def test_minimal_header(self):
        payload = encode(TimestampMessage(14, recv_ts=9))
        packet = ipv4_header() + payload
        assert strip_ip_header(packet) == payload
        assert decode(strip_ip_header(packet)).recv_ts == 9

    def test_header_with_options(self):
        payload = encode(TimestampMessage(13))
        packet = ipv4_header(ihl_words=8) + payload
        assert strip_ip_header(packet) == payload

    def test_short_packet_rejected(self):
        with pytest.raises(ValueError):
            strip_ip_header(bytes(10))

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError):
            strip_ip_header(ipv4_header(version=6) + bytes(20))

    def test_bogus_ihl_rejected(self):
        with pytest.raises(ValueError):
            strip_ip_header(bytes([0x4F]) + bytes(20))  # claims 60-byte header


def test_privilege_error_without_cap(monkeypatch):
    def denied(*args, **kwargs):
        raise PermissionError("nope")

    monkeypatch.setattr(socket, "socket", denied)
    with pytest.raises(PrivilegeError):
        RawTransport()


class TestRawClock:
    @pytest.fixture(autouse=True)
    def no_socket(self, monkeypatch):
        monkeypatch.setattr(socket, "socket", lambda *args: object())

    def test_now_is_integer_microseconds(self):
        now = RawTransport().now()
        assert type(now) is int
        assert abs(now - time.time_ns() // 1000) < 1_000_000

    @pytest.mark.parametrize("step_s", [-10, 10])
    def test_a_wall_clock_step_moves_no_instant(self, monkeypatch, step_s):
        # The wall clock is read at open; the time since is the monotonic
        # clock's, so a step of the wall clock later on changes nothing.
        wall_ns, mono_ns = [1_538_827_200_123_456_789], [7_000_000_000]
        monkeypatch.setattr(time, "time_ns", lambda: wall_ns[0])
        monkeypatch.setattr(time, "monotonic_ns", lambda: mono_ns[0])
        transport = RawTransport()

        def elapse(seconds):
            wall_ns[0] += seconds * 1_000_000_000
            mono_ns[0] += seconds * 1_000_000_000

        elapse(3)
        assert transport.now() == START_US + 3_123_456
        wall_ns[0] += step_s * 1_000_000_000
        assert transport.now() == START_US + 3_123_456
        elapse(2)
        assert transport.now() == START_US + 5_123_456


START_US = 1_538_827_200_000_000  # 2018-10-06T12:00:00Z
SOURCE = "192.0.2.7"


class FakeSocket:
    """A raw socket's ``settimeout`` and ``recvfrom`` on a fake clock.

    Each event takes its share (0 to 1) of the timeout set before it, then
    delivers a datagram or raises: ``TimeoutError`` or ``BlockingIOError``
    (a timeout, early below a share of 1) or another ``OSError``.  Once the
    events run out, every call waits its whole timeout and times out.
    """

    def __init__(self, events):
        self.now = START_US
        self.events = iter(events)
        self.consumed = []
        self.timeout = None
        # (clock reading, timeout in µs) at each settimeout.
        self.timeouts = []

    def settimeout(self, seconds):
        self.timeout = round(seconds * 1_000_000)
        self.timeouts.append((self.now, self.timeout))

    def recvfrom(self, _size):
        event = next(self.events, None)
        if event is None:
            self.now += self.timeout
            raise TimeoutError("timed out")
        self.consumed.append(event)
        kind, share, datagram = event
        self.now += int(self.timeout * share)
        if kind == "datagram":
            return datagram, (SOURCE, 0)
        raise {"timeout": TimeoutError("timed out"),
               "would block": BlockingIOError(errno.EAGAIN, "again"),
               "error": OSError(errno.ENETDOWN, "network is down")}[kind]


def fake_raw_transport(sock):
    # Built without __init__, so no socket is opened.
    transport = object.__new__(RawTransport)
    transport._sock = sock
    transport.now = lambda: sock.now
    return transport


class SendingSocket:
    """A raw socket's ``sendto``: records each call, or raises ``error``."""

    def __init__(self, error=None):
        self.error = error
        self.sent = []

    def sendto(self, payload, address):
        if self.error is not None:
            raise self.error
        self.sent.append((payload, address))
        return len(payload)


@given(st.integers(0, 2**32 - 1).map(lambda n: str(IPv4Address(n))), st.binary(max_size=64))
@example("192.0.2.7", encode(TimestampMessage(13, orig_ts=5)) + bytes(range(16)))
def test_send_passes_the_payload_to_sendto_unchanged(dest, payload):
    sock = SendingSocket()
    fake_raw_transport(sock).send(dest, payload)
    assert sock.sent == [(payload, (dest, 0))]
    assert sock.sent[0][0] is payload


@pytest.mark.parametrize("error", [
    OSError(errno.ENETUNREACH, "Network is unreachable"),
    PermissionError(errno.EPERM, "Operation not permitted"),
    BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"),
], ids=lambda error: type(error).__name__)
def test_send_failure_is_a_transport_error_naming_the_destination(error):
    transport = fake_raw_transport(SendingSocket(error))
    with pytest.raises(TransportError) as info:
        transport.send("198.51.100.23", encode(TimestampMessage(13)))
    assert str(info.value) == f"send to 198.51.100.23 failed: {error}"
    assert info.value.__cause__ is error


def stripped(datagram):
    try:
        return strip_ip_header(datagram)
    except ValueError:
        return None


datagrams = (
    st.binary(max_size=60)
    | st.builds(lambda ihl, payload: ipv4_header(ihl) + payload,
                st.integers(5, 15), st.binary(max_size=40))
    | st.builds(lambda payload: ipv4_header() + encode(TimestampMessage(14, recv_ts=9)) + payload,
                st.binary(max_size=8))
)
events = st.lists(st.tuples(
    st.sampled_from(["datagram", "datagram", "timeout", "would block", "error"]),
    st.sampled_from([0.0, 0.25, 0.999, 1.0]) | st.floats(0, 1),
    datagrams,
), max_size=12)


@given(events, st.integers(-1_000, 3_000_000))
def test_receive_returns_a_reply_or_none_at_its_deadline_or_raises(events, wait_us):
    # Replies come in arrival order, their IP headers stripped, options
    # included; a datagram whose header is bad, like a timeout that ends
    # early, only resumes the wait.  Every socket timeout is the time left.
    sock = FakeSocket(events)
    transport = fake_raw_transport(sock)
    deadline = START_US + wait_us
    replies = []
    try:
        while (item := transport.receive(deadline)) is not None:
            src, payload, arrival = item
            assert src == SOURCE and type(payload) is bytes and type(arrival) is int
            assert arrival == sock.now <= deadline
            replies.append(payload)
    except TransportError:
        assert sock.consumed[-1][0] == "error"
    else:
        assert sock.now >= deadline
        assert "error" not in [kind for kind, _, _ in sock.consumed]
    expected = [
        stripped(datagram) for kind, _, datagram in sock.consumed if kind == "datagram"
    ]
    assert replies == [payload for payload in expected if payload is not None]
    assert all(timeout == deadline - now > 0 for now, timeout in sock.timeouts)
    if wait_us <= 0:
        assert sock.timeouts == []
