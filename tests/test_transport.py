"""Raw-transport plumbing that can be tested without privileges."""

import socket
import time
from datetime import timedelta

import pytest

from icmpstamp.transport import PrivilegeError, RawTransport, strip_ip_header
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
    # Built without __init__, so no socket is opened.
    transport = object.__new__(RawTransport)

    def test_now_is_integer_microseconds(self):
        now = self.transport.now()
        assert type(now) is int
        assert abs(now - time.time_ns() // 1000) < 1_000_000

    def test_sleep_until_past_instant_returns_at_once(self):
        started = time.monotonic()
        self.transport.sleep_until(self.transport.now() - 5_000_000)
        assert time.monotonic() - started < 0.5

    def test_instants_are_written_in_utc(self):
        assert self.transport.tz.utcoffset(None) == timedelta(0)
