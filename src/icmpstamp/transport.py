"""Raw-socket transport for live scans.

Transport contract (shared with responder.SimNetwork):

* ``now()`` -> int, microseconds since the Unix epoch (UTC)
* ``send(dest, payload)`` -> None, payload is the bare ICMP message
* ``receive(deadline_us)`` -> (src, icmp_bytes, arrival_us), or None only
  once ``now()`` has reached ``deadline_us``
* ``close()``

Every instant is an integer, so the engine's pacing and matching never
build a ``datetime``; only the result file turns instants into ISO text,
always in UTC.

The engine calls a transport from one thread only, so an implementation
needs no lock; ``SimNetwork`` has none and is not thread-safe.

The raw transport needs CAP_NET_RAW (or root); constructing one without
privilege raises PrivilegeError so callers can map it to a distinct exit
code.  The kernel prepends the IP header on receive, so inbound packets
are stripped before they reach the wire codec.  ``receive`` waits to the
microsecond; a timeout that ends early or a datagram without a well-formed
IPv4 header only resumes the wait.

``RawTransport.now`` is the wall clock read once, when the transport is
opened, plus the monotonic time since: a step of the wall clock during a
scan moves no deadline and no stamp, and every stamp keeps the error the
wall clock had at open.
"""

from __future__ import annotations

import socket
import time


class TransportError(RuntimeError):
    """Transport failed to send or receive."""


class PrivilegeError(TransportError):
    """Raw sockets need elevated privilege."""


def strip_ip_header(packet: bytes) -> bytes:
    """Return the payload of a raw IPv4 datagram (the ICMP message)."""
    if len(packet) < 20:
        raise ValueError(f"short IP packet: {len(packet)} bytes")
    version = packet[0] >> 4
    header_len = (packet[0] & 0x0F) * 4
    if version != 4 or header_len < 20 or len(packet) < header_len:
        raise ValueError("not a well-formed IPv4 packet")
    return packet[header_len:]


class RawTransport:
    """Sends ICMP payloads over a raw socket; receives and strips IP headers."""

    def __init__(self):
        try:
            self._sock = socket.socket(
                socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP
            )
        except PermissionError as exc:
            raise PrivilegeError(
                "raw ICMP sockets require root or CAP_NET_RAW"
            ) from exc
        except OSError as exc:
            raise TransportError(f"cannot open raw socket: {exc}") from exc
        # Wall time at open minus monotonic time at open, in microseconds.
        self._epoch_us = time.time_ns() // 1000 - time.monotonic_ns() // 1000

    def now(self) -> int:
        return self._epoch_us + time.monotonic_ns() // 1000

    def send(self, dest: str, payload: bytes) -> None:
        try:
            self._sock.sendto(payload, (dest, 0))
        except OSError as exc:
            raise TransportError(f"send to {dest} failed: {exc}") from exc

    def receive(self, deadline_us: int) -> tuple[str, bytes, int] | None:
        while (wait_us := deadline_us - self.now()) > 0:
            self._sock.settimeout(wait_us / 1_000_000)
            try:
                packet, addr = self._sock.recvfrom(65535)
            except (TimeoutError, BlockingIOError):
                continue
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            arrival = self.now()
            try:
                return addr[0], strip_ip_header(packet), arrival
            except ValueError:
                continue
        return None

    def close(self) -> None:
        self._sock.close()
