"""Simulated timestamp responders and an in-memory network.

Each fake host is described by a BehaviorConfig naming one implementation
class plus clock options (offset from true time, units) and delivery
options (latency, jitter, loss).  The class alone decides how a reply is
shaped: byte order, MSB flag, truncation bug, and whether a bad checksum
is answered.  The simulator operates on encoded bytes, not decoded
structures, so checksum handling is exercised the same way a real
responder would.

SimNetwork glues configured hosts to a virtual clock and satisfies the
scan engine's transport contract: ``send`` enqueues, ``receive`` yields
``(src, bytes, arrival_us)`` after modeled latency or None at its
deadline, and everything is deterministic under a fixed seed.  Instants
are integer microseconds since the Unix epoch, as everywhere.

A request is read in one pass: a length and type test, the checksum
unless the host is checksum-lazy, then one ``wire.LAYOUT.unpack_from``.
``respond`` tests the checksum and sums the reply's in line, as
``wire.verify_checksum`` and ``wire.fill_checksum`` define them, so a
request is one frame in this layer.  The delays drawn per request, a
path's jitter and a normal host's processing time, are ``draws.below``
calls that make the draws ``Random.randint`` makes, with fewer Python
frames.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address

from icmpstamp import wire
from icmpstamp.classify import CONSTANT_LE_ONE, MSB, ImplClass
from icmpstamp.clock import DAY_MS, ms_since_utc_midnight, offset_millis
from icmpstamp.draws import below
from icmpstamp.textfile import parse_lines
from icmpstamp.wire import MESSAGE_LEN, TIMESTAMP_REPLY, TIMESTAMP_REQUEST

DEFAULT_START = datetime(2018, 10, 6, 12, 0, 0, tzinfo=timezone.utc)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# A simulated network starts before this instant.
_START_END = datetime(9000, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
DEFAULT_STUCK_VALUE = 123_456

_TAMPER_MODES = (None, "orig_ts", "id_seq", "source")

_pack = wire.LAYOUT.pack
_unpack_from = wire.LAYOUT.unpack_from

# The per-request paths read the members as module names: on Python 3.11
# and older, ``EnumType.__getattr__`` makes a lookup on an Enum class cost
# several global reads.
_NORMAL = ImplClass.NORMAL
_CHECKSUM_LAZY = ImplClass.CHECKSUM_LAZY
_REFLECTION = ImplClass.REFLECTION
_NON_UTC = ImplClass.NON_UTC
_LITTLE_ENDIAN = ImplClass.LITTLE_ENDIAN
_HTONS_BUG = ImplClass.HTONS_BUG
_UNKNOWN = ImplClass.UNKNOWN
_STUCK_FAMILY = {
    ImplClass.STUCK,
    ImplClass.CONSTANT_0,
    ImplClass.CONSTANT_1,
    ImplClass.CONSTANT_LE_1,
}


def _check_delivery(latency_ms: int, jitter_ms: int, loss_rate: float) -> None:
    """Reject delivery settings, of one host or the network, that cannot be modeled."""
    # A day bounds every modeled delay: reply timestamps wrap once a day, and
    # the scan's own waits are capped at a day too.
    if not (0 <= latency_ms <= DAY_MS and 0 <= jitter_ms <= DAY_MS):
        raise ValueError(
            f"latency and jitter must be 0 to {DAY_MS} ms: {latency_ms}, {jitter_ms}"
        )
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss_rate outside [0, 1]: {loss_rate}")


@dataclass(frozen=True)
class BehaviorConfig:
    """Recipe for how one simulated host answers timestamp requests.

    ``impl_class`` decides how the reply is shaped; the other fields set
    the clock, delivery, tampering and, for the stuck family, the value.
    """

    impl_class: ImplClass = ImplClass.LAZY
    tz_offset_hours: float | None = None
    units: str = "ms"  # ms | s | epoch
    clock_error_ms: int = 0
    latency_ms: int = 0
    jitter_ms: int = 0
    loss_rate: float = 0.0
    stuck_value: int | None = None
    tamper: str | None = None
    # The clock's lead over UTC in microseconds, its error and its zone
    # together: every reply reads the clock, and this sum is made once.
    _lead_us: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.units not in ("ms", "s", "epoch"):
            raise ValueError(f"units must be ms, s, or epoch: {self.units}")
        _check_delivery(self.latency_ms, self.jitter_ms, self.loss_rate)
        if abs(self.clock_error_ms) > DAY_MS:
            raise ValueError(f"clock_error_ms beyond one day: {self.clock_error_ms}")
        if self.stuck_value is not None and not 0 <= self.stuck_value <= 0xFFFFFFFF:
            raise ValueError(f"stuck_value outside 32 bits: {self.stuck_value}")
        if self.tamper not in _TAMPER_MODES:
            raise ValueError(f"tamper must be one of {_TAMPER_MODES}: {self.tamper}")
        lead_ms = self.clock_error_ms
        if self.tz_offset_hours is not None:
            lead_ms += offset_millis(self.tz_offset_hours)  # validates the half-hour grid
        object.__setattr__(self, "_lead_us", lead_ms * 1000)

        cls = self.impl_class
        if cls is ImplClass.TIMEZONE and self.tz_offset_hours is None:
            raise ValueError("timezone behavior needs tz_offset_hours")
        forced_constant = {
            ImplClass.CONSTANT_0: 0,
            ImplClass.CONSTANT_1: 1,
            ImplClass.CONSTANT_LE_1: CONSTANT_LE_ONE,
        }.get(cls)
        if forced_constant is not None:
            if self.stuck_value not in (None, forced_constant):
                raise ValueError(
                    f"{cls.value} forces stuck_value={forced_constant}, got {self.stuck_value}"
                )
            object.__setattr__(self, "stuck_value", forced_constant)
        elif cls is ImplClass.STUCK and self.stuck_value is None:
            object.__setattr__(self, "stuck_value", DEFAULT_STUCK_VALUE)


def _clock_value(cfg: BehaviorConfig, instant_us: int) -> int:
    """The host clock reading in the configured units, offsets applied."""
    local = instant_us + cfg._lead_us
    if cfg.units == "ms":
        return ms_since_utc_midnight(local)
    if cfg.units == "s":
        return ms_since_utc_midnight(local) // 1000
    return local // 1_000_000  # epoch seconds


def _htons_truncate(value: int) -> int:
    # The buggy path squeezes the timestamp through a 16-bit byte swap and
    # stores the result in the high half of the field: the low two bytes of
    # the wire value are always zero.
    return ((value & 0xFF) << 24) | (((value >> 8) & 0xFF) << 16)


def _shape(cls: ImplClass, value: int) -> int:
    """A clock reading as a host of class ``cls`` writes it: truncated,
    MSB-flagged or byte-swapped, then cut to 32 bits."""
    if cls is _HTONS_BUG:
        value = _htons_truncate(value)
    elif cls is _NON_UTC:
        value |= MSB
    elif cls is _LITTLE_ENDIAN:
        value = wire.byte_swap_32(value)
    return value & 0xFFFFFFFF


def _unresolvable_value(clock_value: int) -> int:
    # Deterministic junk for the "unknown" class: spread by a Knuth
    # multiplicative hash, MSB kept clear, low 16 bits kept nonzero so no
    # other fingerprint rule can fire.
    v = (clock_value * 2654435761) & 0x7FFFFFFF
    if v & 0xFFFF == 0:
        v |= 1
    return v


def respond(
    cfg: BehaviorConfig,
    request_bytes,
    now: int,
    rng: random.Random,
) -> bytes | None:
    """Answer one encoded timestamp request, or stay silent.

    Returns None on modeled loss, on input shorter than 20 bytes or not
    a timestamp request (type 13), and on checksum failure unless the
    host is checksum-lazy.  Otherwise packs the type-14 reply:
    originate/id/seq copied from the request, receive and transmit filled
    per the configured class, checksum recomputed.  The request is read
    and the reply written as bytes; no message is built.
    """
    if cfg.loss_rate and rng.random() < cfg.loss_rate:
        return None
    if len(request_bytes) < MESSAGE_LEN or request_bytes[0] != TIMESTAMP_REQUEST:
        return None
    cls = cfg.impl_class
    # ``wire.verify_checksum``, summed as ``wire.unpack_reply`` sums a reply.
    if cls is not _CHECKSUM_LAZY and int.from_bytes(request_bytes, "big") % 0xFFFF:
        return None
    _, _, _, ident, seq, orig, req_recv, req_xmit = _unpack_from(request_bytes)

    if cls is _REFLECTION:
        recv, xmit = req_recv, req_xmit
    elif cls in _STUCK_FAMILY:
        recv = xmit = cfg.stuck_value
    elif cls is _NORMAL:
        # Two lookups separated by 1-5 ms of processing time.
        recv = _shape(cls, _clock_value(cfg, now))
        processing = 1 + below(rng.getrandbits, 5)
        xmit = _shape(cls, _clock_value(cfg, now + processing * 1000))
    elif cls is _UNKNOWN:
        recv = 0
        xmit = _unresolvable_value(_clock_value(cfg, now))
    else:
        # The rest answer with a single clock lookup copied into both fields.
        recv = xmit = _shape(cls, _clock_value(cfg, now))

    if cfg.tamper == "orig_ts":
        orig = (orig + 1) & 0xFFFFFFFF
    elif cfg.tamper == "id_seq":
        ident ^= 0x0001

    # The checksum ``wire.fill_checksum`` gives this reply, summed as
    # ``probes.craft`` sums a request.
    total = (TIMESTAMP_REPLY << 8) + ident + seq + orig + recv + xmit
    checksum = ~((total - 1) % 0xFFFF + 1) & 0xFFFF
    return _pack(TIMESTAMP_REPLY, 0, checksum, ident, seq, orig, recv, xmit)


class SimNetwork:
    """In-memory network of configured hosts with a virtual clock.

    Satisfies the engine's transport contract.  ``send`` runs the
    destination's responder immediately (evaluating its clock at the
    request's arrival instant) and schedules the reply; ``receive``
    advances the virtual clock as needed.  Unknown destinations drop
    silently, like unresponsive hosts.

    Each host's delivery is resolved once, when the network is made, into
    a plan: its config, the network's latency and jitter plus its own, and
    its replies' source, the address with its last bit flipped for
    ``tamper=source``.  ``send`` reads the one plan of its destination.

    The aware ``start`` names the instant the virtual clock starts at, in
    any UTC offset; it is turned into microseconds once, and its offset is
    not kept: a result file writes every instant in UTC.  It must be from
    the Unix epoch to before the year 9000, so every instant a scan
    reaches can be written as ISO text, whose years end at 9999.

    Single-threaded, like the engine that drives it: nothing here is
    locked, so one thread at a time may use a network.
    """

    def __init__(
        self,
        hosts: dict[str, BehaviorConfig],
        *,
        latency_ms: int = 0,
        jitter_ms: int = 0,
        loss_rate: float = 0.0,
        seed: int = 0,
        start: datetime | None = None,
    ):
        _check_delivery(latency_ms, jitter_ms, loss_rate)
        if start is None:
            start = DEFAULT_START
        elif start.tzinfo is None:
            raise ValueError(f"start must be timezone-aware: {start.isoformat()}")
        if not _EPOCH <= start < _START_END:
            raise ValueError(
                "start must be at or after 1970-01-01T00:00:00Z and before "
                f"9000-01-01T00:00:00Z: {start.isoformat()}"
            )
        # dest -> (config, latency ms, jitter ms, replies' source)
        self._plans = {
            dest: (
                cfg,
                latency_ms + cfg.latency_ms,
                jitter_ms + cfg.jitter_ms,
                str(IPv4Address(int(IPv4Address(dest)) ^ 1)) if cfg.tamper == "source" else dest,
            )
            for dest, cfg in hosts.items()
        }
        self._loss_rate = loss_rate
        self._rng = random.Random(seed)
        self._now = (start - _EPOCH) // _US
        self._queue: list[tuple[int, int, str, bytes]] = []
        self._counter = itertools.count()

    @classmethod
    def from_file(cls, path) -> "SimNetwork":
        hosts, params = load_behavior_file(path)
        return cls(hosts, **params)

    def now(self) -> int:
        return self._now

    def sleep_until(self, instant_us: int) -> None:
        """Move the virtual clock to ``instant_us``, never back."""
        if instant_us > self._now:
            self._now = instant_us

    def send(self, dest: str, data: bytes) -> None:
        plan = self._plans.get(dest)
        if plan is None:
            return
        if self._loss_rate and self._rng.random() < self._loss_rate:
            return
        cfg, rtt_ms, jitter, src = plan
        if jitter:
            # A uniform draw from 0 to ``jitter`` ms, as ``randint`` makes it.
            rtt_ms += below(self._rng.getrandbits, jitter + 1)
        host_time = self._now + rtt_ms // 2 * 1000
        reply = respond(cfg, data, host_time, self._rng)
        if reply is None:
            return
        arrival = self._now + rtt_ms * 1000
        heapq.heappush(self._queue, (arrival, next(self._counter), src, reply))

    def receive(self, deadline_us: int) -> tuple[str, bytes, int] | None:
        """Next queued reply, advancing the clock to its arrival; None once
        the clock reaches ``deadline_us``.

        Waits to the microsecond, as ``RawTransport.receive`` does: a reply
        is returned only if it arrives by the deadline, and otherwise the
        clock moves to the deadline."""
        now = self._now
        if now >= deadline_us:
            return None
        if self._queue and self._queue[0][0] <= deadline_us:
            arrival, _, src, data = heapq.heappop(self._queue)
            if arrival > now:
                self._now = arrival
            return src, data, arrival
        self._now = deadline_us
        return None

    def close(self) -> None:
        pass


_HOST_KEYS = {
    "tz": ("tz_offset_hours", float),
    "units": ("units", str),
    "clock_error": ("clock_error_ms", int),
    "latency": ("latency_ms", int),
    "jitter": ("jitter_ms", int),
    "loss": ("loss_rate", float),
    "value": ("stuck_value", lambda s: int(s, 0)),
    "tamper": ("tamper", str),
}

_NETWORK_KEYS = {
    "latency": ("latency_ms", int),
    "jitter": ("jitter_ms", int),
    "loss": ("loss_rate", float),
    "seed": ("seed", int),
    "start": ("start", lambda s: datetime.fromisoformat(s.replace("Z", "+00:00"))),
}


_CLASS_BY_NAME = {c.value: c for c in ImplClass}


def _parse_settings(tokens: list[str], keys: dict) -> dict:
    settings = {}
    for token in tokens:
        key, _, value = token.partition("=")
        name, conv = keys[key]
        try:
            settings[name] = conv(value)
        except ValueError:
            raise ValueError(f"bad value for {key}: {value!r}") from None
    return settings


def load_behavior_file(path) -> tuple[dict[str, BehaviorConfig], dict]:
    """Parse a declarative host-behavior fixture.

    One host per line: ``<ipv4> <class> [key=value ...]``, with the keys
    of ``_HOST_KEYS``; any other key is an error.  A line starting with
    ``@network`` sets global delivery parameters (latency, jitter, loss,
    seed, start), the keyword arguments of ``SimNetwork``.
    """
    hosts: dict[str, BehaviorConfig] = {}
    params: dict = {}

    def parse(text: str) -> None:
        tokens = text.split()
        if tokens[0] == "@network":
            params.update(_parse_settings(tokens[1:], _NETWORK_KEYS))
            # The constructor's checks, run here so an error names this line.
            SimNetwork({}, **params)
            return
        addr = str(IPv4Address(tokens[0]))
        if len(tokens) < 2:
            raise ValueError("no implementation class: expected <ipv4> <class> [key=value ...]")
        impl = _CLASS_BY_NAME.get(tokens[1])
        if impl is None:
            raise ValueError(f"unknown implementation class {tokens[1]!r}")
        settings = _parse_settings(tokens[2:], _HOST_KEYS)
        if addr in hosts:
            raise ValueError(f"duplicate host {addr}")
        hosts[addr] = BehaviorConfig(impl, **settings)

    parse_lines(path, parse)
    return hosts, params
