"""Aggregation over stored scan results.

Covers the report surfaces: the receive-minus-originate error PMF (whose
hourly peaks expose timezone-relative responders), the timezone-inference
accuracy summary against a ground-truth offset database, inbound-request
scanner analysis, and the two-vantage consensus merge.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from ipaddress import IPv4Address, IPv4Network
from typing import NamedTuple

from icmpstamp import wire
from icmpstamp.classify import CorrectnessPolicy, merge_fingerprints
from icmpstamp.clock import DAY_MS, circular_diff, offsets_equal
from icmpstamp.probes import ProbeKind, TamperVerdict
from icmpstamp.results import ResultRecord
from icmpstamp.textfile import parse_lines
from icmpstamp.wire import TimestampMessage

# ``error_histogram`` reads these for each outcome, as module names: on
# Python 3.11 and older, a lookup on an Enum class costs several global reads.
_STANDARD = ProbeKind.STANDARD
_CLEAN = TamperVerdict.CLEAN


def error_histogram(
    records: Iterable[ResultRecord],
    bin_ms: int,
    exclude_correct: bool = False,
) -> list[tuple[int, float]]:
    """PMF of circular(recv - orig) over clean standard-probe replies.

    Returns (bin_start_ms, probability) rows sorted by bin start.  With
    ``exclude_correct`` the replies inside the default correctness margin
    are dropped first, which is the convention that makes the hourly
    timezone peaks stand out.  ``bin_ms`` is checked before the first
    record is read, and ``records`` is read once.
    """
    if bin_ms < 1:
        raise ValueError(f"bin_ms must be positive: {bin_ms}")
    counts: Counter[int] = Counter()
    for rec in records:
        for outcome in rec.outcomes:
            if outcome.kind is not _STANDARD:
                continue
            if outcome.reply is None or outcome.tamper is not _CLEAN:
                continue
            diff = circular_diff(
                outcome.reply.recv_ts % DAY_MS, outcome.request.orig_ts
            )
            if exclude_correct and abs(diff) < CorrectnessPolicy.margin_ms:
                continue
            counts[diff // bin_ms * bin_ms] += 1
    if not counts:
        raise ValueError("no standard-probe replies to bin")
    total = counts.total()
    return [(start, counts[start] / total) for start in sorted(counts)]


@dataclass(frozen=True)
class TzEntry:
    network: IPv4Network
    std_offset: float
    dst_offset: float | None = None


def _parse_tz_entry(text: str) -> TzEntry:
    parts = text.split()
    try:
        if len(parts) not in (2, 3):
            raise ValueError(f"expected <cidr> <std_offset> [dst_offset], got {text!r}")
        network = IPv4Network(parts[0])
        std, *dst = offsets = [float(p) for p in parts[1:]]
        if not all(map(math.isfinite, offsets)):
            raise ValueError(f"offsets must be finite numbers, got {text!r}")
    except ValueError as exc:
        raise ValueError(f"bad tz entry: {exc}") from None
    return TzEntry(network, std, *dst)


def load_tz_db(path) -> list[TzEntry]:
    """Ground-truth offsets: ``<cidr> <std_offset> [dst_offset]`` per line."""
    return parse_lines(path, _parse_tz_entry)


def _tz_index(entries: list[TzEntry]) -> list[tuple[int, dict[int, TzEntry]]]:
    """The rows grouped by netmask, longest prefix first, keyed by network.

    Of several rows for one network the first is kept, so a lookup probes
    at most 33 dicts and agrees with a scan of every row that keeps the
    longest prefix holding the address and, among equals, the first row.
    """
    by_mask: dict[int, dict[int, TzEntry]] = {}
    for entry in entries:
        net = entry.network
        by_mask.setdefault(int(net.netmask), {}).setdefault(int(net.network_address), entry)
    return sorted(by_mask.items(), reverse=True)


def _lookup_tz(index: list[tuple[int, dict[int, TzEntry]]], addr: str) -> TzEntry | None:
    """The row for ``addr``, or None; a result file may hold any string as a
    target, and one that is not an IPv4 address is in no row."""
    try:
        ip = int(IPv4Address(addr))
    except ValueError:
        return None
    for mask, rows in index:
        entry = rows.get(ip & mask)
        if entry is not None:
            return entry
    return None


@dataclass
class GeoSummary:
    """Counts of the five inference-vs-database outcomes."""

    match_std_no_dst: int = 0
    match_dst: int = 0
    match_std_with_dst: int = 0
    mismatch: int = 0
    unresolved: int = 0

    @property
    def total(self) -> int:
        return (
            self.match_std_no_dst
            + self.match_dst
            + self.match_std_with_dst
            + self.mismatch
            + self.unresolved
        )

    @property
    def matched(self) -> int:
        return self.match_std_no_dst + self.match_dst + self.match_std_with_dst

    @property
    def accuracy(self) -> float:
        return self.matched / self.total if self.total else 0.0


def geolocate_report(records: Iterable[ResultRecord], tz_db: list[TzEntry]) -> GeoSummary:
    """Compare inferred offsets against the database, host by host, reading
    ``records`` once.

    A host counts as matched when its inferred offset equals the standard
    offset or, where the zone observes daylight saving, the DST offset.  A
    host in no row, a target that is not an IPv4 address included, is
    unresolved.
    """
    summary = GeoSummary()
    index = _tz_index(tz_db)
    for rec in records:
        inferred = rec.fingerprint.tz_offset
        if inferred is None:
            continue
        entry = _lookup_tz(index, rec.target)
        if entry is None:
            summary.unresolved += 1
        elif entry.dst_offset is None:
            if offsets_equal(inferred, entry.std_offset):
                summary.match_std_no_dst += 1
            else:
                summary.mismatch += 1
        elif offsets_equal(inferred, entry.dst_offset):
            summary.match_dst += 1
        elif offsets_equal(inferred, entry.std_offset):
            summary.match_std_with_dst += 1
        else:
            summary.mismatch += 1
    return summary


class CaptureEntry(NamedTuple):
    """One inbound timestamp request seen at a capture point."""

    src: str
    message: TimestampMessage


def _parse_capture_entry(text: str) -> CaptureEntry:
    try:
        parts = text.split()
        if len(parts) != 3:
            raise ValueError(f"expected <src_ip> <iso_instant|-> <hex_payload>, got {text!r}")
        src, _, payload = parts
        return CaptureEntry(str(IPv4Address(src)), wire.decode(bytes.fromhex(payload)))
    except ValueError as exc:
        raise ValueError(f"bad capture line: {exc}") from None


def load_capture(path) -> list[CaptureEntry]:
    """Parse a capture file: ``<src_ip> <iso_instant|-> <hex_payload>``.

    Every line has the three columns, but the middle one is skipped: no
    report reads when a request came.
    """
    return parse_lines(path, _parse_capture_entry)


@dataclass
class RequestSummary:
    """Scanner portrait of an inbound request capture."""

    total_requests: int = 0
    nmap_like: int = 0
    top_sources: list[tuple[str, int]] = field(default_factory=list)

    @property
    def nmap_fraction(self) -> float:
        return self.nmap_like / self.total_requests if self.total_requests else 0.0


def analyze_requests(entries: list[CaptureEntry], top_n: int = 10) -> RequestSummary:
    """Count requesters and how many bear the zero-originate scanner mark."""
    summary = RequestSummary()
    per_source: Counter = Counter()
    for entry in entries:
        if entry.message.icmp_type != wire.TIMESTAMP_REQUEST:
            continue
        summary.total_requests += 1
        per_source[entry.src] += 1
        # A zero originate timestamp is the mark of nmap host discovery.
        if entry.message.orig_ts == 0:
            summary.nmap_like += 1
    summary.top_sources = per_source.most_common(top_n)
    return summary


def merge_records(
    records_a: Iterable[ResultRecord], records_b: Iterable[ResultRecord]
) -> Iterator[ResultRecord]:
    """Two-vantage consensus: targets seen by both, fingerprints intersected.

    Output order follows the first file.  Merged records carry the joined
    vantage label and no probe detail of their own (the inputs keep it).
    Only what a merged record takes from ``records_b`` is kept, read whole
    at the first record asked for; ``records_a`` is read as records are.
    """
    by_target_b = {r.target: (r.vantage, r.fingerprint, r.duplicate_replies) for r in records_b}
    for rec_a in records_a:
        if rec_a.target in by_target_b:
            vantage_b, fingerprint_b, duplicates_b = by_target_b[rec_a.target]
            yield rec_a._replace(
                vantage=f"{rec_a.vantage}+{vantage_b}",
                outcomes=(),
                fingerprint=merge_fingerprints(rec_a.fingerprint, fingerprint_b),
                duplicate_replies=rec_a.duplicate_replies + duplicates_b,
            )
