"""Report-surface tests: error PMF, geolocation accuracy, request analysis,
two-vantage merge."""

from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import at_ms, echo_reply, pair_for
from icmpstamp import wire
from icmpstamp.classify import (
    Correctness,
    Fingerprint,
    ImplClass,
    Timekeeping,
    fingerprint_observation,
)
from icmpstamp.probes import make_standard
from icmpstamp.reports import (
    TzEntry,
    _lookup_tz,
    _tz_index,
    analyze_requests,
    error_histogram,
    geolocate_report,
    load_capture,
    load_tz_db,
    merge_records,
)
from icmpstamp.results import ResultRecord
from icmpstamp.wire import TimestampMessage


def standard_record(target, orig_ms, recv_offset_ms, vantage="A", tz=None,
                    classes=frozenset({ImplClass.LAZY})):
    """Record with one clean standard pair whose recv = orig + offset."""
    probe = make_standard(target, at_ms(orig_ms))
    recv = (orig_ms + recv_offset_ms) % 86_400_000
    reply = echo_reply(probe, recv, recv)
    pair = pair_for(probe, reply)
    fingerprint = Fingerprint(
        classes=classes,
        timekeeping=Timekeeping.MILLISECOND,
        correctness=Correctness.CORRECT if abs(recv_offset_ms) < 200 else Correctness.INCORRECT,
        tz_offset=tz,
    )
    return ResultRecord(target, vantage, (pair,), fingerprint)


class TestErrorHistogram:
    def test_correct_population_masses_near_zero(self):
        records = [
            standard_record(f"10.2.0.{i}", 40_000_000 + i * 1000, offset)
            for i, offset in enumerate([0, 3, 7, 9, 12])
        ]
        rows = error_histogram(records, bin_ms=10)
        assert sum(p for _, p in rows) == pytest.approx(1.0)
        assert {start for start, _ in rows} <= {0, 10}

    def test_timezone_population_spikes_at_offset(self):
        records = [
            standard_record(f"10.2.1.{i}", 30_000_000 + i * 777, 32_400_000)
            for i in range(20)
        ]
        rows = error_histogram(records, bin_ms=60_000)
        assert rows == [(32_400_000, 1.0)]

    def test_exclude_correct(self):
        records = [
            standard_record("10.2.2.1", 40_000_000, 5),
            standard_record("10.2.2.2", 40_000_000, 32_400_000),
        ]
        rows = error_histogram(records, bin_ms=60_000, exclude_correct=True)
        assert rows == [(32_400_000, 1.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            error_histogram([], bin_ms=10)

    def test_bad_bin_rejected(self):
        with pytest.raises(ValueError):
            error_histogram([standard_record("10.2.3.1", 1_000_000, 0)], bin_ms=0)

    def test_negative_diffs_keep_sign(self):
        records = [standard_record("10.2.4.1", 40_000_000, -3_600_000)]
        rows = error_histogram(records, bin_ms=60_000)
        assert rows == [(-3_600_000, 1.0)]


TZ_DB_TEXT = """\
# cidr std dst
10.3.0.0/24 9
10.3.1.0/24 1 2
10.3.2.0/24 -3.5
10.3.3.0/28 5 6
10.3.3.0/24 8
"""


class TestGeolocate:
    @pytest.fixture()
    def tz_db(self, tmp_path):
        path = tmp_path / "tz.db"
        path.write_text(TZ_DB_TEXT)
        return load_tz_db(path)

    def test_match_std_without_dst(self, tz_db):
        records = [standard_record("10.3.0.9", 40_000_000, 32_400_000, tz=9.0)]
        summary = geolocate_report(records, tz_db)
        assert summary.match_std_no_dst == 1 and summary.total == 1

    def test_match_dst_offset(self, tz_db):
        records = [standard_record("10.3.1.9", 40_000_000, 7_200_000, tz=2.0)]
        summary = geolocate_report(records, tz_db)
        assert summary.match_dst == 1

    def test_match_std_where_zone_has_dst(self, tz_db):
        records = [standard_record("10.3.1.9", 40_000_000, 3_600_000, tz=1.0)]
        summary = geolocate_report(records, tz_db)
        assert summary.match_std_with_dst == 1

    def test_mismatch(self, tz_db):
        records = [standard_record("10.3.2.9", 40_000_000, 32_400_000, tz=9.0)]
        summary = geolocate_report(records, tz_db)
        assert summary.mismatch == 1

    def test_unresolved(self, tz_db):
        record = standard_record("198.51.100.9", 40_000_000, 32_400_000, tz=9.0)
        # A result file may hold any string as a target.
        records = [record] + [
            record._replace(target=target) for target in ("not-an-ip", "10.3.0.09", "")
        ]
        summary = geolocate_report(records, tz_db)
        assert summary.unresolved == 4

    def test_longest_prefix_wins(self, tz_db):
        records = [standard_record("10.3.3.9", 40_000_000, 18_000_000, tz=5.0)]
        summary = geolocate_report(records, tz_db)
        assert summary.match_dst == 0 and summary.match_std_with_dst == 1

    def test_hosts_without_inference_ignored(self, tz_db):
        records = [standard_record("10.3.0.9", 40_000_000, 5, tz=None)]
        summary = geolocate_report(records, tz_db)
        assert summary.total == 0 and summary.accuracy == 0.0

    def test_malformed_db(self, tmp_path):
        path = tmp_path / "tz.db"
        for line, reason in [
            ("10.3.0.0/24 nine", "could not convert string to float: 'nine'"),
            ("192.0.2.0/28 nan", "offsets must be finite numbers, got '192.0.2.0/28 nan'"),
            ("0.0.0.0/0 inf", "offsets must be finite numbers, got '0.0.0.0/0 inf'"),
            ("0.0.0.0/0 9 -inf", "offsets must be finite numbers, got '0.0.0.0/0 9 -inf'"),
            ("0.0.0.0/0 9 10 junk",
             "expected <cidr> <std_offset> [dst_offset], got '0.0.0.0/0 9 10 junk'"),
            ("10.3.0.0/24", "expected <cidr> <std_offset> [dst_offset], got '10.3.0.0/24'"),
        ]:
            path.write_text(f"{line}\n")
            with pytest.raises(ValueError) as exc:
                load_tz_db(path)
            assert str(exc.value) == f"{path}:1: bad tz entry: {reason}"


def linear_lookup_tz(entries, addr):
    """The former lookup: scan every row, keep the first longest prefix."""
    ip = IPv4Address(addr)
    best = None
    for entry in entries:
        if ip in entry.network:
            if best is None or entry.network.prefixlen > best.network.prefixlen:
                best = entry
    return best


# Half the addresses fall in one /24, so rows nest and repeat often.
addresses = st.integers(0x0A030300, 0x0A0303FF) | st.integers(0, 2**32 - 1)
networks = st.builds(
    lambda addr, prefixlen: IPv4Network((addr, prefixlen), strict=False),
    addresses,
    st.integers(0, 32),
)


@given(st.lists(networks, max_size=30), st.lists(addresses, min_size=1, max_size=20))
def test_longest_prefix_index_matches_a_scan_of_every_row(nets, addrs):
    entries = [TzEntry(net, float(i)) for i, net in enumerate(nets)]
    index = _tz_index(entries)
    assert len(index) <= 33
    for addr in map(str, map(IPv4Address, addrs)):
        assert _lookup_tz(index, addr) is linear_lookup_tz(entries, addr)


def capture_line(src, orig):
    msg = wire.fill_checksum(TimestampMessage(13, ident=1, seq=2, orig_ts=orig))
    return f"{src} 2018-10-06T12:00:00Z {wire.encode(msg).hex()}"


class TestAnalyzeRequests:
    def test_all_zero_originate(self, tmp_path):
        path = tmp_path / "capture.txt"
        path.write_text("\n".join(capture_line(f"10.4.0.{i % 5}", 0) for i in range(100)) + "\n")
        summary = analyze_requests(load_capture(path))
        assert summary.total_requests == 100
        assert summary.nmap_fraction == 1.0
        assert len(summary.top_sources) == 5

    def test_mixed_fraction(self, tmp_path):
        lines = [capture_line("10.4.1.1", 0) for _ in range(93)]
        lines += [capture_line("10.4.1.2", 45_296_789) for _ in range(7)]
        path = tmp_path / "capture.txt"
        path.write_text("\n".join(lines) + "\n")
        summary = analyze_requests(load_capture(path))
        assert summary.nmap_like == 93
        assert summary.nmap_fraction == pytest.approx(0.93)

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "capture.txt"
        path.write_text("# nothing seen\n")
        summary = analyze_requests(load_capture(path))
        assert summary.total_requests == 0 and summary.nmap_fraction == 0.0

    def test_replies_in_capture_ignored(self, tmp_path):
        reply = wire.fill_checksum(TimestampMessage(14, orig_ts=0))
        path = tmp_path / "capture.txt"
        path.write_text(
            capture_line("10.4.2.1", 0)
            + "\n"
            + f"10.4.2.2 - {wire.encode(reply).hex()}\n"
        )
        summary = analyze_requests(load_capture(path))
        assert summary.total_requests == 1

    def test_bad_line_named(self, tmp_path):
        path = tmp_path / "capture.txt"
        path.write_text("10.4.3.1 2018-10-06T12:00:00Z nothex\n")
        with pytest.raises(ValueError, match="capture.txt:1"):
            load_capture(path)

    # Without the skipped time column, or with the payload repeated.
    @pytest.mark.parametrize("kept", [(0, 2), (0, 1, 2, 2)])
    def test_line_needs_three_columns(self, tmp_path, kept):
        columns = capture_line("10.4.3.1", 0).split()
        row = " ".join(columns[i] for i in kept)
        path = tmp_path / "capture.txt"
        path.write_text(row + "\n")
        with pytest.raises(ValueError) as info:
            load_capture(path)
        assert str(info.value) == (
            f"{path}:1: bad capture line: "
            f"expected <src_ip> <iso_instant|-> <hex_payload>, got {row!r}"
        )

    @staticmethod
    def summary_of(tmp_path, message):
        path = tmp_path / "capture.txt"
        path.write_text(f"10.4.4.1 - {wire.encode(wire.fill_checksum(message)).hex()}\n")
        summary = analyze_requests(load_capture(path))
        return summary.total_requests, summary.nmap_like

    def test_zero_originate_is_nmap_like(self, tmp_path):
        assert self.summary_of(tmp_path, TimestampMessage(13, orig_ts=0)) == (1, 1)

    def test_real_time_is_other(self, tmp_path):
        assert self.summary_of(tmp_path, TimestampMessage(13, orig_ts=45_296_789)) == (1, 0)

    def test_one_is_other(self, tmp_path):
        assert self.summary_of(tmp_path, TimestampMessage(13, orig_ts=1)) == (1, 0)

    def test_reply_is_not_a_request(self, tmp_path):
        assert self.summary_of(tmp_path, TimestampMessage(14, orig_ts=0)) == (0, 0)


class TestMergeRecords:
    def test_intersection_of_targets(self):
        a = [standard_record("10.5.0.1", 1_000_000, 3, vantage="boston"),
             standard_record("10.5.0.2", 1_000_000, 3, vantage="boston")]
        b = [standard_record("10.5.0.2", 2_000_000, 4, vantage="sandiego")]
        merged = list(merge_records(a, b))
        assert [r.target for r in merged] == ["10.5.0.2"]
        assert merged[0].vantage == "boston+sandiego"

    def test_fingerprints_intersect(self):
        a = [standard_record("10.5.1.1", 1_000_000, 3,
                             classes=frozenset({ImplClass.NORMAL}))]
        b = [standard_record("10.5.1.1", 2_000_000, 4,
                             classes=frozenset({ImplClass.LAZY}))]
        merged = list(merge_records(a, b))
        assert merged[0].fingerprint.classes == {ImplClass.UNKNOWN}

    def test_agreeing_fingerprints_survive(self):
        a = [standard_record("10.5.2.1", 1_000_000, 32_400_000, tz=9.0,
                             classes=frozenset({ImplClass.LAZY, ImplClass.TIMEZONE}))]
        b = [standard_record("10.5.2.1", 9_000_000, 32_400_000, tz=9.0,
                             classes=frozenset({ImplClass.LAZY, ImplClass.TIMEZONE}))]
        merged = list(merge_records(a, b))
        assert merged[0].fingerprint.classes == {ImplClass.LAZY, ImplClass.TIMEZONE}
        assert merged[0].fingerprint.tz_offset == 9.0


def test_fingerprint_observation_consistency_with_reports():
    # A record built from a real observation feeds the histogram the same
    # diff that the correctness rule saw.
    probe = make_standard("10.6.0.1", at_ms(50_000_000))
    reply = echo_reply(probe, 50_000_000 + 150, 50_000_000 + 150)
    pair = pair_for(probe, reply)
    from icmpstamp.classify import HostObservation

    obs = HostObservation([pair])
    fp = fingerprint_observation(obs)
    rec = ResultRecord("10.6.0.1", "A", (pair,), fp)
    rows = error_histogram([rec], bin_ms=100)
    assert rows == [(100, 1.0)]
    assert fp.correctness is Correctness.CORRECT
