"""Scan engine tests: pacing, matching, determinism, failure handling."""

import gc
import hashlib
import heapq
import itertools
import logging
import random
import re
import sys
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import DEMO_SCAN_SHA256, EPOCH, epoch_us, former_verify_reply
from former_engine import former_scan
from icmpstamp import engine, responder, wire
from icmpstamp.classify import ImplClass
from icmpstamp.clock import DAY_MS
from icmpstamp.engine import ScanAborted, ScanConfig, _parse_target, load_targets, run_scan
from icmpstamp.probes import ProbeKind, ProbeOutcome, TamperVerdict
from icmpstamp.responder import BehaviorConfig, SimNetwork
from icmpstamp.results import read_records, record_to_line
from icmpstamp.transport import RawTransport, TransportError
from icmpstamp.wire import TimestampMessage

# 9:13:27.296 puts the day-millisecond low byte at zero, so short scan
# windows stay clear of the MSB-shaped hazards (a truncated-timestamp host
# whose value's top byte crosses 0x80 legitimately classifies non-UTC too).
START = datetime(2018, 10, 6, 9, 13, 27, 296000, tzinfo=timezone.utc)
START_US = epoch_us(START)


def write_targets(tmp_path, addrs):
    path = tmp_path / "targets.txt"
    path.write_text("\n".join(addrs) + "\n")
    return str(path)


def lazy_hosts(addrs, **kw):
    return {a: BehaviorConfig(ImplClass.LAZY, **kw) for a in addrs}


class RecordingTransport:
    """Wraps a transport and logs every outbound (time, dest, bytes)."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []

    def now(self):
        return self.inner.now()

    def send(self, dest, data):
        self.sent.append((self.inner.now(), dest, data))
        self.inner.send(dest, data)

    def receive(self, deadline):
        return self.inner.receive(deadline)

    def close(self):
        self.inner.close()


class FailingTransport(RecordingTransport):
    def __init__(self, inner, fail_after):
        super().__init__(inner)
        self.fail_after = fail_after

    def send(self, dest, data):
        if len(self.sent) >= self.fail_after:
            raise TransportError("synthetic link failure")
        super().send(dest, data)


class ChaosTransport(RecordingTransport):
    """Drops, duplicates and locally reorders replies; injects junk.

    Truncated copies of real replies and copies from an address outside
    the target list ride along.  With ``hostile``, so do copies with one
    bit flipped, copies padded with zeros or with other bytes, other ICMP
    types (echo reply, unreachable, echo request) and timestamp requests.
    ``delivered`` lists every packet handed to the engine; a held packet
    is handed over before the inner transport is asked for more, so none
    is lost when the scan ends.
    """

    OFF_TARGET = "198.18.0.1"

    def __init__(self, inner, rng, hostile=False):
        super().__init__(inner)
        self.rng = rng
        self.hostile = hostile
        self.held = []
        self.delivered = []

    def receive(self, deadline):
        while not self.held:
            item = self.inner.receive(deadline)
            if item is None:
                return None
            src, data, arrival = item
            roll = self.rng.random()
            self.held.extend([item] * (0 if roll < 0.1 else 2 if roll < 0.3 else 1))
            if self.rng.random() < 0.2:
                self.held.append((src, data[: self.rng.randrange(20)], arrival))
            if self.rng.random() < 0.2:
                self.held.append((self.OFF_TARGET, data, arrival))
            if self.hostile:
                self.held.extend((src, junk, arrival) for junk in self.hostile_copies(data))
        item = self.held.pop(self.rng.randrange(min(2, len(self.held))))
        self.delivered.append(item)
        return item

    def hostile_copies(self, data):
        """Some of: ``data`` with a bit flipped, padded with zeros to an even
        and to an odd length, padded with non-zero bytes, retyped as ICMP
        0, 3 or 8, and repacked as a timestamp request."""
        rng = self.rng
        copies = []
        if rng.random() < 0.3:
            bit = rng.randrange(8 * len(data))
            copies.append(bytes(b ^ (1 << bit % 8) * (i == bit // 8) for i, b in enumerate(data)))
        if rng.random() < 0.3:
            copies.append(data + bytes(2 * rng.randrange(1, 5)))
        if rng.random() < 0.3:
            copies.append(data + bytes(2 * rng.randrange(5) + 1))
        if rng.random() < 0.3:
            copies.append(data + bytes(rng.randrange(1, 256) for _ in range(rng.randrange(1, 9))))
        if rng.random() < 0.3:
            copies.append(bytes([rng.choice((0, 3, 8))]) + data[1:])
        if rng.random() < 0.3:
            _, _, _, ident, seq, orig, recv, xmit = wire.decode(data)
            request = wire.TimestampMessage(wire.TIMESTAMP_REQUEST, 0, 0, ident, seq, orig, recv, xmit)
            copies.append(wire.encode(wire.fill_checksum(request)))
        return copies


class LateWakingTransport(RecordingTransport):
    """Its ``late_call``-th idle ``receive`` (from 0) returns ``late_us`` past
    the deadline, as a receive on a busy host may."""

    def __init__(self, inner, late_call, late_us):
        super().__init__(inner)
        self.late_call = late_call
        self.late_us = late_us
        self.idle = 0

    def receive(self, deadline):
        late = self.late_us if self.idle == self.late_call else 0
        item = self.inner.receive(deadline + late)
        self.idle += item is None
        return item


class CountingTransport(RecordingTransport):
    """Counts the engine's clock reads and receives."""

    def __init__(self, inner):
        super().__init__(inner)
        self.now_calls = 0
        self.receive_calls = 0

    def now(self):
        self.now_calls += 1
        return self.inner.now()

    def receive(self, deadline):
        self.receive_calls += 1
        return self.inner.receive(deadline)


class TestLoadTargets:
    def test_two_addresses(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("192.0.2.1\n198.51.100.7\n")
        assert list(load_targets(path).items()) == [
            ("192.0.2.1", bytes([192, 0, 2, 1])), ("198.51.100.7", bytes([198, 51, 100, 7])),
        ]

    def test_duplicates_removed_preserving_first(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("192.0.2.1\n198.51.100.7\n192.0.2.1\n")
        assert list(load_targets(path)) == ["192.0.2.1", "198.51.100.7"]

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# hitlist\n\n192.0.2.1  # gateway\n")
        assert load_targets(path) == {"192.0.2.1": bytes([192, 0, 2, 1])}

    def test_bad_line_names_line_number(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("192.0.2.1\nnot-an-ip\n")
        with pytest.raises(ValueError, match="t.txt:2"):
            load_targets(path)


# Dotted strings near the edge of what IPv4Address accepts: leading zeros,
# octets above 255, three or five parts, surrounding whitespace, non-ASCII
# digits, signs, NUL and a lone surrogate.
octets = (
    st.integers(0, 300).map(str)
    | st.integers(0, 255).map(lambda n: f"0{n}")
    | st.text(st.sampled_from("0123456789\u0661\uff11\u00b2\x00 +-_\ud800"), max_size=4)
)
dotted = st.builds(
    lambda head, parts, tail: head + ".".join(parts) + tail,
    st.sampled_from(["", " ", "\t", "\x00"]),
    st.lists(octets, min_size=3, max_size=5),
    st.sampled_from(["", " ", "\n", "\x00", "."]),
)


@given(dotted | st.text(max_size=20))
def test_parse_target_accepts_what_ipv4address_accepts(text):
    try:
        addr = IPv4Address(text)
    except ValueError:
        with pytest.raises(ValueError, match=f"^not an IPv4 address: {re.escape(repr(text))}$"):
            _parse_target(text)
    else:
        assert _parse_target(text) == (str(addr), addr.packed)


class TestScanConfig:
    def test_rate_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ScanConfig(targets_path="x", rate_pps=0)

    def test_gap_floor(self):
        with pytest.raises(ValueError):
            ScanConfig(targets_path="x", inter_round_gap_ms=500)

    @pytest.mark.parametrize("field", ["inter_round_gap_ms", "timeout_ms"])
    def test_wait_bounded_at_one_day(self, field):
        ScanConfig(targets_path="x", **{field: DAY_MS})
        for value in (DAY_MS + 1, 10**20):
            with pytest.raises(ValueError, match=field):
                ScanConfig(targets_path="x", **{field: value})


class TestPacing:
    # The simulator waits to the microsecond, so on an idle network each
    # send goes out exactly on its slot.
    INTERVAL = 10_000

    @pytest.mark.parametrize("rate, gap", [(100_000, 10), (37, 27_028)])
    def test_answering_hosts_are_probed_one_interval_apart(self, tmp_path, rate, gap):
        # 1 s / rate rounded up to a whole µs, not to a whole millisecond.
        addrs = [f"10.0.14.{i}" for i in range(1, 7)]
        _, transport, records = run_simple_scan(
            tmp_path, addrs, lazy_hosts(addrs), rate_pps=rate, seed=4,
        )
        assert len(records) == len(addrs)
        round_one = [t for t, _, _ in transport.sent[: 3 * len(addrs)]]
        assert round_one[0] == START_US
        assert {b - a for a, b in zip(round_one, round_one[1:])} == {gap}

    def test_idle_sends_are_one_interval_apart(self, tmp_path):
        addrs = [f"10.0.11.{i}" for i in range(1, 9)]
        _, transport, _ = run_simple_scan(tmp_path, addrs, {}, rate_pps=100, seed=4)
        round_one = [t for t, _, _ in transport.sent[: 3 * len(addrs)]]
        assert round_one[0] == START_US
        assert [b - a for a, b in zip(round_one, round_one[1:])] == [self.INTERVAL] * (
            len(round_one) - 1
        )

    def test_late_send_moves_the_next_send(self, tmp_path):
        addrs = [f"10.0.12.{i}" for i in range(1, 9)]
        late = 5_000_000
        _, transport, _ = run_simple_scan(
            tmp_path, addrs, {}, rate_pps=100, seed=4,
            transport_cls=lambda net: LateWakingTransport(net, 6, late),
        )
        times = [t for t, _, _ in transport.sent]
        assert times[5] == START_US + 5 * self.INTERVAL
        assert times[6] == times[5] + self.INTERVAL + late
        assert times[7] == times[6] + self.INTERVAL


def run_simple_scan(tmp_path, addrs, hosts, *, transport_cls=RecordingTransport,
                    net_kw=None, **cfg_kw):
    cfg = ScanConfig(targets_path=write_targets(tmp_path, addrs), **cfg_kw)
    net = SimNetwork(hosts, start=START, **(net_kw or {}))
    transport = transport_cls(net)
    records = list(run_scan(cfg, transport))
    return cfg, transport, records


class TestScan:
    def test_one_record_per_responsive_host(self, tmp_path):
        addrs = [f"10.0.0.{i}" for i in range(1, 21)]
        hosts = lazy_hosts(addrs[:15])  # five targets never answer
        _, _, records = run_simple_scan(tmp_path, addrs, hosts, rate_pps=400, seed=3)
        assert [r.target for r in records] == addrs[:15]
        assert all(r.fingerprint.classes == {ImplClass.LAZY} for r in records)

    def test_permutation_covers_targets_times_kinds(self, tmp_path):
        addrs = [f"10.0.1.{i}" for i in range(1, 11)]
        _, transport, _ = run_simple_scan(tmp_path, addrs, lazy_hosts(addrs),
                                          rate_pps=500, seed=5)
        sent = [(dest, wire.decode(data)) for _, dest, data in transport.sent]
        assert len(sent) == len(addrs) * 4
        per_dest = {a: [] for a in addrs}
        for dest, msg in sent:
            per_dest[dest].append(msg)
        for dest, messages in per_dest.items():
            assert len(messages) == 4
            bad_cksum = [m for m in messages if not wire.verify_checksum(wire.encode(m))]
            duplicates = [m for m in messages if m.orig_ts == m.recv_ts == m.xmit_ts != 0]
            assert len(bad_cksum) == 1
            assert len(duplicates) == 1

    def test_rate_limit_sliding_window(self, tmp_path):
        addrs = [f"10.0.2.{i}" for i in range(1, 26)]
        rate = 50
        _, transport, _ = run_simple_scan(tmp_path, addrs, lazy_hosts(addrs),
                                          rate_pps=rate, seed=7)
        times = sorted(t for t, _, _ in transport.sent)
        window = 1_000_000
        for i, t in enumerate(times):
            in_window = sum(1 for u in times[i:] if u < t + window)
            assert in_window <= rate

    def test_duplicate_sent_after_gap(self, tmp_path):
        addrs = [f"10.0.3.{i}" for i in range(1, 8)]
        _, _, records = run_simple_scan(tmp_path, addrs, lazy_hosts(addrs),
                                        rate_pps=200, seed=11, inter_round_gap_ms=3000)
        for rec in records:
            by_kind = {o.kind: o for o in rec.outcomes}
            gap = by_kind[ProbeKind.DUPLICATE].send_time - by_kind[
                ProbeKind.STANDARD
            ].send_time
            assert gap >= 3_000_000

    def test_matching_soundness(self, tmp_path):
        addrs = [f"10.0.4.{i}" for i in range(1, 16)]
        _, _, records = run_simple_scan(tmp_path, addrs, lazy_hosts(addrs),
                                        rate_pps=300, seed=13,
                                        net_kw={"latency_ms": 15, "jitter_ms": 10, "seed": 2})
        for rec in records:
            for outcome in rec.outcomes:
                if outcome.reply is None:
                    continue
                # Crafted for this target: its hashed fields hold.
                assert former_verify_reply(outcome, outcome.reply, rec.target) is (
                    TamperVerdict.CLEAN
                )
                assert outcome.reply.ident == outcome.request.ident
                assert outcome.reply.seq == outcome.request.seq
                assert outcome.tamper is TamperVerdict.CLEAN

    def test_deterministic_output(self, tmp_path):
        addrs = [f"10.0.5.{i}" for i in range(1, 13)]
        hosts = {
            a: BehaviorConfig(ImplClass.LAZY if i % 2 else ImplClass.NORMAL, jitter_ms=6)
            for i, a in enumerate(addrs)
        }

        def run_once():
            cfg = ScanConfig(
                targets_path=write_targets(tmp_path, addrs), rate_pps=250, seed=99,
                vantage="A",
            )
            net = SimNetwork(hosts, start=START, seed=1234, jitter_ms=4)
            return "\n".join(record_to_line(r) for r in run_scan(cfg, net))

        assert run_once() == run_once()

    def test_one_clock_read_per_send(self, tmp_path):
        # The engine reads the clock for each send time and for the first
        # slot, and for nothing else: every wait is the transport's.
        addrs = [f"10.0.8.{i}" for i in range(1, 13)]
        hosts = lazy_hosts(addrs[:9], jitter_ms=30)
        _, transport, records = run_simple_scan(
            tmp_path, addrs, hosts, transport_cls=CountingTransport, rate_pps=300,
            seed=17, net_kw={"latency_ms": 40, "seed": 5},
        )
        sends = len(transport.sent)
        assert sends == 4 * len(addrs) and len(records) == 9
        assert transport.receive_calls > sends
        assert transport.now_calls == sends + 1

    def test_unresponsive_scan_is_empty_success(self, tmp_path):
        addrs = ["10.0.7.1", "10.0.7.2"]
        _, _, records = run_simple_scan(tmp_path, addrs, {}, rate_pps=100, seed=1)
        assert records == []

    def test_id_seq_tamper_binds_via_orig_fallback(self, tmp_path):
        addrs = ["10.0.8.1"]
        hosts = {addrs[0]: BehaviorConfig(ImplClass.LAZY, tamper="id_seq")}
        _, _, records = run_simple_scan(tmp_path, addrs, hosts, rate_pps=100, seed=1)
        assert len(records) == 1
        rec = records[0]
        verdicts = {o.tamper for o in rec.outcomes if o.reply is not None}
        assert verdicts == {TamperVerdict.ID_SEQ_MODIFIED}
        assert rec.fingerprint.classes == {ImplClass.UNKNOWN}
        assert "all_replies_tampered" in rec.fingerprint.flags

    def test_source_tamper_yields_unmatched_and_no_record(self, tmp_path, caplog):
        addrs = ["10.0.9.1"]
        hosts = {addrs[0]: BehaviorConfig(ImplClass.LAZY, tamper="source")}
        with caplog.at_level(logging.INFO, logger="icmpstamp.engine"):
            _, _, records = run_simple_scan(tmp_path, addrs, hosts, rate_pps=100, seed=1)
        assert records == []
        assert any("unmatched" in message for message in caplog.messages)

    def test_source_rewritten_onto_another_target_binds_nothing(self, tmp_path):
        # .1 answers from .0, which is a target too: each of .1's replies is
        # filed under .0 and matches none of .0's probes.
        addrs = ["10.0.9.0", "10.0.9.1"]
        hosts = {
            addrs[0]: BehaviorConfig(ImplClass.LAZY),
            addrs[1]: BehaviorConfig(ImplClass.LAZY, tamper="source"),
        }
        with EngineLog() as engine_log:
            _, _, records = run_simple_scan(tmp_path, addrs, hosts, rate_pps=100, seed=1)
        (rec,) = records
        assert rec.target == addrs[0] and rec.duplicate_replies == 0
        answered = [o for o in rec.outcomes if o.reply is not None]
        # A lazy host answers every probe but the bad-checksum one.
        assert sorted(o.kind.value for o in answered) == ["bad_clock", "duplicate", "standard"]
        for outcome in answered:
            assert outcome.tamper is TamperVerdict.CLEAN
            assert former_verify_reply(outcome, outcome.reply, addrs[0]) is TamperVerdict.CLEAN
        # All three of .1's replies are discarded as unmatched.
        _, discarded = engine_log.closing_counts()
        assert discarded == 3

    def failing_scan(self, tmp_path, addrs, fail_after):
        """Records and unsent targets of a scan whose send fails."""
        cfg = ScanConfig(
            targets_path=write_targets(tmp_path, addrs),
            rate_pps=100,
            seed=21,
        )
        net = SimNetwork(lazy_hosts(addrs), start=START)
        transport = FailingTransport(net, fail_after=fail_after)
        records = []
        with EngineLog() as engine_log, pytest.raises(ScanAborted) as aborted:
            for rec in run_scan(cfg, transport):
                records.append(rec)
        # The send that failed is not counted.
        sent, _ = engine_log.closing_counts()
        assert sent == len(transport.sent) == fail_after
        return transport, records, aborted.value.unsent

    def test_transport_failure_flushes_and_writes_resume(self, tmp_path):
        # Cut off in round one, no target has had its duplicate, so every
        # target is listed: probed or not, its record would be partial.
        addrs = [f"10.0.10.{i}" for i in range(1, 11)]
        transport, records, remaining = self.failing_scan(tmp_path, addrs, 12)
        assert records  # partial results still emitted
        assert len({dest for _, dest, _ in transport.sent}) < len(addrs)
        assert remaining == addrs

    def test_round_two_failure_lists_targets_without_a_duplicate(self, tmp_path):
        addrs = [f"10.0.10.{i}" for i in range(1, 11)]
        transport, records, remaining = self.failing_scan(tmp_path, addrs, 3 * len(addrs) + 4)
        with_duplicate = {
            dest for _, dest, data in transport.sent
            if (msg := wire.decode(data)).orig_ts == msg.recv_ts == msg.xmit_ts != 0
        }
        assert len(with_duplicate) == 4 and len(records) == len(addrs)
        assert remaining == [a for a in addrs if a not in with_duplicate]


# Even last octets, so a source-rewriting host (dest ^ 1) answers from an
# address outside the target list.
CHAOS_TARGETS = [f"10.20.0.{2 * i}" for i in range(1, 7)]


@settings(max_examples=40, deadline=None)
@given(
    fleet=st.lists(
        st.tuples(
            st.sampled_from([None, ImplClass.LAZY, ImplClass.NORMAL,
                             ImplClass.CHECKSUM_LAZY, ImplClass.REFLECTION]),
            st.sampled_from([None, "orig_ts", "id_seq", "source"]),
        ),
        min_size=len(CHAOS_TARGETS),
        max_size=len(CHAOS_TARGETS),
    ),
    chaos_seed=st.integers(0, 2**32 - 1),
)
def test_matching_on_a_hostile_network(tmp_path_factory, fleet, chaos_seed):
    hosts = {
        addr: BehaviorConfig(impl, tamper=tamper, jitter_ms=30)
        for addr, (impl, tamper) in zip(CHAOS_TARGETS, fleet)
        if impl is not None
    }
    cfg = ScanConfig(
        targets_path=write_targets(tmp_path_factory.mktemp("chaos"), CHAOS_TARGETS),
        rate_pps=200, inter_round_gap_ms=1000, timeout_ms=1000, seed=chaos_seed,
    )
    transport = ChaosTransport(SimNetwork(hosts, start=START), random.Random(chaos_seed))
    records = list(run_scan(cfg, transport))

    sent_keys = {}
    for _, dest, data in transport.sent:
        msg = wire.decode(data)
        sent_keys.setdefault(dest, set()).add((msg.ident, msg.seq))
    delivered = {(src, data) for src, data, _ in transport.delivered}
    keyed = Counter()
    for src, data, _ in transport.delivered:
        try:
            msg = wire.decode(data)
        except wire.WireError:
            continue
        if (msg.ident, msg.seq) in sent_keys.get(src, ()):
            keyed[src] += 1

    assert set(keyed) <= {r.target for r in records}
    for rec in records:
        # Whether the standard probe went unanswered, was bound by its
        # originate timestamp or drew duplicates, the duplicate waits the
        # gap after it.
        by_kind = {o.kind: o for o in rec.outcomes}
        gap = by_kind[ProbeKind.DUPLICATE].send_time - by_kind[ProbeKind.STANDARD].send_time
        assert gap >= cfg.inter_round_gap_ms * 1000
        bound_by_key = 0
        for outcome in rec.outcomes:
            if outcome.reply is None:
                continue
            sent = outcome.request
            assert (rec.target, wire.encode(outcome.reply)) in delivered
            by_key = (outcome.reply.ident, outcome.reply.seq) == (sent.ident, sent.seq)
            assert by_key or outcome.reply.orig_ts == sent.orig_ts
            assert outcome.tamper is former_verify_reply(
                outcome, outcome.reply, rec.target
            )
            bound_by_key += by_key
        # Every (id, seq)-matching copy beyond the one bound is a duplicate.
        assert rec.duplicate_replies == keyed[rec.target] - bound_by_key


class EngineLog(logging.Handler):
    """Collects the engine's log messages while in a ``with`` block."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []
        self.logger = logging.getLogger("icmpstamp.engine")

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        self.level = self.logger.level
        self.logger.setLevel(logging.INFO)
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)
        self.logger.setLevel(self.level)

    def closing_counts(self):
        """Probes sent and replies discarded, from the scan's closing line."""
        (closing,) = [m for m in self.messages if m.startswith("sent ")]
        counts = re.fullmatch(r"sent (\d+) probes; discarded (\d+) .*", closing).groups()
        return tuple(map(int, counts))


@settings(max_examples=40, deadline=None)
@given(
    fleet=st.lists(
        st.tuples(
            st.sampled_from([None, ImplClass.LAZY, ImplClass.NORMAL,
                             ImplClass.CHECKSUM_LAZY, ImplClass.REFLECTION]),
            st.sampled_from([None, "orig_ts", "id_seq", "source"]),
        ),
        min_size=len(CHAOS_TARGETS),
        max_size=len(CHAOS_TARGETS),
    ),
    chaos_seed=st.integers(0, 2**32 - 1),
)
def test_every_hostile_packet_is_counted_once(tmp_path_factory, fleet, chaos_seed):
    # Each delivered packet ends in exactly one place: bound to a probe,
    # counted as a duplicate reply, discarded (undecodable, bad checksum
    # or unmatched), or ignored as a timestamp request.
    hosts = {
        addr: BehaviorConfig(impl, tamper=tamper, jitter_ms=30)
        for addr, (impl, tamper) in zip(CHAOS_TARGETS, fleet)
        if impl is not None
    }
    cfg = ScanConfig(
        targets_path=write_targets(tmp_path_factory.mktemp("hostile"), CHAOS_TARGETS),
        rate_pps=200, inter_round_gap_ms=1000, timeout_ms=1000, seed=chaos_seed,
    )
    transport = ChaosTransport(
        SimNetwork(hosts, start=START), random.Random(chaos_seed), hostile=True
    )
    with EngineLog() as engine_log:
        records = list(run_scan(cfg, transport))

    sent, discarded = engine_log.closing_counts()
    assert sent == len(transport.sent)
    bound = sum(o.reply is not None for r in records for o in r.outcomes)
    duplicates = sum(r.duplicate_replies for r in records)
    requests = sum(
        len(data) >= 20 and data[0] == wire.TIMESTAMP_REQUEST
        for _, data, _ in transport.delivered
    )
    assert len(transport.delivered) == bound + duplicates + discarded + requests


class PaddingTransport(RecordingTransport):
    """Appends ``pad`` zero bytes to every reply."""

    def __init__(self, inner, pad):
        super().__init__(inner)
        self.pad = bytes(pad)

    def receive(self, deadline):
        item = self.inner.receive(deadline)
        return item and (item[0], item[1] + self.pad, item[2])


@pytest.mark.parametrize("pad", [1, 2, 5, 8])
def test_zero_padded_replies_bind(tmp_path, pad):
    # Zero bytes leave the ones'-complement sum as it was, at an even or an
    # odd length, so a padded reply binds as the bare one does.
    addrs = [f"10.0.13.{i}" for i in range(1, 9)]
    hosts = lazy_hosts(addrs[:6], jitter_ms=20)
    _, _, bare = run_simple_scan(tmp_path, addrs, hosts, rate_pps=300, seed=23)
    _, _, padded = run_simple_scan(
        tmp_path, addrs, hosts, rate_pps=300, seed=23,
        transport_cls=lambda net: PaddingTransport(net, pad),
    )
    assert len(bare) == 6
    assert [record_to_line(r) for r in padded] == [record_to_line(r) for r in bare]


@settings(max_examples=60, deadline=None)
@given(
    fleet=st.lists(
        st.tuples(
            st.sampled_from([None, ImplClass.LAZY, ImplClass.NORMAL, ImplClass.CHECKSUM_LAZY,
                             ImplClass.REFLECTION, ImplClass.STUCK]),
            st.sampled_from([None, "orig_ts", "id_seq", "source"]),
            st.sampled_from([0.0, 0.0, 0.5]),
        ),
        min_size=len(CHAOS_TARGETS),
        max_size=len(CHAOS_TARGETS),
    ),
    chaos_seed=st.integers(0, 2**32 - 1),
    hostile=st.booleans(),
    pad=st.sampled_from([0, 0, 1, 6]),
    rate=st.sampled_from([200, 5000, 100_000]),
    fail_at=st.none() | st.integers(0, 4 * len(CHAOS_TARGETS) - 1),
)
def test_array_engine_agrees_with_the_list_engine(
    tmp_path_factory, fleet, chaos_seed, hostile, pad, rate, fail_at,
):
    # The engine's per-probe arrays against the list-of-outcomes engine
    # they replaced, over a lossy, tampering, duplicating, reordering and
    # padding network whose link may fail at a drawn send: the same
    # records, and the same abort with the same unsent targets.  At
    # 100,000 pps a target's probes share an originate timestamp, so the
    # fallback has more than one to choose from.
    hosts = {
        addr: BehaviorConfig(impl, tamper=tamper, jitter_ms=30, loss_rate=loss)
        for addr, (impl, tamper, loss) in zip(CHAOS_TARGETS, fleet)
        if impl is not None
    }
    cfg = ScanConfig(
        targets_path=write_targets(tmp_path_factory.mktemp("arrays"), CHAOS_TARGETS),
        rate_pps=rate, inter_round_gap_ms=1000, timeout_ms=1000, seed=chaos_seed,
    )

    def scanned(scan):
        net = SimNetwork(hosts, start=START, loss_rate=0.1, seed=chaos_seed)
        transport = ChaosTransport(net, random.Random(chaos_seed), hostile=hostile)
        if pad:
            transport = PaddingTransport(transport, pad)
        if fail_at is not None:
            transport = FailingTransport(transport, fail_at)
        records = []
        try:
            for record in scan(cfg, transport):
                records.append(record)
        except ScanAborted as exc:
            return records, (str(exc), exc.unsent), transport.sent
        return records, None, transport.sent

    records, aborted, sent = scanned(engine.run_scan)
    former_records, former_aborted, former_sent = scanned(
        lambda cfg, transport: former_scan(cfg, transport, load_targets(cfg.targets_path))
    )
    assert sent == former_sent
    assert records == former_records
    assert list(map(record_to_line, records)) == list(map(record_to_line, former_records))
    assert aborted == former_aborted
    assert (aborted is None) is (fail_at is None)


def test_scan_state_holds_no_objects_per_probe(tmp_path):
    # Measured when the first record is made, the last reply in: a scan
    # of 4,096 answering targets holds each target's probes and replies in
    # arrays and bytes, which the collector does not track (about 540 bytes
    # per target).  The list-based state, a ProbeOutcome and its request
    # per probe, held 2,830 bytes and 16 tracked objects per target.
    addrs = [f"10.{i >> 16}.{i >> 8 & 255}.{i & 255}" for i in range(1, 4097)]
    cfg = ScanConfig(targets_path=write_targets(tmp_path, addrs), rate_pps=1000, seed=3)
    net = SimNetwork(lazy_hosts(addrs, jitter_ms=20), start=START, latency_ms=10)
    gc.collect()
    tracked = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = run_scan(cfg, net)
        first = next(records)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gc.collect()
    grown = len(gc.get_objects()) - tracked
    assert first.target == addrs[0]
    assert held / len(addrs) < 1000
    assert grown / len(addrs) < 0.1
    assert len(list(records)) == len(addrs) - 1


def test_mixed_behavior_fingerprints_match_configs(tmp_path):
    # One host per implementation class, fingerprinted through the full
    # engine path; mirrors the larger acceptance sweep.
    cases = {
        "10.1.0.1": (BehaviorConfig(ImplClass.NORMAL), {ImplClass.NORMAL}),
        "10.1.0.2": (BehaviorConfig(ImplClass.LAZY), {ImplClass.LAZY}),
        "10.1.0.3": (
            BehaviorConfig(ImplClass.CHECKSUM_LAZY),
            {ImplClass.LAZY, ImplClass.CHECKSUM_LAZY},
        ),
        "10.1.0.4": (BehaviorConfig(ImplClass.REFLECTION), {ImplClass.REFLECTION}),
        "10.1.0.5": (
            BehaviorConfig(ImplClass.TIMEZONE, tz_offset_hours=9),
            {ImplClass.LAZY, ImplClass.TIMEZONE},
        ),
        "10.1.0.6": (BehaviorConfig(ImplClass.NON_UTC), {ImplClass.LAZY, ImplClass.NON_UTC}),
        "10.1.0.7": (
            BehaviorConfig(ImplClass.HTONS_BUG),
            {ImplClass.LAZY, ImplClass.HTONS_BUG},
        ),
    }
    cfg = ScanConfig(
        targets_path=write_targets(tmp_path, list(cases)), rate_pps=300, seed=8,
    )
    net = SimNetwork({a: c for a, (c, _) in cases.items()}, start=START)
    records = {r.target: r for r in run_scan(cfg, net)}
    assert len(records) == len(cases)
    for addr, (_, expected) in cases.items():
        assert records[addr].fingerprint.classes == expected, addr


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMO_GRID_SHA256 = "acd0412571ca66b209a9808e82e5d5000435895386d2cec1472033204fd82ac7"


def test_demo_scan_grid_bytes_are_pinned():
    # 120 scans of the demo fixture, seeds 0-39 at three rates: the bytes
    # pin the send schedule, both rounds of it.  At 37 and 333 pps the
    # interval, 27,028 and 3,004 µs, is not a whole millisecond, so the
    # bytes also pin that the simulator waits to the µs.
    lines = []
    for seed in range(40):
        for rate in (37, 200, 333):
            cfg = ScanConfig(
                targets_path=str(FIXTURES / "demo_targets.txt"),
                rate_pps=rate, seed=seed, vantage="demo",
            )
            net = SimNetwork.from_file(FIXTURES / "demo_hosts.txt")
            lines += map(record_to_line, run_scan(cfg, net))
    assert len(lines) == 2259
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DEMO_GRID_SHA256


# Python calls into the package up to the demo scan's first record: 80
# probes crafted, sent and answered, and the replies before it matched.
# Each layer a packet crosses is one frame; a helper frame per packet adds
# about 80.  CPython 3.13 counts two fewer than 3.10-3.12.
FIRST_RECORD_CALL_BUDGET = 920


def test_the_demo_scan_reaches_its_first_record_within_a_call_budget():
    cfg = ScanConfig(
        targets_path=str(FIXTURES / "demo_targets.txt"), rate_pps=200, seed=7, vantage="demo",
    )
    scan = run_scan(cfg, SimNetwork.from_file(FIXTURES / "demo_hosts.txt"))
    package = str(Path(engine.__file__).parent)
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        next(scan)
    finally:
        sys.setprofile(previous)
    assert calls <= FIRST_RECORD_CALL_BUDGET


class RecordingNetwork(SimNetwork):
    """``SimNetwork``, noting the reply it queues for each request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (dest, request bytes) -> (arrival, src, reply bytes)
        self.replies = {}

    def send(self, dest, data):
        queued = len(self._queue)
        super().send(dest, data)
        if len(self._queue) > queued:
            # The reply just queued holds the newest tie-break count.
            arrival, _, src, reply = max(self._queue, key=lambda item: item[1])
            assert (dest, data) not in self.replies
            self.replies[dest, data] = (arrival, src, reply)


class ReplayNetwork(SimNetwork):
    """``SimNetwork``'s virtual clock and delivery queue with no host behind
    them: each request is answered with the reply recorded for it, found by
    dict lookup."""

    def __init__(self, replies, start):
        super().__init__({}, start=start)
        self.replies = replies

    def send(self, dest, data):
        recorded = self.replies.get((dest, data))
        if recorded is not None:
            arrival, src, reply = recorded
            heapq.heappush(self._queue, (arrival, next(self._counter), src, reply))


def test_demo_scan_replays_from_recorded_replies(monkeypatch):
    # The engine against the transport contract alone: replies recorded
    # from the simulator and played back with no responder give the
    # pinned demo bytes.
    cfg = ScanConfig(
        targets_path=str(FIXTURES / "demo_targets.txt"), rate_pps=200, seed=7, vantage="demo",
    )
    recorder = RecordingNetwork.from_file(FIXTURES / "demo_hosts.txt")
    start = EPOCH + timedelta(microseconds=recorder.now())
    recorded = "".join(record_to_line(r) + "\n" for r in run_scan(cfg, recorder))
    assert recorder.replies

    monkeypatch.setattr(responder, "respond", None)
    replay = ReplayNetwork(recorder.replies, start)
    replayed = "".join(record_to_line(r) + "\n" for r in run_scan(cfg, replay))
    assert replayed == recorded
    assert hashlib.sha256(replayed.encode()).hexdigest() == DEMO_SCAN_SHA256


class ReplaySocket:
    """A raw socket on a fake clock, answering each ``sendto`` with the
    reply recorded for its request behind a 20-byte IPv4 header, due at
    its recorded arrival.  ``recvfrom`` delivers the head reply if it is
    due within the timeout; otherwise it moves the clock on by the timeout
    and raises ``TimeoutError``."""

    IP_HEADER = bytes([0x45]) + bytes(19)

    def __init__(self, replies, now):
        self.replies = replies
        self.now = now
        self.timeout = None
        self.queue = []
        self.counter = itertools.count()

    def settimeout(self, seconds):
        self.timeout = round(seconds * 1_000_000)

    def sendto(self, payload, address):
        recorded = self.replies.get((address[0], payload))
        if recorded is not None:
            arrival, src, reply = recorded
            heapq.heappush(
                self.queue, (arrival, next(self.counter), src, self.IP_HEADER + reply)
            )
        return len(payload)

    def recvfrom(self, _size):
        if self.queue and self.queue[0][0] <= self.now + self.timeout:
            arrival, _, src, datagram = heapq.heappop(self.queue)
            self.now = max(self.now, arrival)
            return datagram, (src, 0)
        self.now += self.timeout
        raise TimeoutError("timed out")


@pytest.mark.parametrize("rate", [37, 200, 100_000])
def test_raw_transport_on_replayed_replies_writes_the_sim_scan(rate):
    # The simulator waits as ``RawTransport.receive`` does, to the µs: a
    # raw transport, built without a socket of its own and fed the replies
    # the simulator queued, writes the simulated scan's bytes.  No raw
    # socket is opened.
    cfg = ScanConfig(
        targets_path=str(FIXTURES / "demo_targets.txt"), rate_pps=rate, seed=7,
        vantage="demo",
    )
    recorder = RecordingNetwork.from_file(FIXTURES / "demo_hosts.txt")
    sock = ReplaySocket(recorder.replies, recorder.now())
    simulated = [record_to_line(r) for r in run_scan(cfg, recorder)]
    transport = object.__new__(RawTransport)
    transport._sock = sock
    transport.now = lambda: sock.now
    assert [record_to_line(r) for r in run_scan(cfg, transport)] == simulated
    assert len(simulated) == 19


def test_demo_records_hold_exact_full_length_tuples(tmp_path):
    # The engine, the probe makers and the codec build these tuples with
    # tuple.__new__, which checks neither the class's fields nor their
    # count; records read back are built by the classes' constructors.
    cfg = ScanConfig(
        targets_path=str(FIXTURES / "demo_targets.txt"), rate_pps=200, seed=7, vantage="demo",
    )
    scanned = list(run_scan(cfg, SimNetwork.from_file(FIXTURES / "demo_hosts.txt")))
    out = tmp_path / "demo.jsonl"
    out.write_text("".join(record_to_line(r) + "\n" for r in scanned))
    answered = unanswered = 0
    for rec in scanned + read_records(out):
        for outcome in rec.outcomes:
            built = [
                (outcome, ProbeOutcome),
                (outcome.request, TimestampMessage),
            ]
            if outcome.reply is None:
                unanswered += 1
            else:
                answered += 1
                built.append((outcome.reply, TimestampMessage))
            for value, cls in built:
                assert type(value) is cls
                assert len(value) == len(cls._fields)
    assert answered and unanswered


# The drawn-fleet sweep: its own seed and fleet maker, so that no change to
# the benchmark's fleets can move its pin.
SWEEP_SEED = 20131
SWEEP_RATES = (37, 200, 1000)
SWEEP_GAPS_MS = (1000, 3000)
SWEEP_TIMEOUTS_MS = (1000, 5000)
SWEEP_LOSSES = (0.0, 0.25, 0.5)
SWEEP_TAMPERS = (None, None, None, None, "orig_ts", "id_seq", "source")
SWEEP_SHA256 = "a7faa637e04b31b7eb67275c2302c2ce0afc5ced6c88ffce9dfe748a0a77ce6e"


def draw_host(rng) -> BehaviorConfig:
    impl = rng.choice(list(ImplClass))
    tz = rng.randrange(-24, 29) / 2 if impl is ImplClass.TIMEZONE else None
    return BehaviorConfig(
        impl,
        tz_offset_hours=tz,
        units=rng.choice(("ms", "ms", "ms", "s", "epoch")),
        clock_error_ms=rng.choice((0, 0, 120, -2500)),
        latency_ms=rng.randrange(400),
        jitter_ms=rng.choice((0, 0, 20, 150)),
        loss_rate=rng.choice(SWEEP_LOSSES),
        stuck_value=rng.getrandbits(32) if impl is ImplClass.STUCK else None,
        tamper=rng.choice(SWEEP_TAMPERS),
    )


def draw_fleet(rng) -> tuple[list[str], dict[str, BehaviorConfig], dict]:
    """8-24 distinct targets, about one in seven silent, and the ``@network``
    settings."""
    addrs = [
        f"10.{a >> 16}.{a >> 8 & 255}.{a & 255}"
        for a in rng.sample(range(1 << 24), rng.randint(8, 24))
    ]
    hosts = {a: draw_host(rng) for a in addrs if rng.random() < 6 / 7}
    net = {
        "latency_ms": rng.randrange(100),
        "jitter_ms": rng.choice((0, 5, 40)),
        "loss_rate": rng.choice(SWEEP_LOSSES),
        "seed": rng.getrandbits(32),
        "start": START + timedelta(milliseconds=rng.randrange(DAY_MS)),
    }
    return addrs, hosts, net


def test_drawn_fleet_sweep_bytes_are_pinned(tmp_path):
    # 20 drawn fleets, each scanned at every rate, gap and timeout below,
    # under per-host and network loss, latency and jitter; every third
    # scan's transport fails at a drawn send, alternately in round one and
    # in round two.  The bytes pin the schedule, matching and the records
    # kept when a scan is cut off.
    rng = random.Random(SWEEP_SEED)
    lines = []
    drawn = Counter()
    for fleet in range(20):
        addrs, hosts, net = draw_fleet(rng)
        targets = write_targets(tmp_path, addrs)
        drawn.update(hosts[a].impl_class for a in hosts)
        drawn.update(("tamper", hosts[a].tamper) for a in hosts)
        drawn.update(("loss", hosts[a].loss_rate) for a in hosts)
        drawn[("loss", net["loss_rate"])] += 1
        grid = itertools.product(SWEEP_RATES, SWEEP_GAPS_MS, SWEEP_TIMEOUTS_MS)
        for run, (rate, gap, timeout) in enumerate(grid):
            cfg = ScanConfig(
                targets_path=targets, rate_pps=rate, inter_round_gap_ms=gap,
                timeout_ms=timeout, seed=rng.getrandbits(16), vantage=f"f{fleet}r{run}",
            )
            sim = SimNetwork(hosts, **net)
            n = len(addrs)
            if run % 3:
                transport = sim
            elif (fleet + run // 3) % 2:
                transport = FailingTransport(sim, 3 * n + rng.randrange(n))
                drawn["fail round two"] += 1
            else:
                transport = FailingTransport(sim, rng.randrange(1, 3 * n))
                drawn["fail round one"] += 1
            try:
                for record in run_scan(cfg, transport):
                    lines.append(record_to_line(record))
            except TransportError:
                assert transport is not sim
            else:
                assert transport is sim
    # What the sweep claims to cover, it drew.
    assert set(ImplClass) <= set(drawn)
    assert {("tamper", t) for t in SWEEP_TAMPERS} <= set(drawn)
    assert {("loss", x) for x in SWEEP_LOSSES} <= set(drawn)
    assert drawn["fail round one"] == drawn["fail round two"] == 40
    assert len(lines) == 1909
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_SHA256
