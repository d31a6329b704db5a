"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Randomized-instant trials draw probe instants uniformly over the UTC day
and exclude, by construction, instants that would make an unrelated
fingerprint rule fire coincidentally (e.g. a constant that happens to sit
one candidate offset away from the originate timestamp, or a truncated
timestamp whose top byte crosses into the non-UTC bit).  The exclusion
windows are computed with plain modular arithmetic, independent of the
classifier under test; everything runs on fixed seeds.
"""

import logging
import random
import re
import time

from builders import at_ms, echo_reply, observe_direct, reference_checksum
from icmpstamp import wire
from icmpstamp.classify import (
    Correctness,
    CorrectnessPolicy,
    HostObservation,
    ImplClass,
    classify_correctness,
    classify_timekeeping,
    detect_htons_bug,
    fingerprint_observation,
    Timekeeping,
)
from icmpstamp.clock import DAY_MS, DEFAULT_OFFSET_HOURS, offset_millis
from icmpstamp.engine import ScanConfig, run_scan
from icmpstamp.probes import (
    ProbeKind,
    ProbeOutcome,
    TamperVerdict,
    make_bad_clock,
    make_duplicate,
    make_standard,
    verify_reply,
)
from icmpstamp.reports import analyze_requests, load_capture
from icmpstamp.responder import BehaviorConfig, SimNetwork
from icmpstamp.results import record_to_line
from icmpstamp.wire import TimestampMessage, byte_swap_32

POLICY = CorrectnessPolicy()
GAP_MS = 3000
SPACING_MS = 10
GUARD_MS = 2500  # covers the 200 ms margin, probe spacing, and processing slack
EDGE_MS = 70_000  # midnight guard; also clears the 16-bit truncation aliases


def report(line):
    print(f"ACCEPTANCE {line}")


def circ(a, b):
    d = (a - b) % DAY_MS
    return d - DAY_MS if d > DAY_MS // 2 else d


def far_from_candidates(constant, t0):
    """No candidate offset explains ``constant`` anywhere in the probe window."""
    for off in POLICY.table.offsets:
        if abs(circ(constant - offset_millis(off), t0)) < GAP_MS + GUARD_MS:
            return False
    return True


def swap_day(value):
    return byte_swap_32(value) % DAY_MS


# --- criterion 1: taxonomy round-trip -------------------------------------

def _constant_reply_ok(constant):
    def check(t0):
        if not far_from_candidates(constant % DAY_MS, t0):
            return False
        return abs(circ(swap_day(constant), t0)) >= GAP_MS + GUARD_MS

    return check


def _clock_follower_ok(t0):
    return abs(circ(swap_day(t0 % DAY_MS), t0)) >= GUARD_MS


def _timezone_ok(offset_hours):
    shift = offset_millis(offset_hours)

    def check(t0):
        local = (t0 + shift) % DAY_MS
        if local < GUARD_MS or local > DAY_MS - GUARD_MS - GAP_MS:
            return False
        return abs(circ(swap_day(local), t0)) >= GUARD_MS

    return check


def _non_utc_ok(t0):
    return abs(circ(swap_day((t0 % DAY_MS) | (1 << 31)), t0)) >= GUARD_MS


def _little_endian_ok(t0):
    if t0 & 0x80:  # swapped value would carry the non-UTC bit
        return False
    swapped = swap_day(t0 % DAY_MS)  # the value actually sent back
    if swapped < DAY_MS and not swapped >> 31:
        if not far_from_candidates(swapped, t0):
            return False
    return True


def _htons_ok(t0):
    low = t0 & 0xFF
    if not 6 <= low < 128:  # top byte of the truncated value: no MSB, above one day
        return False
    for arrival in (t0, t0 + SPACING_MS):
        if arrival % 65536 < 30 or arrival % 65536 > 65500:
            return False
    return True


CONSTANT_LE_ONE = byte_swap_32(1)

TAXONOMY_CASES = [
    # (config, expected class set, instant filter)
    (BehaviorConfig(ImplClass.NORMAL), {ImplClass.NORMAL}, _clock_follower_ok),
    (BehaviorConfig(ImplClass.LAZY), {ImplClass.LAZY}, _clock_follower_ok),
    (
        BehaviorConfig(ImplClass.CHECKSUM_LAZY),
        {ImplClass.LAZY, ImplClass.CHECKSUM_LAZY},
        _clock_follower_ok,
    ),
    (
        BehaviorConfig(ImplClass.STUCK),
        {ImplClass.LAZY, ImplClass.STUCK},
        _constant_reply_ok(BehaviorConfig(ImplClass.STUCK).stuck_value),
    ),
    (
        BehaviorConfig(ImplClass.CONSTANT_0),
        {ImplClass.STUCK, ImplClass.CONSTANT_0},
        _constant_reply_ok(0),
    ),
    (
        BehaviorConfig(ImplClass.CONSTANT_1),
        {ImplClass.LAZY, ImplClass.STUCK, ImplClass.CONSTANT_1},
        _constant_reply_ok(1),
    ),
    (
        # 0x01000000 keeps its low 16 bits zero, so the truncation rule
        # fires alongside the constant: an accepted fingerprint overlap.
        BehaviorConfig(ImplClass.CONSTANT_LE_1),
        {ImplClass.LAZY, ImplClass.STUCK, ImplClass.CONSTANT_LE_1, ImplClass.HTONS_BUG},
        _constant_reply_ok(CONSTANT_LE_ONE),
    ),
    (BehaviorConfig(ImplClass.REFLECTION), {ImplClass.REFLECTION}, _constant_reply_ok(0)),
    (BehaviorConfig(ImplClass.NON_UTC), {ImplClass.LAZY, ImplClass.NON_UTC}, _non_utc_ok),
    (
        BehaviorConfig(ImplClass.TIMEZONE, tz_offset_hours=9.0),
        {ImplClass.LAZY, ImplClass.TIMEZONE},
        _timezone_ok(9.0),
    ),
    (
        BehaviorConfig(ImplClass.LITTLE_ENDIAN),
        {ImplClass.LAZY, ImplClass.LITTLE_ENDIAN},
        _little_endian_ok,
    ),
    (BehaviorConfig(ImplClass.HTONS_BUG), {ImplClass.LAZY, ImplClass.HTONS_BUG}, _htons_ok),
    (BehaviorConfig(ImplClass.UNKNOWN), {ImplClass.UNKNOWN}, _constant_reply_ok(0)),
]


def draw_instant(rng, accept):
    while True:
        t0 = rng.randrange(EDGE_MS, DAY_MS - GAP_MS - EDGE_MS)
        if accept(t0):
            return t0


def test_c1_taxonomy_round_trip():
    started = time.perf_counter()
    rng = random.Random(20181006)
    for cfg, expected, accept in TAXONOMY_CASES:
        for trial in range(100):
            t0 = draw_instant(rng, accept)
            obs = observe_direct(cfg, t0, rng)
            classes = fingerprint_observation(obs, POLICY).classes
            assert classes == expected, (
                f"{cfg.impl_class.value} trial {trial} at t0={t0}: "
                f"got {sorted(c.value for c in classes)}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"taxonomy round-trip took {elapsed:.1f}s"
    report(f"1 taxonomy round-trip (13 classes x 100 trials, {elapsed:.1f}s): PASS")


# --- criterion 2: timezone sweep -------------------------------------------

def test_c2_timezone_sweep():
    rng = random.Random(29)
    exact = 0
    for off in DEFAULT_OFFSET_HOURS:
        cfg = BehaviorConfig(ImplClass.TIMEZONE, tz_offset_hours=off)
        accept = _timezone_ok(off)
        shift = offset_millis(off)
        hits = 0
        for trial in range(10):
            if trial < 5:
                t0 = draw_instant(rng, accept)
            else:
                # Force the wrapped half: the raw difference leaves
                # (-12, +12] and must normalize back (a +9 host looks
                # 15 hours behind late in the UTC day).
                t0 = _wrapped_instant(rng, shift, accept)
            probe = make_standard("198.51.100.88", at_ms(t0))
            raw = wire.encode(probe.request)
            reply = wire.decode(respond_once(cfg, raw, t0, rng))
            from icmpstamp.classify import infer_timezone

            inferred = infer_timezone(reply, probe.request.orig_ts, POLICY)
            if inferred == off:
                hits += 1
        if hits == 10:
            exact += 1
    assert exact == 29, f"only {exact}/29 offsets inferred exactly"
    report("2 timezone sweep (29/29 offsets incl. wrap normalization): PASS")


def respond_once(cfg, request_bytes, t0, rng):
    from icmpstamp.responder import respond

    raw = respond(cfg, request_bytes, at_ms(t0), rng)
    assert raw is not None
    return raw


def _wrapped_instant(rng, shift, accept):
    for _ in range(100_000):
        if shift > 0:
            t0 = rng.randrange(DAY_MS - shift, DAY_MS - GAP_MS - 1)
        else:
            t0 = rng.randrange(EDGE_MS, min(-shift, DAY_MS - GAP_MS - EDGE_MS))
        if EDGE_MS <= t0 < DAY_MS - GAP_MS and accept(t0):
            return t0
    raise AssertionError("no wrapped instant found")


# --- criterion 3: correctness margin ---------------------------------------

def test_c3_correctness_margin_boundaries():
    orig = 45_296_789
    cases = []
    for d in (0, 100, 199):
        cases.append(((orig + d) % DAY_MS, Correctness.CORRECT))
        cases.append((byte_swap_32(orig + d), Correctness.CORRECT_LE))
        cases.append((orig + d + 2**31, Correctness.CORRECT_MSB))
    for d in (200, 201, 5000):
        cases.append(((orig + d) % DAY_MS, Correctness.INCORRECT))
    assert len(cases) == 12
    for recv, expected in cases:
        reply = TimestampMessage(14, orig_ts=orig, recv_ts=recv, xmit_ts=recv)
        got = classify_correctness(reply, orig, POLICY)
        assert got is expected, f"recv={recv}: got {got}, want {expected}"
    report("3 correctness margin (12/12 boundary cases exact): PASS")


# --- criterion 4: checksum interop ------------------------------------------

def test_c4_checksum_interop():
    assert wire.internet_checksum(bytes([0x0D]) + bytes(19)) == 0xF2FF
    rng = random.Random(1071)
    agreed = sum(
        1
        for _ in range(1000)
        if wire.internet_checksum(buf := rng.randbytes(20)) == reference_checksum(buf)
    )
    assert agreed == 1000
    report("4 checksum interop (1000/1000 + 0xF2FF vector): PASS")


# --- criterion 5: htons-bug detector ----------------------------------------

def test_c5_htons_detector():
    started = time.perf_counter()
    rng = random.Random(318)
    cfg = BehaviorConfig(ImplClass.HTONS_BUG)
    for trial in range(100):
        t0 = draw_instant(rng, _htons_ok)
        obs = observe_direct(cfg, t0, rng)
        assert detect_htons_bug(obs), f"trial {trial} at t0={t0}"

    # False positives: a correct millisecond clock answering the standard
    # and bad-clock probes at independent uniform instants.  Analytically
    # both replies carry zeroed low bytes with probability ~2^-32.
    dest = "198.51.100.99"
    std_probe = make_standard(dest, at_ms(EDGE_MS))
    bc_probe = make_bad_clock(dest, 7, 9, at_ms(EDGE_MS + SPACING_MS))
    std_reply = echo_reply(std_probe, 0, 0)
    bc_reply = echo_reply(bc_probe, 0, 0)
    false_positives = 0
    randrange = rng.randrange
    for _ in range(1_000_000):
        v1 = randrange(DAY_MS)
        v2 = randrange(DAY_MS)
        obs = HostObservation(
            [
                ProbeOutcome(
                    *std_probe[:3],
                    std_reply._replace(recv_ts=v1, xmit_ts=v1),
                    std_probe.send_time,
                    TamperVerdict.CLEAN,
                ),
                ProbeOutcome(
                    *bc_probe[:3],
                    bc_reply._replace(recv_ts=v2, xmit_ts=v2),
                    bc_probe.send_time,
                    TamperVerdict.CLEAN,
                ),
            ],
        )
        if detect_htons_bug(obs):
            false_positives += 1
    elapsed = time.perf_counter() - started
    assert false_positives == 0
    assert elapsed < 120, f"htons sweep took {elapsed:.1f}s"
    report(
        f"5 htons detector (100/100 hits, 0 false positives in 1e6, {elapsed:.1f}s): PASS"
    )


# --- criterion 6: tamper detection -------------------------------------------

def test_c6_tamper_detection(tmp_path, caplog):
    rng = random.Random(11_000)
    makers = [
        lambda dest, t: make_standard(dest, at_ms(t)),
        lambda dest, t: make_bad_clock(dest, rng.getrandbits(16), rng.getrandbits(16), at_ms(t)),
        lambda dest, t: make_duplicate(dest, at_ms(t)),
    ]
    clean_ok = 0
    for i in range(10_000):
        dest = f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        probe = makers[i % 3](dest, rng.randrange(DAY_MS))
        reply = echo_reply(probe, rng.randrange(DAY_MS), rng.randrange(DAY_MS))
        if verify_reply(probe, reply) is TamperVerdict.CLEAN:
            clean_ok += 1
    assert clean_ok == 10_000

    # A rewritten originate timestamp, id or sequence number is told by
    # verify_reply, from the probe the reply binds to.
    tampered_ok = 0
    for i in range(10_000):
        field = i % 4
        if field == 3:
            continue  # a rewritten source: the scan below
        dest = f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        probe = makers[i % 3](dest, rng.randrange(DAY_MS))
        reply = echo_reply(probe, rng.randrange(DAY_MS), rng.randrange(DAY_MS))
        if field == 0:
            reply = reply._replace(orig_ts=reply.orig_ts ^ rng.randrange(1, 1 << 32))
        elif field == 1:
            reply = reply._replace(ident=reply.ident ^ rng.randrange(1, 1 << 16))
        else:
            reply = reply._replace(seq=reply.seq ^ rng.randrange(1, 1 << 16))
        if verify_reply(probe, reply) is not TamperVerdict.CLEAN:
            tampered_ok += 1

    # A rewritten source is told where the engine files each reply under
    # its source.  625 hosts answer all four probes from dest ^ 1, which,
    # with every target's last octet even, is no target: no reply binds.
    class Counting(SimNetwork):
        delivered = 0

        def receive(self, deadline_us):
            item = super().receive(deadline_us)
            self.delivered += item is not None
            return item

    addrs = [f"10.6.{i // 128}.{2 * (i % 128)}" for i in range(625)]
    (tmp_path / "targets.txt").write_text("\n".join(addrs) + "\n")
    net = Counting({a: BehaviorConfig(ImplClass.CHECKSUM_LAZY, tamper="source") for a in addrs})
    cfg = ScanConfig(targets_path=str(tmp_path / "targets.txt"), rate_pps=1000, seed=11)
    with caplog.at_level(logging.INFO, logger="icmpstamp.engine"):
        assert list(run_scan(cfg, net)) == []
    (closing,) = [m for m in caplog.messages if m.startswith("sent ")]
    discarded = int(re.fullmatch(r"sent \d+ probes; discarded (\d+) .*", closing)[1])
    assert discarded == net.delivered == 2_500
    tampered_ok += discarded
    assert tampered_ok == 10_000
    report("6 tamper detection (10000/10000 clean, 10000/10000 mutated): PASS")


# --- criterion 7: precision and epoch classification -------------------------

def test_c7_timekeeping_units():
    rng = random.Random(400)
    for units, expected in (
        ("ms", Timekeeping.MILLISECOND),
        ("s", Timekeeping.SECOND),
        ("epoch", Timekeeping.EPOCH),
    ):
        cfg = BehaviorConfig(ImplClass.LAZY, units=units)
        for trial in range(100):
            t0 = draw_instant(rng, _clock_follower_ok)
            obs = observe_direct(cfg, t0, rng)
            got = classify_timekeeping(obs)
            assert got is expected, f"units={units} trial {trial} at t0={t0}: {got}"
    report("7 precision/epoch classification (100/100 for ms, s, epoch): PASS")


# --- criterion 8: end-to-end scan determinism and scale ----------------------

def _mixed_fleet(tmp_path):
    configs = [case[0] for case in TAXONOMY_CASES]
    lines = ["@network latency=5 jitter=3 seed=77 start=2018-10-06T08:30:15.296Z"]
    base = int.from_bytes(bytes([10, 32, 0, 1]), "big")
    addrs = []
    for i in range(1024):
        addr = ".".join(str(b) for b in (base + i).to_bytes(4, "big"))
        addrs.append(addr)
        cfg = configs[i % len(configs)]
        spec = cfg.impl_class.value
        options = []
        if cfg.tz_offset_hours is not None:
            options.append(f"tz={cfg.tz_offset_hours}")
        if i % 16 == 15:
            options.append("loss=1.0")
        elif i % 32 == 7:
            options.append("tamper=orig_ts")
        lines.append(" ".join([addr, spec] + options))
    fixture = tmp_path / "fleet.txt"
    fixture.write_text("\n".join(lines) + "\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("\n".join(addrs) + "\n")
    return fixture, targets, addrs


def test_c8_scan_determinism_and_scale(tmp_path):
    fixture, targets, addrs = _mixed_fleet(tmp_path)
    unresponsive = {addr for i, addr in enumerate(addrs) if i % 16 == 15}

    def run_once():
        cfg = ScanConfig(
            targets_path=str(targets), rate_pps=500, seed=4242, vantage="gate",
        )
        started = time.perf_counter()
        net = SimNetwork.from_file(fixture)
        lines = [record_to_line(rec) for rec in run_scan(cfg, net)]
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"scan took {elapsed:.1f}s"
        return lines, elapsed

    first, t1 = run_once()
    second, t2 = run_once()
    assert first == second, "same seed must give byte-identical output"
    import json

    seen = [json.loads(line)["target"] for line in first]
    assert len(seen) == len(set(seen)) == 1024 - len(unresponsive)
    assert set(seen) == set(addrs) - unresponsive
    report(
        f"8 end-to-end scan (1024 hosts @500pps, {len(seen)} records, "
        f"{t1:.1f}s/{t2:.1f}s, byte-identical): PASS"
    )


# --- criterion 9: scanner-signature analysis ---------------------------------

def test_c9_scanner_signature_fraction(tmp_path):
    rng = random.Random(93)
    lines = []
    heavy = [f"203.0.113.{i}" for i in range(1, 11)]
    for i in range(9300):
        msg = wire.fill_checksum(
            TimestampMessage(13, ident=rng.getrandbits(16), seq=rng.getrandbits(16))
        )
        lines.append(f"{heavy[i % 10]} - {wire.encode(msg).hex()}")
    for i in range(700):
        msg = wire.fill_checksum(
            TimestampMessage(
                13,
                ident=rng.getrandbits(16),
                seq=rng.getrandbits(16),
                orig_ts=rng.randrange(1, DAY_MS),
            )
        )
        lines.append(f"198.51.100.{i % 200 + 1} - {wire.encode(msg).hex()}")
    rng.shuffle(lines)
    capture = tmp_path / "capture.txt"
    capture.write_text("\n".join(lines) + "\n")

    summary = analyze_requests(load_capture(capture))
    assert summary.total_requests == 10_000
    assert abs(summary.nmap_fraction - 0.93) <= 0.001
    assert summary.top_sources[0][0] in heavy
    report(
        f"9 scanner signatures (fraction {summary.nmap_fraction:.4f} vs 0.93): PASS"
    )
