"""CLI surface: subcommands, file flows, exit codes."""

import errno
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_classify
from builders import DEMO_SCAN_SHA256, margin_refusal
from icmpstamp import cli, results
from icmpstamp.classify import CorrectnessPolicy, fingerprint_observation
from icmpstamp.cli import EXIT_CONFIG, EXIT_OK, EXIT_PRIVILEGE, EXIT_TRANSPORT, main
from icmpstamp.clock import DAY_MS, DEFAULT_OFFSET_HOURS
from icmpstamp.engine import ScanConfig
from icmpstamp.responder import SimNetwork
from icmpstamp.results import read_records
from icmpstamp.transport import TransportError

FIXTURE = """\
@network latency=8 jitter=4 seed=3 start=2018-10-06T09:13:27.296Z
10.9.0.1 lazy
10.9.0.2 timezone tz=+9
10.9.0.3 normal
10.9.0.4 lazy units=s
10.9.0.5 constant_0
"""

TZ_DB = """\
10.9.0.0/24 9
"""


@pytest.fixture()
def scanned(tmp_path):
    fixture = tmp_path / "hosts.txt"
    fixture.write_text(FIXTURE)
    targets = tmp_path / "targets.txt"
    targets.write_text("".join(f"10.9.0.{i}\n" for i in range(1, 6)))
    out = tmp_path / "results.jsonl"
    code = main([
        "scan",
        "--targets", str(targets),
        "--out", str(out),
        "--transport", f"sim:{fixture}",
        "--rate", "200",
        "--seed", "7",
        "--vantage", "lab",
    ])
    assert code == EXIT_OK
    return tmp_path, out


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def child_env() -> dict:
    """The environment for a child Python that imports this ``icmpstamp``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}




def scan_demo(out) -> None:
    """The README demo scan, at --seed 7, into ``out``."""
    code = main([
        "scan",
        "--targets", str(FIXTURES / "demo_targets.txt"),
        "--transport", f"sim:{FIXTURES / 'demo_hosts.txt'}",
        "--out", str(out),
        "--rate", "200",
        "--seed", "7",
        "--vantage", "demo",
    ])
    assert code == EXIT_OK


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_demo_scan_bytes_are_pinned(tmp_path):
    # The README demo's 19 records must not drift.
    out = tmp_path / "demo.jsonl"
    scan_demo(out)
    assert len(out.read_bytes().splitlines()) == 19
    assert sha256_of(out) == DEMO_SCAN_SHA256


def test_demo_classify_and_merge_bytes_are_pinned(tmp_path):
    # Read back and written again by classify, the demo's records are the
    # same bytes; merged with themselves they keep no probes.
    out = tmp_path / "demo.jsonl"
    scan_demo(out)
    classified = tmp_path / "reclassified.jsonl"
    assert main(["classify", "--in", str(out), "--out", str(classified),
                 "--margin-ms", "150"]) == EXIT_OK
    assert sha256_of(classified) == DEMO_SCAN_SHA256
    merged = tmp_path / "consensus.jsonl"
    assert main(["merge", str(out), str(out), "--out", str(merged)]) == EXIT_OK
    assert sha256_of(merged) == (
        "dc3e991d35f9d0a403f937e4229bad09484b6c47a3fd2ed401ee656a16619fd6"
    )


@pytest.fixture(scope="module")
def demo_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "demo.jsonl"
    scan_demo(out)
    return out


def test_a_merged_record_cannot_be_reclassified(tmp_path, demo_scan, capsys):
    # A consensus record keeps no probe, so any fingerprint classify gave it
    # would be made up: it used to write every one as unknown, incorrect and
    # all_replies_tampered, and exit 0.
    merged, out = tmp_path / "consensus.jsonl", tmp_path / "consensus-re.jsonl"
    assert main(["merge", str(demo_scan), str(demo_scan), "--out", str(merged)]) == EXIT_OK
    capsys.readouterr()
    assert main(["classify", "--in", str(merged), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {merged}: record of '192.0.2.1': no answered probe to classify\n"
    )
    assert not out.exists()


def test_no_demo_record_is_classified_under_an_inadmissible_pair(demo_scan):
    # 900,001 ms is wider than the default table admits.  The refusal used to
    # come at a record's timezone lookup, which only a standard reply whose
    # receive value is a time of day reaches: 6 of the 19 records were
    # classified.  Now the policy itself is refused.
    classified, refused = [], []
    for rec in read_records(demo_scan):
        try:
            policy = CorrectnessPolicy(margin_ms=900_001)
            classified.append(
                fingerprint_observation(results.observation_from_record(rec), policy)
            )
        except ValueError as exc:
            refused.append(str(exc))
    assert classified == []
    assert refused == [margin_refusal(900_001, 1_800_000)] * 19


@settings(max_examples=30, deadline=None)
@given(
    test_classify.TestInferTimezone.day_circle_cases().filter(
        lambda case: test_classify.admits(case[3], case[2])
    )
)
@example((0, 0, CorrectnessPolicy.margin_ms, DEFAULT_OFFSET_HOURS))  # the default policy
def test_reclassifying_is_idempotent(tmp_path_factory, demo_scan, case):
    # Any admitted margin and table: classifying the demo scan's lines again
    # writes what classifying them once wrote, and at the default policy that
    # is the scan's own bytes.
    _, _, margin, offsets = case
    tmp = tmp_path_factory.mktemp("again")
    table = tmp / "offsets.txt"
    table.write_text("".join(f"{o}\n" for o in offsets))
    once, twice = tmp / "once.jsonl", tmp / "twice.jsonl"
    setting = ["--margin-ms", str(margin), "--offsets", str(table)]
    assert main(["classify", "--in", str(demo_scan), "--out", str(once), *setting]) == EXIT_OK
    assert main(["classify", "--in", str(once), "--out", str(twice), *setting]) == EXIT_OK
    assert twice.read_bytes() == once.read_bytes()
    if (margin, offsets) == (CorrectnessPolicy.margin_ms, DEFAULT_OFFSET_HOURS):
        assert once.read_bytes() == demo_scan.read_bytes()


def test_demo_instant_half_a_second_off_utc_is_a_bad_record(tmp_path, capsys):
    # ``+00:00:00.5`` once read as UTC, and classify wrote the instant half a
    # second from the one the line named.
    demo = tmp_path / "demo.jsonl"
    scan_demo(demo)
    lines = demo.read_text().splitlines()
    rec = json.loads(lines[0])
    probe = rec["probes"][0]
    probe["send_time"] = text = probe["send_time"][:19] + "+00:00:00.5"
    lines[0] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    frac = tmp_path / "frac.jsonl"
    frac.write_text("\n".join(lines) + "\n")
    out = tmp_path / "frac-out.jsonl"
    assert main(["classify", "--in", str(frac), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {frac}:1: bad record: send_time must be in UTC (+00:00), got {text!r}\n"
    )
    assert not out.exists()


def scan_fixture(fixture, targets, out) -> int:
    return main(["scan", "--targets", str(targets), "--out", str(out),
                 "--transport", f"sim:{fixture}", "--seed", "7"])


@pytest.fixture(scope="module")
def five_targets(tmp_path_factory):
    targets = tmp_path_factory.mktemp("targets") / "targets.txt"
    targets.write_text("".join(f"10.9.0.{i}\n" for i in range(1, 6)))
    return targets


@pytest.fixture(scope="module")
def z_scan(tmp_path_factory, five_targets):
    """FIXTURE's scan of ``five_targets``, as bytes."""
    tmp = tmp_path_factory.mktemp("z")
    (tmp / "hosts.txt").write_text(FIXTURE)
    assert scan_fixture(tmp / "hosts.txt", five_targets, tmp / "out.jsonl") == EXIT_OK
    return (tmp / "out.jsonl").read_bytes()


@settings(max_examples=25)
@given(st.integers(-23 * 60 - 59, 23 * 60 + 59))
@example(5 * 60 + 30)
def test_a_start_at_any_offset_writes_the_utc_scan(tmp_path_factory, five_targets, z_scan,
                                                    minutes):
    # The simulated network starts at FIXTURE's instant, written at another
    # offset: the offset names the instant, and the output, in UTC, is
    # FIXTURE's scan to the byte.
    start = datetime(2018, 10, 6, 9, 13, 27, 296000, tzinfo=timezone.utc).astimezone(
        timezone(timedelta(minutes=minutes))
    )
    tmp = tmp_path_factory.mktemp("offset")
    fixture = tmp / "hosts.txt"
    fixture.write_text(FIXTURE.replace("2018-10-06T09:13:27.296Z", start.isoformat()))
    assert scan_fixture(fixture, five_targets, tmp / "out.jsonl") == EXIT_OK
    assert (tmp / "out.jsonl").read_bytes() == z_scan
    instants = [
        probe[key]
        for line in z_scan.splitlines()
        for probe in json.loads(line)["probes"]
        for key in ("send_time", "arrival")
        if probe[key] is not None
    ]
    assert len(instants) == 35
    assert all(instant.endswith("+00:00") for instant in instants)


@pytest.mark.parametrize("start", ["9999-12-31T23:59:58Z", "0001-01-01T00:00:00+05:00"])
def test_a_start_near_either_end_of_the_calendar_is_a_config_error(
    tmp_path, capsys, five_targets, start,
):
    # A simulated scan's instants must be ones the result file can write:
    # the first start used to crash the writer, and the second, in UTC year
    # 0, was written as year-1 local text.
    fixture = tmp_path / "hosts.txt"
    fixture.write_text(f"@network seed=1 start={start}\n10.9.0.1 lazy\n")
    out = tmp_path / "out.jsonl"
    assert scan_fixture(fixture, five_targets, out) == EXIT_CONFIG
    text = datetime.fromisoformat(start.replace("Z", "+00:00")).isoformat()
    assert capsys.readouterr().err == (
        f"error: {fixture}:1: start must be at or after 1970-01-01T00:00:00Z and "
        f"before 9000-01-01T00:00:00Z: {text}\n"
    )
    assert not out.exists()


class TestScanCommand:
    def test_bare_scan_uses_scan_config_defaults(self, tmp_path, monkeypatch):
        built = []
        transport = SimpleNamespace(close=lambda: None)
        monkeypatch.setattr(cli, "make_transport", lambda spec: transport)
        monkeypatch.setattr(cli, "run_scan", lambda cfg, _transport: built.append(cfg) or [])
        targets, out = str(tmp_path / "t.txt"), str(tmp_path / "o.jsonl")
        assert main(["scan", "--targets", targets, "--out", out]) == EXIT_OK
        assert built == [ScanConfig(targets_path=targets)]

    def test_writes_records(self, scanned):
        _, out = scanned
        records = read_records(out)
        assert len(records) == 5
        assert {r.target for r in records} == {f"10.9.0.{i}" for i in range(1, 6)}

    def test_missing_targets_file_is_config_error(self, tmp_path):
        fixture = tmp_path / "hosts.txt"
        fixture.write_text("10.9.0.1 lazy\n")
        code = main([
            "scan", "--targets", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "o.jsonl"), "--transport", f"sim:{fixture}",
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("targets_text", ["nope\n", None])
    def test_bad_targets_leave_existing_output_alone(self, tmp_path, targets_text):
        fixture = tmp_path / "hosts.txt"
        fixture.write_text("10.9.0.1 lazy\n")
        targets = tmp_path / "targets.txt"
        if targets_text is not None:
            targets.write_text(targets_text)
        out = tmp_path / "old.jsonl"
        out.write_text("oldbytes")
        code = main([
            "scan", "--targets", str(targets), "--out", str(out),
            "--transport", f"sim:{fixture}",
        ])
        assert code == EXIT_CONFIG
        assert out.read_text() == "oldbytes"

    @pytest.mark.parametrize("flag", ["--gap-ms", "--timeout-ms"])
    @pytest.mark.parametrize("value", [DAY_MS + 1, 10**20])
    def test_wait_beyond_a_day_fails_before_any_probe(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        # 10**20 ms overflows timedelta, which used to surface only after
        # every probe was sent, as a traceback, with --out already emptied.
        sent = []
        monkeypatch.setattr(SimNetwork, "send", lambda _net, dest, _data: sent.append(dest))
        fixture = tmp_path / "hosts.txt"
        fixture.write_text("10.9.0.1 lazy\n")
        targets = tmp_path / "targets.txt"
        targets.write_text("10.9.0.1\n")
        out = tmp_path / "old.jsonl"
        out.write_bytes(b"oldbytes\n")
        code = main([
            "scan", "--targets", str(targets), "--out", str(out),
            "--transport", f"sim:{fixture}", flag, str(value),
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"oldbytes\n"
        assert sent == []

    def test_unknown_probe_kind_is_config_error(self, tmp_path, capsys):
        # Every scan sends all four probes; there is no option to choose them.
        targets = tmp_path / "t.txt"
        targets.write_text("192.0.2.1\n")
        with pytest.raises(SystemExit) as info:
            main([
                "scan", "--targets", str(targets), "--out", str(tmp_path / "o.jsonl"),
                "--transport", "sim:whatever", "--probes", "standard",
            ])
        assert info.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --probes standard" in capsys.readouterr().err

    def test_unknown_transport_is_config_error(self, tmp_path):
        targets = tmp_path / "t.txt"
        targets.write_text("192.0.2.1\n")
        out = tmp_path / "o.jsonl"
        code = main([
            "scan", "--targets", str(targets), "--out", str(out),
            "--transport", "smoke-signals",
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_privilege_error_exit_code(self, tmp_path, monkeypatch):
        def denied(*args, **kwargs):
            raise PermissionError("raw sockets are for grown-ups")

        monkeypatch.setattr(socket, "socket", denied)
        targets = tmp_path / "t.txt"
        targets.write_text("192.0.2.1\n")
        code = main([
            "scan", "--targets", str(targets), "--out", str(tmp_path / "o.jsonl"),
            "--transport", "raw",
        ])
        assert code == EXIT_PRIVILEGE


def failing_network(fixture, k, error):
    """The network of ``fixture``, whose send ``k`` (from 0) raises ``error``."""
    net = SimNetwork.from_file(fixture)
    send, sends = net.send, iter(range(k))

    def send_or_fail(dest, data):
        if next(sends, None) is None:
            raise error
        send(dest, data)

    net.send = send_or_fail
    return net


class TestScanOutput:
    """--out is replaced only when a scan ends."""

    def prepare(self, tmp_path, monkeypatch, transport):
        """``--out`` holding an earlier result, and the argv of a scan run on
        ``transport(fixture)``."""
        fixture = tmp_path / "hosts.txt"
        fixture.write_text(FIXTURE)
        targets = tmp_path / "targets.txt"
        targets.write_text("".join(f"10.9.0.{i}\n" for i in range(1, 6)))
        monkeypatch.setattr(cli, "make_transport", lambda spec: transport(fixture))
        out = tmp_path / "old.jsonl"
        out.write_bytes(b"oldbytes\n")
        argv = ["scan", "--targets", str(targets), "--out", str(out), "--transport", "sim:x"]
        return out, argv

    def test_interrupt_at_a_send_keeps_the_earlier_output(self, tmp_path, monkeypatch):
        out, argv = self.prepare(
            tmp_path, monkeypatch, lambda f: failing_network(f, 7, KeyboardInterrupt())
        )
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert out.read_bytes() == b"oldbytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "old.jsonl", "targets.txt",
        ]

    def test_interrupt_after_some_records_keeps_the_earlier_output(
        self, tmp_path, monkeypatch
    ):
        # Two records are already flushed to the temporary file.
        lines = iter(range(2))

        def record_to_line(record):
            if next(lines, None) is None:
                raise KeyboardInterrupt
            return "{}"

        monkeypatch.setattr(cli.results, "record_to_line", record_to_line)
        out, argv = self.prepare(tmp_path, monkeypatch, SimNetwork.from_file)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert out.read_bytes() == b"oldbytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "old.jsonl", "targets.txt",
        ]

    def test_transport_failure_keeps_partial_records_beside_the_marker(
        self, tmp_path, monkeypatch, capsys
    ):
        # Send 17 of 20 fails: every target has had its round-one probes,
        # two of them their duplicates too.
        out, argv = self.prepare(
            tmp_path, monkeypatch,
            lambda f: failing_network(f, 17, TransportError("link down")),
        )
        assert main(argv) == EXIT_TRANSPORT
        assert capsys.readouterr().err == "transport failure: link down (5 records flushed)\n"
        records = read_records(out)
        assert len(records) == 5
        assert sorted(len(r.outcomes) for r in records) == [3, 3, 3, 4, 4]
        marker = tmp_path / "old.jsonl.resume"
        listed = [ln for ln in marker.read_text().splitlines() if not ln.startswith("#")]
        assert listed == [r.target for r in records if len(r.outcomes) == 3]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "old.jsonl", "old.jsonl.resume", "targets.txt",
        ]

    def test_a_scan_that_ends_removes_an_earlier_marker(self, tmp_path, monkeypatch):
        _, argv = self.prepare(
            tmp_path, monkeypatch, lambda f: failing_network(f, 7, TransportError("link down"))
        )
        assert main(argv) == EXIT_TRANSPORT
        assert (tmp_path / "old.jsonl.resume").exists()
        self.prepare(tmp_path, monkeypatch, SimNetwork.from_file)
        assert main(argv) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "old.jsonl", "targets.txt",
        ]

    def test_a_failed_marker_write_leaves_no_earlier_marker(self, tmp_path, monkeypatch):
        out, argv = self.prepare(
            tmp_path, monkeypatch, lambda f: failing_network(f, 7, TransportError("link down"))
        )
        assert main(argv) == EXIT_TRANSPORT
        replacing = cli.textfile.replacing

        def replacing_but_the_marker(path):
            if path.endswith(".resume"):
                raise disk_full()
            return replacing(path)

        monkeypatch.setattr(cli.textfile, "replacing", replacing_but_the_marker)
        self.prepare(
            tmp_path, monkeypatch, lambda f: failing_network(f, 17, TransportError("link down"))
        )
        assert main(argv) == EXIT_CONFIG
        assert len(read_records(out)) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "old.jsonl", "targets.txt",
        ]

    def test_interrupt_after_a_transport_failure_writes_no_marker(
        self, tmp_path, monkeypatch
    ):
        # The marker describes the records in --out, so neither is written.
        def record_to_line(record):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.results, "record_to_line", record_to_line)
        out, argv = self.prepare(
            tmp_path, monkeypatch, lambda f: failing_network(f, 7, TransportError("link down"))
        )
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert out.read_bytes() == b"oldbytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "old.jsonl", "targets.txt",
        ]


    def test_sigterm_at_a_send_keeps_the_earlier_output(self, tmp_path):
        # In a process of its own, since SIGTERM unhandled would end pytest:
        # send 7 of the scan signals the process.
        fixture = tmp_path / "hosts.txt"
        fixture.write_text(FIXTURE)
        targets = tmp_path / "targets.txt"
        targets.write_text("".join(f"10.9.0.{i}\n" for i in range(1, 6)))
        out = tmp_path / "old.jsonl"
        out.write_bytes(b"oldbytes\n")
        script = (
            "import os, signal, sys\n"
            "from icmpstamp import cli\n"
            "from icmpstamp.responder import SimNetwork\n"
            "def make_transport(spec):\n"
            "    net = SimNetwork.from_file(spec[4:])\n"
            "    send, sends = net.send, iter(range(7))\n"
            "    def send_or_terminate(dest, data):\n"
            "        if next(sends, None) is None:\n"
            "            os.kill(os.getpid(), signal.SIGTERM)\n"
            "        send(dest, data)\n"
            "    net.send = send_or_terminate\n"
            "    return net\n"
            "cli.make_transport = make_transport\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = child_env()
        done = subprocess.run(
            [sys.executable, "-c", script, "scan", "--targets", str(targets),
             "--out", str(out), "--transport", f"sim:{fixture}"],
            env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 128 + signal.SIGTERM, done.stderr
        assert out.read_bytes() == b"oldbytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "old.jsonl", "targets.txt",
        ]

    def test_sigterm_handler_is_set_only_where_none_is_and_put_back(
        self, tmp_path, monkeypatch
    ):
        seen = []

        def transport(fixture):
            seen.append(signal.getsignal(signal.SIGTERM))
            return SimNetwork.from_file(fixture)

        _, argv = self.prepare(tmp_path, monkeypatch, transport)

        def own(*_):
            pass

        previous = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            assert main(argv) == EXIT_OK
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            signal.signal(signal.SIGTERM, own)
            assert main(argv) == EXIT_OK
            assert signal.getsignal(signal.SIGTERM) is own
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert seen == [cli._exit_on_signal, own]


def disk_full() -> OSError:
    return OSError(errno.ENOSPC, "No space left on device")


class TestMakeTransport:
    def test_sim_spec(self, tmp_path):
        fixture = tmp_path / "hosts.txt"
        fixture.write_text("192.0.2.1 lazy\n")
        transport = cli.make_transport(f"sim:{fixture}")
        assert isinstance(transport, SimNetwork)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            cli.make_transport("carrier-pigeon")


OUT_OF_DAY_ERROR = (
    f"bad record: a standard request's orig must be below {DAY_MS}, got 90000000"
)


def write_out_of_day_originate(path) -> None:
    """Give the standard request of ``path``'s second record an originate
    beyond the day."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    (standard,) = [p for p in rec["probes"] if p["kind"] == "standard"]
    standard["request"]["orig"] = 90_000_000
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


class TestClassifyCommand:
    def test_reclassify_round_trip(self, scanned):
        tmp_path, out = scanned
        re_out = tmp_path / "re.jsonl"
        code = main(["classify", "--in", str(out), "--out", str(re_out)])
        assert code == EXIT_OK
        assert [r.fingerprint for r in read_records(re_out)] == [
            r.fingerprint for r in read_records(out)
        ]

    def test_in_place_classify_keeps_the_bytes(self, scanned):
        # --out is replaced only once every line of --in is read, so one
        # file may be both, and at the scan's margin it is written back as
        # read.
        _, out = scanned
        before = out.read_bytes()
        assert main(["classify", "--in", str(out), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == before

    def test_failed_in_place_write_keeps_the_input(self, scanned, monkeypatch, capsys):
        tmp_path, out = scanned
        before = out.read_bytes()
        run = cli.shares.run

        def classify_then_fill_disk(job, src, out):
            run(job, src, out)
            raise disk_full()

        monkeypatch.setattr(cli.shares, "run", classify_then_fill_disk)
        assert main(["classify", "--in", str(out), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {disk_full()}\n"
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "results.jsonl", "targets.txt",
        ]

    def test_margin_beyond_policy_bound_is_config_error(self, scanned):
        tmp_path, out = scanned
        re_out = tmp_path / "re.jsonl"
        code = main(["classify", "--in", str(out), "--out", str(re_out),
                     "--margin-ms", "50000000"])
        assert code == EXIT_CONFIG

    def test_overly_wide_margin_reports_ambiguity_as_config_error(self, scanned):
        tmp_path, out = scanned
        re_out = tmp_path / "re.jsonl"
        code = main(["classify", "--in", str(out), "--out", str(re_out),
                     "--margin-ms", "40000000"])
        assert code == EXIT_CONFIG  # several candidate offsets match at once

    def test_unusable_margin_fails_before_reading_input(self, scanned, capsys):
        tmp_path, out = scanned
        lines = out.read_text().splitlines()
        out.write_text(lines[0] + "\n{not json\n")
        code = main(["classify", "--in", str(out), "--out", str(tmp_path / "re.jsonl"),
                     "--margin-ms", "2000000"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: margin 2000000 ms is more than half the 1800000 ms between the "
            "closest candidate offsets; narrow the margin or thin the table\n"
        )

    @pytest.mark.parametrize("key", ["send_time", "arrival"])
    def test_naive_instant_is_config_error(self, scanned, capsys, key):
        # A naive instant beside aware ones used to crash classify with a
        # TypeError; all-naive records were read in the machine's zone.
        tmp_path, out = scanned
        lines = out.read_text().splitlines()
        rec = json.loads(lines[1])
        probe = rec["probes"][-1]
        probe[key] = text = datetime.fromisoformat(probe[key]).replace(tzinfo=None).isoformat()
        lines[1] = json.dumps(rec)
        out.write_text("\n".join(lines) + "\n")
        re_out = tmp_path / "re.jsonl"
        re_out.write_bytes(b"oldbytes\n")
        code = main(["classify", "--in", str(out), "--out", str(re_out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {out}:2: bad record: {key} must be in UTC (+00:00), got {text!r}\n"
        )
        assert re_out.read_bytes() == b"oldbytes\n"

    def test_out_of_day_originate_is_a_bad_record(self, scanned, capsys):
        # It used to fail the whole file with no line named.
        tmp_path, out = scanned
        write_out_of_day_originate(out)
        re_out = tmp_path / "re.jsonl"
        re_out.write_bytes(b"oldbytes\n")
        code = main(["classify", "--in", str(out), "--out", str(re_out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {out}:2: {OUT_OF_DAY_ERROR}\n"
        assert re_out.read_bytes() == b"oldbytes\n"

    @pytest.mark.parametrize("kind, round_, error", [
        ("duplicate", 0, "round 0 does not match kind duplicate"),
        ("standard", 1, "round 1 does not match kind standard"),
        # Equal to 1, which a duplicate is written with, but not an int.
        ("duplicate", True, "round must be an integer, got True"),
    ])
    def test_round_that_disagrees_with_its_kind_is_a_bad_record(
        self, scanned, capsys, kind, round_, error,
    ):
        # A duplicate probe is written with round 1 and every other kind
        # with round 0; a line with any other round is refused on its own.
        tmp_path, out = scanned
        lines = out.read_text().splitlines()
        rec = json.loads(lines[1])
        (probe,) = [p for p in rec["probes"] if p["kind"] == kind]
        probe["round"] = round_
        lines[1] = json.dumps(rec)
        out.write_text("\n".join(lines) + "\n")
        re_out = tmp_path / "re.jsonl"
        re_out.write_bytes(b"oldbytes\n")
        code = main(["classify", "--in", str(out), "--out", str(re_out)])
        assert code == EXIT_CONFIG == 2
        assert capsys.readouterr().err == f"error: {out}:2: bad record: {error}\n"
        assert re_out.read_bytes() == b"oldbytes\n"

    @pytest.mark.parametrize("text, repeated", [
        ("9\n# again\n9\n", "offset 9 repeats the point of line 1"),
        ("12\n3.5\n-12\n", "offset -12 repeats the point of line 1"),
    ])
    def test_offsets_file_that_repeats_a_point_names_it(self, scanned, capsys, text, repeated):
        # Such a table used to refuse every margin, as one whose closest
        # entries are 0 ms apart.
        tmp_path, out = scanned
        offsets = tmp_path / "offsets.txt"
        offsets.write_text(text)
        code = main(["classify", "--in", str(out), "--out", str(tmp_path / "re.jsonl"),
                     "--offsets", str(offsets)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {offsets}:3: {repeated} on the day circle\n"
        assert not (tmp_path / "re.jsonl").exists()

    def test_custom_offsets_file(self, scanned, tmp_path):
        _, out = scanned
        offsets = tmp_path / "offsets.txt"
        offsets.write_text("9\n")
        re_out = tmp_path / "re.jsonl"
        code = main(["classify", "--in", str(out), "--out", str(re_out),
                     "--offsets", str(offsets)])
        assert code == EXIT_OK

    def test_empty_offsets_path_is_an_error(self, scanned, capsys):
        # An empty path names no file, as for --targets; it used to select
        # the default table.
        tmp_path, out = scanned
        re_out = tmp_path / "re.jsonl"
        code = main(["classify", "--in", str(out), "--out", str(re_out), "--offsets", ""])
        assert code == EXIT_CONFIG == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
        assert not re_out.exists()


FIXTURE_ERRORS = {
    "fixture": "10.9.0.1 timezone tz=inf\n",
    "stuck": "10.9.0.1 stuck value=0x100000000\n",
    "clock_error": "10.9.0.1 lazy clock_error=100000000000000000000\n",
    "latency": "10.9.0.1 lazy latency=100000000000000000000\n",
    "network": "@network jitter=100000000000000000000\n10.9.0.1 lazy\n",
    "network_loss": "@network loss=2\n10.9.0.1 lazy\n",
    "network_start": "@network start=2018-10-06T09:13:27\n10.9.0.1 lazy\n",
    # The class alone sets these; a host that names one is refused.
    "bad_checksum": "10.9.0.1 checksum_lazy bad_checksum=0\n",
    "byte_order": "10.9.0.1 little_endian byte_order=big\n",
    "msb": "10.9.0.1 non_utc msb=0\n",
    "truncate": "10.9.0.1 htons_bug truncate=0\n",
}


@pytest.mark.parametrize("bad_input", ["record", "offsets", *FIXTURE_ERRORS])
def test_malformed_input_is_config_error(scanned, capsys, bad_input):
    tmp_path, out = scanned
    bad = tmp_path / "bad.txt"
    if bad_input == "record":
        bad.write_text("[]\n")
        argv = ["classify", "--in", str(bad), "--out", str(tmp_path / "re.jsonl")]
    elif bad_input == "offsets":
        bad.write_text("9\ninf\n")
        argv = ["classify", "--in", str(out), "--out", str(tmp_path / "re.jsonl"),
                "--offsets", str(bad)]
    else:
        bad.write_text(FIXTURE_ERRORS[bad_input])
        argv = ["scan", "--targets", str(tmp_path / "targets.txt"),
                "--out", str(tmp_path / "o.jsonl"), "--transport", f"sim:{bad}"]
    assert main(argv) == EXIT_CONFIG
    # Every kind of bad input is reported with its file and line.
    assert capsys.readouterr().err.startswith(f"error: {bad}:")


class TestReportCommands:
    def test_pmf(self, scanned, capsys):
        _, out = scanned
        code = main(["report", "pmf", "--in", str(out), "--bin-ms", "3600000"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "bin_start_ms\tprobability"
        assert len(lines) > 1

    def test_pmf_out_of_day_originate_is_a_bad_record(self, scanned, capsys):
        _, out = scanned
        write_out_of_day_originate(out)
        code = main(["report", "pmf", "--in", str(out)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}:2: {OUT_OF_DAY_ERROR}\n"

    def test_pmf_exclude_correct(self, scanned, capsys):
        _, out = scanned
        code = main(["report", "pmf", "--in", str(out), "--bin-ms", "3600000",
                     "--exclude-correct"])
        assert code == EXIT_OK
        body = capsys.readouterr().out
        assert "32400000" in body  # the +9 spike survives the filter

    def test_geo(self, scanned, tmp_path, capsys):
        _, out = scanned
        tzdb = tmp_path / "tz.db"
        tzdb.write_text(TZ_DB)
        code = main(["report", "geo", "--in", str(out), "--tzdb", str(tzdb)])
        assert code == EXIT_OK
        body = capsys.readouterr().out
        assert "timezone-classified hosts: 1" in body
        assert "accuracy: 100.0%" in body

    def test_geo_missing_db_is_config_error(self, scanned, tmp_path):
        _, out = scanned
        code = main(["report", "geo", "--in", str(out),
                     "--tzdb", str(tmp_path / "nope.db")])
        assert code == EXIT_CONFIG

    def test_reports_stream_the_records(self, scanned, tmp_path, capsys, monkeypatch):
        # Neither report holds the whole file: each reads it line by line,
        # and prints what it printed from the list of every record.
        _, out = scanned
        tzdb = tmp_path / "tz.db"
        tzdb.write_text(TZ_DB)
        argvs = [
            ["report", "pmf", "--in", str(out), "--bin-ms", "3600000"],
            ["report", "geo", "--in", str(out), "--tzdb", str(tzdb)],
        ]
        listed = []
        for argv in argvs:
            assert main(argv) == EXIT_OK
            listed.append(capsys.readouterr().out)

        def read_records(path):
            raise AssertionError(f"read_records({path!r}) called")

        monkeypatch.setattr(results, "read_records", read_records)
        for argv, expected in zip(argvs, listed):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == expected

    def test_pmf_checks_the_bin_width_before_reading(self, scanned, capsys):
        _, out = scanned
        write_out_of_day_originate(out)
        assert main(["report", "pmf", "--in", str(out), "--bin-ms", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: bin_ms must be positive: 0\n"

    def test_geo_loads_the_database_before_reading(self, scanned, tmp_path, capsys):
        _, out = scanned
        write_out_of_day_originate(out)
        tzdb = tmp_path / "tz.db"
        tzdb.write_text("10.9.0.0/24 nan\n")
        assert main(["report", "geo", "--in", str(out), "--tzdb", str(tzdb)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {tzdb}:1: bad tz entry:")


class TestAnalyzeRequestsCommand:
    def test_summary(self, tmp_path, capsys):
        from icmpstamp import wire
        from icmpstamp.wire import TimestampMessage

        lines = []
        for i in range(10):
            msg = wire.fill_checksum(TimestampMessage(13, orig_ts=0 if i < 9 else 5))
            lines.append(f"10.9.9.{i % 3} - {wire.encode(msg).hex()}")
        capture = tmp_path / "capture.txt"
        capture.write_text("\n".join(lines) + "\n")
        code = main(["analyze-requests", "--capture", str(capture), "--top", "2"])
        assert code == EXIT_OK
        body = capsys.readouterr().out
        assert "timestamp requests: 10" in body
        assert "(90.00%)" in body

    def test_negative_top_is_config_error(self, capsys):
        code = main(["analyze-requests", "--capture", str(FIXTURES / "demo_capture.txt"),
                     "--top", "-1"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --top ")

    def test_demo_capture(self, capsys):
        # The fixture CI runs: four zero-originate requests, one other, and
        # a reply that is not counted.
        code = main(["analyze-requests", "--capture", str(FIXTURES / "demo_capture.txt")])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[:2] == [
            "timestamp requests: 5",
            "zero-originate (nmap-like): 4 (80.00%)",
        ]


class TestMergeCommand:
    def test_merge(self, scanned, tmp_path):
        _, out = scanned
        merged_path = tmp_path / "merged.jsonl"
        code = main(["merge", str(out), str(out), "--out", str(merged_path)])
        assert code == EXIT_OK
        merged = read_records(merged_path)
        originals = read_records(out)
        assert len(merged) == len(originals)
        for merged_rec, original in zip(merged, originals):
            assert merged_rec.fingerprint.classes == original.fingerprint.classes
            assert merged_rec.vantage == "lab+lab"

    def test_failed_in_place_write_keeps_the_input(self, scanned, monkeypatch):
        tmp_path, out = scanned
        before = out.read_bytes()
        to_line, lines = cli.results.record_to_line, iter(range(1))

        def record_to_line(record):
            if next(lines, None) is None:
                raise disk_full()
            return to_line(record)

        monkeypatch.setattr(cli.results, "record_to_line", record_to_line)
        assert main(["merge", str(out), str(out), "--out", str(out)]) == EXIT_CONFIG
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hosts.txt", "results.jsonl", "targets.txt",
        ]


@pytest.mark.parametrize("argv", [
    ["classify", "--in", "{bent}", "--out", "{out}"],
    ["merge", "{bent}", "{good}", "--out", "{out}"],
    ["merge", "{good}", "{bent}", "--out", "{out}"],
])
def test_fingerprint_target_not_the_records_is_a_bad_record(scanned, capsys, argv):
    # Such a line used to be read: classify then wrote the record's target
    # over it, and merge failed without naming the line.
    tmp_path, good = scanned
    lines = good.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["fingerprint"]["target"] = "203.0.113.9"
    bent = tmp_path / "bent.jsonl"
    bent.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
    out = tmp_path / "re.jsonl"
    out.write_bytes(b"oldbytes\n")
    paths = {"bent": bent, "good": good, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {bent}:2: bad record: fingerprint target '203.0.113.9' "
        f"is not the record's {rec['target']!r}\n"
    )
    assert out.read_bytes() == b"oldbytes\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--in", "{deep}", "--out", "{out}"],
    ["report", "pmf", "--in", "{deep}"],
    ["merge", "{good}", "{deep}", "--out", "{out}"],
])
def test_a_deeply_nested_line_is_a_bad_record(scanned, capsys, argv):
    # The JSON decoder raises RecursionError on such a line, which used to
    # end the command with a traceback.
    tmp_path, good = scanned
    deep = tmp_path / "deep.jsonl"
    deep.write_bytes(b"[" * 100_000 + b"]" * 100_000 + b"\n")
    out = tmp_path / "deep-out.jsonl"
    paths = {"deep": deep, "good": good, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"error: {deep}:1: bad record: maximum recursion depth exceeded"
    )
    assert not out.exists()
    # orjson 3.8.3 crashes the process on a line nested a million deep, so
    # that line is read in a child: with orjson where it imports, and
    # with it blocked.
    deep.write_bytes(b"[" * 1_000_000 + b"]" * 1_000_000 + b"\n")
    for block in ("", "sys.modules['orjson'] = None; "):
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys; {block}from icmpstamp.cli import main; sys.exit(main(sys.argv[1:]))",
             *[arg.format(**paths) for arg in argv]],
            env=child_env(), capture_output=True, timeout=120,
        )
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert done.stderr.decode().startswith(
            f"error: {deep}:1: bad record: maximum recursion depth exceeded"
        )
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--in", "{huge}", "--out", "{out}"],
    ["report", "pmf", "--in", "{huge}"],
    ["report", "geo", "--in", "{huge}", "--tzdb", "{tzdb}"],
    ["merge", "{good}", "{huge}", "--out", "{out}"],
])
def test_an_integer_tz_offset_beyond_a_float_is_a_bad_record(scanned, capsys, argv):
    # Testing such an offset for finiteness raised OverflowError, which
    # ended the command with a traceback.
    tmp_path, good = scanned
    lines = good.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["fingerprint"]["tz_offset"] = 10**400
    huge = tmp_path / "huge.jsonl"
    huge.write_text("\n".join([lines[0], json.dumps(rec), *lines[2:]]) + "\n")
    tzdb = tmp_path / "tz.db"
    tzdb.write_text(TZ_DB)
    out = tmp_path / "huge-out.jsonl"
    paths = {"huge": huge, "good": good, "out": out, "tzdb": tzdb}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {huge}:2: bad record: tz_offset must be null or a finite number, "
        f"got {10**400!r}\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_classify_reads_a_pipe_once(tmp_path):
    # /dev/stdin on a pipe cannot seek, so its lines are neither counted
    # first nor split into shares: 1,900 records are read once and
    # written back as they came.
    out = tmp_path / "demo.jsonl"
    scan_demo(out)
    data = out.read_bytes() * 100
    piped = tmp_path / "piped.jsonl"
    env = child_env()
    done = subprocess.run(
        [sys.executable, "-m", "icmpstamp", "classify", "--in", "/dev/stdin",
         "--out", str(piped)],
        input=data, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == f"reclassified 1900 records into {piped}\n".encode()
    assert piped.read_bytes() == data


def test_verbose_help_names_what_is_logged():
    # The engine logs each packet it discards and its closing counts; it
    # logs no progress.
    (verbose,) = [a for a in cli.build_parser()._actions if "-v" in a.option_strings]
    assert verbose.help == "log each discarded packet and the closing sent/discarded counts"


def test_python_dash_m_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import icmpstamp

    src_dir = str(Path(icmpstamp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "icmpstamp", "--help"],
        capture_output=True,
        text=True,
        check=False,
        env=env,
    )
    assert proc.returncode == 0
    assert "scan" in proc.stdout
