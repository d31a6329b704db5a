"""The shared input-line reader, the location of every input error, and
the one output writer."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import at_ms
from icmpstamp import wire
from icmpstamp.classify import Correctness, Fingerprint, ImplClass, Timekeeping
from icmpstamp.clock import OffsetTable
from icmpstamp.engine import ScanConfig, load_targets, run_scan
from icmpstamp.probes import make_standard
from icmpstamp.reports import load_capture, load_tz_db
from icmpstamp.responder import SimNetwork, load_behavior_file
from icmpstamp.results import ResultRecord, read_records, record_to_line, records_in
from icmpstamp.textfile import parse_lines, replacing

REQUEST_HEX = wire.encode(make_standard("192.0.2.1", at_ms(1000)).request).hex()
RECORD_LINE = record_to_line(
    ResultRecord(
        "192.0.2.1",
        "lab",
        (),
        Fingerprint(frozenset({ImplClass.UNKNOWN}),
                    Timekeeping.UNKNOWN, Correctness.INCORRECT),
    )
)

# reader, a line it accepts, a line it rejects
READERS = {
    "targets": (load_targets, "192.0.2.1", "192.0.2.300"),
    "offsets": (OffsetTable.from_file, "9", "nine"),
    "fixture": (load_behavior_file, "192.0.2.1 lazy", "192.0.2.2 sleepy"),
    "tzdb": (load_tz_db, "10.0.0.0/8 9", "10.0.0.0/8"),
    "capture": (load_capture, f"192.0.2.1 - {REQUEST_HEX}", "192.0.2.1 - zz"),
    "results": (read_records, RECORD_LINE, "[]"),
}


@pytest.mark.parametrize("fault", ["undecodable", "unparsable"])
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_names_the_bad_line(tmp_path, reader, fault):
    load, good, bad = READERS[reader]
    good = good.encode()
    bad = good[:-1] + b"\xff" if fault == "undecodable" else bad.encode()
    # Blank lines, which every reader skips, put the bad line beyond the
    # first read-ahead chunk of a text-mode file.
    padding = [b""] * 10_000
    path = tmp_path / f"{reader}.txt"
    path.write_bytes(b"\n".join([good, *padding, bad, good]) + b"\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:{len(padding) + 2}:")


def _reject_bad(text):
    if text == "BAD":
        raise ValueError("rejected")
    return text


DATA_CHARS = "abcXYZ019.-:/é時"
data_lines = st.builds(
    lambda lead, core, trail, comment: (lead + core + trail + comment, core),
    st.sampled_from(["", " ", "\t "]),
    st.text(DATA_CHARS, min_size=1, max_size=8).filter(lambda s: s != "BAD"),
    st.sampled_from(["", " ", "  \t"]),
    st.sampled_from(["", "#", " # note", "\t#x # y", "#é"]),
)
other_lines = st.sampled_from(["", " ", "\t", "#", "# comment", "  # é 時"]).map(
    lambda text: (text, None)
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.one_of(data_lines, other_lines), max_size=12),
    ending=st.sampled_from(["\n", "\r\n", "\r"]),
    last_ending=st.booleans(),
    fault=st.one_of(
        st.none(),
        st.tuples(st.sampled_from([b"\xff", b"ab \xc3", b"\xe2\x82"]), st.integers(0, 12)),
        st.tuples(st.sampled_from([b"BAD", b" BAD # x"]), st.integers(0, 12)),
    ),
)
def test_parse_lines_property(tmp_path_factory, lines, ending, last_ending, fault):
    encoded = [text.encode() for text, _ in lines]
    expected = [core for _, core in lines if core is not None]
    bad_at = None
    if fault is not None:
        bad, at = fault
        bad_at = min(at, len(encoded))
        encoded.insert(bad_at, bad)
    body = ending.encode().join(encoded)
    if last_ending and encoded:
        body += ending.encode()
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(body)

    if bad_at is None:
        assert parse_lines(path, _reject_bad) == expected
    else:
        with pytest.raises(ValueError) as info:
            parse_lines(path, _reject_bad)
        assert str(info.value).startswith(f"{path}:{bad_at + 1}:")


class TestReplacing:
    def test_a_block_that_ends_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with replacing(path) as fh:
            fh.write("new é\n")
        assert path.read_bytes() == "new é\n".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError, ValueError])
    def test_a_block_that_raises_keeps_the_file(self, tmp_path, error):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(error):
            with replacing(path) as fh:
                fh.write("new\n")
                fh.flush()
                raise error
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o604], ids=oct)
    def test_a_replaced_file_keeps_its_permission_bits(self, tmp_path, mode):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        path.chmod(mode)
        with replacing(path) as fh:
            # The bits are set before the first byte is written.
            assert os.fstat(fh.fileno()).st_mode & 0o777 == mode
            fh.write("new\n")
        assert path.stat().st_mode & 0o777 == mode
        assert path.read_text() == "new\n"

    def test_a_missing_directory_fails_before_the_block(self, tmp_path):
        ran = []
        with pytest.raises(FileNotFoundError):
            with replacing(tmp_path / "nope" / "out.txt"):
                ran.append(True)
        assert ran == []
        assert list(tmp_path.iterdir()) == []


# Lines of every input format, fuzzed.  A line either reads or raises
# ``ValueError`` naming its path and line; nothing else may escape.

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def demo_record_lines():
    """The result lines of the demo scan: every probe kind, answered and not."""
    cfg = ScanConfig(str(FIXTURES / "demo_targets.txt"), rate_pps=200, seed=7, vantage="demo")
    net = SimNetwork.from_file(FIXTURES / "demo_hosts.txt")
    return [record_to_line(rec) for rec in run_scan(cfg, net)]


def _nodes(value, path=()):
    """The path of every value inside a decoded JSON value, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_DELETE = object()
# JSON text of arrays or of objects nested up to 100,000 deep; past the
# recursion limit ``json.loads`` raises RecursionError.  It is spliced into
# a line in place of the placeholder, as ``json.dumps`` cannot write it.
_NESTED = "<nested>"
nested_json = st.builds(
    lambda depth, arrays: "[" * depth + "]" * depth if arrays
    else '{"a":' * depth + "0" + "}" * depth,
    st.integers(1, 5000) | st.just(100_000),
    st.booleans(),
)


def _reads_or_names_line_1(load, path):
    try:
        load()
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:1:"), exc


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_a_record_with_one_value_replaced_or_deleted_reads_or_names_its_line(
    demo_record_lines, data
):
    record = json.loads(data.draw(st.sampled_from(demo_record_lines)))
    nodes = dict(_nodes(record))
    *parents, last = data.draw(st.sampled_from(list(nodes)))
    owner = record
    for key in parents:
        owner = owner[key]
    # The record's own values are drawn as well as fresh ones, so that a
    # value lands in a field that takes another of its kind.
    own = [v for v in nodes.values() if not isinstance(v, (dict, list))]
    replacement = data.draw(st.one_of(
        st.just(_DELETE), st.just(_NESTED), json_values, st.sampled_from(own)
    ))
    if replacement is _DELETE:
        del owner[last]
    else:
        owner[last] = replacement
    line = json.dumps(record)
    if replacement is _NESTED:
        line = line.replace(json.dumps(_NESTED), data.draw(nested_json))
    line = line.encode()
    _reads_or_names_line_1(lambda: list(records_in("fuzz.jsonl", [line])), "fuzz.jsonl")


# Words from every line format, right and wrong, that random lines are made of.
LINE_WORDS = [
    "192.0.2.1", "10.0.0.0/8", "192.0.2.300", "1.2.3", "0.0.0.0/0", "10.0.0.1/8", "::1",
    "9", "-3.5", "5.75", "0", "-0", "1e400", "-1e400", "nan", "inf", "0x10",
    "99999999999999999999", "-", "@network", "0d00", "zz",
    REQUEST_HEX, REQUEST_HEX[:-2], REQUEST_HEX[:-1],
    *(c.value for c in ImplClass),
    *(f"{key}={value}" for key in (
        "tz", "units", "clock_error", "latency", "jitter", "loss", "value", "tamper", "seed",
        "start", "bogus",
    ) for value in (
        "", "9", "-1", "nan", "1e400", "0x10", "86400001", "ms", "epoch", "source",
        "2018-10-06T12:00:00Z", "2018-10-06T12:00:00",
    )),
]
random_lines = st.one_of(
    st.lists(st.sampled_from(LINE_WORDS), min_size=1, max_size=6).map(" ".join).map(str.encode),
    st.text(max_size=30).map(lambda s: s.encode("utf-8", "surrogatepass")),
    st.binary(max_size=30),
).map(lambda line: line.replace(b"\n", b" ").replace(b"\r", b" "))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["targets", "offsets", "fixture", "tzdb", "capture"]), random_lines)
def test_a_random_line_reads_or_names_its_line(tmp_path_factory, reader, line):
    load = READERS[reader][0]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{reader}.txt"
    path.write_bytes(line + b"\n")
    _reads_or_names_line_1(lambda: load(path), path)
