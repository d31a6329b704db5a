"""Result persistence: lossless round-trip, stable bytes, observation rebuild."""

import random

import pytest

from builders import at_ms, echo_reply, pair_for
from icmpstamp.classify import fingerprint_observation, HostObservation
from icmpstamp.probes import ProbeOutcome, make_bad_clock, make_duplicate, make_standard
from icmpstamp.results import (
    ResultRecord,
    observation_from_record,
    read_records,
    record_from_line,
    record_to_line,
    write_records,
)


def sample_record(target="10.7.0.1", answered=True):
    rng = random.Random(5)
    t0 = 41_000_000 + rng.randrange(1000)
    probes = [
        make_standard(target, at_ms(t0)),
        make_bad_clock(target, rng.getrandbits(16), rng.getrandbits(16), at_ms(t0 + 10)),
        make_duplicate(target, at_ms(t0 + 3000)),
    ]
    outcomes = []
    pairs = []
    for probe in probes:
        if answered:
            reply = echo_reply(probe, t0 + 40, t0 + 40)
            pair = pair_for(probe, reply)
            pairs.append(pair)
            outcomes.append(pair)
        else:
            outcomes.append(ProbeOutcome(probe))
    obs = HostObservation(target, pairs, duplicate_replies=1)
    fp = fingerprint_observation(obs) if answered else None
    if fp is None:
        from icmpstamp.classify import Correctness, Fingerprint, ImplClass, Timekeeping

        fp = Fingerprint(target, frozenset({ImplClass.UNKNOWN}),
                         Timekeeping.UNKNOWN, Correctness.INCORRECT)
    return ResultRecord(target, "lab", tuple(outcomes), fp, duplicate_replies=1)


class TestRoundTrip:
    def test_answered_record(self):
        rec = sample_record()
        assert record_from_line(record_to_line(rec)) == rec

    def test_unanswered_probes_survive(self):
        rec = sample_record(answered=False)
        assert record_from_line(record_to_line(rec)) == rec

    def test_line_bytes_are_stable(self):
        rec = sample_record()
        assert record_to_line(rec) == record_to_line(rec)

    def test_file_round_trip(self, tmp_path):
        records = [sample_record(f"10.7.1.{i}") for i in range(1, 6)]
        path = tmp_path / "out.jsonl"
        assert write_records(path, records) == 5
        assert read_records(path) == records

    def test_bad_line_named(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"not": "a record"}\n')
        try:
            read_records(path)
        except ValueError as exc:
            assert "out.jsonl:1" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_non_object_line_named(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text(record_to_line(sample_record()) + "\n[]\n")
        with pytest.raises(ValueError, match="out.jsonl:2: bad record"):
            read_records(path)


def test_observation_rebuild_reclassifies_identically():
    rec = sample_record()
    obs = observation_from_record(rec)
    assert fingerprint_observation(obs) == rec.fingerprint
