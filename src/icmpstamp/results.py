"""Scan result records and their line-delimited JSON serialization.

One self-describing record per line, deterministic key order, so result
files are streamable, diff-able, and byte-stable for a fixed seed.  The
record keeps every probe (answered or not) with enough request detail to
re-run classification offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime

from icmpstamp.classify import (
    Correctness,
    Fingerprint,
    HostObservation,
    ImplClass,
    Timekeeping,
)
from icmpstamp.probes import ProbeKind, ProbeOutcome, ProbeRecord, TamperVerdict
from icmpstamp.wire import TimestampMessage


@dataclass(frozen=True)
class ResultRecord:
    """Everything a scan learned about one target."""

    target: str
    vantage: str
    outcomes: tuple[ProbeOutcome, ...]
    fingerprint: Fingerprint
    duplicate_replies: int = 0


def _message_to_dict(msg: TimestampMessage) -> dict:
    return {
        "type": msg.icmp_type,
        "code": msg.code,
        "checksum": msg.checksum,
        "id": msg.ident,
        "seq": msg.seq,
        "orig": msg.orig_ts,
        "recv": msg.recv_ts,
        "xmit": msg.xmit_ts,
    }


def _message_from_dict(d: dict) -> TimestampMessage:
    return TimestampMessage(
        d["type"],
        code=d["code"],
        checksum=d["checksum"],
        ident=d["id"],
        seq=d["seq"],
        orig_ts=d["orig"],
        recv_ts=d["recv"],
        xmit_ts=d["xmit"],
    )


def _instant_to_str(instant: datetime) -> str:
    return instant.isoformat(timespec="microseconds")


def fingerprint_to_dict(fp: Fingerprint) -> dict:
    return {
        "target": fp.target,
        "classes": sorted(c.value for c in fp.classes),
        "timekeeping": fp.timekeeping.value,
        "correctness": fp.correctness.value,
        "tz_offset": fp.tz_offset,
        "flags": sorted(fp.flags),
    }


def fingerprint_from_dict(d: dict) -> Fingerprint:
    return Fingerprint(
        target=d["target"],
        classes=frozenset(ImplClass(c) for c in d["classes"]),
        timekeeping=Timekeeping(d["timekeeping"]),
        correctness=Correctness(d["correctness"]),
        tz_offset=d["tz_offset"],
        flags=frozenset(d["flags"]),
    )


def record_to_dict(rec: ResultRecord) -> dict:
    probes = []
    for outcome in rec.outcomes:
        entry = {
            "kind": outcome.probe.kind.value,
            "send_time": _instant_to_str(outcome.probe.send_time),
            "round": outcome.probe.round_no,
            "request": _message_to_dict(outcome.probe.message),
            "reply": _message_to_dict(outcome.reply) if outcome.reply else None,
            "arrival": _instant_to_str(outcome.arrival) if outcome.arrival else None,
            "tamper": outcome.tamper.value if outcome.tamper else None,
        }
        probes.append(entry)
    return {
        "target": rec.target,
        "vantage": rec.vantage,
        "probes": probes,
        "duplicate_replies": rec.duplicate_replies,
        "fingerprint": fingerprint_to_dict(rec.fingerprint),
    }


def record_from_dict(d: dict) -> ResultRecord:
    outcomes = []
    for entry in d["probes"]:
        probe = ProbeRecord(
            kind=ProbeKind(entry["kind"]),
            dest=d["target"],
            send_time=datetime.fromisoformat(entry["send_time"]),
            message=_message_from_dict(entry["request"]),
            round_no=entry["round"],
        )
        outcomes.append(
            ProbeOutcome(
                probe=probe,
                reply=_message_from_dict(entry["reply"]) if entry["reply"] else None,
                arrival=datetime.fromisoformat(entry["arrival"]) if entry["arrival"] else None,
                tamper=TamperVerdict(entry["tamper"]) if entry["tamper"] else None,
            )
        )
    return ResultRecord(
        target=d["target"],
        vantage=d["vantage"],
        outcomes=tuple(outcomes),
        fingerprint=fingerprint_from_dict(d["fingerprint"]),
        duplicate_replies=d["duplicate_replies"],
    )


def record_to_line(rec: ResultRecord) -> str:
    return json.dumps(record_to_dict(rec), sort_keys=True, separators=(",", ":"))


def record_from_line(line: str) -> ResultRecord:
    return record_from_dict(json.loads(line))


def write_records(path, records) -> int:
    """Stream records to ``path``; returns how many were written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_line(rec) + "\n")
            fh.flush()
            count += 1
    return count


def read_records(path) -> list[ResultRecord]:
    records = []
    # Not ``textfile.parse_lines``: a JSON line may hold "#".  Each line is
    # decoded on its own so an undecodable byte is reported on its line.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                records.append(record_from_line(raw.decode("utf-8")))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") from None
    return records


def observation_from_record(rec: ResultRecord) -> HostObservation:
    """Rebuild the observation so classification can be re-run offline."""
    return HostObservation(rec.target, rec.outcomes, rec.duplicate_replies)
