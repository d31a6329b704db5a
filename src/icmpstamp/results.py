"""Scan result records and their line-delimited JSON serialization.

One self-describing record per line, so result files are streamable,
diff-able, and byte-stable for a fixed seed.  The record keeps every
probe (answered or not) with enough request detail to re-run
classification offline.  A probe's ``round`` follows from its kind: 1
for a duplicate probe, which goes out in the second round, and 0 for
every other kind.

A line is the record as ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` would write it, and is written from fixed
templates whose keys are already in that order.  Only the strings the
program does not choose (target, vantage, flags) go through JSON's ASCII
string escaping; enum values, ISO instants and integers need none.  The
target is written twice, in the record and in its fingerprint, from one
escaping: a ``Fingerprint`` holds no target of its own.
Flags are sorted as JSON reads them back, so a line read back writes
the same line.

A scan's verdicts repeat far more often than its hosts do, so the text of
a fingerprint is made once per verdict: its classes, timekeeping,
correctness and flags key a dict whose value is the text up to the
target and the text from the target up to ``tz_offset``.  The offset is
written on each record and is not in the key: ``0``, ``0.0`` and ``-0.0``
are equal keys, as are ``1`` and ``1.0``, yet each is written as itself
and reads back as written.  The dict holds at most 1024 verdicts and is
cleared when full; a scan writes a few dozen.

Instants are integer microseconds since the Unix epoch everywhere else in
the program; here they become ISO text in UTC, exactly as
``datetime.isoformat(timespec="microseconds")`` writes the same instant
in ``timezone.utc``: always ending ``+00:00``.  The text of each whole
second is made once and cached.

Reading a line is a trust boundary.  Message fields, ``round`` and
``duplicate_replies`` must be integers (not booleans or floats), with
``round`` the one the probe's kind is written with,
``duplicate_replies`` not negative and each message field in the range
``TimestampMessage`` accepts, a standard request's originate timestamp
below ``DAY_MS`` (classification and the PMF report read it as a time of
day), target, vantage and flags strings, ``send_time`` and ``arrival``
ISO instants in UTC (a naive instant or any other offset is refused),
``tz_offset`` null or a finite number, the fingerprint's target the
record's, and every enum value one the program defines; anything else
is a ``ValueError`` that ``records_in`` reports as ``path:line: bad
record``.  So a bad record fails on its own line, not later in
classification or a report.

A record is checked in one pass over its fields, and each object is
built once, with ``tuple.__new__``, after its fields pass: one
``ProbeOutcome`` per probe.  A message's eight fields are accepted by one
test of their types and ranges; only a message that fails it goes
through the ``TimestampMessage`` constructor, which names the first bad
field.  Every enum value maps through a dict; only a value not in it
goes through the enum itself, which words the error.

A line is decoded with ``orjson.loads`` where orjson imports, and with
``json.loads`` otherwise.  orjson is imported when the first line is
read, once per process, and a failed import is remembered: a scan, which
reads no line, never imports it.  ``json`` is the reference, and what is
accepted and every error text are json's.  The dict orjson decodes goes
through the same checks, and a line whose fast read raises any error of a
bad record is decoded again with ``json``: orjson refuses NaN and the
infinities, a lone surrogate escape, a byte order mark and numbers beyond
a double, which ``json`` words its own way or accepts.  A line of more
than 256 ``{`` or ``[`` (a written line holds at most 17) is not given to
orjson: orjson 3.8.3 crashes the process on a line nested a million deep,
and reads one nested deeper than ``json``'s recursion limit.  A record
whose ``tz_offset`` orjson reads as a float of magnitude 2**63 or more is
read again with ``json``: orjson reads an integer beyond 64 bits as a
float.
"""

from __future__ import annotations

import json
import math
import re
from datetime import datetime, timedelta, timezone
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from icmpstamp.classify import (
    Correctness,
    Fingerprint,
    HostObservation,
    ImplClass,
    Timekeeping,
)
from icmpstamp.clock import DAY_MS
from icmpstamp.probes import ProbeKind, ProbeOutcome, TamperVerdict
from icmpstamp.textfile import replacing
from icmpstamp.wire import TIMESTAMP_REPLY, TIMESTAMP_REQUEST, TimestampMessage

# What reading a line raises for a bad record: a missing key, a line nested
# past the decoder's recursion limit, a value of the wrong type or one out
# of range (orjson's ``JSONDecodeError`` is a ``ValueError``).
_REFUSED = (KeyError, RecursionError, TypeError, ValueError)
# The most ``{`` and ``[`` a line orjson decodes may hold; a written line
# holds at most 17.
_MAX_BRACKETS = 256


class ResultRecord(NamedTuple):
    """Everything a scan learned about one target."""

    target: str
    vantage: str
    outcomes: tuple[ProbeOutcome, ...]
    fingerprint: Fingerprint
    duplicate_replies: int = 0


# Each member's value: reading ``.value`` runs a Python-level property.
_ENUMS = (ProbeKind, TamperVerdict, ImplClass, Timekeeping, Correctness)
_VALUE = {m: m.value for enum in _ENUMS for m in enum}


def _message_json(m: TimestampMessage) -> str:
    icmp_type, code, checksum, ident, seq, orig_ts, recv_ts, xmit_ts = m
    return (
        f'{{"checksum":{checksum},"code":{code},"id":{ident},'
        f'"orig":{orig_ts},"recv":{recv_ts},"seq":{seq},'
        f'"type":{icmp_type},"xmit":{xmit_ts}}}'
    )


_UTC = timezone.utc
_EPOCH = datetime(1970, 1, 1, tzinfo=_UTC)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)
# An offset with a fraction of a second at the end of an instant's text: a
# sign, then only digits and colons up to the decimal mark.
_FRACTIONAL_OFFSET = re.compile(r"[+-][\d:]*[.,]\d*\Z")


# UTC whole second since the epoch -> '"YYYY-MM-DDTHH:MM:SS.'; cleared when
# full, and a scan touches a few dozen seconds.
_SECOND_TEXT: dict[int, str] = {}
_MAX_SECONDS = 4096


def _instant_json(instant_us: int) -> str:
    second, fraction = divmod(instant_us, 1_000_000)
    head = _SECOND_TEXT.get(second)
    if head is None:
        if len(_SECOND_TEXT) >= _MAX_SECONDS:
            _SECOND_TEXT.clear()
        head = _SECOND_TEXT[second] = (
            f'"{(_NAIVE_EPOCH + timedelta(seconds=second)).isoformat()}.'
        )
    return f'{head}{fraction:06d}+00:00"'


def _outcome_json(outcome: ProbeOutcome) -> str:
    kind, send_time, request, reply, arrival, tamper = outcome
    arrival = "null" if arrival is None else _instant_json(arrival)
    reply = "null" if reply is None else _message_json(reply)
    tamper = "null" if tamper is None else f'"{_VALUE[tamper]}"'
    return (
        f'{{"arrival":{arrival},"kind":"{_VALUE[kind]}","reply":{reply},'
        f'"request":{_message_json(request)},"round":{1 if kind is _DUPLICATE else 0},'
        f'"send_time":{_instant_json(send_time)},"tamper":{tamper}}}'
    )


def _as_read(text: str) -> str:
    """``text`` as JSON reads it back: a lone high surrogate followed by a
    lone low surrogate escapes exactly like the one character they encode,
    and is read back as that character."""
    if text.isascii():
        return text
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


# (classes, timekeeping, correctness, flags) -> the fingerprint's text up
# to its target and from its target up to its ``tz_offset``; cleared when
# full, and a scan writes a few dozen verdicts.
_FINGERPRINT_TEXT: dict[tuple, tuple[str, str]] = {}
_MAX_FINGERPRINTS = 1024


def _fingerprint_text(verdict: tuple) -> tuple[str, str]:
    """The text around the target and ``tz_offset`` of every fingerprint
    whose other fields are ``verdict``, made and cached."""
    classes, timekeeping, correctness, flags = verdict
    classes = ",".join([f'"{v}"' for v in sorted([_VALUE[c] for c in classes])])
    # Sorted as read back, so a written line reads into a record that
    # writes the same line.
    flags = ",".join(map(_json_str, sorted({_as_read(f) for f in flags})))
    if len(_FINGERPRINT_TEXT) >= _MAX_FINGERPRINTS:
        _FINGERPRINT_TEXT.clear()
    text = _FINGERPRINT_TEXT[verdict] = (
        f'{{"classes":[{classes}],"correctness":"{_VALUE[correctness]}",'
        f'"flags":[{flags}],"target":',
        f',"timekeeping":"{_VALUE[timekeeping]}","tz_offset":',
    )
    return text


def record_to_line(rec: ResultRecord) -> str:
    target, vantage, outcomes, fingerprint, duplicates = rec
    classes, timekeeping, correctness, tz, flags = fingerprint
    verdict = classes, timekeeping, correctness, flags
    head, tail = _FINGERPRINT_TEXT.get(verdict) or _fingerprint_text(verdict)
    probes = ",".join([_outcome_json(o) for o in outcomes])
    target = _json_str(target)
    tz = "null" if tz is None else repr(tz)
    return (
        f'{{"duplicate_replies":{duplicates},'
        f'"fingerprint":{head}{target}{tail}{tz}}},"probes":[{probes}],'
        f'"target":{target},"vantage":{_json_str(vantage)}}}'
    )


# Each enum's members by value, as read.  A value not in its dict goes
# through the enum itself, which raises "'x' is not a valid <enum>".
_KINDS = {m.value: m for m in ProbeKind}
_TAMPERS = {None: None, **{m.value: m for m in TamperVerdict}}
_IMPL_CLASSES = {m.value: m for m in ImplClass}
_TIMEKEEPINGS = {m.value: m for m in Timekeeping}
_CORRECTNESSES = {m.value: m for m in Correctness}
_STANDARD, _DUPLICATE = ProbeKind.STANDARD, ProbeKind.DUPLICATE
# Builds a NamedTuple from its fields, as ``wire.decode`` does, once they
# are checked.
_new = tuple.__new__


def _int(value, key: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _str(value, key: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _message_from_dict(d: dict) -> TimestampMessage:
    fields = icmp_type, code, checksum, ident, seq, orig, recv, xmit = (
        d["type"], d["code"], d["checksum"], d["id"], d["seq"], d["orig"], d["recv"], d["xmit"]
    )
    # Every field an int (a chain of ``is``: all eight types are ``int``),
    # and in range as ``TimestampMessage.__post_init__`` tests it.
    if (
        type(icmp_type) is type(code) is type(checksum) is type(ident) is type(seq)
        is type(orig) is type(recv) is type(xmit) is int
        and (icmp_type == TIMESTAMP_REQUEST or icmp_type == TIMESTAMP_REPLY)
        and not (code >> 8 or (checksum | ident | seq) >> 16 or (orig | recv | xmit) >> 32)
    ):
        return _new(TimestampMessage, fields)
    for value in fields:
        if type(value) is not int:
            raise ValueError(f"message fields must be integers, got {value!r}")
    # Raises, naming the first field out of range.
    return TimestampMessage(*fields)


def _member(table: dict, enum, value):
    """``table[value]``, or ``enum(value)`` for a value not in ``table``."""
    try:
        return table[value]
    except (KeyError, TypeError):
        return enum(value)


def _tz_offset(value) -> float | None:
    if value is None:
        return None
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return value
    except OverflowError:  # an integer beyond the range of a float
        pass
    raise ValueError(f"tz_offset must be null or a finite number, got {value!r}")


def fingerprint_from_dict(d: dict, target: str) -> Fingerprint:
    """The fingerprint of the record whose target is ``target``; ``d`` must
    name that target too."""
    classes, flags = d["classes"], d["flags"]
    if type(classes) is not list or type(flags) is not list:
        raise ValueError("classes and flags must be lists")
    for flag in flags:
        _str(flag, "flag")
    if d["target"] != target:
        raise ValueError(f"fingerprint target {d['target']!r} is not the record's {target!r}")
    try:
        classes = frozenset([_IMPL_CLASSES[c] for c in classes])
    except (KeyError, TypeError):
        classes = frozenset(map(ImplClass, classes))
    return Fingerprint(
        classes,
        _member(_TIMEKEEPINGS, Timekeeping, d["timekeeping"]),
        _member(_CORRECTNESSES, Correctness, d["correctness"]),
        _tz_offset(d["tz_offset"]),
        frozenset(flags),
    )


def _utc_us(text: str, key: str) -> int:
    """The instant ``text`` names, in microseconds since the Unix epoch; it
    must be in UTC, the one zone a line is written in."""
    # ``fromisoformat`` drops the fraction of an offset of no whole seconds
    # (``+00:00:00.5`` reads as UTC; on 3.10, six digits only), so an offset
    # written with a fraction is refused before it is read.  The text every
    # line is written with ends in ``+00:00`` and skips that search, and a
    # value that is not text goes on to ``fromisoformat``'s ``TypeError``.
    if type(text) is not str or text[-6:] == "+00:00" or not _FRACTIONAL_OFFSET.search(text):
        instant = datetime.fromisoformat(text)
        # ``fromisoformat`` reads every zero offset as ``timezone.utc``; a
        # naive instant would be read in the machine's local zone.
        if instant.tzinfo is _UTC:
            return (instant - _EPOCH) // _US
    raise ValueError(f"{key} must be in UTC (+00:00), got {text!r}")


def record_from_dict(d: dict) -> ResultRecord:
    target = _str(d["target"], "target")
    outcomes = []
    for entry in d["probes"]:
        kind = _member(_KINDS, ProbeKind, entry["kind"])
        send_time = _utc_us(entry["send_time"], "send_time")
        request = _message_from_dict(entry["request"])
        if kind is _STANDARD and request.orig_ts >= DAY_MS:
            raise ValueError(
                f"a standard request's orig must be below {DAY_MS}, got {request.orig_ts}"
            )
        round_ = entry["round"]
        if type(round_) is not int:
            raise ValueError(f"round must be an integer, got {round_!r}")
        if round_ != (1 if kind is _DUPLICATE else 0):
            raise ValueError(f"round {round_} does not match kind {kind.value}")
        reply, arrival, tamper = entry["reply"], entry["arrival"], entry["tamper"]
        if reply is not None:
            reply = _message_from_dict(reply)
        if arrival is not None:
            arrival = _utc_us(arrival, "arrival")
        tamper = _member(_TAMPERS, TamperVerdict, tamper)
        outcomes.append(_new(ProbeOutcome, (kind, send_time, request, reply, arrival, tamper)))
    vantage = _str(d["vantage"], "vantage")
    fingerprint = fingerprint_from_dict(d["fingerprint"], target)
    duplicates = _int(d["duplicate_replies"], "duplicate_replies")
    if duplicates < 0:
        raise ValueError(f"duplicate_replies must not be negative, got {duplicates}")
    return _new(ResultRecord, (target, vantage, tuple(outcomes), fingerprint, duplicates))


def _first_fast_loads(line: str):
    """``line`` decoded as every line after it will be: binds
    ``_fast_loads`` to orjson's ``loads`` where orjson imports, and to
    None (which leaves every line to ``json``) where it does not."""
    global _fast_loads
    try:
        from orjson import loads
    except ImportError:
        _fast_loads = None
        return json.loads(line)
    _fast_loads = loads
    return loads(line)


# The fast decoder: orjson is imported on the first line read, not when a
# scan, which reads no line, imports this module.
_fast_loads = _first_fast_loads


def record_from_line(line: str) -> ResultRecord:
    if _fast_loads is not None and line.count("{") + line.count("[") <= _MAX_BRACKETS:
        try:
            record = record_from_dict(_fast_loads(line))
        except _REFUSED:
            pass
        else:
            # orjson reads an integer beyond 64 bits as a float, and
            # ``tz_offset`` is the one field a float passes; every float
            # that large goes to ``json``, which keeps such an integer whole.
            tz_offset = record.fingerprint.tz_offset
            if type(tz_offset) is not float or abs(tz_offset) < 2.0**63:
                return record
    return record_from_dict(json.loads(line))


def write_records(path, records) -> int:
    """Write records to ``path``; returns how many were written.

    ``path`` is replaced only once every record is written (see
    ``textfile.replacing``), so it may be the file they were read from.
    """
    count = 0
    with replacing(path) as fh:
        for rec in records:
            fh.write(record_to_line(rec) + "\n")
            count += 1
    return count


def records_in(path, lines, first_lineno: int = 1):
    """The record on each non-blank line of ``lines``, the undecoded lines of
    ``path`` from line ``first_lineno`` on, in order.

    A bad line raises ``ValueError("<path>:<line>: bad record: <reason>")``.
    """
    # Not ``textfile.parse_lines``: a JSON line may hold "#".  Each line is
    # decoded on its own so an undecodable byte is reported on its line.
    for lineno, raw in enumerate(lines, first_lineno):
        if not raw.strip():
            continue
        try:
            record = record_from_line(raw.decode("utf-8"))
        except _REFUSED as exc:
            raise ValueError(f"{path}:{lineno}: bad record: {exc}") from None
        yield record


def read_records(path) -> list[ResultRecord]:
    """Every record of ``path``, as a list: the benchmark takes its
    ``len()`` and reads it twice, so a streaming reader must be another
    function (or ``records_in``)."""
    with open(path, "rb") as fh:
        return list(records_in(path, fh))


def observation_from_record(rec: ResultRecord) -> HostObservation:
    """Rebuild the observation so classification can be re-run offline."""
    return HostObservation(rec.outcomes, rec.duplicate_replies)
