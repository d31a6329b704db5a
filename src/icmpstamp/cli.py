"""Command-line interface.

Exit codes: 0 success, 2 configuration error (bad flags or input files),
3 transport failure mid-scan, 4 missing privilege for raw sockets.  An
unhandled SIGTERM ends ``main`` as ``SystemExit(143)``, which, as Ctrl-C
does, removes every temporary output file and keeps the files it replaces.

Every output file is written whole through ``textfile.replacing``, or not
at all.  ``scan`` replaces ``--out`` when the scan ends, after a transport
failure too.  Only then does it remove an earlier ``<out>.resume`` and,
after a transport failure, write this scan's.

``classify`` uses one process per CPU it may run on, each reading one line
at a time of a contiguous share of the input's lines, of at least
``shares.MIN_SHARE`` lines; a child's text waits in an unnamed file beside
``--out`` (see ``shares``).  Its output bytes and error texts do not depend
on the number of processes.  It runs in a single process for an input too
small for two shares, on one usable CPU, while another thread is running,
and where ``os.fork`` or ``os.sched_getaffinity`` does not exist.  A
``--in`` that cannot seek, such as ``/dev/stdin`` on a pipe, is read once,
in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import signal
import sys

from icmpstamp import reports, results, shares, textfile
from icmpstamp.classify import CorrectnessPolicy, fingerprint_observation
from icmpstamp.clock import OffsetTable
from icmpstamp.engine import ScanAborted, ScanConfig, run_scan
from icmpstamp.responder import SimNetwork
from icmpstamp.transport import PrivilegeError, RawTransport, TransportError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_PRIVILEGE = 4

# Builds a reclassified record from all its fields, skipping the generated
# ``__new__``.
_new = tuple.__new__


def make_transport(spec: str):
    """Build a transport from its CLI spelling: ``raw`` or ``sim:<fixture>``."""
    if spec == "raw":
        return RawTransport()
    if spec.startswith("sim:"):
        return SimNetwork.from_file(spec[4:])
    raise ValueError(f"unknown transport {spec!r}; use 'raw' or 'sim:<fixture path>'")


def _cmd_scan(args) -> int:
    cfg = ScanConfig(
        targets_path=args.targets,
        inter_round_gap_ms=args.gap_ms,
        rate_pps=args.rate,
        timeout_ms=args.timeout_ms,
        seed=args.seed,
        vantage=args.vantage,
    )
    written = 0
    aborted = None
    with contextlib.closing(make_transport(args.transport)) as transport:
        # Reads the targets, so a bad targets file leaves --out untouched.
        scan = run_scan(cfg, transport)
        with textfile.replacing(args.out) as fh:
            try:
                for record in scan:
                    fh.write(results.record_to_line(record) + "\n")
                    written += 1
            except ScanAborted as exc:
                aborted = exc
    # --out holds this scan's records now, so no earlier marker may stay.
    marker = f"{args.out}.resume"
    with contextlib.suppress(FileNotFoundError):
        os.remove(marker)
    if aborted is None:
        print(f"wrote {written} records to {args.out}")
        return EXIT_OK
    with textfile.replacing(marker) as fh:
        fh.write("# targets whose duplicate-timestamp request was not sent before the\n")
        fh.write("# transport failure (any record of theirs is partial); feed this file\n")
        fh.write("# back via --targets to probe them again.\n")
        fh.writelines(target + "\n" for target in aborted.unsent)
    print(f"transport failure: {aborted} ({written} records flushed)", file=sys.stderr)
    return EXIT_TRANSPORT


def _classify_share(path, policy, lines, start, out) -> int:
    """Write the records on ``lines``, the undecoded lines of ``path`` from
    line ``start + 1`` on, classified again to ``out``; returns how many."""
    count = 0
    for count, rec in enumerate(results.records_in(path, lines, start + 1), 1):
        target, vantage, outcomes, _, duplicates = rec
        try:
            fingerprint = fingerprint_observation(results.observation_from_record(rec), policy)
        except ValueError as exc:
            raise ValueError(f"{path}: record of {target!r}: {exc}") from None
        rec = _new(results.ResultRecord, (target, vantage, outcomes, fingerprint, duplicates))
        out.write(results.record_to_line(rec) + "\n")
    return count


def _cmd_classify(args) -> int:
    # The margin and table are checked as a pair before any input is read.
    table = OffsetTable.from_file(args.offsets) if args.offsets is not None else OffsetTable()
    policy = CorrectnessPolicy(args.margin_ms, table)
    # --in is opened before --out.  --out is replaced only once every line
    # is classified: a bad line leaves it as it was, and it may be --in.
    with open(args.input, "rb") as src, textfile.replacing(args.out) as fh:
        job = functools.partial(_classify_share, args.input, policy)
        count = shares.run(job, src, fh)
    print(f"reclassified {count} records into {args.out}")
    return EXIT_OK


def _cmd_report_pmf(args) -> int:
    with open(args.input, "rb") as fh:
        rows = reports.error_histogram(
            results.records_in(args.input, fh),
            bin_ms=args.bin_ms,
            exclude_correct=args.exclude_correct,
        )
    print("bin_start_ms\tprobability")
    for start, probability in rows:
        print(f"{start}\t{probability:.6f}")
    return EXIT_OK


def _cmd_report_geo(args) -> int:
    tz_db = reports.load_tz_db(args.tzdb)
    with open(args.input, "rb") as fh:
        summary = reports.geolocate_report(results.records_in(args.input, fh), tz_db)
    print(f"timezone-classified hosts: {summary.total}")
    print(f"  matched std offset (zone without DST): {summary.match_std_no_dst}")
    print(f"  matched DST offset:                    {summary.match_dst}")
    print(f"  matched std offset (zone with DST):    {summary.match_std_with_dst}")
    print(f"  mismatched:                            {summary.mismatch}")
    print(f"  unresolved in database:                {summary.unresolved}")
    print(f"accuracy: {summary.accuracy:.1%}")
    return EXIT_OK


def _cmd_analyze_requests(args) -> int:
    # Counter.most_common(-1) would list no source at all.
    if args.top < 0:
        raise ValueError(f"--top must be 0 or more: {args.top}")
    entries = reports.load_capture(args.capture)
    summary = reports.analyze_requests(entries, top_n=args.top)
    print(f"timestamp requests: {summary.total_requests}")
    print(f"zero-originate (nmap-like): {summary.nmap_like} "
          f"({summary.nmap_fraction:.2%})")
    print("top sources:")
    for src, count in summary.top_sources:
        print(f"  {src}\t{count}")
    return EXIT_OK


def _cmd_merge(args) -> int:
    # Both files are opened before --out; a bad line in B is found first.
    with open(args.file_a, "rb") as fh_a, open(args.file_b, "rb") as fh_b:
        merged = reports.merge_records(
            results.records_in(args.file_a, fh_a), results.records_in(args.file_b, fh_b)
        )
        count = results.write_records(args.out, merged)
    print(f"merged {count} consensus records into {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmpstamp",
        description="ICMP timestamp prober, classifier, and report generator",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log each discarded packet and the closing sent/discarded counts")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="probe targets and record fingerprints")
    scan.add_argument("--targets", required=True, help="file of IPv4 targets")
    scan.add_argument("--out", required=True, help="result file (JSON lines)")
    scan.add_argument("--rate", type=int, default=ScanConfig.rate_pps, help="probes per second")
    scan.add_argument("--gap-ms", type=int, default=ScanConfig.inter_round_gap_ms,
                      help="gap before the duplicate-timestamp round")
    scan.add_argument("--timeout-ms", type=int, default=ScanConfig.timeout_ms,
                      help="wait after the last probe")
    scan.add_argument("--seed", type=int, default=ScanConfig.seed,
                      help="seed for probe order and random fields")
    scan.add_argument("--transport", default="raw",
                      help="'raw' or 'sim:<behavior fixture path>'")
    scan.add_argument("--vantage", default=ScanConfig.vantage, help="label stored in records")
    scan.set_defaults(func=_cmd_scan)

    classify = sub.add_parser("classify", help="re-run classification on results")
    classify.add_argument("--in", dest="input", required=True)
    classify.add_argument("--out", required=True)
    classify.add_argument("--margin-ms", type=int, default=CorrectnessPolicy.margin_ms, help=(
        "error margin, at most half the distance between the table's two closest offsets "
        "(900,000 ms for the default table)"))
    classify.add_argument("--offsets", help="custom candidate-offset table file")
    classify.set_defaults(func=_cmd_classify)

    report = sub.add_parser("report", help="aggregate stored results")
    report_sub = report.add_subparsers(dest="report_kind", required=True)

    pmf = report_sub.add_parser("pmf", help="receive-minus-originate error PMF")
    pmf.add_argument("--in", dest="input", required=True)
    pmf.add_argument("--bin-ms", type=int, default=60_000)
    pmf.add_argument("--exclude-correct", action="store_true")
    pmf.set_defaults(func=_cmd_report_pmf)

    geo = report_sub.add_parser("geo", help="timezone inference accuracy")
    geo.add_argument("--in", dest="input", required=True)
    geo.add_argument("--tzdb", required=True,
                     help="file of '<cidr> <std_offset> [dst_offset]' rows")
    geo.set_defaults(func=_cmd_report_geo)

    analyze = sub.add_parser("analyze-requests",
                             help="scanner signatures in an inbound capture")
    analyze.add_argument("--capture", required=True)
    analyze.add_argument("--top", type=int, default=10)
    analyze.set_defaults(func=_cmd_analyze_requests)

    merge = sub.add_parser("merge", help="two result files -> consensus records")
    merge.add_argument("file_a")
    merge.add_argument("file_b")
    merge.add_argument("--out", required=True)
    merge.set_defaults(func=_cmd_merge)

    return parser


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    unhandled = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    if unhandled:
        signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return args.func(args)
    except PrivilegeError as exc:
        print(f"privilege error: {exc}", file=sys.stderr)
        return EXIT_PRIVILEGE
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if unhandled:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(main())
