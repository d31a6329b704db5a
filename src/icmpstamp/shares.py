"""One job over the contiguous shares of a file's lines, one process per
usable CPU.

``run(job, src, out)`` splits the lines of ``src`` into contiguous shares,
one per CPU the process may run on, but none smaller than ``MIN_SHARE``.
Each process reads only its share's lines, so memory is about one line per
process.  The caller's process runs share 0 into ``out``, and one
``os.fork()``ed child runs each other share into an unnamed file in
``out``'s directory, copied into ``out`` in share order.  ``job`` runs the
same way whatever the number of shares, so the result does not depend on it.

A single share, and no child, is used where ``os.fork`` or
``os.sched_getaffinity`` does not exist, and while another thread is
alive: forking copies only the calling thread, so a lock another thread
holds would stay held in the child (Python 3.12 and later warn on it).
A ``src`` that cannot seek, such as a pipe, is read once as the one share.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
from itertools import islice
from typing import BinaryIO, Callable, Iterable, TextIO

# The smallest share a child is forked for.  Forking a 56 MB process,
# ending the child and reaping it took about 4.4 ms, and classify took
# about 63 us a line with orjson and 74 us with json (one process over
# 19,200 lines, 2 vCPUs, Python 3.11.7): a fork costs what about 60-70
# lines do, a quarter of the smallest share's work.
MIN_SHARE = 256

# A child's exit status once its file holds the job's text, or the text of
# the ValueError the job raised.  Any other status, 0 included, marks a
# child that ended before it was done.
_DONE = 100
_FAILED = 101


def share_count(n_items: int) -> int:
    """How many shares ``run`` splits ``n_items`` items into."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items // MIN_SHARE))


def run(job: Callable[[Iterable[bytes], int, TextIO], int], src: BinaryIO, out: TextIO) -> int:
    """``job(lines, start, fh)`` for each contiguous share of the lines of
    ``src``, a binary file opened by name, in order: ``lines`` are the
    share's undecoded lines from line ``start + 1`` on, and ``job`` writes
    its text to ``fh`` and returns how many lines it wrote.  Returns how
    many lines ``out`` received.

    A ``ValueError`` that ``job`` raises on the earliest share to raise one
    is raised here with the same text, and only once every earlier share
    has succeeded.  A share whose child ends without a complete result is
    run again in this process.  No child outlives the call: when it raises,
    every child still running is killed and reaped.
    """
    if not src.seekable():
        return job(src, 0, out)
    n_lines = sum(1 for _ in src)
    n = share_count(n_lines)
    bounds = [n_lines * k // n for k in range(n + 1)]
    parts = os.path.dirname(os.path.abspath(out.name))
    children: dict[int, tuple[int, TextIO]] = {}
    try:
        # Every child is forked before this process writes to ``out``,
        # whose buffer each child inherits.
        for k in range(1, n):
            part = None
            try:
                # In --out's directory, not /tmp, which may be held in memory.
                part = tempfile.TemporaryFile("w+", encoding="utf-8", newline="", dir=parts)
                pid = os.fork()
            except OSError:  # No child: this process runs the share.
                if part is not None:
                    part.close()
                continue
            if pid == 0:
                _child(job, src.name, bounds[k], bounds[k + 1], part)
            children[k] = pid, part
        count = 0
        for k in range(n):
            copied = _collect(children, k, out) if k in children else None
            if copied is None:
                src.seek(0)
                copied = job(islice(src, bounds[k], bounds[k + 1]), bounds[k], out)
            count += copied
        return count
    finally:
        for pid, part in children.values():
            part.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _child(job, path, start, end, part: TextIO) -> None:
    """Run ``job`` on its share into ``part`` and end the process: no code of
    the caller's runs after the job, as ``os._exit`` skips its ``finally``
    blocks, ``atexit`` handlers and buffered output."""
    code = 1
    try:
        # The caller's handlers, such as one that removes a work directory
        # on SIGTERM, are not the child's to run.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            with open(path, "rb") as src:
                job(islice(src, start, end), start, part)
            status = _DONE
        except ValueError as exc:
            part.seek(0)
            part.truncate()
            part.write(str(exc))
            status = _FAILED
        part.flush()
        code = status
    finally:
        os._exit(code)


def _collect(children: dict, k: int, out: TextIO) -> int | None:
    """Copy share ``k``'s text from its child, which is reaped, into ``out``
    and return how many lines it holds; None if the child did not finish.
    Raises the ``ValueError`` the child reported."""
    pid, part = children[k]
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[k]
    with part:
        if code not in (_DONE, _FAILED):
            return None
        part.seek(0)
        if code == _FAILED:
            raise ValueError(part.read())
        lines = 0
        while chunk := part.read(1 << 16):
            out.write(chunk)
            lines += chunk.count("\n")
        return lines
