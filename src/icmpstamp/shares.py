"""One job over the contiguous shares of a list, one process per usable CPU.

``run(job, items)`` splits ``items`` into contiguous shares, one per CPU
the process may run on, but none smaller than ``MIN_SHARE``.  The caller's
process runs share 0, and one ``os.fork()``ed child runs each other share
and sends its text back through a pipe.  ``job`` runs the same way
whatever the number of shares, so the result does not depend on it.

A single share, and no child, is used where ``os.fork`` or
``os.sched_getaffinity`` does not exist, and while another thread is
alive: forking copies only the calling thread, so a lock another thread
holds would stay held in the child (Python 3.12 and later warn on it).

Text, not objects, crosses the pipe: unpickling a parsed result record
costs about as much as parsing its line again.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import BinaryIO, Callable, Sequence, TypeVar

T = TypeVar("T")

# The smallest share a child is forked for.  Forking a 56 MB process,
# ending the child and reaping it took about 4.4 ms, and classify took
# about 117 us a line (2 vCPUs, Python 3.11.7): a fork costs what about 40
# lines do, a sixth of the smallest share's work.
MIN_SHARE = 256

# A child's message: b"+" and the job's text, or b"!" and the text of the
# ValueError it raised, each after its length in bytes and a newline.  A
# message cut short marks a child that ended before it was done.
_DONE = b"+"
_FAILED = b"!"


def share_count(n_items: int) -> int:
    """How many shares ``run`` splits ``n_items`` items into."""
    if (
        not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items // MIN_SHARE))


def run(job: Callable[[Sequence[T], int], str], items: Sequence[T]) -> list[str]:
    """``job(share, start)`` for each contiguous share of ``items`` in order,
    where ``share`` is ``items[start:end]``.

    A ``ValueError`` that ``job`` raises on the earliest share to raise one
    is raised here with the same text, and only once every earlier share
    has succeeded.  A share whose child ends without a complete result is
    run again in this process.  No child outlives the call: when it raises,
    every child still running is killed and reaped.
    """
    n = share_count(len(items))
    bounds = [len(items) * k // n for k in range(n + 1)]
    shares = [(items[bounds[k]:bounds[k + 1]], bounds[k]) for k in range(n)]
    children: dict[int, tuple[int, BinaryIO]] = {}
    try:
        for k in range(1, n):
            child = _fork(job, *shares[k])
            if child is not None:
                children[k] = child
        texts = [job(*shares[0])]
        for k in range(1, n):
            text = _collect(children, k)
            texts.append(job(*shares[k]) if text is None else text)
        return texts
    finally:
        for pid, pipe in children.values():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _fork(job, share, start):
    """(pid, read end of its pipe) of a child running ``job`` on ``share``,
    or None if no child could be started."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _child(job, share, start, read_fd, write_fd)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _child(job, share, start, read_fd: int, write_fd: int) -> None:
    """Run ``job`` on ``share``, send its message and end the process.

    No code of the caller's runs after the job: ``os._exit`` skips its
    ``finally`` blocks, ``atexit`` handlers and buffered output.
    """
    code = 1
    try:
        # The caller's handlers, such as one that removes a work directory
        # on SIGTERM, are not the child's to run.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.close(read_fd)
        try:
            tag, text = _DONE, job(share, start)
        except ValueError as exc:
            tag, text = _FAILED, str(exc)
        body = text.encode("utf-8")
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(b"%s%d\n" % (tag, len(body)))
            pipe.write(body)
        code = 0
    finally:
        os._exit(code)


def _collect(children: dict, k: int) -> str | None:
    """Share ``k``'s text from its child, which is reaped; None if it sent no
    complete message.  Raises the ``ValueError`` the child reported."""
    if k not in children:
        return None
    pid, pipe = children[k]
    head = pipe.readline()
    size = int(head[1:-1]) if head[1:-1].isdigit() else -1
    # Read to its announced length, into one buffer.
    body = pipe.read(size) if size >= 0 else b""
    pipe.close()
    os.waitpid(pid, 0)
    del children[k]
    if head[:1] not in (_DONE, _FAILED) or len(body) != size:
        return None
    text = body.decode("utf-8")
    if head[:1] == _FAILED:
        raise ValueError(text)
    return text
