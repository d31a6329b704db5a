"""The line format of every input file except result files (JSON lines),
and the one writer of every output file.

UTF-8 text with one entry per line and any line ending: ``#`` starts a
comment, surrounding whitespace is ignored and blank lines are skipped.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Iterator, TextIO, TypeVar

T = TypeVar("T")


def parse_lines(path, parse: Callable[[str], T]) -> list[T]:
    """``parse(text)`` for each data line of ``path``, in file order.

    ``text`` is the line with its comment cut off and whitespace stripped.
    A line that is not UTF-8, or on which ``parse`` raises ``ValueError``,
    ``IndexError`` or ``KeyError`` (an unknown key), raises
    ``ValueError("<path>:<line>: <reason>")``.
    """
    return [value for _, value in numbered_lines(path, parse)]


def numbered_lines(path, parse: Callable[[str], T]) -> Iterator[tuple[int, T]]:
    """``parse_lines`` with each value's line number: ``(line number,
    parse(text))`` for each data line of ``path``, in file order."""
    # Strict decoding would fail a whole read-ahead chunk before the line
    # holding a bad byte is reached; surrogateescape carries the byte to
    # its own line, where the check below reports it.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                value = parse(text)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: unknown key {exc}") from None
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, value


@contextlib.contextmanager
def replacing(path) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces ``path`` when the block ends.

    The text goes to ``<path>.<pid>.tmp`` beside ``path``, opened before the
    block runs, so a directory that cannot take it fails first.  If the
    block raises anything, ``KeyboardInterrupt`` included, the temporary
    file is removed and ``path`` is left as it was.  A file that replaces
    another takes its permission bits, before anything is written to it,
    so rewriting a private file keeps it private.
    """
    partial = f"{path}.{os.getpid()}.tmp"
    fh = open(partial, "w", encoding="utf-8")
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(partial, os.stat(path).st_mode & 0o777)
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise
