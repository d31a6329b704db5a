"""``classify`` in forked shares: the same bytes and errors from any number
of shares, and no process or file left behind."""

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from icmpstamp import cli, shares
from icmpstamp.cli import EXIT_CONFIG, EXIT_OK, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SHARE_COUNTS = (1, 2, 3, 5)


@pytest.fixture(scope="module")
def demo_lines(tmp_path_factory):
    """The README demo scan's 19 result lines."""
    out = tmp_path_factory.mktemp("demo") / "demo.jsonl"
    assert main([
        "scan",
        "--targets", str(FIXTURES / "demo_targets.txt"),
        "--transport", f"sim:{FIXTURES / 'demo_hosts.txt'}",
        "--out", str(out),
        "--rate", "200",
        "--seed", "7",
        "--vantage", "demo",
    ]) == EXIT_OK
    return out.read_bytes().splitlines(keepends=True)


@pytest.fixture()
def forks(monkeypatch):
    """One share per line on a machine with ``cpus(n)`` CPUs; the list of
    children forked."""
    started = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(shares, "MIN_SHARE", 1)
    monkeypatch.setattr(os, "fork", counted_fork)
    return started


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def classify(tmp_path, lines, name="out.jsonl"):
    """``classify --margin-ms 150`` of ``lines``: its exit code and the path
    of its ``--out``."""
    src = tmp_path / "in.jsonl"
    src.write_bytes(b"".join(lines))
    out = tmp_path / name
    code = main(["classify", "--in", str(src), "--out", str(out), "--margin-ms", "150"])
    assert_no_child_left()
    return code, out


def with_blanks(lines):
    return [b"\n", *lines[:7], b"   \n", b"\n", *lines[7:], b"\n"]


@pytest.mark.parametrize("n", SHARE_COUNTS)
def test_output_bytes_do_not_depend_on_share_count(tmp_path, monkeypatch, demo_lines, forks, n):
    cpus(monkeypatch, 1)
    _, serial = classify(tmp_path, with_blanks(demo_lines), "serial.jsonl")
    assert forks == []
    cpus(monkeypatch, n)
    code, out = classify(tmp_path, with_blanks(demo_lines))
    assert code == EXIT_OK
    assert len(forks) == n - 1
    assert out.read_bytes() == serial.read_bytes() == b"".join(demo_lines)
    # Fewer lines than CPUs: one share a line.
    forks.clear()
    code, out = classify(tmp_path, demo_lines[:2])
    assert code == EXIT_OK
    assert len(forks) == min(n, 2) - 1
    assert out.read_bytes() == b"".join(demo_lines[:2])


def test_small_input_is_one_share(tmp_path, monkeypatch, demo_lines):
    cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a small input"))
    assert len(demo_lines) < shares.MIN_SHARE
    code, out = classify(tmp_path, demo_lines)
    assert code == EXIT_OK
    assert out.read_bytes() == b"".join(demo_lines)


@pytest.mark.parametrize("bad", [(8, 14), (1, 14), (14, 18)])
def test_earliest_bad_line_is_named(tmp_path, monkeypatch, capsys, demo_lines, forks, bad):
    # 19 lines in 3 shares: 1-6, 7-12 and 13-19.
    lines = list(demo_lines)
    for lineno in bad:
        lines[lineno - 1] = b'{"target": 1}\n'
    errors = []
    for n in (1, 3):
        cpus(monkeypatch, n)
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"oldbytes\n")
        code, out = classify(tmp_path, lines)
        assert code == EXIT_CONFIG
        assert out.read_bytes() == b"oldbytes\n"
        errors.append(capsys.readouterr().err)
    assert len(forks) == 2
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {tmp_path / 'in.jsonl'}:{bad[0]}: bad record: ")


class CutFile:
    """A child's part file that ends the child, with status 0, once ``size``
    characters are written to it."""

    def __init__(self, part, size):
        self.part, self.left = part, size

    def write(self, text):
        self.part.write(text[:self.left])
        self.left -= len(text[:self.left])
        if not self.left:
            self.part.flush()
            os._exit(0)


@pytest.mark.parametrize("death", ["exit_0", "exit_1", "sigkill", "mid_message"])
def test_share_of_a_dead_child_is_run_again(tmp_path, monkeypatch, demo_lines, forks, death):
    parent = os.getpid()
    classify_share = cli._classify_share

    def dying(*args):
        if os.getpid() != parent:
            if death == "mid_message":
                # A part file cut mid-write: its 100 characters are not copied.
                args = (*args[:-1], CutFile(args[-1], 100))
            elif death == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            else:
                os._exit(0 if death == "exit_0" else 1)
        return classify_share(*args)

    monkeypatch.setattr(cli, "_classify_share", dying)
    cpus(monkeypatch, 3)
    code, out = classify(tmp_path, with_blanks(demo_lines))
    assert code == EXIT_OK
    assert len(forks) == 2
    assert out.read_bytes() == b"".join(demo_lines)


def test_interrupt_in_the_parent_kills_every_child(tmp_path, monkeypatch, demo_lines, forks):
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(cli, "_classify_share", interrupted)
    cpus(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        classify(tmp_path, demo_lines)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    assert_no_child_left()
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_child_runs_no_signal_handler_of_the_caller(
    tmp_path, monkeypatch, demo_lines, forks, signum
):
    parent = os.getpid()
    classify_share = cli._classify_share
    handled = tmp_path / "handled"

    def signalled(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signum)
        return classify_share(*args)

    monkeypatch.setattr(cli, "_classify_share", signalled)
    cpus(monkeypatch, 2)
    previous = signal.signal(signum, lambda *_: handled.write_text("handled"))
    try:
        code, out = classify(tmp_path, demo_lines)
    finally:
        signal.signal(signum, previous)
    assert not handled.exists()
    assert code == EXIT_OK
    assert out.read_bytes() == b"".join(demo_lines)


def test_no_fork_while_another_thread_runs(tmp_path, monkeypatch, demo_lines, forks):
    cpus(monkeypatch, 3)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        code, out = classify(tmp_path, with_blanks(demo_lines))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert code == EXIT_OK
    assert forks == []
    assert out.read_bytes() == b"".join(demo_lines)


def test_at_most_one_child_per_other_cpu(tmp_path, monkeypatch, forks):
    cpus(monkeypatch, 5)
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_bytes(b"line\n" * 100)

    def job(lines, start, fh):
        fh.write(f"{start}:{sum(1 for _ in lines)};\n")
        return 1

    with open(src, "rb") as fh_in, open(out, "w", encoding="utf-8") as fh_out:
        count = shares.run(job, fh_in, fh_out)
    assert len(forks) == 4
    assert out.read_text().splitlines() == ["0:20;", "20:20;", "40:20;", "60:20;", "80:20;"]
    assert count == 5
    assert_no_child_left()


@pytest.mark.parametrize("end", ["success", "bad_line", "interrupt"])
def test_no_file_is_left_beside_out(tmp_path, monkeypatch, demo_lines, forks, end):
    # Each child's part file has no name in --out's directory, which holds
    # only what it held before, whichever way classify ends.
    lines = list(demo_lines)
    if end == "bad_line":
        lines[13] = b'{"target": 1}\n'
    if end == "interrupt":
        parent = os.getpid()
        classify_share = cli._classify_share

        def interrupted(*args):
            count = classify_share(*args)
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return count

        monkeypatch.setattr(cli, "_classify_share", interrupted)
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_bytes(b"".join(lines))
    out.write_bytes(b"oldbytes\n")
    before = sorted(tmp_path.iterdir())
    cpus(monkeypatch, 3)
    argv = ["classify", "--in", str(src), "--out", str(out)]
    if end == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == (EXIT_OK if end == "success" else EXIT_CONFIG)
    assert_no_child_left()
    assert len(forks) == 2
    assert sorted(tmp_path.iterdir()) == before
    assert out.read_bytes() == (b"".join(lines) if end == "success" else b"oldbytes\n")


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_one_share_without_fork_or_affinity(monkeypatch, missing):
    monkeypatch.setattr(shares, "MIN_SHARE", 1)
    monkeypatch.delattr(os, missing)
    assert shares.share_count(100) == 1
