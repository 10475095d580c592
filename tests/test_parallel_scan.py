"""Scans judged in forked workers, one chunk of primes each, whose exit
status says what the worker's file holds: the same report bytes and exit code
as one process, for every theorem; a chunk that raises, or a worker that dies
or exits with any other status, ends the command with one stderr line and no
report, and a bug in a worker ends it uncaught; at most MAX_WORKERS workers,
however many CPUs; no worker outlives the command."""

import os
import re
import signal
import time

import pytest

from hclab import cli
from hclab import congruences as cg
from hclab.cli import run
from hclab.primes import primes_in

_GRID = {"n": "0:2", "i": "0:2", "k": "1:3", "h": "1:2", "j_terms": "0:4"}


@pytest.fixture(autouse=True)
def _forking(tmp_path, monkeypatch):
    """Every record times 0 ms, so reports compare byte for byte; every grid
    is large enough to fork; and no child process is left afterwards."""
    monkeypatch.setenv("HCL_CACHE", str(tmp_path / "default.cache"))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(cli, "FORK_MIN_CASES", 0)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The arguments of every scan that took the forked path."""
    calls = []
    forked = cli._scan_forked

    def counting(*args):
        calls.append(args)
        return forked(*args)

    monkeypatch.setattr(cli, "_scan_forked", counting)
    return calls


def _scan(capsys, monkeypatch, workers, argv):
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(theorem_id):
    argv = ["scan", theorem_id, "--p-min", "2", "--p-max", "31"]
    for name in cg.THEOREMS[theorem_id].params:
        argv += [f"--{name.replace('_', '-')}", _GRID[name]]
    return argv


@pytest.mark.parametrize("theorem_id", sorted(cg.THEOREMS))
def test_forked_scan_matches_one_process(capsys, tmp_path, monkeypatch, forks, theorem_id):
    """Two and three workers give one process's exit code, stderr and bytes,
    in JSON on stdout and in CSV through --out, and the same cache file."""
    for fmt, to_file in (("json", False), ("csv", True)):
        runs = []
        for workers in (1, 2, 3):
            cache = tmp_path / f"{workers}-{fmt}.cache"
            target = tmp_path / f"{workers}.{fmt}"
            argv = _argv(theorem_id) + ["--format", fmt, "--cache", str(cache)]
            code, out, err = _scan(capsys, monkeypatch, workers,
                                   argv + (["--out", str(target)] if to_file else []))
            report = target.read_text(encoding="utf-8") if to_file else out
            cache_bytes = cache.read_bytes() if cache.exists() else None
            runs.append((code, out, err, report, cache_bytes))
        assert runs[0][0] in (0, 1) and runs[0][3].count("\n") >= len(primes_in(2, 31))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
    assert [args[-1] for args in forks] == [2, 3, 2, 3]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_forked_scan_exit_one_on_a_failed_record(capsys, monkeypatch, fmt):
    """Exit 1 iff some record fails, whichever worker judged it."""
    judge = cli._judge

    def failing_at_17(theorem_id, p, args, scan, cache):
        record = judge(theorem_id, p, args, scan, cache)
        return record._replace(passed=False) if p == 17 else record

    monkeypatch.setattr(cli, "_judge", failing_at_17)
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--format", fmt]
    sequential = _scan(capsys, monkeypatch, 1, argv)
    assert sequential[0] == 1
    assert _scan(capsys, monkeypatch, 2, argv) == sequential
    monkeypatch.setattr(cli, "_judge", judge)
    assert _scan(capsys, monkeypatch, 2, argv)[0] == 0


def test_raising_chunk_ends_with_the_sequential_line(capsys, tmp_path, monkeypatch, forks):
    """Every chunk from p = 13 on raises, each with its own message; the
    command prints the earliest one, as one process would, and no report."""
    judge = cli._judge

    def raising(theorem_id, p, args, scan, cache):
        if p >= 13:
            raise ValueError(f"bad case at p={p}")
        return judge(theorem_id, p, args, scan, cache)

    monkeypatch.setattr(cli, "_judge", raising)
    target = tmp_path / "report.json"
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--out", str(target)]
    sequential = _scan(capsys, monkeypatch, 1, argv)
    assert sequential == (2, "", "error: bad case at p=13\n")
    assert _scan(capsys, monkeypatch, 2, argv) == sequential
    assert _scan(capsys, monkeypatch, 2, argv[:-2]) == sequential
    assert not target.exists()
    assert len(forks) == 2


def test_killed_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks):
    """A worker that dies by a signal, here on the chunk holding p = 41,
    ends the command with exit 2, one line naming that chunk, and no
    report."""
    parent = os.getpid()
    judge = cli._judge

    def dying(theorem_id, p, args, scan, cache):
        if p == 41 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return judge(theorem_id, p, args, scan, cache)

    monkeypatch.setattr(cli, "_judge", dying)
    target = tmp_path / "report.json"
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--out", str(target)]
    code, out, err = _scan(capsys, monkeypatch, 2, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a scan worker ended with signal 9 while judging primes ")
    first, last = map(int, err.split()[-1].split(".."))
    assert first <= 41 <= last
    assert not target.exists()
    assert len(forks) == 1


def _exit_five():
    os._exit(5)


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("end", [_exit_five, _interrupt], ids=["exit-5", "KeyboardInterrupt"])
def test_worker_ended_outside_its_outcomes_ends_in_one_line(capsys, tmp_path, monkeypatch,
                                                            forks, end):
    """A worker that leaves without one of its outcomes, by an exit status
    of its own or by a BaseException it does not catch, here on the chunk
    holding p = 41, ends the command like a killed one: exit 2, one line
    naming that chunk and its exit status, and no report."""
    parent = os.getpid()
    judge = cli._judge

    def ending(theorem_id, p, args, scan, cache):
        if p == 41 and os.getpid() != parent:
            end()
        return judge(theorem_id, p, args, scan, cache)

    monkeypatch.setattr(cli, "_judge", ending)
    target = tmp_path / "report.json"
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--out", str(target)]
    code, out, err = _scan(capsys, monkeypatch, 2, argv)
    assert (code, out) == (2, "")
    ended = re.fullmatch(r"error: a scan worker ended with exit status (\d+) "
                         r"while judging primes (\d+)\.\.(\d+)\n", err)
    assert ended is not None
    status, first, last = map(int, ended.groups())
    assert status == 5 if end is _exit_five else status not in (0, 2, cli.EX_SOFTWARE)
    assert first <= 41 <= last
    assert not target.exists()
    assert len(forks) == 1


@pytest.mark.parametrize("exc,code,err", [(KeyboardInterrupt, None, ""),
                                           (MemoryError, 2, "error: out of memory\n")])
def test_interrupted_parent_kills_every_worker(capsys, monkeypatch, exc, code, err):
    """An exception in the parent while its workers run, here raised by a
    timer signal, kills and reaps every worker before it propagates."""
    parent = os.getpid()

    def hanging(*args):
        if os.getpid() != parent:
            time.sleep(60)

    def interrupt(signum, frame):
        raise exc

    monkeypatch.setattr(cli, "_judge", hanging)
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97"]
    try:
        if code is None:
            with pytest.raises(exc):
                _scan(capsys, monkeypatch, 2, argv)
            assert capsys.readouterr() == ("", err)
        else:
            assert _scan(capsys, monkeypatch, 2, argv) == (code, "", err)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_small_grid_runs_in_process(capsys, monkeypatch, forks):
    monkeypatch.setattr(cli, "FORK_MIN_CASES", 400)
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97"]
    code, out, _ = _scan(capsys, monkeypatch, 2, argv)
    assert code == 0 and out.count("\n") == len(primes_in(5, 97))
    assert forks == []


def test_unexpected_worker_error_ends_uncaught_with_its_traceback(capsys, tmp_path,
                                                                 monkeypatch, forks):
    """An exception no command expects is not turned into one line: as in
    one process it leaves run() uncaught, carrying the worker's traceback
    and the original error, and no report is written."""
    judge = cli._judge

    def broken(theorem_id, p, args, scan, cache):
        if p >= 13:
            raise TypeError(f"bug at p={p}")
        return judge(theorem_id, p, args, scan, cache)

    monkeypatch.setattr(cli, "_judge", broken)
    target = tmp_path / "report.json"
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--out", str(target)]
    with pytest.raises(TypeError, match="bug at p=13"):
        _scan(capsys, monkeypatch, 1, argv)
    with pytest.raises(cli._WorkerCrash) as crash:
        _scan(capsys, monkeypatch, 2, argv)
    text = str(crash.value)
    assert text.startswith("Traceback (most recent call last):\n")
    assert "in _scan_worker" in text and "in broken" in text
    assert text.endswith("TypeError: bug at p=13")
    assert capsys.readouterr() == ("", "")
    assert not target.exists()
    assert len(forks) == 1


def test_many_cpus_fork_at_most_max_workers(capsys, monkeypatch, forks):
    """However many CPUs the process may use, a scan forks at most
    MAX_WORKERS workers and opens one chunk file for each, so its open files
    do not grow with the CPU count."""
    memfds, pids = [], []
    memfd_create, fork = os.memfd_create, os.fork

    def counting_memfd(name):
        memfds.append(memfd_create(name))
        return memfds[-1]

    def counting_fork():
        pids.append(fork())
        return pids[-1]

    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97"]
    sequential = _scan(capsys, monkeypatch, 1, argv)
    monkeypatch.setattr(os, "memfd_create", counting_memfd)
    monkeypatch.setattr(os, "fork", counting_fork)
    assert _scan(capsys, monkeypatch, 10_000, argv) == sequential
    assert len(memfds) == len(pids) == cli.MAX_WORKERS < len(primes_in(5, 97))
    assert [args[-1] for args in forks] == [cli.MAX_WORKERS]


@pytest.mark.parametrize("count", [1, 2, 5, 8, 12, 100])
def test_chunks_cut_contiguous_runs_of_equal_work(count):
    primes = primes_in(2, 3000)
    chunks = cli._chunks(primes, count)
    assert [p for chunk in chunks for p in chunk] == primes
    assert all(chunks) and len(chunks) <= count
    work = [sum(p**1.5 + 4000 for p in chunk) for chunk in chunks]
    assert max(work) <= sum(work) / count + max(primes) ** 1.5 + 4000
