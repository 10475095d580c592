"""Scans judged one chunk of primes per process: the parent judges the
first chunk and forks a worker for each other, whose exit status says what
the worker's file holds.  The same report bytes and exit code as one process,
for every theorem; a chunk that raises, the parent's own or a worker's, or a
worker that dies or exits with any other status, ends the command with one
stderr line and no report, and a bug in a worker ends it uncaught; one chunk
forks nothing; at most fork.MAX_WORKERS processes, however many CPUs; no
worker outlives the command."""

import os
import re
import signal
import time

import pytest

from hclab import cli, fork
from hclab import congruences as cg
from hclab.cli import run
from hclab.errors import WorkerCrash
from hclab.primes import primes_in

_GRID = {"n": "0:2", "i": "0:2", "k": "1:3", "h": "1:2", "J": "0:4"}


@pytest.fixture(autouse=True)
def _forking(tmp_path, monkeypatch):
    """Every record times 0 ms, so reports compare byte for byte, and no
    child process is left afterwards."""
    monkeypatch.setenv("HCL_CACHE", str(tmp_path / "default.cache"))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _scan(capsys, monkeypatch, workers, argv):
    monkeypatch.setattr(fork, "workers", lambda: workers)
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(theorem_id):
    argv = ["scan", theorem_id, "--p-min", "2", "--p-max", "31"]
    for name in cg.THEOREMS[theorem_id].params:
        argv += ["--j-terms" if name == "J" else f"--{name}", _GRID[name]]
    return argv


@pytest.mark.parametrize("theorem_id", sorted(cg.THEOREMS))
def test_forked_scan_matches_one_process(capsys, tmp_path, monkeypatch, forks, theorem_id):
    """Two and three processes (one and two workers) give one process's exit
    code, stderr and bytes, in JSON on stdout and in CSV through --out, and
    the same cache file.  Each run fills its own empty cache on as many CPUs,
    and no fill here (to B_930 at most) is worth a forked worker, so the
    scans' workers are the only forks."""
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
    assert len(forks) == 2 * (1 + 2)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_forked_scan_exit_one_on_a_failed_record(capsys, monkeypatch, fmt):
    """Exit 1 iff some record fails, whichever process judged it: p = 17 is
    in the parent's chunk, 5..47, and p = 71 in the worker's, 53..97."""
    judge = cli._judge
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--format", fmt]
    for failing in (17, 71):
        def failing_at(theorem_id, p, args, scan, cache, failing=failing):
            record = judge(theorem_id, p, args, scan, cache)
            return record._replace(passed=False) if p == failing else record

        monkeypatch.setattr(cli, "_judge", failing_at)
        sequential = _scan(capsys, monkeypatch, 1, argv)
        assert sequential[0] == 1
        assert _scan(capsys, monkeypatch, 2, argv) == sequential
    monkeypatch.setattr(cli, "_judge", judge)
    assert _scan(capsys, monkeypatch, 2, argv)[0] == 0


def test_raising_chunk_ends_with_the_sequential_line(capsys, tmp_path, monkeypatch, forks):
    """Both workers' chunks, 37..61 and 67..97 of three, raise, each with its
    own message; the command prints the earliest one, as one process would,
    and no report."""
    judge = cli._judge

    def raising(theorem_id, p, args, scan, cache):
        if p >= 37:
            raise ValueError(f"bad case at p={p}")
        return judge(theorem_id, p, args, scan, cache)

    monkeypatch.setattr(cli, "_judge", raising)
    target = tmp_path / "report.json"
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--out", str(target)]
    sequential = _scan(capsys, monkeypatch, 1, argv)
    assert sequential == (2, "", "error: bad case at p=37\n")
    assert _scan(capsys, monkeypatch, 3, argv) == sequential
    assert _scan(capsys, monkeypatch, 3, argv[:-2]) == sequential
    assert not target.exists()
    assert len(forks) == 2 * 2


def test_raising_parent_chunk_kills_the_worker(capsys, tmp_path, monkeypatch, forks):
    """The parent's own chunk, 5..47, raises while its worker, on 53..97,
    runs: the command prints the parent's line, the earliest, as one process
    would, kills and reaps the worker long before it would finish, and
    writes no report."""
    parent = os.getpid()
    judge = cli._judge

    def raising(theorem_id, p, args, scan, cache):
        if os.getpid() != parent:
            time.sleep(60)
        if p == 13:
            raise ValueError(f"bad case at p={p}")
        return judge(theorem_id, p, args, scan, cache)

    monkeypatch.setattr(cli, "_judge", raising)
    target = tmp_path / "report.json"
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--out", str(target)]
    sequential = _scan(capsys, monkeypatch, 1, argv)
    assert sequential == (2, "", "error: bad case at p=13\n")
    start = time.monotonic()
    assert _scan(capsys, monkeypatch, 2, argv) == sequential
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)
    assert not target.exists()


def test_killed_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks):
    """A worker that dies by a signal, here on the chunk holding p = 71,
    ends the command with exit 2, one line naming that chunk, and no
    report."""
    parent = os.getpid()
    judge = cli._judge

    def dying(theorem_id, p, args, scan, cache):
        if p == 71 and os.getpid() != parent:
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
    assert first <= 71 <= last
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
    holding p = 71, ends the command like a killed one: exit 2, one line
    naming that chunk and its exit status, and no report."""
    parent = os.getpid()
    judge = cli._judge

    def ending(theorem_id, p, args, scan, cache):
        if p == 71 and os.getpid() != parent:
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
    assert first <= 71 <= last
    assert not target.exists()
    assert len(forks) == 1


@pytest.mark.parametrize("exc,code,err", [(KeyboardInterrupt, None, ""),
                                           (MemoryError, 2, "error: out of memory\n")])
def test_interrupted_parent_kills_every_worker(capsys, monkeypatch, exc, code, err):
    """An exception in the parent while its workers run, here raised by a
    timer signal while it waits for its worker, kills and reaps every worker
    before it propagates."""
    parent = os.getpid()
    judge = cli._judge

    def hanging(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return judge(*args)

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


def test_small_grid_forks_one_worker(capsys, monkeypatch, forks):
    """However few its cases, a scan on two CPUs forks one worker and gives
    the bytes of one process."""
    argv = ["scan", "prop41", "--p-min", "3", "--p-max", "43", "--n", "1:2"]
    sequential = _scan(capsys, monkeypatch, 1, argv)
    assert sequential[0] == 0 and sequential[1].count("\n") == 2 * len(primes_in(3, 43))
    assert forks == []
    assert _scan(capsys, monkeypatch, 2, argv) == sequential
    assert len(forks) == 1


def test_one_chunk_opens_no_file_and_forks_nothing(capsys, monkeypatch):
    """A scan on one CPU, a `verify` on two and a scan without primes on two
    each judge in the parent alone."""
    def refused(*args):
        raise AssertionError("no anonymous file and no fork with one chunk")

    monkeypatch.setattr(os, "memfd_create", refused)
    monkeypatch.setattr(os, "fork", refused)
    code, out, err = _scan(capsys, monkeypatch, 1, ["scan", "wolstenholme", "--p-min", "5",
                                                     "--p-max", "97"])
    assert (code, out.count("\n"), err) == (0, len(primes_in(5, 97)), "")
    code, out, err = _scan(capsys, monkeypatch, 2, ["verify", "wolstenholme", "--p", "97"])
    assert (code, out.count("\n"), err) == (0, 1, "")
    assert _scan(capsys, monkeypatch, 2, ["scan", "wolstenholme", "--p-min", "24",
                                          "--p-max", "28"]) == (0, "", "")


def test_unexpected_worker_error_ends_uncaught_with_its_traceback(capsys, tmp_path,
                                                                 monkeypatch, forks):
    """An exception no command expects in the worker's chunk, 53..97, is not
    turned into one line: as in one process it leaves run() uncaught,
    carrying the worker's traceback and the original error, and no report is
    written."""
    judge = cli._judge

    def broken(theorem_id, p, args, scan, cache):
        if p >= 53:
            raise TypeError(f"bug at p={p}")
        return judge(theorem_id, p, args, scan, cache)

    monkeypatch.setattr(cli, "_judge", broken)
    target = tmp_path / "report.json"
    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97", "--out", str(target)]
    with pytest.raises(TypeError, match="bug at p=53"):
        _scan(capsys, monkeypatch, 1, argv)
    with pytest.raises(WorkerCrash) as crash:
        _scan(capsys, monkeypatch, 2, argv)
    text = str(crash.value)
    assert text.startswith("Traceback (most recent call last):\n")
    assert "in _scan_worker" in text and "in broken" in text
    assert text.endswith("TypeError: bug at p=53")
    assert capsys.readouterr() == ("", "")
    assert not target.exists()
    assert len(forks) == 1


def test_many_cpus_fork_at_most_max_workers(capsys, monkeypatch, forks):
    """However many CPUs the process may use, a scan runs in at most
    MAX_WORKERS processes, the parent and MAX_WORKERS - 1 workers, and opens
    one chunk file for each, so its open files do not grow with the CPU
    count."""
    memfds = []
    memfd_create = os.memfd_create

    def counting_memfd(name):
        memfds.append(memfd_create(name))
        return memfds[-1]

    argv = ["scan", "wolstenholme", "--p-min", "5", "--p-max", "97"]
    sequential = _scan(capsys, monkeypatch, 1, argv)
    monkeypatch.setattr(os, "memfd_create", counting_memfd)
    assert _scan(capsys, monkeypatch, 10_000, argv) == sequential
    assert len(memfds) == len(forks) + 1 == fork.MAX_WORKERS < len(primes_in(5, 97))


@pytest.mark.parametrize("count", [1, 2, 5, 8, 12, 100])
def test_chunks_cut_contiguous_runs_of_equal_work(count):
    primes = primes_in(2, 3000)
    chunks = cli._chunks(primes, count)
    assert [p for chunk in chunks for p in chunk] == primes
    assert all(chunks) and len(chunks) <= count
    work = [sum(p**1.5 + 4000 for p in chunk) for chunk in chunks]
    assert max(work) <= sum(work) / count + max(primes) ** 1.5 + 4000
