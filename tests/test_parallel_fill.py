"""Bernoulli fills split across forked workers: a fill's missing indices,
in a file or in memory, are cut once into runs of about equal cost, one per
CPU, and each process computes and renders its own run, the first done by
the filling process, which copies the stored lines ahead of them as they
are.  The same values and file bytes as one process; a fill too short to be
worth a worker (bernoulli.RUN_WEIGHT) forks nothing; a worker that raises,
dies or hands back too few values ends the command as a scan worker does,
leaving the old values, the old file whole and no worker behind."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from hclab import _kernels, bernoulli, fork
from hclab.bernoulli import BernoulliCache
from hclab.cli import run
from hclab.errors import EX_SOFTWARE, CommandError, WorkerCrash


@pytest.fixture(autouse=True)
def _reaped():
    """No child process is left after any test."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def file_to_700(tmp_path_factory):
    """The bytes of a cache file holding B_0..B_700, filled in one process."""
    path = tmp_path_factory.mktemp("fill") / "700.cache"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fork, "workers", lambda: 1)
        BernoulliCache(path=str(path)).extend_to(700)
    return path.read_bytes()


@pytest.mark.parametrize("start, top", [(0, 2500), (700, 1786), (1786, 1790)])
def test_split_fill_matches_one_process(tmp_path, monkeypatch, forks, start, top):
    """Filling B_start+1..B_top on 1, 2 and 3 CPUs gives the same values and
    the same file, and an in-memory fill from the same values gives the same
    values.  Each fill forks at most one worker per CPU after the first, and
    one from nothing to 2500 forks exactly that many."""
    monkeypatch.setattr(fork, "workers", lambda: 1)
    base = tmp_path / "base.cache"
    if start:
        BernoulliCache(path=str(base)).extend_to(start)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fork, "workers", lambda: workers)
        path = tmp_path / f"{workers}.cache"
        if start:
            path.write_bytes(base.read_bytes())
        memory = BernoulliCache(path=str(path))
        memory.detach()
        for cache in (BernoulliCache(path=str(path)), memory):
            before = len(forks)
            cache.extend_to(top)
            forked = len(forks) - before
            assert forked <= workers - 1
            if start == 0:
                assert forked == workers - 1
        assert (memory._nums, memory._dens) == (cache._nums, cache._dens)
        runs.append((cache._nums, cache._dens, path.read_bytes()))
        assert [f.name for f in tmp_path.iterdir() if f.suffix == ".tmp"] == []
    assert len(runs[0][0]) == top + 1
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_short_fill_forks_nothing(tmp_path, monkeypatch, workers):
    """A fill that ends at or below SWITCH, from nothing or from a stored
    run, makes no os.fork call and opens no anonymous file; nor does one to
    B_1000, whose missing indices weigh under twice RUN_WEIGHT, in a file or
    in memory."""
    def refused(*args):
        raise AssertionError("no fork and no anonymous file on a short fill")

    monkeypatch.setattr(fork, "workers", lambda: workers)
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "memfd_create", refused)
    path = tmp_path / "c.cache"
    BernoulliCache(path=str(path)).extend_to(20)
    BernoulliCache(path=str(path)).extend_to(_kernels.SWITCH)
    assert len(path.read_text().splitlines()) == _kernels.SWITCH + 1
    BernoulliCache(path=str(path)).extend_to(1000)
    assert len(path.read_text().splitlines()) == 1001
    BernoulliCache().extend_to(1000)


@pytest.mark.parametrize("workers", [1, 2])
def test_resumed_fill_renders_only_new_lines(tmp_path, monkeypatch, forks, file_to_700,
                                             workers):
    """A fill over a stored B_0..B_700 renders B_701..B_2000 alone, each
    line once, in whichever process computes it; the stored lines are
    copied as they are."""
    path = tmp_path / "c.cache"
    path.write_bytes(file_to_700)
    rendered = tmp_path / "rendered"
    write_lines = bernoulli._write_lines

    def recording(fh, run, nums, dens):
        with open(rendered, "a") as log:  # from every process
            log.write(f"{run[0]} {run[-1]}\n")
        write_lines(fh, run, nums, dens)

    monkeypatch.setattr(bernoulli, "_write_lines", recording)
    monkeypatch.setattr(fork, "workers", lambda: workers)
    BernoulliCache(path=str(path)).extend_to(2000)
    assert len(forks) == workers - 1
    runs = sorted(tuple(map(int, line.split())) for line in rendered.read_text().splitlines())
    assert len(runs) == workers
    assert [i for low, high in runs for i in range(low, high + 1)] == list(range(701, 2001))
    assert path.read_bytes().startswith(file_to_700)


def _in_worker(parent, action, fn):
    """fn, with action() run first in any process but parent."""
    def wrapped(*args):
        if os.getpid() != parent:
            action()
        return fn(*args)
    return wrapped


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


def _bug():
    raise TypeError("bug in a fill worker")


def _fill_2000(capsys, monkeypatch, tmp_path, file_to_700):
    """`hclab bernoulli 2000` on two CPUs over a file holding B_0..B_700:
    its (exit code, stdout, stderr), after checking that the old file is
    whole and no temporary file is left."""
    path = tmp_path / "c.cache"
    path.write_bytes(file_to_700)
    monkeypatch.setattr(fork, "workers", lambda: 2)
    try:
        code = run(["bernoulli", "2000", "--cache", str(path)])
    finally:
        assert path.read_bytes() == file_to_700
        assert [f.name for f in tmp_path.iterdir()] == [path.name]
    return (code, *capsys.readouterr())


# Where a fill worker can fail: in its kernel call, or while writing its
# lines of the store (the cache file).
_STEPS = {"kernel": (_kernels, "bernoulli_range"), "store": (bernoulli, "_write_lines")}


def _fail_in_worker(monkeypatch, where, action):
    owner, name = _STEPS[where]
    monkeypatch.setattr(owner, name, _in_worker(os.getpid(), action, getattr(owner, name)))


def _killed_in(where, capsys, tmp_path, monkeypatch, file_to_700):
    _fail_in_worker(monkeypatch, where, _kill)
    code, out, err = _fill_2000(capsys, monkeypatch, tmp_path, file_to_700)
    assert (code, out) == (2, "")
    assert err.startswith("error: a fill worker ended with signal 9 while filling B_")
    assert err.endswith("..B_2000\n") and len(err.splitlines()) == 1


def test_killed_fill_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks,
                                              file_to_700):
    """A worker killed by a signal while computing its values stores
    nothing."""
    _killed_in("kernel", capsys, tmp_path, monkeypatch, file_to_700)
    assert len(forks) == 1


def test_killed_store_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks,
                                               file_to_700):
    """A worker that computed its values and is killed by a signal while
    writing its lines of the store stores nothing."""
    _killed_in("store", capsys, tmp_path, monkeypatch, file_to_700)
    assert len(forks) == 1


@pytest.mark.parametrize("mirrored", [True, False])
def test_killed_fill_worker_leaves_the_old_values(tmp_path, monkeypatch, forks, file_to_700,
                                                  mirrored):
    """The filling process appends its own run before it reaps; a killed
    worker still leaves the cache, in a file or in memory, at its old top."""
    path = tmp_path / "c.cache"
    path.write_bytes(file_to_700)
    cache = BernoulliCache(path=str(path))
    if not mirrored:
        cache.detach()
    monkeypatch.setattr(fork, "workers", lambda: 2)
    _fail_in_worker(monkeypatch, "kernel", _kill)
    with pytest.raises(CommandError, match="ended with signal 9"):
        cache.extend_to(2000)
    assert len(forks) == 1
    assert (cache.high_water, len(cache._nums), len(cache._dens)) == (700, 701, 701)
    assert path.read_bytes() == file_to_700
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


def test_short_fill_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks,
                                             file_to_700):
    """A worker that exits 0 but hands back one value fewer than its run
    stores nothing."""
    kernel = _kernels.bernoulli_range
    parent = os.getpid()

    def short(start, upto):
        nums, dens = kernel(start, upto)
        return (nums[:-1], dens[:-1]) if os.getpid() != parent else (nums, dens)

    monkeypatch.setattr(_kernels, "bernoulli_range", short)
    code, out, err = _fill_2000(capsys, monkeypatch, tmp_path, file_to_700)
    assert (code, out) == (2, "")
    assert err.startswith("error: a fill worker handed back ")
    assert err.endswith("..B_2000\n") and len(err.splitlines()) == 1
    assert len(forks) == 1


@pytest.mark.parametrize("where", list(_STEPS))
def test_fill_worker_bug_leaves_run_with_its_traceback(capsys, tmp_path, monkeypatch,
                                                        forks, file_to_700, where):
    """An exception no command expects in a fill worker, in its kernel call
    or while writing its lines, leaves run() uncaught, carrying the
    worker's traceback."""
    _fail_in_worker(monkeypatch, where, _bug)
    with pytest.raises(WorkerCrash) as crash:
        _fill_2000(capsys, monkeypatch, tmp_path, file_to_700)
    text = str(crash.value)
    assert text.startswith("Traceback (most recent call last):\n")
    assert "in _worker" in text and "in wrapped" in text
    assert text.endswith("TypeError: bug in a fill worker")
    assert capsys.readouterr() == ("", "")
    assert len(forks) == 1


_BUG_SCRIPT = """
import os
from hclab import _kernels, cli, fork

kernel = _kernels.bernoulli_range
parent = os.getpid()

def broken(start, upto):
    if os.getpid() != parent:
        raise TypeError(f"bug at B_{upto}")
    return kernel(start, upto)

_kernels.bernoulli_range = broken
fork.workers = lambda: 2
cli.main()
"""


def test_fill_worker_bug_exits_seventy(tmp_path, file_to_700):
    """`hclab bernoulli 2000` whose fill worker has a bug exits 70 with the
    worker's traceback, and leaves the old file whole."""
    path = tmp_path / "c.cache"
    path.write_bytes(file_to_700)
    src = str(Path(fork.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _BUG_SCRIPT, "bernoulli", "2000", "--cache", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (EX_SOFTWARE, "")
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert "in _fill_run" in proc.stderr
    assert proc.stderr.endswith("TypeError: bug at B_2000\n")
    assert path.read_bytes() == file_to_700
    assert [f.name for f in tmp_path.iterdir()] == [path.name]
