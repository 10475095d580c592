"""Bernoulli fills split across forked workers: the Euler kernel's indices
and the cache file's decimal lines are cut into runs of about equal cost,
one per CPU, the first done by the filling process.  The same values and
file bytes as one process; a fill too short to be worth a worker
(_kernels.RUN_WEIGHT) forks nothing; a worker that raises, dies or hands
back too few values ends the command as a scan worker does, leaving the old
file whole and no worker behind."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from hclab import _kernels, fork
from hclab.bernoulli import BernoulliCache
from hclab.cli import run
from hclab.errors import EX_SOFTWARE, WorkerCrash


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
    the same file.  The kernel's runs and the store's each fork at most one
    worker per CPU after the first, and a fill from nothing to 2500 forks
    exactly that many for both."""
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
        before = len(forks)
        cache = BernoulliCache(path=str(path))
        cache.extend_to(top)
        forked = len(forks) - before
        assert forked <= 2 * (workers - 1)
        if start == 0:
            assert forked == 2 * (workers - 1)
        runs.append((cache._nums, cache._dens, path.read_bytes()))
        assert [f.name for f in tmp_path.iterdir() if f.suffix == ".tmp"] == []
    assert len(runs[0][0]) == top + 1
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_short_fill_forks_nothing(tmp_path, monkeypatch, workers):
    """A fill that ends at or below SWITCH, from nothing or from a stored
    run, makes no os.fork call and opens no anonymous file; nor does one to
    B_1000, whose kernel weighs under RUN_WEIGHT and its file's lines under
    twice that."""
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


def test_killed_fill_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks,
                                              file_to_700):
    """A kernel worker killed by a signal stores nothing."""
    monkeypatch.setattr(_kernels, "_euler_numerators",
                        _in_worker(os.getpid(), _kill, _kernels._euler_numerators))
    code, out, err = _fill_2000(capsys, monkeypatch, tmp_path, file_to_700)
    assert (code, out) == (2, "")
    assert err.startswith("error: a fill worker ended with signal 9 while computing B_")
    assert err.endswith("..B_2000\n") and len(err.splitlines()) == 1
    assert len(forks) == 1


def test_short_fill_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks,
                                             file_to_700):
    """A worker that exits 0 but hands back one value fewer than its run
    stores nothing."""
    euler = _kernels._euler_numerators
    parent = os.getpid()

    def short(low, top):
        values = euler(low, top)
        return values[:-1] if os.getpid() != parent else values

    monkeypatch.setattr(_kernels, "_euler_numerators", short)
    code, out, err = _fill_2000(capsys, monkeypatch, tmp_path, file_to_700)
    assert (code, out) == (2, "")
    assert err.startswith("error: a fill worker handed back ")
    assert err.endswith("..B_2000\n") and len(err.splitlines()) == 1
    assert len(forks) == 1


def test_killed_store_worker_ends_in_one_line(capsys, tmp_path, monkeypatch, forks,
                                               file_to_700):
    """The kernel's worker finishes; the store's dies while rendering."""
    monkeypatch.setattr(BernoulliCache, "_render",
                        _in_worker(os.getpid(), _kill, BernoulliCache._render))
    code, out, err = _fill_2000(capsys, monkeypatch, tmp_path, file_to_700)
    assert (code, out) == (2, "")
    assert err.startswith("error: a store worker ended with signal 9 while writing B_")
    assert err.endswith("..B_2000\n") and len(err.splitlines()) == 1
    assert len(forks) == 2


@pytest.mark.parametrize("where", ["kernel", "store"])
def test_fill_worker_bug_leaves_run_with_its_traceback(capsys, tmp_path, monkeypatch,
                                                        forks, file_to_700, where):
    """An exception no command expects in a kernel or store worker leaves
    run() uncaught, carrying the worker's traceback."""
    if where == "kernel":
        monkeypatch.setattr(_kernels, "_euler_numerators",
                            _in_worker(os.getpid(), _bug, _kernels._euler_numerators))
    else:
        monkeypatch.setattr(BernoulliCache, "_render",
                            _in_worker(os.getpid(), _bug, BernoulliCache._render))
    with pytest.raises(WorkerCrash) as crash:
        _fill_2000(capsys, monkeypatch, tmp_path, file_to_700)
    text = str(crash.value)
    assert text.startswith("Traceback (most recent call last):\n")
    assert "in _worker" in text and "in wrapped" in text
    assert text.endswith("TypeError: bug in a fill worker")
    assert capsys.readouterr() == ("", "")


_BUG_SCRIPT = """
import os
from hclab import _kernels, cli, fork

euler = _kernels._euler_numerators
parent = os.getpid()

def broken(low, top):
    if os.getpid() != parent:
        raise TypeError(f"bug at B_{top}")
    return euler(low, top)

_kernels._euler_numerators = broken
fork.workers = lambda: 2
cli.main()
"""


def test_fill_worker_bug_exits_seventy(tmp_path, file_to_700):
    """`hclab bernoulli 2000` whose kernel worker has a bug exits 70 with the
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
    assert "in _euler_worker" in proc.stderr
    assert proc.stderr.endswith("TypeError: bug at B_2000\n")
    assert path.read_bytes() == file_to_700
    assert [f.name for f in tmp_path.iterdir()] == [path.name]
