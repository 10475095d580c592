"""Work split across forked processes, one per CPU the process may use: the
one fork protocol of scans and Bernoulli fills.

The caller cuts its work into contiguous runs (cut), keeps the first for
itself and hands the rest to forked(), which forks one worker per run.  Each
worker writes what it owes into an anonymous file of its own and leaves
through os._exit with a status that says what the file holds (see _worker).
The parent does its own run while the workers do theirs, then reaps them in
run order; the earliest run that did not finish ends the command as a run in
one process would end.  Any exception of the parent, its own run's included,
kills and reaps every worker and then propagates; a parent killed by SIGKILL
leaves each worker to finish its run and exit.  Workers are forked, not
spawned, so that each starts from the parent's imports and values at no
cost; a command runs no other thread.
"""

from __future__ import annotations

import contextlib
import os
import sys

from .errors import EX_SOFTWARE, CommandError, WorkerCrash, error_line

# At most this many processes, the parent and MAX_WORKERS - 1 workers,
# whatever the CPU count, so that a split opens at most this many files and
# does not burn CPU time out of proportion: each worker pays for its fork,
# its copied pages and, in a scan, its first harmonic reads.
# harmonic-sweep's fifteen scans with W processes forced, each in its own
# interpreter, on a shared 2-CPU host (Python 3.11.7, medians of 3), took
# 4.3 s of CPU time in one process, 4.8 s at W = 2, 5.5 s at 4, 5.6 s at 8
# and 6.9 s at 16.
MAX_WORKERS = 8

_SIGKILL = 9  # POSIX; not importing `signal` keeps every command's start cheap


def workers() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or make an
    anonymous file."""
    if not hasattr(os, "fork") or not hasattr(os, "memfd_create"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes(parts: int) -> int:
    """The processes to split parts units of work over: one per CPU, at most
    MAX_WORKERS and at most parts, but at least one."""
    return max(1, min(workers(), MAX_WORKERS, parts))


def cut(items, weights: list[float], count: int) -> list:
    """items cut into at most count contiguous, non-empty runs (slices) of
    about equal total weight."""
    total = sum(weights)
    runs, start, work = [], 0, 0.0
    for i, weight in enumerate(weights):
        work += weight
        if work >= total * (len(runs) + 1) / count:
            runs.append(items[start:i + 1])
            start = i + 1
    if start < len(items):
        runs.append(items[start:])
    return runs


@contextlib.contextmanager
def forked(name: str, runs: list, work, doing):
    """Fork one worker per run, each calling work(run, fh) with fh an
    anonymous text file of its own; work returns 0 or 1, its outcome.

    Yields reap(), which waits for the workers in run order and returns each
    one's (outcome, fh), fh read back from its start.  For the earliest
    worker that did not leave an outcome it raises instead: CommandError
    with the worker's one line when it exited 2, WorkerCrash with its
    traceback when it exited EX_SOFTWARE, and otherwise CommandError naming
    the signal or exit status and doing(run), what the worker was doing.
    With no runs it forks nothing and opens no file.  Open files: one per
    run, so at most MAX_WORKERS - 1.
    """
    pids = []
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(os.memfd_create(f"hclab-{name}"), "w+",
                                              encoding="utf-8"))
                     for _ in runs]
            sys.stdout.flush()
            sys.stderr.flush()
            for run, fh in zip(runs, files):
                pid = os.fork()
                if pid == 0:
                    _worker(work, run, fh)
                pids.append(pid)

            def reap() -> list:
                done = []
                for run, fh in zip(runs, files):
                    code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                    pids.pop(0)
                    fh.seek(0)
                    if code == 2:
                        raise CommandError(fh.read())
                    if code == EX_SOFTWARE:
                        raise WorkerCrash(fh.read().rstrip("\n"))
                    if code not in (0, 1):
                        how = f"signal {-code}" if code < 0 else f"exit status {code}"
                        raise CommandError(f"error: a {name} worker ended with {how} "
                                           f"while {doing(run)}")
                    done.append((code, fh))
                return done

            yield reap
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)


def _worker(work, run, fh) -> None:
    """A forked worker's whole life: call work(run, fh) and leave through
    os._exit with a status that says what fh holds: work's outcome, 0 or 1;
    2, the one line error_line gives in its place; or EX_SOFTWARE, the
    traceback of an exception no command expects.  Any other way out, such
    as a BaseException, exits 3."""
    code = 3
    try:
        try:
            outcome = work(run, fh)
        except Exception as exc:
            fh.seek(0)
            fh.truncate()
            line = error_line(exc)
            if line is None:
                with contextlib.redirect_stderr(fh):
                    sys.__excepthook__(type(exc), exc, exc.__traceback__)
                outcome = EX_SOFTWARE
            else:
                fh.write(line)
                outcome = 2
        fh.flush()
        code = outcome
    finally:
        os._exit(code)
