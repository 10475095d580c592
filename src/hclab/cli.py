"""Command-line surface: single verdicts, parameter-grid scans, prime
classification, and the hermetic self-test.

Exit codes: 0 when every executed verdict passes, 1 when any fails,
2 on usage or configuration errors, bad input and unwritable output, and
70 (EX_SOFTWARE) on an exception no command expects, a bug, whose traceback
is written to stderr, a forked scan worker's included.  KeyboardInterrupt is
not caught: it ends the command with Python's traceback, killed by SIGINT.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import time
from fractions import Fraction

from . import congruences as cg
from .bernoulli import (
    BernoulliCache, any_digits, bernoulli, check_ceiling, irregular_pairs,
)
from .errors import HclabError, HypothesisViolated
from .exact import is_prime
from .harmonic import check_ceiling as check_harmonic_ceiling
from .harmonic import harmonic
from .primes import classify, largest_prime, primes_in
from .report import ReportRecord, emit

DEFAULT_CACHE_FILE = "./bernoulli.cache"

# Records serialized per write: a report is never held as one string.
EMIT_BATCH = 100

# A scan of at least this many cases (primes times parameter combinations)
# is judged in forked workers, one per CPU the process may run on; a smaller
# one runs in-process.  Forking two workers and reaping them costs 5-10 ms,
# and each worker restarts its harmonic sums at its first prime.  Measured on
# a 2-CPU host (Python 3.11.7), when each worker took about four chunks:
# below about 400 cases two workers were up to 18 ms slower than one process;
# from 400 cases on they were within 2 ms of it or faster, by 34 ms at 504
# cases of cor-remark0-3.
FORK_MIN_CASES = 400

# At most this many workers, whatever the CPU count, so that a scan opens at
# most this many files and does not burn CPU time out of proportion: each
# worker pays for its fork, its copied pages and its first harmonic reads.
# harmonic-sweep's fifteen scans with W forced, each in its own interpreter,
# on a shared 2-CPU host (Python 3.11.7, medians of 3), took 4.1 s of CPU
# time in one process, 5.2 s at W = 2, 5.7 s at 4, 6.2 s at 8, 7.5 s at 16
# and 10.2 s at 32.
MAX_WORKERS = 8

# Characters copied per read from a worker's chunk file to the report.
_COPY_CHARS = 1 << 20

_SIGKILL = 9  # POSIX; not importing `signal` keeps every command's start cheap

# The exit code of a bug (sysexits.h), never the 1 of a failed check.
EX_SOFTWARE = 70

# The four worked examples reproduced by `selftest`: theorem id, arguments,
# exact expected (numerator, valuation) or full value.
GOLD_VECTORS = (
    ("thm-ee10bis", dict(p=37, n=0, i=0), 1422091936194747472864459922257, 5),
    ("thm-eecj", dict(p=37, n=1, i=1), 9356942544006649495921, 4),
    ("thm-eecj", dict(p=31, n=1, i=1), 1804176116127398723, 4),
    ("thm-eecj", dict(p=5, n=1, i=2), Fraction(5625, 32), 4),
)


class _UsageError(Exception):
    """Ends a command with its one-line message and exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error in one line, without the usage block;
    subparsers are made of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> range:
    """A single integer or an inclusive lo:hi range."""
    lo, sep, hi = text.partition(":")
    return range(int(lo), int(hi if sep else lo) + 1)


def _check_directory(path: str) -> None:
    """Refuse a cache or report path whose directory (a symlink's target's)
    does not exist before any work, not when the finished work is written."""
    directory = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{path}: directory {directory} does not exist")


def _cache_from(args) -> BernoulliCache:
    path = args.cache or os.environ.get("HCL_CACHE") or DEFAULT_CACHE_FILE
    _check_directory(path)
    return BernoulliCache(path=path)


def _open_report(args):
    """The report's file: --out, or stdout."""
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _write_batches(fh, records, fmt: str, header: str) -> int:
    """Write records in batches of EMIT_BATCH, each without the header,
    exactly emit([], fmt), that every batch starts with; return the
    characters written."""
    return sum(fh.write(emit(records[start:start + EMIT_BATCH], fmt)[len(header):])
               for start in range(0, len(records), EMIT_BATCH))


def _emit_records(records, args) -> None:
    """Write the report: a CSV header once, then the records in batches."""
    header = emit([], args.format)
    with _open_report(args) as fh:
        fh.write(header)
        _write_batches(fh, records, args.format, header)


def _judge(theorem_id: str, p: int, args: dict, scan: bool, cache) -> ReportRecord:
    """The timed record on one case.  A scan skips a case that fails the
    theorem's hypothesis or whose verifier finds one violated; `verify` ends
    with that violation instead."""
    theorem = cg.THEOREMS[theorem_id]
    t0 = time.perf_counter()
    try:
        if not scan or theorem.hypothesis(p, args):
            record = theorem.run(p, args, cache)
            return ReportRecord.from_verdict(record, (time.perf_counter() - t0) * 1000.0)
    except HypothesisViolated:
        if not scan:
            raise
    return ReportRecord.skipped(theorem_id, p, theorem.case(args), "hypothesis")


def _prime_bounds(args) -> tuple[int, int]:
    """`verify` takes one prime --p; `scan` takes --p or --p-min/--p-max."""
    if args.p is not None and (args.p_min is not None or args.p_max is not None):
        raise _UsageError("--p excludes --p-min/--p-max")
    if args.p is not None:
        if not is_prime(args.p):
            raise _UsageError(f"{args.p} is not prime")
        return args.p, args.p
    if args.command == "verify":
        raise _UsageError("verify requires --p")
    if args.p_min is None or args.p_max is None:
        raise _UsageError("scan requires --p or --p-min/--p-max")
    if args.p_min > args.p_max:
        raise _UsageError(f"--p-min {args.p_min} --p-max {args.p_max} is an empty range")
    return args.p_min, args.p_max


def _cmd_grid(args) -> int:
    """`verify` and `scan`: one record per prime and parameter combination.

    `verify` runs exactly one case, with no scan filter, and a violated
    hypothesis ends it with exit 2; `scan` reports such cases as skipped.
    """
    theorem = cg.THEOREMS.get(args.id)
    if theorem is None:
        raise _UsageError(f"unknown theorem id: {args.id}")
    scan = args.command == "scan"
    p_lo, p_hi = _prime_bounds(args)
    stray = [f for n, f in args.flags.items()
             if n not in theorem.params and getattr(args, n) is not None]
    if stray:
        raise _UsageError(f"{args.id} does not take {', '.join(stray)}")
    grids = {}
    for name in theorem.params:
        flag, values = args.flags[name], getattr(args, name)
        if values is None:
            raise _UsageError(f"{args.command} {args.id} requires {flag}")
        if not values:
            raise _UsageError(f"{flag} {values.start}:{values.stop - 1} is an empty range")
        if not scan and len(values) > 1:
            raise _UsageError("verify takes single parameter values, not ranges")
        grids[name] = values
    cases = [dict(zip(grids, c)) for c in itertools.product(*grids.values())]
    # Both ceilings are checked at the largest prime in the grid, before any
    # window is sieved: every theorem reads harmonic numbers H_n with
    # n <= p - 1, and one kernel call then fills the grid's Bernoulli need.
    top = largest_prime(p_lo, p_hi)
    need = -1 if top is None else max(theorem.bernoulli_need(top, case) for case in cases)
    check_ceiling(need)
    if top is not None:
        check_harmonic_ceiling(top - 1)
    cache = _cache_from(args)
    cache.extend_to(need)
    primes = primes_in(p_lo, p_hi) if scan else [p_lo]
    workers = min(_workers(), MAX_WORKERS, len(primes)) if scan else 1
    if workers > 1 and len(primes) * len(cases) >= FORK_MIN_CASES:
        return _scan_forked(args, primes, cases, cache, workers)
    records = [_judge(args.id, p, case, scan, cache) for p in primes for case in cases]
    records.sort(key=ReportRecord.sort_key)
    _emit_records(records, args)
    return 1 if any(r.passed is False for r in records) else 0


def _workers() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or make an
    anonymous file."""
    if not hasattr(os, "fork") or not hasattr(os, "memfd_create"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(primes: list[int], count: int) -> list[list[int]]:
    """Cut the ascending primes into at most count contiguous runs of about
    equal work, one per worker, counting p^1.5 + 4000 for a prime: harmonic
    sums and series grow with p, records do not.  On harmonic-sweep's grids
    cut for two workers (2-CPU host, Python 3.11.7, medians of 8 runs), the
    slower worker of each ran, summed over the grids, 12.9% past the mean at
    p^1.5 alone and 5.1% at p^1.5 + 4000, against 2.0% with the former queue
    of four chunks per worker; p^1 and p^0.5 left the upper chunk slower."""
    weights = [p**1.5 + 4000 for p in primes]
    total = sum(weights)
    chunks, start, work = [], 0, 0.0
    for i, weight in enumerate(weights):
        work += weight
        if work >= total * (len(chunks) + 1) / count:
            chunks.append(primes[start:i + 1])
            start = i + 1
    if start < len(primes):
        chunks.append(primes[start:])
    return chunks


class _WorkerCrash(Exception):
    """An exception no command expects, raised in a scan worker.  Its message
    is the worker's traceback; like the exception it leaves run() uncaught,
    and main() writes that traceback and exits EX_SOFTWARE."""


def _scan_forked(args, primes: list[int], cases: list[dict], cache, workers: int) -> int:
    """Judge a scan in forked workers and write their reports in order.

    The primes are cut into one contiguous chunk per worker.  A worker
    judges, sorts and serializes its chunk into its own anonymous file, and
    its exit status says what the file holds (see _scan_worker).  The parent
    judges nothing: it reaps the workers in chunk order, then copies the
    files out in that order, which is the report's sort order, since chunks
    end on prime boundaries.  The earliest chunk that did not finish ends the
    command as a sequential run would end, and no report is written.  On any
    exception of its own the parent kills and reaps every worker; a parent
    killed by SIGKILL leaves each worker to finish its whole chunk and exit.
    Workers are forked, not spawned, so that each starts from the parent's
    imports and filled cache at no cost; a command runs no other thread.
    Open files: one per worker, so at most MAX_WORKERS.
    """
    chunks = _chunks(primes, workers)
    header = emit([], args.format)
    pids, failed = [], False
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(os.memfd_create("hclab-scan"), "w+",
                                              encoding="utf-8"))
                     for _ in chunks]
            sys.stdout.flush()
            sys.stderr.flush()
            for chunk, fh in zip(chunks, files):
                pid = os.fork()
                if pid == 0:
                    _scan_worker(args, chunk, cases, cache, fh, header)
                pids.append(pid)
            for chunk, fh in zip(chunks, files):
                code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                pids.pop(0)
                fh.seek(0)
                if code == 2:
                    raise _UsageError(fh.read())
                if code == EX_SOFTWARE:
                    raise _WorkerCrash(fh.read().rstrip("\n"))
                if code not in (0, 1):
                    how = f"signal {-code}" if code < 0 else f"exit status {code}"
                    raise _UsageError(f"error: a scan worker ended with {how} "
                                      f"while judging primes {chunk[0]}..{chunk[-1]}")
                failed = failed or code == 1
            with _open_report(args) as out:
                out.write(header)
                for fh in files:
                    while block := fh.read(_COPY_CHARS):
                        out.write(block)
            return 1 if failed else 0
    except BaseException:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
        raise


def _scan_worker(args, chunk: list[int], cases, cache, fh, header) -> None:
    """A forked worker's whole life: judge the chunk's primes, sort their
    records and write them to fh, and leave through os._exit with a status
    that says what fh holds: 0 the records, none failing; 1 the records,
    some failing; 2 the one line _error_line gives in their place; or
    EX_SOFTWARE the traceback of an exception no command expects.  Any other
    way out, such as a BaseException, exits 3."""
    code = 3
    try:
        cache.detach()
        try:
            records = [_judge(args.id, p, case, True, cache) for p in chunk for case in cases]
            records.sort(key=ReportRecord.sort_key)
            _write_batches(fh, records, args.format, header)
            outcome = 1 if any(r.passed is False for r in records) else 0
        except Exception as exc:
            fh.seek(0)
            fh.truncate()
            line = _error_line(exc)
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


def _cmd_bernoulli(args) -> int:
    cache = _cache_from(args)
    cache.extend_to(args.index)  # exactly, where a bare read would grow geometrically
    b = bernoulli(args.index, cache)
    print(f"{b.numerator}/{b.denominator}")
    return 0


def _cmd_harmonic(args) -> int:
    h = harmonic(args.m, args.n)
    print(f"{h.numerator}/{h.denominator}")
    return 0


def _cmd_irregular_pairs(args) -> int:
    for p, two_k in irregular_pairs(args.p_max, _cache_from(args)):
        print(f"{p} {two_k}")
    return 0


def _cmd_classify_prime(args) -> int:
    if not is_prime(args.p) or args.p == 2:
        raise _UsageError(f"{args.p} is not an odd prime")
    info = classify(args.p)
    print(
        f"p={info.p} wieferich={str(info.is_wieferich).lower()} "
        f"mersenne={str(info.is_mersenne).lower()} fermat_quotient={info.fermat_quotient}"
    )
    return 0


def _cmd_selftest(args) -> int:
    cache = _cache_from(args)
    # one kernel call fills every read, as in _cmd_grid
    cache.extend_to(max(cg.THEOREMS[theorem_id].bernoulli_need(case["p"], case)
                        for theorem_id, case, *_ in GOLD_VECTORS))
    ok = True
    records = []
    for theorem_id, case, expected, expected_valuation in GOLD_VECTORS:
        p = case["p"]
        params = {k: v for k, v in case.items() if k != "p"}
        record = _judge(theorem_id, p, params, False, cache)
        lhs = record.lhs
        if isinstance(expected, Fraction):
            good = lhs == expected
        else:
            good = lhs.numerator == expected
        good = good and record.achieved_valuation == expected_valuation and record.passed
        ok = ok and good
        records.append(record)
        print(
            f"{'PASS' if good else 'FAIL'} {theorem_id} p={p} "
            f"{params} v={record.achieved_valuation}"
        )
    if args.out:
        _emit_records(records, args)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", help="Bernoulli cache file (or HCL_CACHE env)")
    report = argparse.ArgumentParser(add_help=False, parents=[cache])
    report.add_argument("--format", choices=("json", "csv"), default="json")
    report.add_argument("--out", help="write the report here instead of stdout")
    parser = _Parser(
        prog="hclab",
        description="Exact verification of harmonic-number congruences "
        "modulo prime powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("id")
    for flag in ("--p", "--p-min", "--p-max"):
        grid.add_argument(flag, type=int)
    flags = {n: "--" + n.replace("_", "-")
             for n in sorted({n for t in cg.THEOREMS.values() for n in t.params})}
    for flag in flags.values():
        grid.add_argument(flag, type=_parse_range)
    grid.set_defaults(fn=_cmd_grid, flags=flags)
    for verb, text in (("verify", "run one congruence check"),
                       ("scan", "run a check over a parameter grid")):
        sub.add_parser(verb, parents=[report, grid], help=text)

    sp = sub.add_parser("bernoulli", parents=[cache], help="print an exact Bernoulli number")
    sp.add_argument("index", type=int)
    sp.set_defaults(fn=_cmd_bernoulli)

    sp = sub.add_parser("harmonic", help="print an exact generalized harmonic number")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=_cmd_harmonic)

    sp = sub.add_parser("irregular-pairs", parents=[cache], help="list irregular pairs up to a bound")
    sp.add_argument("--p-max", type=int, required=True)
    sp.set_defaults(fn=_cmd_irregular_pairs)

    sp = sub.add_parser("classify-prime", help="Wieferich/Mersenne classification")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(fn=_cmd_classify_prime)

    sp = sub.add_parser("selftest", parents=[report], help="replay the worked gold vectors")
    sp.set_defaults(fn=_cmd_selftest)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # The left-hand sides of high-order verdicts and the Bernoulli numbers
        # printed run past Python's 4300-digit int<->str limit.
        with any_digits():
            if getattr(args, "out", None):
                _check_directory(args.out)
            return args.fn(args)
    except Exception as exc:
        line = _error_line(exc)
        if line is None:
            raise
        print(line, file=sys.stderr)
        return 2


def _error_line(exc: Exception) -> str | None:
    """The one stderr line that ends a command with exit 2 on exc; None for
    an exception no command expects."""
    if isinstance(exc, _UsageError):
        return str(exc)
    if isinstance(exc, HypothesisViolated):
        return f"hypothesis violated: {exc}"
    if isinstance(exc, (HclabError, ValueError, OSError)):
        # ValueError and OSError: bad input such as a negative index or a p
        # past the primality limit, and an --out that cannot be written
        return f"error: {exc}"
    if isinstance(exc, MemoryError):
        return "error: out of memory"
    return None


def main() -> None:
    """Run the command line; a bug exits EX_SOFTWARE with its traceback."""
    try:
        code = run(sys.argv[1:])
    except Exception as exc:
        if isinstance(exc, _WorkerCrash):
            print(exc, file=sys.stderr)
        else:
            sys.__excepthook__(type(exc), exc, exc.__traceback__)
        code = EX_SOFTWARE
    sys.exit(code)


if __name__ == "__main__":
    main()
