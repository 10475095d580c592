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
import os
import shutil
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

# At most this many processes, the parent and MAX_WORKERS - 1 workers,
# whatever the CPU count, so that a scan opens at most this many files and
# does not burn CPU time out of proportion: each worker pays for its fork,
# its copied pages and its first harmonic reads.  harmonic-sweep's fifteen
# scans with W processes forced, each in its own interpreter, on a shared
# 2-CPU host (Python 3.11.7, medians of 3), took 4.3 s of CPU time in one
# process, 4.8 s at W = 2, 5.5 s at 4, 5.6 s at 8 and 6.9 s at 16.
MAX_WORKERS = 8

_SIGKILL = 9  # POSIX; not importing `signal` keeps every command's start cheap

# The exit code of a bug (sysexits.h), never the 1 of a failed check.
EX_SOFTWARE = 70

# The four worked examples reproduced by `selftest`: theorem id, p, params,
# the exact left-hand side, whose numerator is the paper's, and its valuation.
GOLD_VECTORS = (
    ("thm-ee10bis", 37, dict(n=0, i=0),
     Fraction(1422091936194747472864459922257, 41704772176589465865841920000), 5),
    ("thm-eecj", 37, dict(n=1, i=1),
     Fraction(9356942544006649495921, 175168974229337088000), 4),
    ("thm-eecj", 31, dict(n=1, i=1), Fraction(1804176116127398723, 40110949726848000), 4),
    ("thm-eecj", 5, dict(n=1, i=2), Fraction(5625, 32), 4),
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


def _write_batches(fh, records, fmt: str, header: str) -> None:
    """Write records in batches of EMIT_BATCH, each without the header,
    exactly emit([], fmt), that every batch starts with."""
    for start in range(0, len(records), EMIT_BATCH):
        fh.write(emit(records[start:start + EMIT_BATCH], fmt)[len(header):])


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
    return ReportRecord.skipped(theorem_id, p, args, "hypothesis")


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
    # Both ceilings are checked at the largest prime in the grid, before any
    # window is sieved or any case is built: every theorem reads harmonic
    # numbers H_n with n <= p - 1, and one kernel call then fills the grid's
    # Bernoulli need.
    top = largest_prime(p_lo, p_hi)
    need = -1 if top is None else max(theorem.bernoulli_need(top, case)
                                      for case in _cases(grids))
    check_ceiling(need)
    if top is not None:
        check_harmonic_ceiling(top - 1)
    cases = list(_cases(grids))
    cache = _cache_from(args)
    cache.extend_to(need)
    primes = primes_in(p_lo, p_hi) if scan else [p_lo]
    workers = min(_workers(), MAX_WORKERS, len(primes))
    return _scan(args, _chunks(primes, workers), cases, scan, cache)


def _cases(grids: dict[str, range]):
    """The grid's cases in the order of itertools.product, one at a time:
    product first turns each range into a tuple, which for a range far past
    a ceiling fills memory before the ceiling check can refuse it."""
    if not grids:
        yield {}
        return
    (name, values), *rest = grids.items()
    for value in values:
        for case in _cases(dict(rest)):
            yield {name: value, **case}


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
    equal work, one per process, counting p^1.5 + 4000 for a prime: harmonic
    sums and series grow with p, records do not.  On harmonic-sweep's grids
    cut for two workers (2-CPU host, Python 3.11.7, medians of 8 runs), the
    slower worker of each ran, summed over the grids, 12.9% past the mean at
    p^1.5 alone and 5.1% at p^1.5 + 4000; p^1 and p^0.5 left the upper chunk
    slower."""
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


def _judge_chunk(args, chunk: list[int], cases, scan: bool, cache) -> list[ReportRecord]:
    """The records on every case at each prime of the chunk, in report order."""
    records = [_judge(args.id, p, case, scan, cache) for p in chunk for case in cases]
    records.sort(key=ReportRecord.sort_key)
    return records


def _scan(args, chunks: list[list[int]], cases: list[dict], scan: bool, cache) -> int:
    """Judge the chunks of primes, the first in this process and each other
    in a forked worker, and write their records in order.

    With one chunk, or none (an empty report), nothing is forked and no file
    is opened.  Otherwise each worker judges, sorts and serializes its chunk
    into its own anonymous file, and its exit status says what the file
    holds (see _scan_worker).  The parent does the same with its own chunk
    while the workers run, reaps them in chunk order, then copies the files
    out in that order, which is the report's, since chunks end on prime
    boundaries.  The earliest chunk that did not finish ends the command as a
    sequential run would end, and no report is written.  Any exception of the
    parent, its own chunk's included, kills and reaps every worker and then
    propagates; a parent killed by SIGKILL leaves each worker to finish its
    whole chunk and exit.  Workers are forked, not spawned, so that each
    starts from the parent's imports and filled cache at no cost; a command
    runs no other thread.  Open files: one per chunk, so at most MAX_WORKERS.
    """
    first, *rest = chunks or [[]]
    header = emit([], args.format)
    pids = []
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(os.memfd_create("hclab-scan"), "w+",
                                              encoding="utf-8"))
                     for _ in chunks] if rest else []
            sys.stdout.flush()
            sys.stderr.flush()
            for chunk, fh in zip(rest, files[1:]):
                pid = os.fork()
                if pid == 0:
                    _scan_worker(args, chunk, cases, cache, fh, header)
                pids.append(pid)
            records = _judge_chunk(args, first, cases, scan, cache)
            failed = any(r.passed is False for r in records)
            if rest:
                _write_batches(files[0], records, args.format, header)
                files[0].seek(0)
            for chunk, fh in zip(rest, files[1:]):
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
                if not rest:
                    _write_batches(out, records, args.format, header)
                for fh in files:
                    shutil.copyfileobj(fh, out)
            return 1 if failed else 0
    except BaseException:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
        raise


def _scan_worker(args, chunk: list[int], cases, cache, fh, header) -> None:
    """A forked worker's whole life: judge the chunk's primes as the parent
    judges its own, write their sorted records to fh, and leave through
    os._exit with a status that says what fh holds: 0 the records, none
    failing; 1 the records, some failing; 2 the one line _error_line gives in
    their place; or EX_SOFTWARE the traceback of an exception no command
    expects.  Any other way out, such as a BaseException, exits 3."""
    code = 3
    try:
        cache.detach()
        try:
            records = _judge_chunk(args, chunk, cases, True, cache)
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
    cache.extend_to(max(cg.THEOREMS[theorem_id].bernoulli_need(p, params)
                        for theorem_id, p, params, *_ in GOLD_VECTORS))
    ok = True
    records = []
    for theorem_id, p, params, expected, expected_valuation in GOLD_VECTORS:
        record = _judge(theorem_id, p, params, False, cache)
        good = (record.lhs == expected and record.achieved_valuation == expected_valuation
                and record.passed)
        ok = ok and good
        records.append(record)
        print(
            f"{'PASS' if good else 'FAIL'} {theorem_id} p={p} "
            f"{params} v={record.achieved_valuation}"
        )
    if args.out:
        with _open_report(args) as fh:
            fh.write(emit(records, args.format))
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
    flags = {n: "--j-terms" if n == "J" else f"--{n}"
             for n in sorted({n for t in cg.THEOREMS.values() for n in t.params})}
    for name, flag in flags.items():
        grid.add_argument(flag, dest=name, type=_parse_range)
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
