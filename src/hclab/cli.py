"""Command-line surface: single verdicts, parameter-grid scans, prime
classification, and the hermetic self-test.

Exit codes: 0 when every executed verdict passes, 1 when any fails,
2 on usage or configuration errors, bad input and unwritable output, and
70 (EX_SOFTWARE) on an exception no command expects, a bug, whose traceback
is written to stderr, a forked worker's included.  KeyboardInterrupt is
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
from . import fork
from .bernoulli import (
    BernoulliCache, any_digits, bernoulli, check_ceiling, irregular_pairs,
)
from .errors import EX_SOFTWARE, CommandError, HypothesisViolated, WorkerCrash, error_line
from .exact import is_prime
from .harmonic import check_ceiling as check_harmonic_ceiling
from .harmonic import harmonic
from .primes import classify, largest_prime, primes_in
from .report import ReportRecord, emit

DEFAULT_CACHE_FILE = "./bernoulli.cache"

# Records serialized per write: a report is never held as one string.
EMIT_BATCH = 100

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
        raise CommandError("--p excludes --p-min/--p-max")
    if args.p is not None:
        if not is_prime(args.p):
            raise CommandError(f"{args.p} is not prime")
        return args.p, args.p
    if args.command == "verify":
        raise CommandError("verify requires --p")
    if args.p_min is None or args.p_max is None:
        raise CommandError("scan requires --p or --p-min/--p-max")
    if args.p_min > args.p_max:
        raise CommandError(f"--p-min {args.p_min} --p-max {args.p_max} is an empty range")
    return args.p_min, args.p_max


def _cmd_grid(args) -> int:
    """`verify` and `scan`: one record per prime and parameter combination.

    `verify` runs exactly one case, with no scan filter, and a violated
    hypothesis ends it with exit 2; `scan` reports such cases as skipped.
    """
    theorem = cg.THEOREMS.get(args.id)
    if theorem is None:
        raise CommandError(f"unknown theorem id: {args.id}")
    scan = args.command == "scan"
    p_lo, p_hi = _prime_bounds(args)
    stray = [f for n, f in args.flags.items()
             if n not in theorem.params and getattr(args, n) is not None]
    if stray:
        raise CommandError(f"{args.id} does not take {', '.join(stray)}")
    grids = {}
    for name in theorem.params:
        flag, values = args.flags[name], getattr(args, name)
        if values is None:
            raise CommandError(f"{args.command} {args.id} requires {flag}")
        if not values:
            raise CommandError(f"{flag} {values.start}:{values.stop - 1} is an empty range")
        if not scan and len(values) > 1:
            raise CommandError("verify takes single parameter values, not ranges")
        grids[name] = values
    # Both ceilings are checked at the largest prime in the grid, before any
    # window is sieved or any case is built: every theorem reads harmonic
    # numbers H_n with n <= p - 1, and one kernel call then fills the grid's
    # Bernoulli need.
    top = largest_prime(p_lo, p_hi)
    need = -1 if top is None else max(cg.bernoulli_need(args.id, top, case)
                                      for case in _cases(grids))
    check_ceiling(need)
    if top is not None:
        check_harmonic_ceiling(top - 1)
    cases = list(_cases(grids))
    cache = _cache_from(args)
    cache.extend_to(need)
    primes = primes_in(p_lo, p_hi) if scan else [p_lo]
    return _scan(args, _chunks(primes, fork.processes(len(primes))), cases, scan, cache)


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


def _chunks(primes: list[int], count: int) -> list[list[int]]:
    """Cut the ascending primes into at most count contiguous runs of about
    equal work, one per process, counting p^1.5 + 4000 for a prime: harmonic
    sums and series grow with p, records do not.  On harmonic-sweep's grids
    cut for two workers (2-CPU host, Python 3.11.7, medians of 8 runs), the
    slower worker of each ran, summed over the grids, 12.9% past the mean at
    p^1.5 alone and 5.1% at p^1.5 + 4000; p^1 and p^0.5 left the upper chunk
    slower."""
    return fork.cut(primes, [p**1.5 + 4000 for p in primes], count)


def _judge_chunk(args, chunk: list[int], cases, scan: bool, cache) -> list[ReportRecord]:
    """The records on every case at each prime of the chunk, in report order."""
    records = [_judge(args.id, p, case, scan, cache) for p in chunk for case in cases]
    records.sort(key=ReportRecord.sort_key)
    return records


def _scan(args, chunks: list[list[int]], cases: list[dict], scan: bool, cache) -> int:
    """Judge the chunks of primes, the first in this process and each other
    in a forked worker (fork.forked), and write their records in order.

    With one chunk, or none (an empty report), nothing is forked and no file
    is opened.  Otherwise each worker judges, sorts and serializes its chunk
    into its own anonymous file (_scan_worker).  The parent does the same
    with its own chunk while the workers run, reaps them in chunk order, then
    copies the files out in that order, which is the report's, since chunks
    end on prime boundaries.  A chunk that did not finish ends the command as
    a sequential run would end, and no report is written.  Open files: one
    per chunk, so at most fork.MAX_WORKERS.
    """
    first, *rest = chunks or [[]]
    header = emit([], args.format)
    with contextlib.ExitStack() as stack:
        own = stack.enter_context(open(os.memfd_create("hclab-scan"), "w+",
                                       encoding="utf-8")) if rest else None
        reap = stack.enter_context(fork.forked(
            "scan", rest, lambda chunk, fh: _scan_worker(args, chunk, cases, cache, fh, header),
            lambda chunk: f"judging primes {chunk[0]}..{chunk[-1]}"))
        records = _judge_chunk(args, first, cases, scan, cache)
        failed = any(r.passed is False for r in records)
        if rest:
            _write_batches(own, records, args.format, header)
            own.seek(0)
        done = reap()
        failed = failed or any(outcome == 1 for outcome, _ in done)
        with _open_report(args) as out:
            out.write(header)
            if rest:
                for fh in [own] + [fh for _, fh in done]:
                    shutil.copyfileobj(fh, out)
            else:
                _write_batches(out, records, args.format, header)
        return 1 if failed else 0


def _scan_worker(args, chunk: list[int], cases, cache, fh, header) -> int:
    """A forked worker's chunk: judge its primes as the parent judges its
    own, write their sorted records to fh, and return 1 if any fails, else
    0.  The worker's cache keeps any fill of its own in memory, off the
    parent's file."""
    cache.detach()
    records = _judge_chunk(args, chunk, cases, True, cache)
    _write_batches(fh, records, args.format, header)
    return 1 if any(r.passed is False for r in records) else 0


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
        raise CommandError(f"{args.p} is not an odd prime")
    info = classify(args.p)
    print(
        f"p={info.p} wieferich={str(info.is_wieferich).lower()} "
        f"mersenne={str(info.is_mersenne).lower()} fermat_quotient={info.fermat_quotient}"
    )
    return 0


def _cmd_selftest(args) -> int:
    cache = _cache_from(args)
    # one kernel call fills every read, as in _cmd_grid
    cache.extend_to(max(cg.bernoulli_need(theorem_id, p, params)
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
        line = error_line(exc)
        if line is None:
            raise
        print(line, file=sys.stderr)
        return 2


def main() -> None:
    """Run the command line; a bug exits EX_SOFTWARE with its traceback."""
    try:
        code = run(sys.argv[1:])
    except Exception as exc:
        if isinstance(exc, WorkerCrash):
            print(exc, file=sys.stderr)
        else:
            sys.__excepthook__(type(exc), exc, exc.__traceback__)
        code = EX_SOFTWARE
    sys.exit(code)


if __name__ == "__main__":
    main()
