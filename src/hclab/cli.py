"""Command-line surface: single verdicts, parameter-grid scans, prime
classification, and the hermetic self-test.

Exit codes: 0 when every executed verdict passes, 1 when any fails,
2 on usage or configuration errors, bad input and unwritable output.
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


def _emit_records(records, args) -> None:
    """Write the report in batches of EMIT_BATCH records; a CSV header,
    exactly emit([], "csv"), is written once."""
    header = emit([], args.format)
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(header)
        for start in range(0, len(records), EMIT_BATCH):
            fh.write(emit(records[start:start + EMIT_BATCH], args.format)[len(header):])


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
    records = [_judge(args.id, p, case, scan, cache) for p in primes for case in cases]
    records.sort(key=ReportRecord.sort_key)
    _emit_records(records, args)
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
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except (HclabError, ValueError, OSError) as exc:
        # ValueError and OSError: bad input such as a negative index or a p
        # past the primality limit, and an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
