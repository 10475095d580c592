"""Command-line surface: single verdicts, parameter-grid scans, prime
classification, and the hermetic self-test.

Exit codes: 0 when every executed verdict passes, 1 when any fails,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from fractions import Fraction

from . import congruences as cg
from .bernoulli import BernoulliCache, bernoulli, irregular_pairs
from .errors import HclabError, HypothesisViolated, IndexCeilingExceeded
from .exact import is_prime
from .harmonic import harmonic
from .primes import classify, primes_in
from .report import ReportRecord, emit

DEFAULT_CACHE_FILE = "./bernoulli.cache"

# theorem id -> (parameter names drawn from the grid, verifier)
_REGISTRY = {
    "wolstenholme": ((), lambda p, a, c: cg.verify_wolstenholme(p)),
    "wolstenholme-refined": ((), lambda p, a, c: cg.verify_wolstenholme_refined(p)),
    "eisenstein": ((), lambda p, a, c: cg.verify_eisenstein(p)),
    "lehmer": ((), lambda p, a, c: cg.verify_lehmer(p)),
    "cor-ee10biss": (
        ("i", "k"),
        lambda p, a, c: cg.verify_cor_ee10biss(p, a["i"], a["k"], c),
    ),
    "thm-eecj": (
        ("n", "i"),
        lambda p, a, c: cg.verify_thm_eecj(p, a["n"], a["i"], a.get("tier"), c),
    ),
    "cor-eecjj": (("j_terms",), lambda p, a, c: cg.verify_cor_eecjj(p, a["j_terms"], c)),
    "thm-ee10bis": (
        ("n", "i"),
        lambda p, a, c: cg.verify_thm_ee10bis(p, a["n"], a["i"], a.get("tier"), c),
    ),
    "prop41": (("n",), lambda p, a, c: cg.verify_prop41(p, a["n"], c)),
    "prop42": (("n", "h"), lambda p, a, c: cg.verify_prop42(p, a["n"], a["h"], c)),
    "thm-ee20": (("n",), lambda p, a, c: cg.verify_thm_ee20(p, a["n"], c)),
    "eq47": (("n",), lambda p, a, c: cg.verify_intermediate_47(p, a["n"], c)),
    "sun": ((), lambda p, a, c: cg.sun_congruence(p, c)),
}
for _eq in cg.EXPANSION_IDS:
    _REGISTRY[f"expansion-{_eq}"] = (
        ("k", "j_terms"),
        lambda p, a, c, w=_eq: cg.verify_expansion_truncation(w, a["k"], p, a["j_terms"]),
    )
for _idx, _eq in enumerate(cg.REMARK0_IDS, start=1):
    _REGISTRY[f"cor-remark0-{_idx}"] = (
        ("k",),
        lambda p, a, c, w=_eq: cg.verify_cor_remark0(w, a["k"], p),
    )
for _idx, _eq in enumerate(cg.PROP3_IDS, start=1):
    _REGISTRY[f"prop3-{_idx}"] = (
        ("k",),
        lambda p, a, c, w=_eq: cg.verify_thm_prop3(w, a["k"], p, c),
    )

# Scan-level hypothesis filters for verifiers that evaluate totally.
_SCAN_HYPOTHESES = {
    "thm-ee20": lambda p, a: 2 * p > a["n"] + 1,
}

# The four worked examples reproduced by `selftest`: theorem id, arguments,
# exact expected (numerator, valuation) or full value.
GOLD_VECTORS = (
    ("thm-ee10bis", dict(p=37, n=0, i=0), 1422091936194747472864459922257, 5),
    ("thm-eecj", dict(p=37, n=1, i=1), 9356942544006649495921, 4),
    ("thm-eecj", dict(p=31, n=1, i=1), 1804176116127398723, 4),
    ("thm-eecj", dict(p=5, n=1, i=2), Fraction(5625, 32), 4),
)


def _parse_range(text: str) -> list[int]:
    """A single integer or an inclusive lo:hi range."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _cache_from(args) -> BernoulliCache:
    path = args.cache or os.environ.get("HCL_CACHE") or DEFAULT_CACHE_FILE
    return BernoulliCache(path=path)


def _emit_records(records, args) -> None:
    text = emit(records, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record_for(theorem_id: str, p: int, params: dict, cache) -> ReportRecord:
    names, fn = _REGISTRY[theorem_id]
    t0 = time.perf_counter()
    verdict = fn(p, params, cache)
    return ReportRecord.from_verdict(verdict, (time.perf_counter() - t0) * 1000.0)


def _cmd_verify(args) -> int:
    if args.id not in _REGISTRY:
        print(f"unknown theorem id: {args.id}", file=sys.stderr)
        return 2
    names, _ = _REGISTRY[args.id]
    if args.p is None:
        print("verify requires --p", file=sys.stderr)
        return 2
    if not is_prime(args.p):
        print(f"{args.p} is not prime", file=sys.stderr)
        return 2
    params = {}
    for name in names:
        value = getattr(args, name)
        if value is None:
            print(f"verify {args.id} requires --{name.replace('_', '-')}",
                  file=sys.stderr)
            return 2
        params[name] = value[0] if len(value) == 1 else None
        if params[name] is None:
            print("verify takes single parameter values, not ranges",
                  file=sys.stderr)
            return 2
    if args.tier is not None:
        params["tier"] = args.tier
    cache = _cache_from(args)
    record = _record_for(args.id, args.p, params, cache)
    _emit_records([record], args)
    return 0 if record.passed else 1


def _max_bernoulli_index(theorem_id: str, p_hi: int, grids: dict,
                         tier: int | None) -> int:
    """Largest Bernoulli index a scan up to p_hi over these grids can read."""

    def hi(name, default=0):
        return max(grids.get(name, ()), default=default)

    def lo(name):
        return min(grids.get(name, ()), default=0)

    if theorem_id in ("prop41", "prop42", "eq47"):
        return p_hi ** (hi("n", 1) - 1) * (p_hi - 1)
    if theorem_id in ("thm-ee10bis", "thm-eecj"):
        series = 2 * hi("n") + 1
        if tier is not None:
            return series
        # Resolving the tier reads B_{p-2n-2i-5} (thm-ee10bis), or B_{2n+2}
        # and B_{p-2n-2i-1} (thm-eecj), to test for an irregular pair.
        offset = 5 if theorem_id == "thm-ee10bis" else 1
        return max(series + 1, p_hi - 2 * lo("n") - 2 * lo("i") - offset)
    if theorem_id in ("cor-ee10biss", "cor-eecjj"):
        return 2 * max(hi("k"), hi("j_terms")) + 4
    if theorem_id == "thm-ee20":
        return hi("n") + 1
    if theorem_id.startswith("prop3") or theorem_id == "sun":
        return p_hi
    return 0


def _cmd_scan(args) -> int:
    if args.id not in _REGISTRY:
        print(f"unknown theorem id: {args.id}", file=sys.stderr)
        return 2
    names, _ = _REGISTRY[args.id]
    if args.p is not None:
        p_lo = p_hi = args.p
    else:
        p_lo, p_hi = args.p_min, args.p_max
        if p_lo is None or p_hi is None:
            print("scan requires --p or --p-min/--p-max", file=sys.stderr)
            return 2
    grids = {}
    for name in names:
        value = getattr(args, name)
        if value is None:
            print(f"scan {args.id} requires --{name.replace('_', '-')}",
                  file=sys.stderr)
            return 2
        grids[name] = value
    cache = _cache_from(args)
    need = _max_bernoulli_index(args.id, p_hi, grids, args.tier)
    if need > cache.ceiling:
        print(
            f"grid needs Bernoulli index {need}, beyond ceiling {cache.ceiling}",
            file=sys.stderr,
        )
        return 2
    records = []
    for p in primes_in(p_lo, p_hi):
        for combo in itertools.product(*(grids[name] for name in names)):
            params = dict(zip(names, combo))
            if args.tier is not None:
                params["tier"] = args.tier
            hypothesis = _SCAN_HYPOTHESES.get(args.id)
            if hypothesis is not None and not hypothesis(p, params):
                records.append(ReportRecord.skipped(args.id, p, params, "hypothesis"))
                continue
            try:
                records.append(_record_for(args.id, p, params, cache))
            except HypothesisViolated:
                records.append(
                    ReportRecord.skipped(args.id, p, params, "hypothesis")
                )
    records.sort(key=ReportRecord.sort_key)
    _emit_records(records, args)
    failed = any(r.passed is False for r in records)
    return 1 if failed else 0


def _cmd_bernoulli(args) -> int:
    cache = _cache_from(args)
    b = bernoulli(args.index, cache)
    print(f"{b.numerator}/{b.denominator}")
    return 0


def _cmd_harmonic(args) -> int:
    h = harmonic(args.m, args.n)
    print(f"{h.numerator}/{h.denominator}")
    return 0


def _cmd_irregular_pairs(args) -> int:
    cache = _cache_from(args)
    for p, two_k in irregular_pairs(args.p_max, cache):
        print(f"{p} {two_k}")
    return 0


def _cmd_classify_prime(args) -> int:
    if not is_prime(args.p) or args.p == 2:
        print(f"{args.p} is not an odd prime", file=sys.stderr)
        return 2
    info = classify(args.p)
    print(
        f"p={info.p} wieferich={str(info.is_wieferich).lower()} "
        f"mersenne={str(info.is_mersenne).lower()} fermat_quotient={info.fermat_quotient}"
    )
    return 0


def _cmd_selftest(args) -> int:
    cache = _cache_from(args)
    ok = True
    records = []
    for theorem_id, case, expected, expected_valuation in GOLD_VECTORS:
        p = case["p"]
        params = {k: v for k, v in case.items() if k != "p"}
        record = _record_for(theorem_id, p, params, cache)
        lhs = record.lhs_fraction()
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(emit(records, args.format))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--cache", help="Bernoulli cache file (or HCL_CACHE env)")
    parser = argparse.ArgumentParser(
        prog="hclab",
        description="Exact verification of harmonic-number congruences "
        "modulo prime powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, with_p=True):
        if with_p:
            sp.add_argument("--p", type=int)
        sp.add_argument("--p-min", type=int)
        sp.add_argument("--p-max", type=int)
        sp.add_argument("--n", type=_parse_range)
        sp.add_argument("--k", type=_parse_range)
        sp.add_argument("--i", type=_parse_range)
        sp.add_argument("--h", type=_parse_range)
        sp.add_argument("--j-terms", dest="j_terms", type=_parse_range)
        sp.add_argument("--tier", type=int)

    sp = sub.add_parser("verify", parents=[common], help="run one congruence check")
    sp.add_argument("id")
    add_params(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("scan", parents=[common], help="run a check over a parameter grid")
    sp.add_argument("id")
    add_params(sp)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("bernoulli", parents=[common], help="print an exact Bernoulli number")
    sp.add_argument("index", type=int)
    sp.set_defaults(fn=_cmd_bernoulli)

    sp = sub.add_parser("harmonic", parents=[common], help="print an exact generalized harmonic number")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=_cmd_harmonic)

    sp = sub.add_parser("irregular-pairs", parents=[common], help="list irregular pairs up to a bound")
    sp.add_argument("--p-max", type=int, required=True)
    sp.set_defaults(fn=_cmd_irregular_pairs)

    sp = sub.add_parser("classify-prime", parents=[common], help="Wieferich/Mersenne classification")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(fn=_cmd_classify_prime)

    sp = sub.add_parser("selftest", parents=[common], help="replay the worked gold vectors")
    sp.set_defaults(fn=_cmd_selftest)
    return parser


def run(argv) -> int:
    # Bernoulli numerators near the index ceiling and the left-hand sides of
    # high-order verdicts run past Python's default 4300-digit int<->str
    # limit (added in 3.10.7), both in the cache file and in reports.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except IndexCeilingExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except HclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
