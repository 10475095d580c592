"""The one-pass truncation verifiers against the per-length sums they replaced.

Each oracle below sums its series from j = 0 for a single length, as the
verifiers did before a grid of lengths was walked in one pass; the pass must
give the identical left-hand side, exponent and valuation at every length.
"""

import json
import time
from fractions import Fraction
from itertools import count

import pytest

from hclab import congruences as cg
from hclab.cli import run
from hclab.errors import HypothesisViolated
from hclab.exact import binomial, vp
from hclab.harmonic import harmonic
from hclab.primes import fermat_quotient, primes_in, q_series

ODD_PRIMES = primes_in(3, 60)
LENGTHS = list(range(8))


def _require(cond):
    if not cond:
        raise HypothesisViolated


def oracle_expansion(which, k, p, J):
    _require(k >= 1 and J >= 0)
    half = (p - 1) // 2
    if which == "e10ee":
        series = (-1) ** k * sum(
            (binomial(j + k - 1, j) * harmonic(k + j, p - 1) * Fraction(p) ** j
             for j in range(J)),
            Fraction(0),
        )
        lhs = series - harmonic(k, p - 1)
    elif which == "e10eed":
        series = sum(
            (binomial(j + 2 * k - 1, j) * harmonic(2 * k + j, half) * Fraction(p) ** j
             for j in range(1, J)),
            Fraction(0),
        )
        head = 2 * harmonic(2 * k, half) if J >= 1 else Fraction(0)
        lhs = head + series - harmonic(2 * k, p - 1)
    elif which == "e10eee":
        series = (-1) ** k * sum(
            (binomial(j + k - 1, j)
             * Fraction(1, 2 ** (j + k))
             * harmonic(k + j, half)
             * Fraction(p) ** j
             for j in range(1, J)),
            Fraction(0),
        )
        head = (
            Fraction(1 + (-1) ** k, 2**k) * harmonic(k, half) if J >= 1 else Fraction(0)
        )
        lhs = head + series - harmonic(k, p - 1)
    else:
        series = sum(
            (binomial(j + 2 * k - 1, j)
             * Fraction(2 ** (2 * k + j) - 1, 2**j)
             * harmonic(2 * k + j, half)
             * Fraction(p) ** j
             for j in range(1, J)),
            Fraction(0),
        )
        lhs = 2 * (2 ** (2 * k) - 1) * harmonic(2 * k, half) + series
    return lhs, J


def oracle_cor_ee10biss(p, i, k, cache):
    _require(k >= 1)
    lhs = sum(
        (binomial(j + 2 * i, 2 * i)
         * cg.bernoulli(j, cache)
         * harmonic(j + 2 * i + 1, p - 1)
         * Fraction(-p) ** j
         for j in range(k)),
        Fraction(0),
    )
    return lhs, k


def oracle_cor_eecjj(p, J, cache):
    _require(J >= 1)
    half = (p - 1) // 2
    lhs = sum(
        (binomial(j + 1, j + 1)
         * Fraction(2 ** (j + 2) - 1, 2**j)
         * cg.coeff_c(j, cache)
         * harmonic(j + 2, half)
         * Fraction(p) ** j
         for j in range(J)),
        Fraction(0),
    )
    return lhs, J - 1 if (J % 2 == 1 and (J + 1) % (p - 1) == 0) else J


def oracle_thm_ee20(p, n, cache):
    _require(n >= 1)
    half = (p - 1) // 2
    lhs = sum(
        (Fraction(2 ** (j + 1) - 1, j + 1)
         * Fraction(2 ** (j + 2) - 1, j + 2)
         * cg.bernoulli(j + 2, cache)
         * Fraction(2) ** (1 - j)
         * harmonic(j + 1, half)
         * Fraction(p) ** j
         for j in range(n)),
        Fraction(0),
    ) + q_series(fermat_quotient(p), p, n)
    return lhs, n


def check_pass(walk, single, oracle, lengths, p, params):
    """One pass over ``lengths`` against the oracle and the single-length
    verifier at each of them; a length the oracle refuses must be refused."""
    good = [n for n in lengths if _accepts(oracle, n)]
    for n in set(lengths) - set(good):
        with pytest.raises(HypothesisViolated):
            walk([n])
        with pytest.raises(HypothesisViolated):
            single(n)
    timed = walk(good)
    assert len(timed) == len(good)
    for n, (record, ms) in zip(good, timed):
        lhs, exponent = oracle(n)
        where = (record.theorem_id, p, params, n)
        assert record.lhs == lhs, where
        assert record.required_exponent == exponent, where
        assert record.achieved_valuation == vp(lhs, p), where
        assert record.passed == (vp(lhs, p) >= exponent), where
        assert record.elapsed_ms is None and ms >= 0
        assert single(n) == record, where
    return [record for record, _ in timed]


def _accepts(oracle, n):
    try:
        oracle(n)
    except HypothesisViolated:
        return False
    return True


@pytest.mark.parametrize("which", cg.EXPANSION_IDS)
def test_expansion_pass_matches_per_length_sums(which):
    for p in ODD_PRIMES:
        for k in (1, 2, 3):
            records = check_pass(
                lambda Js: cg.verify_expansion_truncations(which, k, p, Js),
                lambda J: cg.verify_expansion_truncation(which, k, p, J),
                lambda J: oracle_expansion(which, k, p, J),
                LENGTHS, p, {"k": k},
            )
            # J = 0 is judged too: the target value alone
            assert records[0].params == {"k": k, "J": 0}


def test_cor_ee10biss_pass_matches_per_length_sums(cache):
    for p in ODD_PRIMES:
        for i in (0, 1, 2, 3):
            records = check_pass(
                lambda ks: cg.verify_cor_ee10biss_truncations(p, i, ks, cache),
                lambda k: cg.verify_cor_ee10biss(p, i, k, cache),
                lambda k: oracle_cor_ee10biss(p, i, k, cache),
                LENGTHS, p, {"i": i},
            )
            assert [r.params["k"] for r in records] == LENGTHS[1:]


def test_cor_eecjj_pass_matches_per_length_sums(cache):
    drops = 0
    for p in ODD_PRIMES:
        records = check_pass(
            lambda Js: cg.verify_cor_eecjj_truncations(p, Js, cache),
            lambda J: cg.verify_cor_eecjj(p, J, cache),
            lambda J: oracle_cor_eecjj(p, J, cache),
            LENGTHS, p, {},
        )
        drops += sum(r.required_exponent == r.params["J"] - 1 for r in records)
    # p = 3 at every odd J, p = 5 at J = 3 and 7, p = 7 at J = 5
    assert drops == 4 + 2 + 1


def test_thm_ee20_pass_matches_per_length_sums(cache):
    for p in ODD_PRIMES:
        check_pass(
            lambda ns: cg.verify_thm_ee20_truncations(p, ns, cache),
            lambda n: cg.verify_thm_ee20(p, n, cache),
            lambda n: oracle_thm_ee20(p, n, cache),
            LENGTHS, p, {},
        )


def test_group_hypothesis_refuses_whole_pass():
    """An even p, or k = 0, fails every length of the pass at once."""
    with pytest.raises(HypothesisViolated, match="needs odd p"):
        cg.verify_expansion_truncations("e10eed", 1, 2, [0, 1, 2])
    with pytest.raises(HypothesisViolated, match="needs k >= 1"):
        cg.verify_expansion_truncations("e10ee", 0, 5, [0, 1, 2])


def test_pass_times_partition_the_pass(monkeypatch):
    """On a clock that ticks one second per read, the records' times add up
    to the whole span from the pass's first clock read to its last."""
    ticks = count()
    monkeypatch.setattr(cg.time, "perf_counter", lambda: next(ticks))
    timed = cg.verify_expansion_truncations("e10eed", 2, 7, [0, 1, 3, 6])
    reads = next(ticks)
    assert [ms > 0 for _, ms in timed] == [True] * 4
    assert sum(ms for _, ms in timed) == 1000.0 * (reads - 1)


# -- the CLI walks each group once ------------------------------------------

_GRIDS = {
    "thm-ee20": ["--n", "0:7"],
    "cor-eecjj": ["--j-terms", "0:5"],
    "cor-ee10biss": ["--i", "0:1", "--k", "0:5"],
    **{f"expansion-{w}": ["--k", "0:2", "--j-terms", "0:4"] for w in cg.EXPANSION_IDS},
}


def _records(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    for r in records:
        r["elapsed_ms"] = None
    return code, records


@pytest.mark.parametrize("theorem_id", sorted(_GRIDS))
def test_scan_records_equal_verify_records(capsys, tmp_path, theorem_id):
    """A scan over a range gives, at each point, the record `verify` gives
    there, timings aside; a point the scan skips is one `verify` refuses or
    the scan's hypothesis filters out."""
    cache = ["--cache", str(tmp_path / "c.cache")]
    _, scanned = _records(
        capsys, ["scan", theorem_id, "--p-min", "2", "--p-max", "13", *_GRIDS[theorem_id], *cache]
    )
    theorem = cg.THEOREMS[theorem_id]
    statuses = set()
    for r in scanned:
        flags = [f"--{'j-terms' if name == 'J' else name}" for name in r["params"]]
        argv = ["verify", theorem_id, "--p", str(r["p"]), *cache]
        for flag, value in zip(flags, r["params"].values()):
            argv += [flag, str(value)]
        code, verified = _records(capsys, argv)
        statuses.add(r["status"])
        if r["status"] == "ok":
            assert code in (0, 1) and verified == [r], argv
        else:
            args = {"j_terms" if name == "J" else name: v for name, v in r["params"].items()}
            assert code == 2 or not theorem.hypothesis(r["p"], args), argv
    assert statuses == {"ok", "skipped-hypothesis"}


_WALKS = [
    # argv, walking verifier, groups, harmonic reads per group
    *((["scan", f"expansion-{w}", "--p-min", "3", "--p-max", "13", "--k", "1:3",
        "--j-terms", "0:6"], "verify_expansion_truncations", 5 * 3, 6 if w == "e10eeeff" else 7)
      for w in cg.EXPANSION_IDS),
    (["scan", "thm-ee20", "--p-min", "5", "--p-max", "13", "--n", "1:6"],
     "verify_thm_ee20_truncations", 4, 6),
    (["scan", "cor-eecjj", "--p-min", "3", "--p-max", "13", "--j-terms", "0:6"],
     "verify_cor_eecjj_truncations", 5, 6),
    (["scan", "cor-ee10biss", "--p-min", "3", "--p-max", "13", "--i", "0:1", "--k", "0:6"],
     "verify_cor_ee10biss_truncations", 5 * 2, 6),
]


@pytest.mark.parametrize("argv,verifier,groups,reads", _WALKS)
def test_scan_walks_each_group_once(capsys, tmp_path, monkeypatch, argv, verifier,
                                    groups, reads):
    """The verifier runs once per group, not once per record; each series
    term reads its harmonic number once; and the records of one pass carry
    times that are >= 0 and add up to no more than the pass took."""
    walk = getattr(cg, verifier)
    passes = []

    def timed_walk(*args, **kwargs):
        t0 = time.perf_counter()
        timed = walk(*args, **kwargs)
        passes.append(((time.perf_counter() - t0) * 1000.0, len(timed)))
        return timed

    harmonic_reads = []

    def counting_harmonic(order, upto):
        harmonic_reads.append((order, upto))
        return harmonic(order, upto)

    monkeypatch.setattr(cg, verifier, timed_walk)
    monkeypatch.setattr(cg, "harmonic", counting_harmonic)
    code = run(argv + ["--cache", str(tmp_path / "c.cache")])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert len(passes) == groups
    assert len(harmonic_reads) == groups * reads
    ok = [r for r in records if r["status"] == "ok"]
    assert sum(n for _, n in passes) == len(ok) > groups
    assert all(r["elapsed_ms"] >= 0 for r in ok)
    # group the records as the passes ran: by p, then by the params not walked
    theorem = cg.THEOREMS[argv[1]]
    fixed = list(theorem.case(dict.fromkeys(theorem.params)))[:-1]
    groups_seen = {}
    for r in ok:
        key = (r["p"], *(r["params"][name] for name in fixed))
        groups_seen.setdefault(key, []).append(r["elapsed_ms"])
    for (pass_ms, n), key in zip(passes, sorted(groups_seen)):
        times = groups_seen[key]
        # each record's time is rounded to the microsecond
        assert len(times) == n and sum(times) <= pass_ms + 0.001 * n, key
