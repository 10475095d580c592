"""Acceptance suite: twelve end-to-end criteria, one printed verdict line
each.  The lines bypass pytest capture so they always appear on the
terminal."""

import random
import time
from fractions import Fraction

import pytest

from hclab import congruences as cg
from hclab.bernoulli import (
    CEILING,
    BernoulliCache,
    irregular_pairs,
    von_staudt_denominator,
)
from hclab.harmonic import harmonic
from hclab.primes import primes_in

from oracles import (
    PrimePower,
    check_fermat_expansion,
    check_lemma_binom,
    check_lemma_binomial_sums,
    check_lemma_tangent_identity,
    check_lemma_weighted_sums,
    check_recurrence,
    harmonic_mod,
    reduce_mod,
)


@pytest.fixture()
def report(capsys):
    def _report(criterion: int, ok: bool, detail: str):
        with capsys.disabled():
            print(f"acceptance {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {criterion}: {detail}"

    return _report


def test_criterion_1_gold_vector_a(cache, report):
    t0 = time.perf_counter()
    v = cg.verify_case("thm-ee10bis", 37, {"n": 0, "i": 0}, cache)
    elapsed = time.perf_counter() - t0
    ok = (
        v.lhs.numerator == 1422091936194747472864459922257
        and v.lhs.numerator == 37**5 * 1123 * 9133 * 1999520400972139
        and v.achieved_valuation == 5
        and v.passed
        and elapsed < 1.0
    )
    report(1, ok, f"p=37 full-index sum, numerator and v=5 exact, {elapsed:.3f}s")


def test_criterion_2_gold_vector_b(cache, report):
    t0 = time.perf_counter()
    v = cg.verify_case("thm-eecj", 37, {"n": 1, "i": 1}, cache)
    elapsed = time.perf_counter() - t0
    ok = (
        v.lhs.numerator == 9356942544006649495921
        and v.lhs.numerator == 19 * 37**4 * 262768598968219
        and v.achieved_valuation == 4
        and v.passed
        and elapsed < 1.0
    )
    report(2, ok, f"p=37 half-index sum, numerator and v=4 exact, {elapsed:.3f}s")


def test_criterion_3_gold_vector_c(cache, report):
    t0 = time.perf_counter()
    v = cg.verify_case("thm-eecj", 31, {"n": 1, "i": 1}, cache)
    elapsed = time.perf_counter() - t0
    ok = (
        v.lhs.numerator == 1804176116127398723
        and v.lhs.numerator == 31**4 * 619 * 809 * 3901153
        and v.achieved_valuation == 4
        and v.passed
        and elapsed < 1.0
    )
    report(3, ok, f"p=31 half-index sum, numerator and v=4 exact, {elapsed:.3f}s")


def test_criterion_4_gold_vector_d(cache, report):
    t0 = time.perf_counter()
    v = cg.verify_case("thm-eecj", 5, {"n": 1, "i": 2}, cache)
    elapsed = time.perf_counter() - t0
    ok = (
        v.lhs == Fraction(3**2 * 5**4, 2**5)
        and v.achieved_valuation == 4
        and v.passed
        and elapsed < 1.0
    )
    report(4, ok, f"p=5 value 5625/32 exact, {elapsed:.3f}s")


def test_criterion_5_sharpness(cache, report):
    v = cg.verify_case("thm-ee20", 3, {"n": 5}, cache)
    ok = (
        not v.passed
        and v.achieved_valuation == 4
        and 2 * v.lhs == Fraction(4293, 80)
    )
    report(5, ok, "p=3 n=5 fails at v=4 with doubled value 4293/80")


def test_criterion_6_final_theorem_grid(cache, report):
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for p in primes_in(3, 99):
        for n in range(1, 7):
            if 2 * p > n + 1:
                cases += 1
                ok = ok and cg.verify_case("thm-ee20", p, {"n": n}, cache).passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(6, ok, f"{cases} grid cases all pass, {elapsed:.1f}s")


def test_criterion_7_classical_sweeps(cache, report):
    t0 = time.perf_counter()
    ok = all(cg.verify_case("wolstenholme", p, {}, None).passed for p in primes_in(5, 299))
    ok = ok and all(
        cg.verify_case("wolstenholme-refined", p, {}, None).passed for p in primes_in(7, 299)
    )
    ok = ok and all(cg.verify_case("eisenstein", p, {}, None).passed for p in primes_in(3, 299))
    ok = ok and all(cg.verify_case("lehmer", p, {}, None).passed for p in primes_in(3, 299))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(7, ok, f"four classical sweeps to p<300, {elapsed:.1f}s")


def test_criterion_8_tier_ladder(cache, report):
    ok = True
    for p in primes_in(2, 49):
        for n in range(3):
            for i in range(3):
                ok = ok and cg.verify_case("thm-ee10bis", p, {"n": n, "i": i}, cache).passed
    v = cg.verify_case("thm-ee10bis", 11, {"n": 1, "i": 0}, cache)
    ok = ok and v.required_exponent == 6 and v.passed
    v = cg.verify_case("thm-ee10bis", 13, {"n": 2, "i": 0}, cache)
    ok = ok and v.required_exponent == 8 and v.passed
    report(8, ok, "ladder p<50 n<=2 i<=2; exponent-6 and exponent-8 instances")


def test_criterion_9_lemma_suites(report):
    cold = BernoulliCache()  # timing budget is for a cold cache
    t0 = time.perf_counter()
    ok = all(check_recurrence(n, cold) for n in range(601))
    ok = ok and all(cold.get(n) == 0 for n in range(3, 601, 2))
    ok = ok and all(
        cold.get(n).denominator == von_staudt_denominator(n)
        for n in range(2, 601, 2)
    )
    ok = ok and all(check_lemma_binomial_sums(k, cold) for k in range(1, 51))
    ok = ok and all(check_lemma_weighted_sums(k, cold) for k in range(1, 51))
    ok = ok and all(check_lemma_tangent_identity(k, cold) for k in range(1, 31))
    for p in primes_in(2, 31):
        for n in range(1, 4):
            for i in range(5):
                for j in range(7):
                    if p ** (n - 1) * (p - 1) - i >= j:
                        ok = ok and check_lemma_binom(p, n, i, j)
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)):
        big = p ** (n - 1) * (p - 1)
        for h in range(0, min(4, (big - 2) // 2 + 1)):
            ok = ok and cg.verify_case("lemma-pb-1", p, {"n": n}, cold).passed
            if h >= 1:
                ok = ok and cg.verify_case("lemma-pb-2", p, {"n": n, "h": h}, cold).passed
    for p in primes_in(3, 101):
        for n in range(1, 7):
            if 2 * p > n + 1:
                ok = ok and check_fermat_expansion(p, n)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    report(9, ok, f"identity and congruence lemma grids, {elapsed:.1f}s cold")


def test_criterion_10_oracle_equivalence(report):
    rng = random.Random(20240817)
    primes = primes_in(3, 101)
    agree = 0
    for _ in range(500):
        p = rng.choice(primes)
        m = rng.randint(1, 6)
        n = rng.randint(0, p - 1)
        e = rng.randint(1, 5)
        pp = PrimePower(p, e)
        if harmonic_mod(m, n, pp) == reduce_mod(harmonic(m, n), pp):
            agree += 1
    report(10, agree == 500, f"{agree}/500 random modular/exact agreements")


def test_criterion_11_truncation_order(report):
    ok = True
    for which in cg.EXPANSION_IDS:
        for k in (1, 2, 3):
            for p in primes_in(3, 31):
                vals = [
                    cg.verify_case(f"expansion-{which}", p, {"k": k, "J": J},
                                   None).achieved_valuation
                    for J in range(7)
                ]
                ok = ok and all(v >= J for J, v in enumerate(vals))
                # the certified order min(v, J) is monotone in J; the raw
                # valuation itself can dip while staying above the floor
                certified = [min(v, J) for J, v in enumerate(vals)]
                ok = ok and certified == sorted(certified)
    report(11, ok, "four expansions: valuation >= J, certified order monotone")


def test_criterion_12_odd_order_results(cache, report):
    ok = True
    for p in primes_in(3, 13):
        for n in range(1, 4):
            if 2 * p <= n + 1 or p ** (n - 1) * (p - 1) > CEILING:
                continue
            ok = ok and cg.verify_case("prop41", p, {"n": n}, cache).passed
            for h in range(1, (n + 2) // 2):  # 2h < n+1
                ok = ok and cg.verify_case("prop42", p, {"n": n, "h": h}, cache).passed
            if n % 2 == 0:
                ok = ok and cg.verify_case("eq47", p, {"n": n}, cache).passed
    expected = [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24),
                (131, 22), (149, 130)]
    ok = ok and irregular_pairs(150, cache) == expected
    report(12, ok, "odd-order propositions p<=13 n<=3 and irregular pairs to 150")
