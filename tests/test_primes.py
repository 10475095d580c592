"""Sieve, Fermat quotients, prime classification, and the arithmetic lemmas."""

from fractions import Fraction

import pytest

from hclab import congruences as cg
from hclab.errors import HypothesisViolated
from hclab.exact import is_prime
from hclab.primes import (
    classify,
    fermat_quotient,
    largest_prime,
    primes_in,
)

from oracles import check_fermat_expansion, check_lemma_binom

WINDOWS = [(5, 4), (-3, 0), (0, 2), (2, 3), (3, 3), (0, 50), (2, 121), (90, 121),
           (121, 121), (113, 169), (1000, 1369), (9000, 9400)]


def test_primes_in():
    assert primes_in(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in(10, 20) == [11, 13, 17, 19]
    assert primes_in(20, 10) == []
    assert primes_in(-5, 1) == []


@pytest.mark.parametrize("lo,hi", WINDOWS)
def test_primes_in_window_matches_filter(lo, hi):
    """Window edges: lo > hi, lo <= 2, hi < 4 and perfect-square hi."""
    assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


@pytest.mark.parametrize("lo,hi", WINDOWS + [(24, 28), (10**12 - 120, 10**12 - 1)])
def test_largest_prime_is_the_window_maximum(lo, hi):
    assert largest_prime(lo, hi) == max(primes_in(lo, hi), default=None)


def test_primes_in_window_near_primality_limit():
    """Only the window is sieved, so a window just below 10^12 is cheap."""
    lo, hi = 10**12 - 120, 10**12 - 1
    assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_fermat_quotient_values():
    assert fermat_quotient(3) == 1
    assert fermat_quotient(5) == 3
    assert fermat_quotient(7) == 9
    assert fermat_quotient(11) == 93
    with pytest.raises(HypothesisViolated):
        fermat_quotient(2)
    with pytest.raises(HypothesisViolated):
        fermat_quotient(9)


def test_quotient_definition_holds():
    for p in primes_in(3, 500):
        assert 2 ** (p - 1) == 1 + p * fermat_quotient(p)


def test_classify():
    c = classify(1093)
    assert c.is_wieferich and not c.is_mersenne
    c = classify(3511)
    assert c.is_wieferich
    c = classify(31)
    assert c.is_mersenne and not c.is_wieferich
    c = classify(127)
    assert c.is_mersenne
    c = classify(13)
    assert not c.is_wieferich and not c.is_mersenne


def test_lemma_binom_examples():
    assert check_lemma_binom(5, 1, 0, 0)  # modulus 1, trivially true
    assert check_lemma_binom(5, 2, 1, 3)
    assert check_lemma_binom(7, 3, 2, 4)


def test_lemma_binom_grid():
    for p in primes_in(2, 31):
        for n in range(1, 4):
            for i in range(5):
                for j in range(7):
                    if p ** (n - 1) * (p - 1) - i >= j:
                        assert check_lemma_binom(p, n, i, j)


def test_lemma_pB_examples(cache):
    """The two p*B congruences as the lemma-pb-1 and lemma-pb-2 verdicts,
    exact where the values are small enough to write down."""
    v = cg.verify_case("lemma-pb-1", 5, {"n": 2}, cache)  # 5 B_20 - 4, B_20 = -174611/330
    assert v.passed and v.lhs == Fraction(-174875, 66) and v.achieved_valuation == 3
    v = cg.verify_case("lemma-pb-2", 3, {"n": 2, "h": 1}, cache)  # 3 B_4 - H^(2)_2 = -1/10 - 5/4
    assert v.passed and v.lhs == Fraction(-27, 20) and v.achieved_valuation == 3
    assert cg.verify_case("lemma-pb-1", 7, {"n": 1}, cache).passed
    assert cg.verify_case("lemma-pb-2", 7, {"n": 1, "h": 1}, cache).passed
    for refused in (lambda: cg.verify_case("lemma-pb-1", 2, {"n": 1}, cache),  # p = 2
                    lambda: cg.verify_case("lemma-pb-1", 5, {"n": 0}, cache),
                    lambda: cg.verify_case("lemma-pb-2", 7, {"n": 1, "h": 0}, cache),
                    # would read B_0
                    lambda: cg.verify_case("lemma-pb-2", 7, {"n": 1, "h": 3}, cache)):
        with pytest.raises(HypothesisViolated):
            refused()


def test_lemma_pB_small_grid(cache):
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2),
                 (11, 1), (13, 1)):
        big = p ** (n - 1) * (p - 1)
        assert cg.verify_case("lemma-pb-1", p, {"n": n}, cache).passed
        for h in range(1, min(4, (big - 2) // 2 + 1)):
            assert cg.verify_case("lemma-pb-2", p, {"n": n, "h": h}, cache).passed


def test_fermat_expansion_examples():
    assert check_fermat_expansion(3, 1)
    assert check_fermat_expansion(5, 2)
    assert check_fermat_expansion(3, 2)  # p = n + 1, delta term active


def test_fermat_expansion_grid():
    for p in primes_in(3, 101):
        for n in range(1, 7):
            if 2 * p > n + 1:
                assert check_fermat_expansion(p, n)


def test_fermat_expansion_hypothesis():
    with pytest.raises(HypothesisViolated):
        check_fermat_expansion(3, 6)
