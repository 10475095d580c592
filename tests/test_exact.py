"""Valuations, rational congruences, and the factorial/digit-sum identities."""

import math
from fractions import Fraction

import pytest

from hclab.exact import INFINITE, is_prime, vp, vp_int
from hclab.primes import primes_in

from oracles import (
    NotPIntegral,
    PrimePower,
    check_legendre,
    congruent_mod,
    digit_sum,
    factorial_valuation,
    reduce_mod,
)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known


def test_prime_power_validates():
    assert PrimePower(5, 3).modulus == 125
    with pytest.raises(ValueError):
        PrimePower(6, 2)
    with pytest.raises(ValueError):
        PrimePower(5, 0)


def test_vp_basics():
    assert vp_int(0, 7) == INFINITE
    assert vp_int(250, 5) == 3
    assert vp(Fraction(9, 8), 3) == 2
    assert vp(Fraction(9, 8), 2) == -3
    assert vp(Fraction(0), 11) == INFINITE
    assert vp(12, 2) == 2


def test_vp_is_multiplicative_and_ultrametric():
    values = [Fraction(a, b) for a in range(-9, 10) if a for b in range(1, 10)]
    for p in (2, 3, 5, 7):
        for x in values[::7]:
            for y in values[::5]:
                assert vp(x * y, p) == vp(x, p) + vp(y, p)
                if x + y != 0:
                    lo = min(vp(x, p), vp(y, p))
                    assert vp(x + y, p) >= lo
                    if vp(x, p) != vp(y, p):
                        assert vp(x + y, p) == lo


def test_congruent_mod_rationals():
    m = PrimePower(5, 2)
    assert congruent_mod(Fraction(1, 3), Fraction(77, 6), m)  # diff = -25/2
    assert not congruent_mod(Fraction(1, 3), Fraction(2, 3), m)
    # implied by the stronger congruence
    assert congruent_mod(Fraction(125, 4), 0, PrimePower(5, 3))
    assert congruent_mod(Fraction(125, 4), 0, m)


def test_reduce_mod():
    m = PrimePower(7, 2)
    r = reduce_mod(Fraction(3, 4), m)
    assert (4 * r - 3) % 49 == 0
    assert reduce_mod(10, PrimePower(3, 1)) == 1
    with pytest.raises(NotPIntegral):
        reduce_mod(Fraction(1, 7), m)


def test_digit_sum_and_factorial_valuation():
    assert digit_sum(255, 2) == 8
    assert digit_sum(100, 10) == 1
    assert factorial_valuation(10, 2) == 8
    assert factorial_valuation(100, 5) == 24


def test_legendre_identity_grid():
    primes = primes_in(2, 97)
    for j in range(1, 5001):
        for p in primes:
            assert check_legendre(j, p)


def test_binomial_prime_power_ratio_bound():
    # v_p(p^(j-1) / j!) >= (j-1)(p-2)/(p-1) for j >= 1
    for p in (3, 5, 7, 11):
        for j in range(1, 60):
            v = (j - 1) - factorial_valuation(j, p)
            assert v * (p - 1) >= (j - 1) * (p - 2)


def test_infinite_orders_above_integers():
    assert INFINITE > 10**6
    assert math.isinf(INFINITE)
