"""Sharp cases of the claimed exponents: on each case the achieved valuation
equals the required exponent, so lowering the exponent, or raising it, fails
here.  Each case runs through the theorem table, as `verify` does, and pins
the exact left-hand side, taken where possible from routes the package does
not use: Bernoulli numbers from Brent and Harvey's tangent triangle and
harmonic numbers summed term by term."""

from fractions import Fraction

import pytest

from hclab import congruences as cg

from oracles import tangent_triangle


def _bernoulli(index: int) -> Fraction:
    """B_index for even index >= 2: (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    n = index // 2
    return Fraction((-1) ** (n - 1) * 2 * n * tangent_triangle(n)[n], 4**n * (4**n - 1))


def _harmonic(order: int, upto: int) -> Fraction:
    return sum((Fraction(1, j**order) for j in range(1, upto + 1)), Fraction(0))


def _valuation(x: Fraction, p: int) -> int:
    """v_p of a nonzero rational whose denominator p does not divide."""
    assert x and x.denominator % p
    v, num = 0, x.numerator
    while num % p == 0:
        v, num = v + 1, num // p
    return v


# (theorem id, p, params, exact left-hand side, its exact value, sharp exponent)
_SHARP = [
    # p^n (2^(n+1) - 1)/2^n B_{p^(n-1)(p-1)-n}/n at n = 2, where delta and
    # the sum over h are empty
    ("eq47", 5, {"n": 2}, 5**2 * Fraction(7, 4) * _bernoulli(18) / 2,
     Fraction(1096675, 912), 2),
    ("lemma-pb-1", 7, {"n": 2}, 7 * _bernoulli(42) - 6,
     Fraction(1520097643918070801143, 258), 2),
    ("lemma-pb-2", 5, {"n": 1, "h": 1}, 5 * _bernoulli(2) - _harmonic(2, 4),
     Fraction(-85, 144), 1),
    # h != k: the h = k cases have lhs 0 and test nothing
    ("kummer", 11, {"h": 2, "k": 12}, _bernoulli(2) / 2 - _bernoulli(12) / 12,
     Fraction(3421, 32760), 1),
]


@pytest.mark.parametrize("theorem_id, p, args, lhs, value, exponent", _SHARP,
                         ids=[case[0] for case in _SHARP])
def test_sharp_case(cache, theorem_id, p, args, lhs, value, exponent):
    assert lhs == value and _valuation(value, p) == exponent
    record = cg.THEOREMS[theorem_id].run(p, dict(args), cache)
    assert (record.theorem_id, record.p, record.params) == (theorem_id, p, args)
    assert record.lhs == value
    assert record.required_exponent == record.achieved_valuation == exponent
    assert record.tier is None and record.passed is True
