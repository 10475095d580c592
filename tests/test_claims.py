"""Sharp cases of the claimed exponents: on each case the achieved valuation
equals the required exponent, so lowering the exponent, or raising it, fails
here.  Each case runs through the theorem table, as `verify` does, and pins
the exact left-hand side, taken where possible from routes the package does
not use: Bernoulli numbers from Brent and Harvey's tangent triangle,
harmonic numbers summed term by term and Fermat quotients divided out here."""

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


def _q(p: int) -> int:
    """The Fermat quotient q_p = (2^(p-1) - 1)/p."""
    assert (2 ** (p - 1) - 1) % p == 0
    return (2 ** (p - 1) - 1) // p


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
    ("wolstenholme-refined", 7, {}, _harmonic(1, 6) + Fraction(7, 2) * _harmonic(2, 6),
     Fraction(55223, 7200), 4),
    ("eisenstein", 5, {}, _harmonic(1, 2) + 2 * _q(5), Fraction(15, 2), 1),
    ("lehmer", 5, {}, _harmonic(1, 2) + 2 * _q(5) - 5 * _q(5) ** 2, Fraction(-75, 2), 2),
    ("cor-remark0-1", 5, {"k": 2}, _harmonic(3, 4), Fraction(2035, 1728), 1),
    # H^(2k-1)_{p-1} + p(2k-1) H^(2k)_{(p-1)/2}
    ("cor-remark0-2", 3, {"k": 1}, _harmonic(1, 2) + 3 * _harmonic(2, 1), Fraction(9, 2), 2),
    # H^(2k)_{p-1} - 2 H^(2k)_{(p-1)/2} - 2kp H^(2k+1)_{(p-1)/2}
    ("cor-remark0-4", 3, {"k": 2}, _harmonic(4, 2) - 2 * _harmonic(4, 1) - 12 * _harmonic(5, 1),
     Fraction(-207, 16), 2),
    # 2 H^(2k)_{(p-1)/2} - (2^(2k+1) - 1) H^(2k)_{p-1}
    ("cor-remark0-6", 3, {"k": 2}, 2 * _harmonic(4, 1) - 31 * _harmonic(4, 2),
     Fraction(-495, 16), 2),
    # H^(2k)_{p-1} - p 2k/(2k+1) B_{p-1-2k}
    ("prop3-1", 7, {"k": 1}, _harmonic(2, 6) - 7 * Fraction(2, 3) * _bernoulli(4),
     Fraction(5929, 3600), 2),
    # H^(2k)_{(p-1)/2} - p k(2^(2k+1) - 1)/(2k+1) B_{p-1-2k}
    ("prop3-2", 5, {"k": 1}, _harmonic(2, 2) - 5 * Fraction(7, 3) * _bernoulli(2),
     Fraction(-25, 36), 2),
    # H^(2k-1)_{p-1} + p^2 k(2k-1)/(2k+1) B_{p-1-2k}
    ("prop3-3", 7, {"k": 1}, _harmonic(1, 6) + 7**2 * Fraction(1, 3) * _bernoulli(4),
     Fraction(343, 180), 3),
    # H^(2k+1)_{(p-1)/2} - 2(1 - 4^k)/(2k+1) B_{p-1-2k}
    ("prop3-4", 5, {"k": 1}, _harmonic(3, 2) + 2 * _bernoulli(2), Fraction(35, 24), 1),
    # H_{(p-1)/2} + 2(q - p q^2/2) + (B_{p(p-1)-2}/2) (2^3 - 1) (p/2)^2 at n = 2
    ("prop41", 5, {"n": 2},
     _harmonic(1, 2) + 2 * (_q(5) - Fraction(5 * _q(5) ** 2, 2))
     + _bernoulli(18) / 2 * 7 * Fraction(5, 2) ** 2,
     Fraction(1062475, 912), 2),
    ("sun", 7, {},
     _harmonic(1, 3) + Fraction(7, 12) * _bernoulli(4) * 7**2
     + 2 * (_q(7) - Fraction(_q(7) ** 2 * 7, 2) + Fraction(_q(7) ** 3 * 7**2, 3)),
     Fraction(8375717, 360), 3),
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
