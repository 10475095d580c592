"""Verdict engine: every verifier against its worked values, tier resolution,
and the cross-theorem consistency properties."""

from fractions import Fraction

import pytest

from hclab import congruences as cg
from hclab.errors import HypothesisViolated
from hclab.exact import vp
from hclab.primes import primes_in

from oracles import coeff_a, coeff_c, coeff_z


def test_coefficients(cache):
    assert coeff_c(0, cache) == Fraction(1, 3)
    assert coeff_c(1, cache) == Fraction(1, 3)
    assert coeff_a(1, cache) == Fraction(-1, 6)
    assert coeff_z(5, 2, 1, cache) == Fraction(cg.bernoulli(18, cache), 2)


def test_wolstenholme():
    v = cg.verify_case("wolstenholme", 5, {}, None)
    assert v.passed and v.lhs == Fraction(25, 12) and v.achieved_valuation == 2
    assert cg.verify_case("wolstenholme", 13, {}, None).passed
    with pytest.raises(HypothesisViolated):
        cg.verify_case("wolstenholme", 3, {}, None)


def test_wolstenholme_refined():
    assert cg.verify_case("wolstenholme-refined", 7, {}, None).passed
    assert cg.verify_case("wolstenholme-refined", 11, {}, None).passed
    with pytest.raises(HypothesisViolated):
        cg.verify_case("wolstenholme-refined", 5, {}, None)


def test_eisenstein_and_lehmer():
    v = cg.verify_case("eisenstein", 5, {}, None)
    # H_2 + 2 q_5 = 3/2 + 6 = 15/2
    assert v.lhs == Fraction(15, 2) and v.passed
    assert cg.verify_case("lehmer", 7, {}, None).passed
    assert cg.verify_case("lehmer", 3, {}, None).passed


def test_expansion_spec_points():
    for which in cg.EXPANSION_IDS:
        for k in (1, 2, 3):
            for p in (5, 7, 11, 31):
                for J in range(7):
                    v = cg.verify_case(f"expansion-{which}", p, {"k": k, "J": J}, None)
                    assert v.passed, (which, k, p, J)


def test_expansion_certified_order_monotone():
    for which in cg.EXPANSION_IDS:
        for k in (1, 2, 3):
            for p in (5, 13, 31):
                vals = [
                    cg.verify_case(f"expansion-{which}", p, {"k": k, "J": J},
                                   None).achieved_valuation
                    for J in range(7)
                ]
                certified = [min(v, J) for J, v in enumerate(vals)]
                assert certified == list(range(7)), (which, k, p, vals)


def test_remark_congruences():
    for theorem_id in (f"cor-remark0-{idx}" for idx in range(1, len(cg.REMARK0_IDS) + 1)):
        for k in (1, 2, 3):
            for p in (5, 7, 11, 13, 31):
                v = cg.verify_case(theorem_id, p, {"k": k}, None)
                assert v.passed, (theorem_id, k, p)
                assert v.theorem_id == theorem_id


def test_bernoulli_valued_congruences(cache):
    for theorem_id in (f"prop3-{idx}" for idx in range(1, len(cg.PROP3_IDS) + 1)):
        for k in (1, 2, 3):
            for p in primes_in(2 * k + 3, 31):
                v = cg.verify_case(theorem_id, p, {"k": k}, cache)
                assert v.passed, (theorem_id, k, p)
                assert v.theorem_id == theorem_id
    # prop3-4 (e9bbs) additionally admits p = 2k+1, prop3-1 (e8bbf) does not
    assert cg.verify_case("prop3-4", 5, {"k": 2}, cache).passed
    with pytest.raises(HypothesisViolated):
        cg.verify_case("prop3-1", 5, {"k": 2}, cache)


def test_ee10bis_gold_vector(cache):
    v = cg.verify_case("thm-ee10bis", 37, {"n": 0, "i": 0}, cache)
    assert v.tier == 5 and v.required_exponent == 5
    assert v.achieved_valuation == 5 and v.passed
    assert v.lhs.numerator == 1422091936194747472864459922257
    assert (
        v.lhs.numerator
        == 37**5 * 1123 * 9133 * 1999520400972139
    )


def test_ee10bis_tier_resolution(cache):
    # irregular pair (37, 32) lifts p=37, n=0, i=0 to the top tier
    assert cg.verify_case("thm-ee10bis", 37, {"n": 0, "i": 0}, cache).tier == 5
    assert cg.verify_case("thm-ee10bis", 11, {"n": 1, "i": 0}, cache).tier == 4
    assert cg.verify_case("thm-ee10bis", 11, {"n": 1, "i": 0}, cache).required_exponent == 6
    assert cg.verify_case("thm-ee10bis", 13, {"n": 2, "i": 0}, cache).required_exponent == 8
    assert cg.verify_case("thm-ee10bis", 2, {"n": 0, "i": 0}, cache).tier == 1
    assert cg.verify_case("thm-ee10bis", 3, {"n": 3, "i": 0}, cache).tier == 3


def test_ee10bis_grid_and_lower_tiers(cache):
    for p in primes_in(2, 50):
        for n in range(3):
            for i in range(3):
                v = cg.verify_case("thm-ee10bis", p, {"n": n, "i": i}, cache)
                assert v.tier in range(1, 6), (p, n, i)
                # every rung below the resolved tier then passes too
                assert v.passed, (p, n, i)


def test_eecj_gold_vectors(cache):
    v = cg.verify_case("thm-eecj", 37, {"n": 1, "i": 1}, cache)
    assert v.lhs.numerator == 9356942544006649495921
    assert v.lhs.numerator == 19 * 37**4 * 262768598968219
    assert v.achieved_valuation == 4 and v.passed

    v = cg.verify_case("thm-eecj", 31, {"n": 1, "i": 1}, cache)
    assert v.lhs.numerator == 1804176116127398723
    assert v.lhs.numerator == 31**4 * 619 * 809 * 3901153
    assert v.achieved_valuation == 4 and v.passed

    v = cg.verify_case("thm-eecj", 5, {"n": 1, "i": 2}, cache)
    assert v.lhs == Fraction(3**2 * 5**4, 2**5)
    assert v.achieved_valuation == 4 and v.passed


def test_eecj_grid(cache):
    for p in primes_in(3, 50):
        for n in (1, 2):
            for i in (1, 2):
                v = cg.verify_case("thm-eecj", p, {"n": n, "i": i}, cache)
                assert v.tier in range(0, 3), (p, n, i)
                assert v.passed, (p, n, i)


def test_truncation_corollaries(cache):
    for p in (5, 7, 11, 31):
        for k in range(1, 6):
            assert cg.verify_case("cor-ee10biss", p, {"i": 0, "k": k}, cache).passed
            assert cg.verify_case("cor-ee10biss", p, {"i": 1, "k": k}, cache).passed
            assert cg.verify_case("cor-eecjj", p, {"J": k}, cache).passed
    with pytest.raises(HypothesisViolated):  # C(j+2i, 2i) needs i >= 0
        cg.verify_case("cor-ee10biss", 5, {"i": -1, "k": 2}, cache)


def test_prop41(cache):
    assert cg.verify_case("prop41", 5, {"n": 1}, cache).passed
    assert cg.verify_case("prop41", 5, {"n": 3}, cache).passed
    assert cg.verify_case("prop41", 3, {"n": 2}, cache).passed  # p = n+1, delta active
    assert cg.verify_case("prop41", 7, {"n": 4}, cache).passed
    with pytest.raises(HypothesisViolated):
        cg.verify_case("prop41", 3, {"n": 6}, cache)


def test_prop42(cache):
    assert cg.verify_case("prop42", 5, {"n": 3, "h": 1}, cache).passed
    assert cg.verify_case("prop42", 7, {"n": 3, "h": 1}, cache).passed
    v = cg.verify_case("prop42", 5, {"n": 2, "h": 1}, cache)
    assert v.required_exponent == 1 and v.passed
    with pytest.raises(HypothesisViolated):
        cg.verify_case("prop42", 5, {"n": 2, "h": 2}, cache)


def test_ee20_sharpness(cache):
    v = cg.verify_case("thm-ee20", 3, {"n": 5}, cache)
    assert not v.passed
    assert v.achieved_valuation == 4
    assert 2 * v.lhs == Fraction(4293, 80)
    assert 4293 == 3**4 * 53


def test_ee20_matches_low_order_theorems(cache):
    for p in primes_in(3, 97):
        assert (
            cg.verify_case("thm-ee20", p, {"n": 1}, cache).passed
            == cg.verify_case("eisenstein", p, {}, None).passed
        )
        assert (
            cg.verify_case("thm-ee20", p, {"n": 2}, cache).passed
            == cg.verify_case("lehmer", p, {}, None).passed
        )


def test_ee20_series_coefficients(cache):
    # doubled j=2 and j=4 coefficients of the B/H series
    def coeff(j):
        return (
            2
            * Fraction(2 ** (j + 1) - 1, j + 1)
            * Fraction(2 ** (j + 2) - 1, j + 2)
            * cg.bernoulli(j + 2, cache)
            * Fraction(2) ** (1 - j)
        )

    assert coeff(2) == Fraction(-7, 24)
    assert coeff(4) == Fraction(31, 80)


def test_eq47(cache):
    assert cg.verify_case("eq47", 5, {"n": 2}, cache).passed
    assert cg.verify_case("eq47", 3, {"n": 2}, cache).passed
    assert cg.verify_case("eq47", 7, {"n": 4}, cache).passed
    with pytest.raises(HypothesisViolated):
        cg.verify_case("eq47", 5, {"n": 3}, cache)


def test_sun(cache):
    assert cg.verify_case("sun", 5, {}, cache).passed
    assert cg.verify_case("sun", 11, {}, cache).passed
    with pytest.raises(HypothesisViolated):
        cg.verify_case("sun", 3, {}, cache)


def test_verdict_internal_consistency(cache):
    for v in (
        cg.verify_case("wolstenholme", 7, {}, None),
        cg.verify_case("thm-eecj", 7, {"n": 1, "i": 1}, cache),
        cg.verify_case("thm-ee20", 3, {"n": 5}, cache),
    ):
        assert v.passed == (vp(v.lhs, v.p) >= v.required_exponent)
