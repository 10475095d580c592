"""The verdict engine: one verifier per congruence claim, each judging one case.

Every verifier computes its left-hand side exactly, takes the p-adic
valuation, and compares against the claimed modulus exponent, which its
`THEOREMS` row states, and nothing else does.  Theorems whose strength
depends on side conditions (the tier ladders) resolve the largest provable
tier first, then judge the congruence at that tier.  Verifiers that
truncate a series read it through one running sum, `_truncated`: a case on
the series read last, at no shorter a length, extends that sum, so cases
taken in ascending length add each term once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import count, islice
from math import comb
from typing import NamedTuple

from .bernoulli import CEILING, BernoulliCache, bernoulli, is_irregular_pair
from .errors import HypothesisViolated, IndexCeilingExceeded
from .exact import vp
from .harmonic import harmonic
from .primes import fermat_quotient, q_series, q_terms
from .report import ReportRecord

# The paper's equation labels in id order, remark0's and prop3's with exponents.
EXPANSION_IDS = ("e10ee", "e10eed", "e10eee", "e10eeeff")
REMARK0_IDS = {"e10eeez": 1, "e10eeezz": 2, "e9a": 2, "e10eeea": 2, "e10eeee": 2,
               "e10eeeb": 2}
PROP3_IDS = {"e8bbf": 2, "e10eeeb1": 2, "e9bb": 3, "e9bbs": 1}


def _verdict(theorem_id, p, lhs, tier=None, **params) -> ReportRecord:
    required = THEOREMS[theorem_id].exponent(p, params, tier)
    v = vp(lhs, p)
    return ReportRecord(theorem_id, p, params, required_exponent=required,
                        achieved_valuation=v, tier=tier, passed=v >= required, lhs=lhs)


def _require(cond: bool, msg: str):
    if not cond:
        raise HypothesisViolated(msg)


# The series read last: (key, length, its left-hand side there, its unread terms).
# Process-wide, like the harmonic cursors: the key holds everything a sum
# depends on, so a caller can only ever extend a sum it would have computed.
_running: tuple | None = None


def _truncated(key: tuple, series: Iterator[Fraction], length: int) -> Fraction:
    """The left-hand side of the series named ``key`` at ``length`` terms.

    ``series`` yields the left-hand side at length 0, then the terms j = 0,
    1, ...; ``key`` names everything they depend on, the cache object
    included.  If the series read last has this key and a length no greater,
    its sum is extended and ``series`` is never started; otherwise the sum
    restarts from ``series``.  The slot is cleared before summing, so a sum
    that raises leaves nothing stale behind.
    """
    global _running
    last, _running = _running, None
    if last is not None and last[0] == key and last[1] <= length:
        _, done, lhs, series = last
    else:
        done, lhs = 0, next(series)
    lhs = sum(islice(series, length - done), lhs)
    _running = (key, length, lhs, series)
    return lhs


# -- coefficient families -----------------------------------------------------


def coeff_c(j: int, cache: BernoulliCache) -> Fraction:
    """2 B_{j+2} + (-1)^j B_{j+1} + 1/2; equals 1/3 at j = 0 and j = 1."""
    return (
        2 * bernoulli(j + 2, cache)
        + (-1) ** j * bernoulli(j + 1, cache)
        + Fraction(1, 2)
    )


def coeff_a(h: int, cache: BernoulliCache) -> Fraction:
    """4 (2^(2h+2) - 1) B_{2h+2} / ((2h+1)(2h+2)); equals -1/6 at h = 1."""
    return Fraction(4 * (2 ** (2 * h + 2) - 1), (2 * h + 1) * (2 * h + 2)) * bernoulli(
        2 * h + 2, cache
    )


def _power_index(p: int, n: int, h: int) -> int:
    """p^(n-1)(p-1) - 2h, the Bernoulli index of coeff_z and the p-power
    lemmas.  From n - 1 >= (CEILING + 2h).bit_length() on it is at least
    2^(n-1) - 2h > CEILING, and is refused without building the power: at
    p = 3, n = 10^7 that alone took 3-4 s, before any digit was written."""
    if n - 1 >= (CEILING + 2 * h).bit_length():
        less = f" - {2 * h}" if h else ""
        raise IndexCeilingExceeded(
            f"needs Bernoulli index {p}^{n - 1}*{p - 1}{less}, beyond ceiling {CEILING}"
        )
    return p ** (n - 1) * (p - 1) - 2 * h


def coeff_z(p: int, n: int, h: int, cache: BernoulliCache) -> Fraction:
    """B_{p^(n-1)(p-1) - 2h} / (2h)."""
    return bernoulli(_power_index(p, n, h), cache) / (2 * h)


# -- classical congruences ----------------------------------------------------


def verify_wolstenholme(p: int) -> ReportRecord:
    """H_{p-1} == 0 (mod p^2) for p >= 5."""
    _require(p >= 5, "needs p >= 5")
    return _verdict("wolstenholme", p, harmonic(1, p - 1))


def verify_wolstenholme_refined(p: int) -> ReportRecord:
    """H_{p-1} + (p/2) H^(2)_{p-1} == 0 (mod p^4) for p >= 7."""
    _require(p >= 7, "needs p >= 7")
    lhs = harmonic(1, p - 1) + Fraction(p, 2) * harmonic(2, p - 1)
    return _verdict("wolstenholme-refined", p, lhs)


def verify_eisenstein(p: int) -> ReportRecord:
    """H_{(p-1)/2} + 2 q_p == 0 (mod p) for odd p."""
    _require(p >= 3, "needs an odd prime")
    lhs = harmonic(1, (p - 1) // 2) + 2 * fermat_quotient(p)
    return _verdict("eisenstein", p, lhs)


def verify_lehmer(p: int) -> ReportRecord:
    """H_{(p-1)/2} + 2 q_p - p q_p^2 == 0 (mod p^2) for odd p."""
    _require(p >= 3, "needs an odd prime")
    q = fermat_quotient(p)
    lhs = harmonic(1, (p - 1) // 2) + 2 * q - p * q * q
    return _verdict("lehmer", p, lhs)


# -- p-adic expansions of the harmonic numbers --------------------------------


def _expansion_series(which: str, k: int, p: int) -> Iterator[Fraction]:
    """The left-hand side of one of the four expansions at J = 0, then its
    terms j = 0, 1, ...

    Each term multiplies one harmonic number by a rational coefficient formed
    from integers first, so it costs one multiplication of large fractions.
    """
    half = (p - 1) // 2
    if which == "e10ee":
        yield -harmonic(k, p - 1)
        for j in count():
            yield (-1) ** k * comb(j + k - 1, j) * p**j * harmonic(k + j, p - 1)
    elif which == "e10eed":
        yield -harmonic(2 * k, p - 1)
        yield 2 * harmonic(2 * k, half)
        for j in count(1):
            yield comb(j + 2 * k - 1, j) * p**j * harmonic(2 * k + j, half)
    elif which == "e10eee":
        yield -harmonic(k, p - 1)
        yield Fraction(1 + (-1) ** k, 2**k) * harmonic(k, half)
        for j in count(1):
            yield (Fraction((-1) ** k * comb(j + k - 1, j) * p**j, 2 ** (j + k))
                   * harmonic(k + j, half))
    else:  # e10eeeff
        yield 2 * (2 ** (2 * k) - 1) * harmonic(2 * k, half)
        yield Fraction(0)
        for j in count(1):
            yield (Fraction(comb(j + 2 * k - 1, j) * (2 ** (2 * k + j) - 1) * p**j, 2**j)
                   * harmonic(2 * k + j, half))


def verify_expansion_truncation(which: str, k: int, p: int, J: int) -> ReportRecord:
    """The truncation of one of the four harmonic expansions at j < J.

    The left-hand side is (truncated series) - (target value); every omitted
    term carries p^j with j >= J times a p-integral cofactor, so the claimed
    exponent is J.
    """
    if which not in EXPANSION_IDS:
        raise ValueError(f"unknown expansion {which!r}")
    _require(k >= 1, "needs k >= 1")
    _require(J >= 0, "needs J >= 0")
    if which != "e10ee":
        _require(p % 2 == 1, "needs odd p")
    lhs = _truncated(("expansion", which, k, p), _expansion_series(which, k, p), J)
    return _verdict(f"expansion-{which}", p, lhs, k=k, J=J)


# e9a (cor-remark0-3), claimed mod p^2 as in the paper, holds mod p^3 for every
# odd p and mod p^4 for p >= 2k + 5.  Pairing j with p - j and expanding
# 1/(p - j)^m in powers of p/j gives, for odd m = 2k - 1, twice its left side:
#   2 H^(m)_{p-1} + m p H^(m+1)_{p-1} = -sum_{i>=2} C(m+i-1, i) p^i H^(m+i)_{p-1}.
# The i = 2 term's H^(2k+1)_{p-1} is 0 mod p, as p - 1 divides no odd order,
# and mod p^2 for p >= 2k + 5 (prop3-3 at k + 1); the i = 3 term's
# H^(2k+2)_{p-1} is 0 mod p once p - 1 > 2k + 2; every other term carries p^4.
def verify_cor_remark0(which: str, k: int, p: int) -> ReportRecord:
    """The six two-term congruences read off from the expansions (odd p)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(k >= 1, "needs k >= 1")
    half = (p - 1) // 2
    if which == "e10eeez":
        lhs = harmonic(2 * k - 1, p - 1)
    elif which == "e10eeezz":
        lhs = harmonic(2 * k - 1, p - 1) + p * (2 * k - 1) * harmonic(2 * k, half)
    elif which == "e9a":
        lhs = harmonic(2 * k - 1, p - 1) + Fraction(p, 2) * (2 * k - 1) * harmonic(
            2 * k, p - 1
        )
    elif which == "e10eeea":
        lhs = (
            harmonic(2 * k, p - 1)
            - 2 * harmonic(2 * k, half)
            - p * 2 * k * harmonic(2 * k + 1, half)
        )
    elif which == "e10eeee":
        lhs = (2 ** (2 * k) - 1) * harmonic(2 * k, half) + p * Fraction(k, 2) * (
            2 ** (2 * k + 1) - 1
        ) * harmonic(2 * k + 1, half)
    elif which == "e10eeeb":
        lhs = 2 * harmonic(2 * k, half) - (2 ** (2 * k + 1) - 1) * harmonic(
            2 * k, p - 1
        )
    else:
        raise ValueError(f"unknown congruence {which!r}")
    return _verdict(f"cor-remark0-{list(REMARK0_IDS).index(which) + 1}", p, lhs, k=k)


# -- Bernoulli-valued congruences for H^(2k), H^(2k-1) ------------------------


def verify_thm_prop3(which: str, k: int, p: int, cache: BernoulliCache) -> ReportRecord:
    """The four congruences expressing harmonic numbers through B_{p-1-2k}."""
    _require(k >= 1, "needs k >= 1")
    if which == "e9bbs":
        _require(p >= 2 * k + 3 or p == 2 * k + 1, "needs p >= 2k+3 or p = 2k+1")
    else:
        _require(p >= 2 * k + 3, "needs p >= 2k+3")
    half = (p - 1) // 2
    b = bernoulli(p - 1 - 2 * k, cache)
    if which == "e8bbf":
        lhs = harmonic(2 * k, p - 1) - p * Fraction(2 * k, 2 * k + 1) * b
    elif which == "e10eeeb1":
        lhs = harmonic(2 * k, half) - p * Fraction(k * (2 ** (2 * k + 1) - 1),
                                                   2 * k + 1) * b
    elif which == "e9bb":
        lhs = harmonic(2 * k - 1, p - 1) + p * p * Fraction(k * (2 * k - 1),
                                                            2 * k + 1) * b
    elif which == "e9bbs":
        lhs = harmonic(2 * k + 1, half) - Fraction(2 * (1 - 4**k), 2 * k + 1) * b
    else:
        raise ValueError(f"unknown congruence {which!r}")
    return _verdict(f"prop3-{list(PROP3_IDS).index(which) + 1}", p, lhs, k=k)


# -- the tier-ladder theorem for H^(j)_{p-1} ----------------------------------


def _ee10bis_tier(p: int, n: int, i: int, cache: BernoulliCache) -> int:
    if is_irregular_pair(p, p - 2 * n - 2 * i - 5, cache):
        return 5
    if p >= 2 * n + 2 * i + 7:
        return 4
    if p >= 5 or (p == 3 and n % 3 == 0):
        return 3
    if p >= 3:
        return 2
    return 1


def _ee10bis_series(p: int, i: int, cache: BernoulliCache) -> Iterator[Fraction]:
    """0, then C(j+2i,2i) B_j H^(j+2i+1)_{p-1} (-p)^j for j = 0, 1, ..."""
    yield Fraction(0)
    for j in count():
        yield (comb(j + 2 * i, 2 * i) * (-p) ** j * bernoulli(j, cache)
               * harmonic(j + 2 * i + 1, p - 1))


def _ee10bis_sum(p: int, i: int, length: int, cache: BernoulliCache) -> Fraction:
    """The thm-ee10bis series at j < length; cor-ee10biss reads the same sum."""
    return _truncated(("ee10bis", p, i, cache), _ee10bis_series(p, i, cache), length)


def verify_thm_ee10bis(p: int, n: int, i: int, cache: BernoulliCache) -> ReportRecord:
    """sum(C(j+2i,2i) B_j H^(j+2i+1)_{p-1} (-p)^j, j=0..2n+1) mod p^(2n+m).

    The tier m is resolved to the largest value whose condition holds.  The
    ladder starts at m = 1: rung m' <= m holds iff the achieved valuation is
    at least 2n + m'.
    """
    _require(p >= 2, "needs a prime")
    _require(n >= 0 and i >= 0, "needs n, i >= 0")
    m = _ee10bis_tier(p, n, i, cache)
    lhs = _ee10bis_sum(p, i, 2 * n + 2, cache)
    return _verdict("thm-ee10bis", p, lhs, tier=m, n=n, i=i)


def verify_cor_ee10biss(p: int, i: int, k: int, cache: BernoulliCache) -> ReportRecord:
    """The same series truncated at j < k is divisible by p^k (odd p)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(i >= 0 and k >= 1, "needs i >= 0, k >= 1")
    return _verdict("cor-ee10biss", p, _ee10bis_sum(p, i, k, cache), i=i, k=k)


# -- the half-index even-order ladder -----------------------------------------


def _eecj_tier(p: int, n: int, i: int, cache: BernoulliCache) -> int:
    half = (p - 1) // 2
    cond = (
        comb(2 * n + 2 * i, 2 * n + 2)
        * (2 ** (2 * n + 2 * i + 1) - 1)
        * harmonic(2 * n + 2 * i + 1, half)
        * ((2 * n + 3) * bernoulli(2 * n + 2, cache) + Fraction(n, 2))
    )
    shortcut = (
        (i >= 2 and p == 2 * n + 3)
        or is_irregular_pair(p, p - 2 * n - 2 * i - 1, cache)
        or p == 2 ** (2 * n + 2 * i + 1) - 1
        or (p == 2 * n + 2 * i + 1 and fermat_quotient(p) % p == 0)
    )
    if shortcut or vp(cond, p) >= 1:
        return 2
    if p > 2 * n + 1:
        return 1
    return 0


def _eecj_series(p: int, i: int, cache: BernoulliCache) -> Iterator[Fraction]:
    """0, then C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j for
    j = 0, 1, ..."""
    yield Fraction(0)
    half = (p - 1) // 2
    for j in count():
        yield (Fraction(comb(j + 2 * i - 1, j + 1) * (2 ** (j + 2 * i) - 1) * p**j, 2**j)
               * coeff_c(j, cache) * harmonic(j + 2 * i, half))


def _eecj_sum(p: int, i: int, length: int, cache: BernoulliCache) -> Fraction:
    """The thm-eecj series at j < length; cor-eecjj reads the same sum at i = 1."""
    return _truncated(("eecj", p, i, cache), _eecj_series(p, i, cache), length)


def verify_thm_eecj(p: int, n: int, i: int, cache: BernoulliCache) -> ReportRecord:
    """sum(C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j) mod p^(2n+m).

    The sum runs over j < 2n, and the tier m is resolved to the largest value
    whose condition holds.  The ladder starts at m = 0: rung m' <= m holds
    iff the achieved valuation is at least 2n + m'.
    """
    _require(p >= 3, "needs odd p")
    _require(n >= 1 and i >= 1, "needs n, i >= 1")
    m = _eecj_tier(p, n, i, cache)
    lhs = _eecj_sum(p, i, 2 * n, cache)
    return _verdict("thm-eecj", p, lhs, tier=m, n=n, i=i)


def _eecjj_exponent(p: int, J: int) -> int:
    """J, less one when J is odd and (p-1) | (J+1).

    The first omitted term carries B_{J+1}, whose denominator contains p
    exactly then; the 2^(J+2)-1 factor protects B_{J+2} but not B_{J+1}, so
    that term only contributes p^(J-1).
    """
    return J - 1 if (J % 2 == 1 and (J + 1) % (p - 1) == 0) else J


def verify_cor_eecjj(p: int, J: int, cache: BernoulliCache) -> ReportRecord:
    """The i=1 series truncated at j < J is divisible by p^J, or by p^(J-1)
    where _eecjj_exponent drops it (odd p)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(J >= 1, "needs J >= 1")
    return _verdict("cor-eecjj", p, _eecj_sum(p, 1, J, cache), J=J)


# -- the odd-order half-index results -----------------------------------------


def verify_prop41(p: int, n: int, cache: BernoulliCache) -> ReportRecord:
    """H_{(p-1)/2} plus the Fermat-quotient series and the Bernoulli tail,
    modulo p^n, for p > (n+1)/2."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 1, "needs n >= 1")
    _require(2 * p > n + 1, "needs p > (n+1)/2")
    q = fermat_quotient(p)
    lhs = harmonic(1, (p - 1) // 2) + 2 * q_series(q, p, n)
    if p == n + 1:
        lhs += 2 * q * p ** (n - 1)
    for i in range(1, n // 2 + 1):  # 1 <= i < (n+1)/2
        lhs += (
            coeff_z(p, n, i, cache)
            * (2 ** (2 * i + 1) - 1)
            * Fraction(p, 2) ** (2 * i)
        )
    return _verdict("prop41", p, lhs, n=n)


def verify_prop42(p: int, n: int, h: int, cache: BernoulliCache) -> ReportRecord:
    """H^(2h+1)_{(p-1)/2} against its Bernoulli expansion, modulo p^(n-1)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(h >= 1, "needs h >= 1")
    _require(n + 1 > 2 * h, "needs (n+1)/2 > h")
    _require(2 * p > n + 1, "needs p > (n+1)/2")
    lhs = harmonic(2 * h + 1, (p - 1) // 2) + (2 ** (2 * h + 1) - 2) * coeff_z(
        p, n, h, cache
    )
    for i in range(1, (n - 1) // 2 + 1):
        lhs += (
            Fraction(p) ** (2 * i)
            * comb(2 * i + 2 * h, 2 * i)
            * coeff_z(p, n, h + i, cache)
            * (2 ** (2 * h + 1) - Fraction(1, 2 ** (2 * i)))
        )
    return _verdict("prop42", p, lhs, n=n, h=h)


def _ee20_series(p: int, cache: BernoulliCache) -> Iterator[Fraction]:
    """0, then the terms j = 0, 1, ... of the B/H series plus the q_p series."""
    yield Fraction(0)
    half = (p - 1) // 2
    q = q_terms(fermat_quotient(p), p)
    for j in count():
        coeff = Fraction((2 ** (j + 1) - 1) * (2 ** (j + 2) - 1) * 2 * p**j,
                         (j + 1) * (j + 2) * 2**j)
        yield coeff * bernoulli(j + 2, cache) * harmonic(j + 1, half) + next(q)


def verify_thm_ee20(p: int, n: int, cache: BernoulliCache) -> ReportRecord:
    """The final theorem: the B/H series plus the q_p series at j < n, modulo
    p^n.

    The sum is well-defined for any odd p, so the p > (n+1)/2 hypothesis is
    deliberately not enforced here: evaluating just outside it is how the
    sharpness counterexample (p=3, n=5, valuation 4 < 5) is exhibited.
    Grid scans apply the hypothesis as a skip filter instead.
    """
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 1, "needs n >= 1")
    lhs = _truncated(("ee20", p, cache), _ee20_series(p, cache), n)
    return _verdict("thm-ee20", p, lhs, n=n)


def verify_intermediate_47(p: int, n: int, cache: BernoulliCache) -> ReportRecord:
    """The delta/Z/A bookkeeping congruence from the final proof (n even)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 2 and n % 2 == 0, "needs even n >= 2")
    _require(2 * p > n + 1, "needs p > (n+1)/2")
    half = (p - 1) // 2
    q = fermat_quotient(p)
    delta = 1 if p == n + 1 else 0
    left = (
        2 * q * delta
        + p * coeff_z(p, n, n // 2, cache) * Fraction(2 ** (n + 1) - 1, 2**n)
    ) * Fraction(p) ** (n - 1)
    right = sum(
        ((2 ** (2 * h + 1) - 1)
         * Fraction(p, 2) ** (2 * h)
         * (coeff_a(h, cache) * harmonic(2 * h + 1, half) - coeff_z(p, n, h, cache))
         for h in range(1, (n - 2) // 2 + 1)),
        Fraction(0),
    )
    return _verdict("eq47", p, left - right, n=n)


def sun_congruence(p: int, cache: BernoulliCache) -> ReportRecord:
    """H_{(p-1)/2} + (7/12) B_{p-3} p^2 + 2(q - q^2 p/2 + q^3 p^2/3) mod p^3."""
    _require(p >= 5, "needs p >= 5")
    q = fermat_quotient(p)
    lhs = (
        harmonic(1, (p - 1) // 2)
        + Fraction(7, 12) * bernoulli(p - 3, cache) * p * p
        + 2 * (q - Fraction(q * q * p, 2) + Fraction(q**3 * p * p, 3))
    )
    return _verdict("sun", p, lhs)


# -- the lemmas the expansions rest on ----------------------------------------


def verify_lemma_pb_1(p: int, n: int, cache: BernoulliCache) -> ReportRecord:
    """p B_{p^(n-1)(p-1)} == p - 1 (mod p^n) for odd p and n >= 1."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 1, "needs n >= 1")
    lhs = p * bernoulli(_power_index(p, n, 0), cache) - (p - 1)
    return _verdict("lemma-pb-1", p, lhs, n=n)


def verify_lemma_pb_2(p: int, n: int, h: int, cache: BernoulliCache) -> ReportRecord:
    """p B_{p^(n-1)(p-1)-2h} == H^(2h)_{p-1} (mod p) for odd p, n >= 1 and
    h >= 1, where the Bernoulli index is at least 2."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 1 and h >= 1, "needs n, h >= 1")
    index = _power_index(p, n, h)
    _require(index >= 2, "needs p^(n-1)(p-1) - 2h >= 2")
    lhs = p * bernoulli(index, cache) - harmonic(2 * h, p - 1)
    return _verdict("lemma-pb-2", p, lhs, n=n, h=h)


def verify_kummer(p: int, h: int, k: int, cache: BernoulliCache) -> ReportRecord:
    """Kummer's congruence B_h/h == B_k/k (mod p) for odd p and even h, k >= 2
    with h == k (mod p-1), neither divisible by p-1."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(h >= 2 and k >= 2 and h % 2 == 0 and k % 2 == 0, "needs even h, k >= 2")
    _require((h - k) % (p - 1) == 0 and h % (p - 1) != 0 and k % (p - 1) != 0,
             f"needs h == k mod {p - 1}, neither divisible by it")
    lhs = bernoulli(h, cache) / h - bernoulli(k, cache) / k
    return _verdict("kummer", p, lhs, h=h, k=k)


# -- the theorem table ----------------------------------------------------------


class Theorem(NamedTuple):
    """What `verify` and `scan` know of one theorem id.

    ``params`` name the grid parameters as its records do, in the order a
    scan nests them, the last innermost: a series truncated at its last param
    is then read at ascending lengths, one running sum per prime and values
    of the other params.  A param's flag is its name, J's is --j-terms.
    ``run(p, args, cache)`` is the verdict on one case; it calls its verifier
    by module-level name, so a profiler can wrap it.  ``exponent(p, params,
    tier)`` is the exponent the case claims, at the tier a ladder resolved
    (None elsewhere); `_verdict` reads it, and no verifier states one.
    ``bernoulli_need(p, args)`` is the largest Bernoulli index one case reads
    at p, and at any smaller p (-1 for none); ``verify`` and ``scan`` fill
    the cache to its maximum over the cases at the grid's largest prime.
    Scans skip cases failing ``hypothesis`` and cases whose verifier raises
    HypothesisViolated, so ``hypothesis`` states only what a verifier
    deliberately leaves unchecked.
    """

    params: tuple[str, ...]
    run: Callable[[int, dict, BernoulliCache], ReportRecord]
    exponent: Callable[[int, dict, int | None], int]
    bernoulli_need: Callable[[int, dict], int] = lambda p, a: -1
    hypothesis: Callable[[int, dict], bool] = lambda p, a: True


def _ladder_need(offset: int):
    """The series reads B_{2n+1}; resolving the tier reads B_{2n+2} (thm-eecj)
    and B_{p-2n-2i-offset}, to test for an irregular pair."""
    return lambda p, a: max(2 * a["n"] + 2, p - 2 * a["n"] - 2 * a["i"] - offset)


def _z_need(p: int, a: dict) -> int:
    # coeff_z(p, n, h' >= h) reads B_{p^(n-1)(p-1) - 2h'}; n < 2 reads none
    return _power_index(p, a["n"], a.get("h", 1)) if a["n"] >= 2 else -1


def _pb_need(p: int, a: dict) -> int:
    # lemma-pb-1 reads B_{p^(n-1)(p-1)}, lemma-pb-2 that index less 2h
    h = a.get("h", 0)
    return _power_index(p, a["n"], h) if a["n"] >= 1 and h >= 0 else -1


THEOREMS: dict[str, Theorem] = {
    "wolstenholme": Theorem((), lambda p, a, c: verify_wolstenholme(p), lambda p, a, t: 2),
    "wolstenholme-refined": Theorem((), lambda p, a, c: verify_wolstenholme_refined(p),
                                    lambda p, a, t: 4),
    "eisenstein": Theorem((), lambda p, a, c: verify_eisenstein(p), lambda p, a, t: 1),
    "lehmer": Theorem((), lambda p, a, c: verify_lehmer(p), lambda p, a, t: 2),
    **{f"expansion-{w}": Theorem(
        ("k", "J"),
        lambda p, a, c, w=w: verify_expansion_truncation(w, a["k"], p, a["J"]),
        lambda p, a, t: a["J"],
    ) for w in EXPANSION_IDS},
    **{f"cor-remark0-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_cor_remark0(w, a["k"], p),
        lambda p, a, t, e=e: e,
    ) for idx, (w, e) in enumerate(REMARK0_IDS.items(), start=1)},
    **{f"prop3-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_thm_prop3(w, a["k"], p, c),
        lambda p, a, t, e=e: e, lambda p, a: p - 1 - 2 * a["k"],
    ) for idx, (w, e) in enumerate(PROP3_IDS.items(), start=1)},
    "thm-ee10bis": Theorem(
        ("i", "n"), lambda p, a, c: verify_thm_ee10bis(p, a["n"], a["i"], c),
        lambda p, a, t: 2 * a["n"] + t, _ladder_need(5),
    ),
    "cor-ee10biss": Theorem(
        ("i", "k"), lambda p, a, c: verify_cor_ee10biss(p, a["i"], a["k"], c),
        lambda p, a, t: a["k"], lambda p, a: a["k"] - 1,
    ),
    "thm-eecj": Theorem(
        ("i", "n"), lambda p, a, c: verify_thm_eecj(p, a["n"], a["i"], c),
        lambda p, a, t: 2 * a["n"] + t, _ladder_need(1),
    ),
    "cor-eecjj": Theorem(
        ("J",), lambda p, a, c: verify_cor_eecjj(p, a["J"], c),
        lambda p, a, t: _eecjj_exponent(p, a["J"]), lambda p, a: a["J"] + 1,
    ),
    "prop41": Theorem(("n",), lambda p, a, c: verify_prop41(p, a["n"], c),
                      lambda p, a, t: a["n"], _z_need),
    "prop42": Theorem(("n", "h"), lambda p, a, c: verify_prop42(p, a["n"], a["h"], c),
                      lambda p, a, t: a["n"] - 1, _z_need),
    "thm-ee20": Theorem(
        ("n",), lambda p, a, c: verify_thm_ee20(p, a["n"], c),
        lambda p, a, t: a["n"], lambda p, a: a["n"] + 1,
        hypothesis=lambda p, a: 2 * p > a["n"] + 1,
    ),
    "eq47": Theorem(("n",), lambda p, a, c: verify_intermediate_47(p, a["n"], c),
                    lambda p, a, t: a["n"], _z_need),
    "sun": Theorem((), lambda p, a, c: sun_congruence(p, c), lambda p, a, t: 3,
                   lambda p, a: p - 3),
    "lemma-pb-1": Theorem(("n",), lambda p, a, c: verify_lemma_pb_1(p, a["n"], c),
                          lambda p, a, t: a["n"], _pb_need),
    "lemma-pb-2": Theorem(
        ("n", "h"), lambda p, a, c: verify_lemma_pb_2(p, a["n"], a["h"], c),
        lambda p, a, t: 1, _pb_need,
    ),
    "kummer": Theorem(
        ("h", "k"), lambda p, a, c: verify_kummer(p, a["h"], a["k"], c),
        lambda p, a, t: 1, lambda p, a: max(a["h"], a["k"]),
    ),
}
