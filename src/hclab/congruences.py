"""The verdict engine: one verifier per congruence claim, each judging one case.

Each left-hand side is stated once, as the `Term`s its `THEOREMS` row builds
beside the claimed exponent.  A verifier sums the terms exactly and compares
their p-adic valuation with that exponent; the Bernoulli numbers a case reads
are derived from the same terms.  The tier ladders first resolve the largest
provable tier.  A series read at ascending lengths adds each term once.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .bernoulli import CEILING, BernoulliCache, bernoulli, is_irregular_pair
from .errors import HypothesisViolated, IndexCeilingExceeded
from .exact import vp
from .harmonic import harmonic
from .primes import fermat_quotient
from .report import ReportRecord

# The paper's equation labels in id order; remark0's and prop3's are below.
EXPANSION_IDS = ("e10ee", "e10eed", "e10eee", "e10eeeff")


def _verdict(theorem_id, p, lhs, tier=None, **params) -> ReportRecord:
    required = THEOREMS[theorem_id].exponent(p, params, tier)
    v = vp(lhs, p)
    return ReportRecord(theorem_id, p, params, required_exponent=required,
                        achieved_valuation=v, tier=tier, passed=v >= required, lhs=lhs)


def _require(cond: bool, msg: str):
    if not cond:
        raise HypothesisViolated(msg)


class Term(NamedTuple):
    """One term c H^(m)_u B_b q_p^q of a left-hand side: h = (m, u), u p - 1 or (p - 1)/2,
    h or b None for no such factor, c rational with its powers of p, or in a series
    a function that builds it when the term is summed, so a need is read unbuilt."""

    c: Fraction | int | Callable[[], Fraction | int]
    h: tuple[int, int] | None = None
    b: int | None = None
    q: int = 0


def _value(terms: Iterable[Term], p: int, cache: BernoulliCache | None) -> Fraction:
    """The exact sum of the terms, building each coefficient given as a
    function.  Each distinct harmonic number is read and multiplied once, by
    the sum of its terms' cofactors c B_b q_p^q."""
    cofactors, q = {}, 0  # q_p > 0 for odd p
    for c, h, b, e in terms:
        if callable(c):
            c = c()
        if b is not None:
            c *= bernoulli(b, cache)
        if e:
            c *= (q := q or fermat_quotient(p)) ** e
        cofactors[h] = cofactors[h] + c if h in cofactors else c
    parts = [c if h is None else harmonic(*h) if c == 1 else c * harmonic(*h)
             for h, c in cofactors.items()]
    return sum(parts[1:], parts[0]) if parts else Fraction(0)


class _Head:
    """The terms of a series truncated at ``length``: ``series(*args, j)`` gives
    those of its term j, j = 0, 1, ..., and of its value at length 0 for j = -1.
    Each series' B indices grow with j, so its largest lies in its last term."""

    def __init__(self, series: Callable[..., list[Term]], args: tuple, length: int):
        self.series, self.args, self.length = series, args, length

    def ends(self) -> list[Term]:
        """The terms of its value at length 0 and of its last term, unbuilt."""
        js = range(-1, self.length)
        return [t for j in {*js[:1], *js[-1:]} for t in self.series(*self.args, j)]


# The series read last: (series, args, cache, length, its sum).
# Process-wide, like the harmonic cursors.
_running: tuple | None = None


def _lhs(theorem_id: str, p: int, cache: BernoulliCache | None, **params) -> Fraction:
    """One case's left-hand side, from its row's terms.  The series read last,
    with the same args and cache and no greater a length, is extended by its
    further terms alone.  A sum that raises leaves nothing stale."""
    terms = THEOREMS[theorem_id].terms(p, **params)
    if not isinstance(terms, _Head):
        return _value(terms, p, cache)
    global _running
    key, last, _running = (terms.series, terms.args, cache), _running, None
    done, lhs = last[3:] if last and last[:3] == key and last[3] <= terms.length else (-1, 0)
    for j in range(done, terms.length):
        lhs += _value(terms.series(*terms.args, j), p, cache)
    _running = (*key, terms.length, lhs)
    return lhs


# -- coefficient families -----------------------------------------------------


def _c_terms(j: int, c: Callable[[], Fraction], h: tuple[int, int]) -> list[Term]:
    """c() C_j H, C_j = 2 B_{j+2} + (-1)^j B_{j+1} + 1/2, h one harmonic read; c built once."""
    c = functools.cache(c)
    return [Term(lambda: 2 * c(), h, j + 2), Term(lambda: (-1) ** j * c(), h, j + 1),
            Term(lambda: c() / 2, h)]


def coeff_c(j: int, cache: BernoulliCache) -> Fraction:
    """2 B_{j+2} + (-1)^j B_{j+1} + 1/2; equals 1/3 at j = 0 and j = 1."""
    return 2 * bernoulli(j + 2, cache) + (-1) ** j * bernoulli(j + 1, cache) + Fraction(1, 2)


def coeff_a(h: int, cache: BernoulliCache) -> Fraction:
    """4 (2^(2h+2) - 1) B_{2h+2} / ((2h+1)(2h+2)); equals -1/6 at h = 1."""
    return Fraction(4 * (2 ** (2 * h + 2) - 1), (2 * h + 1) * (2 * h + 2)) * bernoulli(
        2 * h + 2, cache)


def _power_index(p: int, n: int, h: int) -> int:
    """p^(n-1)(p-1) - 2h, the Bernoulli index of coeff_z and the p-power
    lemmas.  From n - 1 >= (CEILING + 2h).bit_length() on it is at least
    2^(n-1) - 2h > CEILING, and is refused without building the power: at
    p = 3, n = 10^7 that alone took 3-4 s, before any digit was written."""
    if n - 1 >= (CEILING + 2 * h).bit_length():
        less = f" - {2 * h}" if h else ""
        raise IndexCeilingExceeded(f"needs Bernoulli index {p}^{n - 1}*{p - 1}{less}, "
                                   f"beyond ceiling {CEILING}")
    return p ** (n - 1) * (p - 1) - 2 * h


def _z(c, p: int, n: int, h: int) -> Term:
    """c coeff_z(p, n, h)."""
    return Term(Fraction(c, 2 * h), b=_power_index(p, n, h))


def coeff_z(p: int, n: int, h: int, cache: BernoulliCache) -> Fraction:
    """B_{p^(n-1)(p-1) - 2h} / (2h)."""
    return bernoulli(_power_index(p, n, h), cache) / (2 * h)


# -- classical congruences ----------------------------------------------------


def verify_wolstenholme(p: int) -> ReportRecord:
    """H_{p-1} == 0 (mod p^2) for p >= 5."""
    _require(p >= 5, "needs p >= 5")
    return _verdict("wolstenholme", p, _lhs("wolstenholme", p, None))


def verify_wolstenholme_refined(p: int) -> ReportRecord:
    """H_{p-1} + (p/2) H^(2)_{p-1} == 0 (mod p^4) for p >= 7."""
    _require(p >= 7, "needs p >= 7")
    return _verdict("wolstenholme-refined", p, _lhs("wolstenholme-refined", p, None))


def verify_eisenstein(p: int) -> ReportRecord:
    """H_{(p-1)/2} + 2 q_p == 0 (mod p) for odd p."""
    _require(p >= 3, "needs an odd prime")
    return _verdict("eisenstein", p, _lhs("eisenstein", p, None))


def verify_lehmer(p: int) -> ReportRecord:
    """H_{(p-1)/2} + 2 q_p - p q_p^2 == 0 (mod p^2) for odd p."""
    _require(p >= 3, "needs an odd prime")
    return _verdict("lehmer", p, _lhs("lehmer", p, None))


# -- p-adic expansions of the harmonic numbers --------------------------------


def _expansion_series(which: str, k: int, p: int, j: int) -> list[Term]:
    """The terms of one of the four expansions at j, or at J = 0 for j = -1: a
    harmonic number times a rational coefficient; none for k < 1."""
    if k < 1:
        return []
    half = (p - 1) // 2
    if which == "e10ee":
        return [Term(lambda: -1, (k, p - 1)) if j < 0 else
                Term(lambda: (-1) ** k * comb(j + k - 1, j) * p**j, (k + j, p - 1))]
    if which == "e10eed":
        return [Term(lambda: -1, (2 * k, p - 1)) if j < 0 else
                Term(lambda: comb(j + 2 * k - 1, j) * p**j if j else 2, (2 * k + j, half))]
    if which == "e10eee":
        return [Term(lambda: -1, (k, p - 1)) if j < 0 else Term(
            lambda: Fraction((-1) ** k * comb(j + k - 1, j) * p**j, 2 ** (j + k)) if j
            else Fraction(1 + (-1) ** k, 2**k), (k + j, half))]
    if j < 0:  # e10eeeff, whose j = 0 term is 0
        return [Term(lambda: 2 * (2 ** (2 * k) - 1), (2 * k, half))]
    return [Term(lambda: Fraction(comb(j + 2 * k - 1, j) * (2 ** (2 * k + j) - 1) * p**j, 2**j),
                 (2 * k + j, half))] if j else []


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
    lhs = _lhs(f"expansion-{which}", p, None, k=k, J=J)
    return _verdict(f"expansion-{which}", p, lhs, k=k, J=J)


# The paper's labels of remark0's congruences in id order, each with its
# exponent and its terms at p, k and half = (p - 1)/2.
REMARK0_IDS = {
    "e10eeez": (1, lambda p, k, half: [Term(1, (2 * k - 1, p - 1))]),
    "e10eeezz": (2, lambda p, k, half: [Term(1, (2 * k - 1, p - 1)),
                                        Term(p * (2 * k - 1), (2 * k, half))]),
    "e9a": (2, lambda p, k, half: [Term(1, (2 * k - 1, p - 1)),
                                   Term(Fraction(p, 2) * (2 * k - 1), (2 * k, p - 1))]),
    "e10eeea": (2, lambda p, k, half: [Term(1, (2 * k, p - 1)), Term(-2, (2 * k, half)),
                                       Term(-p * 2 * k, (2 * k + 1, half))]),
    "e10eeee": (2, lambda p, k, half: [
        Term(2 ** (2 * k) - 1, (2 * k, half)),
        Term(p * Fraction(k, 2) * (2 ** (2 * k + 1) - 1), (2 * k + 1, half))]),
    "e10eeeb": (2, lambda p, k, half: [Term(2, (2 * k, half)),
                                       Term(-(2 ** (2 * k + 1) - 1), (2 * k, p - 1))]),
}


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
    if which not in REMARK0_IDS:
        raise ValueError(f"unknown congruence {which!r}")
    theorem_id = f"cor-remark0-{list(REMARK0_IDS).index(which) + 1}"
    return _verdict(theorem_id, p, _lhs(theorem_id, p, None, k=k), k=k)


# -- Bernoulli-valued congruences for H^(2k), H^(2k-1) ------------------------

# The paper's labels of prop3's congruences in id order, each with its exponent
# and its terms at p, k >= 1, half = (p - 1)/2 and b = p - 1 - 2k >= 0.
PROP3_IDS = {
    "e8bbf": (2, lambda p, k, half, b: [Term(1, (2 * k, p - 1)),
                                        Term(-p * Fraction(2 * k, 2 * k + 1), b=b)]),
    "e10eeeb1": (2, lambda p, k, half, b: [
        Term(1, (2 * k, half)), Term(-p * Fraction(k * (2 ** (2 * k + 1) - 1), 2 * k + 1), b=b)]),
    "e9bb": (3, lambda p, k, half, b: [
        Term(1, (2 * k - 1, p - 1)), Term(p * p * Fraction(k * (2 * k - 1), 2 * k + 1), b=b)]),
    "e9bbs": (1, lambda p, k, half, b: [Term(1, (2 * k + 1, half)),
                                        Term(-Fraction(2 * (1 - 4**k), 2 * k + 1), b=b)]),
}


def verify_thm_prop3(which: str, k: int, p: int, cache: BernoulliCache) -> ReportRecord:
    """The four congruences expressing harmonic numbers through B_{p-1-2k}."""
    _require(k >= 1, "needs k >= 1")
    if which == "e9bbs":
        _require(p >= 2 * k + 3 or p == 2 * k + 1, "needs p >= 2k+3 or p = 2k+1")
    else:
        _require(p >= 2 * k + 3, "needs p >= 2k+3")
    if which not in PROP3_IDS:
        raise ValueError(f"unknown congruence {which!r}")
    theorem_id = f"prop3-{list(PROP3_IDS).index(which) + 1}"
    return _verdict(theorem_id, p, _lhs(theorem_id, p, cache, k=k), k=k)


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


def _ee10bis_series(p: int, i: int, j: int) -> list[Term]:
    """C(j+2i,2i) B_j H^(j+2i+1)_{p-1} (-p)^j; none for j = -1 or i < 0."""
    if i < 0 or j < 0:
        return []
    return [Term(lambda: comb(j + 2 * i, 2 * i) * (-p) ** j, (j + 2 * i + 1, p - 1), j)]


def verify_thm_ee10bis(p: int, n: int, i: int, cache: BernoulliCache) -> ReportRecord:
    """sum(C(j+2i,2i) B_j H^(j+2i+1)_{p-1} (-p)^j, j=0..2n+1) mod p^(2n+m).

    The tier m is resolved to the largest value whose condition holds.  The
    ladder starts at m = 1: rung m' <= m holds iff the achieved valuation is
    at least 2n + m'.
    """
    _require(p >= 2, "needs a prime")
    _require(n >= 0 and i >= 0, "needs n, i >= 0")
    lhs = _lhs("thm-ee10bis", p, cache, n=n, i=i)
    return _verdict("thm-ee10bis", p, lhs, tier=_ee10bis_tier(p, n, i, cache), n=n, i=i)


def verify_cor_ee10biss(p: int, i: int, k: int, cache: BernoulliCache) -> ReportRecord:
    """The same series truncated at j < k is divisible by p^k (odd p)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(i >= 0 and k >= 1, "needs i >= 0, k >= 1")
    return _verdict("cor-ee10biss", p, _lhs("cor-ee10biss", p, cache, i=i, k=k), i=i, k=k)


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


def _eecj_series(p: int, i: int, j: int) -> list[Term]:
    """C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j; none for
    j = -1 or i < 1."""
    if i < 1 or j < 0:
        return []
    return _c_terms(j, lambda: Fraction(comb(j + 2 * i - 1, j + 1) * (2 ** (j + 2 * i) - 1) * p**j,
                                        2**j), (j + 2 * i, (p - 1) // 2))


def verify_thm_eecj(p: int, n: int, i: int, cache: BernoulliCache) -> ReportRecord:
    """sum(C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j) mod p^(2n+m).

    The sum runs over j < 2n, and the tier m is resolved to the largest value
    whose condition holds.  The ladder starts at m = 0: rung m' <= m holds
    iff the achieved valuation is at least 2n + m'.
    """
    _require(p >= 3, "needs odd p")
    _require(n >= 1 and i >= 1, "needs n, i >= 1")
    lhs = _lhs("thm-eecj", p, cache, n=n, i=i)
    return _verdict("thm-eecj", p, lhs, tier=_eecj_tier(p, n, i, cache), n=n, i=i)


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
    return _verdict("cor-eecjj", p, _lhs("cor-eecjj", p, cache, J=J), J=J)


# -- the odd-order half-index results -----------------------------------------


def _prop41(p: int, n: int) -> list[Term]:
    # the Bernoulli tail (1 <= i < (n+1)/2) first: its index is refused unbuilt
    return ([_z((2 ** (2 * i + 1) - 1) * Fraction(p, 2) ** (2 * i), p, n, i)
             for i in range(1, n // 2 + 1)] + [Term(1, (1, (p - 1) // 2))]
            + [Term(Fraction(2 * (-p) ** j, j + 1), q=j + 1) for j in range(n)]
            + [Term(2 * p ** (n - 1), q=1)] * (p == n + 1))


def verify_prop41(p: int, n: int, cache: BernoulliCache) -> ReportRecord:
    """H_{(p-1)/2} plus the Fermat-quotient series and the Bernoulli tail,
    modulo p^n, for p > (n+1)/2."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 1, "needs n >= 1")
    _require(2 * p > n + 1, "needs p > (n+1)/2")
    return _verdict("prop41", p, _lhs("prop41", p, cache, n=n), n=n)


def _prop42(p: int, n: int, h: int) -> list[Term]:
    """H^(2h+1)_{(p-1)/2} less its expansion; none for h < 1 or 2h > n, never judged."""
    if h < 1 or 2 * h > n:
        return []
    _power_index(p, n, h)  # its refusal first, with 2^(2h+1) unbuilt
    return [Term(1, (2 * h + 1, (p - 1) // 2)), _z(2 ** (2 * h + 1) - 2, p, n, h)] + [
        _z(p ** (2 * i) * comb(2 * i + 2 * h, 2 * i) * (2 ** (2 * h + 1) - Fraction(1, 4**i)),
           p, n, h + i) for i in range(1, (n - 1) // 2 + 1)]


def verify_prop42(p: int, n: int, h: int, cache: BernoulliCache) -> ReportRecord:
    """H^(2h+1)_{(p-1)/2} against its Bernoulli expansion, modulo p^(n-1)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(h >= 1, "needs h >= 1")
    _require(n + 1 > 2 * h, "needs (n+1)/2 > h")
    _require(2 * p > n + 1, "needs p > (n+1)/2")
    return _verdict("prop42", p, _lhs("prop42", p, cache, n=n, h=h), n=n, h=h)


def _ee20_series(p: int, j: int) -> list[Term]:
    """The terms j of the B/H series and of the q_p series, (-1)^j q_p^(j+1)
    p^j / (j+1); none for j = -1."""
    if j < 0:
        return []
    return [Term(lambda: Fraction((2 ** (j + 1) - 1) * (2 ** (j + 2) - 1) * 2 * p**j,
                                  (j + 1) * (j + 2) * 2**j), (j + 1, (p - 1) // 2), j + 2),
            Term(lambda: Fraction((-p) ** j, j + 1), q=j + 1)]


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
    return _verdict("thm-ee20", p, _lhs("thm-ee20", p, cache, n=n), n=n)


def _eq47(p: int, n: int) -> list[Term]:
    """(2 q delta + p Z_{n/2} (2^(n+1)-1)/2^n) p^(n-1) less the sum over h of
    (2^(2h+1)-1) (p/2)^(2h) (A_h H^(2h+1)_{(p-1)/2} - Z_h); none for n < 2."""
    if n < 2:
        return []
    terms = []
    for h in range(1, (n - 2) // 2 + 1):  # first: a ceiling refusal names h = 1, p^n unbuilt
        c = (2 ** (2 * h + 1) - 1) * Fraction(p, 2) ** (2 * h)
        a = Fraction(4 * (2 ** (2 * h + 2) - 1), (2 * h + 1) * (2 * h + 2))  # A_h / B_{2h+2}
        terms += [Term(-c * a, (2 * h + 1, (p - 1) // 2), 2 * h + 2), _z(c, p, n, h)]
    return terms + [_z(p**n * Fraction(2 ** (n + 1) - 1, 2**n), p, n, n // 2)] + [
        Term(2 * p ** (n - 1), q=1)] * (p == n + 1)


def verify_intermediate_47(p: int, n: int, cache: BernoulliCache) -> ReportRecord:
    """The delta/Z/A bookkeeping congruence from the final proof (n even)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 2 and n % 2 == 0, "needs even n >= 2")
    _require(2 * p > n + 1, "needs p > (n+1)/2")
    return _verdict("eq47", p, _lhs("eq47", p, cache, n=n), n=n)


def sun_congruence(p: int, cache: BernoulliCache) -> ReportRecord:
    """H_{(p-1)/2} + (7/12) B_{p-3} p^2 + 2(q - q^2 p/2 + q^3 p^2/3) mod p^3."""
    _require(p >= 5, "needs p >= 5")
    return _verdict("sun", p, _lhs("sun", p, cache))


# -- the lemmas the expansions rest on ----------------------------------------


def verify_lemma_pb_1(p: int, n: int, cache: BernoulliCache) -> ReportRecord:
    """p B_{p^(n-1)(p-1)} == p - 1 (mod p^n) for odd p and n >= 1."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 1, "needs n >= 1")
    return _verdict("lemma-pb-1", p, _lhs("lemma-pb-1", p, cache, n=n), n=n)


def verify_lemma_pb_2(p: int, n: int, h: int, cache: BernoulliCache) -> ReportRecord:
    """p B_{p^(n-1)(p-1)-2h} == H^(2h)_{p-1} (mod p) for odd p, n >= 1 and
    h >= 1, where the Bernoulli index is at least 2."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(n >= 1 and h >= 1, "needs n, h >= 1")
    _require(_power_index(p, n, h) >= 2, "needs p^(n-1)(p-1) - 2h >= 2")
    return _verdict("lemma-pb-2", p, _lhs("lemma-pb-2", p, cache, n=n, h=h), n=n, h=h)


def verify_kummer(p: int, h: int, k: int, cache: BernoulliCache) -> ReportRecord:
    """Kummer's congruence B_h/h == B_k/k (mod p) for odd p and even h, k >= 2
    with h == k (mod p-1), neither divisible by p-1."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(h >= 2 and k >= 2 and h % 2 == 0 and k % 2 == 0, "needs even h, k >= 2")
    _require((h - k) % (p - 1) == 0 and h % (p - 1) != 0 and k % (p - 1) != 0,
             f"needs h == k mod {p - 1}, neither divisible by it")
    return _verdict("kummer", p, _lhs("kummer", p, cache, h=h, k=k), h=h, k=k)


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
    (None elsewhere).  ``terms(p, **args)`` builds the terms of one case's
    left-hand side; ``tier_need(p, args)`` is the largest Bernoulli index a
    ladder reads for its tier.  Scans skip cases failing ``hypothesis`` and
    cases whose verifier raises HypothesisViolated, so ``hypothesis`` states
    only what a verifier deliberately leaves unchecked.
    """

    params: tuple[str, ...]
    run: Callable[[int, dict, BernoulliCache], ReportRecord]
    exponent: Callable[[int, dict, int | None], int]
    terms: Callable[..., Iterable[Term]] = lambda p, **a: ()
    hypothesis: Callable[[int, dict], bool] = lambda p, a: True
    tier_need: Callable[[int, dict], int] = lambda p, a: -1


def bernoulli_need(theorem_id: str, p: int, args: dict) -> int:
    """The largest Bernoulli index one case reads at p, and at any smaller p
    (-1 for none), from its terms and tier reads, evaluating none and checking
    no hypothesis; `verify` and `scan` fill to its maximum at the top prime."""
    row = THEOREMS[theorem_id]
    terms = row.terms(p, **args)
    if isinstance(terms, _Head):
        terms = terms.ends()  # two of its terms, at any length
    return max([row.tier_need(p, args), *(t.b for t in terms if t.b is not None)])


THEOREMS: dict[str, Theorem] = {
    "wolstenholme": Theorem((), lambda p, a, c: verify_wolstenholme(p), lambda p, a, t: 2,
                            lambda p: [Term(1, (1, p - 1))]),
    "wolstenholme-refined": Theorem(
        (), lambda p, a, c: verify_wolstenholme_refined(p), lambda p, a, t: 4,
        lambda p: [Term(1, (1, p - 1)), Term(Fraction(p, 2), (2, p - 1))]),
    "eisenstein": Theorem((), lambda p, a, c: verify_eisenstein(p), lambda p, a, t: 1,
                          lambda p: [Term(1, (1, (p - 1) // 2)), Term(2, q=1)]),
    "lehmer": Theorem((), lambda p, a, c: verify_lehmer(p), lambda p, a, t: 2,
                      lambda p: [Term(1, (1, (p - 1) // 2)), Term(2, q=1), Term(-p, q=2)]),
    **{f"expansion-{w}": Theorem(
        ("k", "J"),
        lambda p, a, c, w=w: verify_expansion_truncation(w, a["k"], p, a["J"]),
        lambda p, a, t: a["J"], lambda p, k, J, w=w: _Head(_expansion_series, (w, k, p), J),
    ) for w in EXPANSION_IDS},
    **{f"cor-remark0-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_cor_remark0(w, a["k"], p),
        lambda p, a, t, e=e: e,
        lambda p, k, f=f: f(p, k, (p - 1) // 2) if p % 2 else [],  # p = 2: never judged
    ) for idx, (w, (e, f)) in enumerate(REMARK0_IDS.items(), start=1)},
    **{f"prop3-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_thm_prop3(w, a["k"], p, c),
        lambda p, a, t, e=e: e,
        # none for k < 1 or p <= 2k, where no p as small holds a case
        lambda p, k, f=f: f(p, k, (p - 1) // 2, p - 1 - 2 * k) if 1 <= k < p / 2 else [],
    ) for idx, (w, (e, f)) in enumerate(PROP3_IDS.items(), start=1)},
    # tier_need, the one read stated by hand: the irregular-pair test reads
    # B_{p-2n-2i-5} or B_{p-2n-2i-1}, and thm-eecj's condition B_{2n+2}.
    "thm-ee10bis": Theorem(
        ("i", "n"), lambda p, a, c: verify_thm_ee10bis(p, a["n"], a["i"], c),
        lambda p, a, t: 2 * a["n"] + t,
        lambda p, i, n: _Head(_ee10bis_series, (p, i), 2 * n + 2),
        tier_need=lambda p, a: p - 2 * a["n"] - 2 * a["i"] - 5,
    ),
    "cor-ee10biss": Theorem(
        ("i", "k"), lambda p, a, c: verify_cor_ee10biss(p, a["i"], a["k"], c),
        lambda p, a, t: a["k"], lambda p, i, k: _Head(_ee10bis_series, (p, i), k),
    ),
    "thm-eecj": Theorem(
        ("i", "n"), lambda p, a, c: verify_thm_eecj(p, a["n"], a["i"], c),
        lambda p, a, t: 2 * a["n"] + t, lambda p, i, n: _Head(_eecj_series, (p, i), 2 * n),
        tier_need=lambda p, a: max(2 * a["n"] + 2, p - 2 * a["n"] - 2 * a["i"] - 1),
    ),
    "cor-eecjj": Theorem(
        ("J",), lambda p, a, c: verify_cor_eecjj(p, a["J"], c),
        lambda p, a, t: _eecjj_exponent(p, a["J"]), lambda p, J: _Head(_eecj_series, (p, 1), J),
    ),
    "prop41": Theorem(("n",), lambda p, a, c: verify_prop41(p, a["n"], c),
                      lambda p, a, t: a["n"], _prop41),
    "prop42": Theorem(("n", "h"), lambda p, a, c: verify_prop42(p, a["n"], a["h"], c),
                      lambda p, a, t: a["n"] - 1, _prop42),
    "thm-ee20": Theorem(
        ("n",), lambda p, a, c: verify_thm_ee20(p, a["n"], c),
        lambda p, a, t: a["n"], lambda p, n: _Head(_ee20_series, (p,), n),
        hypothesis=lambda p, a: 2 * p > a["n"] + 1,
    ),
    "eq47": Theorem(("n",), lambda p, a, c: verify_intermediate_47(p, a["n"], c),
                    lambda p, a, t: a["n"], _eq47),
    "sun": Theorem((), lambda p, a, c: sun_congruence(p, c), lambda p, a, t: 3, lambda p: [
        Term(1, (1, (p - 1) // 2)), Term(Fraction(7, 12) * p * p, b=p - 3),
        Term(2, q=1), Term(-p, q=2), Term(Fraction(2 * p * p, 3), q=3)]),
    "lemma-pb-1": Theorem(
        ("n",), lambda p, a, c: verify_lemma_pb_1(p, a["n"], c), lambda p, a, t: a["n"],
        lambda p, n: [Term(p, b=_power_index(p, n, 0)), Term(1 - p)] if n >= 1 else []),
    "lemma-pb-2": Theorem(
        ("n", "h"), lambda p, a, c: verify_lemma_pb_2(p, a["n"], a["h"], c),
        lambda p, a, t: 1, lambda p, n, h: [Term(p, b=_power_index(p, n, h)), Term(
            -1, (2 * h, p - 1))] if n >= 1 and h >= 0 else []),  # none read at h < 0
    "kummer": Theorem(
        ("h", "k"), lambda p, a, c: verify_kummer(p, a["h"], a["k"], c), lambda p, a, t: 1,
        lambda p, h, k: [Term(Fraction(1, h), b=h), Term(Fraction(-1, k), b=k)] if h * k else []),
}
