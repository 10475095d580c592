"""The verdict engine: one verifier per congruence claim, each judging one case.

Every verifier computes its left-hand side exactly, takes the p-adic
valuation, and compares against the claimed modulus exponent.  Theorems whose
strength depends on side conditions (the tier ladders) resolve the largest
provable tier first, then judge the congruence at that tier; callers may pin
a tier instead to probe the ladder rung by rung.  Verifiers that truncate a
series read it through one running sum, `_truncated`: a case on the series
read last, at no shorter a length, extends that sum, so cases taken in
ascending length add each term once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import count, islice
from typing import NamedTuple

from .bernoulli import BernoulliCache, bernoulli, is_irregular_pair
from .errors import HypothesisViolated
from .exact import binomial, vp
from .harmonic import harmonic
from .primes import fermat_quotient, q_series, q_terms
from .report import ReportRecord

EXPANSION_IDS = ("e10ee", "e10eed", "e10eee", "e10eeeff")
REMARK0_IDS = ("e10eeez", "e10eeezz", "e9a", "e10eeea", "e10eeee", "e10eeeb")
PROP3_IDS = ("e8bbf", "e10eeeb1", "e9bb", "e9bbs")


def _verdict(theorem_id, p, lhs, exponent, tier=None, **params) -> ReportRecord:
    v = vp(lhs, p)
    return ReportRecord(theorem_id, p, params, required_exponent=exponent,
                        achieved_valuation=v, tier=tier, passed=v >= exponent, lhs=lhs)


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


def coeff_c(j: int, cache: BernoulliCache | None = None) -> Fraction:
    """2 B_{j+2} + (-1)^j B_{j+1} + 1/2; equals 1/3 at j = 0 and j = 1."""
    return (
        2 * bernoulli(j + 2, cache)
        + (-1) ** j * bernoulli(j + 1, cache)
        + Fraction(1, 2)
    )


def coeff_a(h: int, cache: BernoulliCache | None = None) -> Fraction:
    """4 (2^(2h+2) - 1) B_{2h+2} / ((2h+1)(2h+2)); equals -1/6 at h = 1."""
    return Fraction(4 * (2 ** (2 * h + 2) - 1), (2 * h + 1) * (2 * h + 2)) * bernoulli(
        2 * h + 2, cache
    )


def coeff_z(p: int, n: int, h: int, cache: BernoulliCache | None = None) -> Fraction:
    """B_{p^(n-1)(p-1) - 2h} / (2h)."""
    return bernoulli(p ** (n - 1) * (p - 1) - 2 * h, cache) / (2 * h)


# -- classical congruences ----------------------------------------------------


def verify_wolstenholme(p: int) -> ReportRecord:
    """H_{p-1} == 0 (mod p^2) for p >= 5."""
    _require(p >= 5, "needs p >= 5")
    return _verdict("wolstenholme", p, harmonic(1, p - 1), 2)


def verify_wolstenholme_refined(p: int) -> ReportRecord:
    """H_{p-1} + (p/2) H^(2)_{p-1} == 0 (mod p^4) for p >= 7."""
    _require(p >= 7, "needs p >= 7")
    lhs = harmonic(1, p - 1) + Fraction(p, 2) * harmonic(2, p - 1)
    return _verdict("wolstenholme-refined", p, lhs, 4)


def verify_eisenstein(p: int) -> ReportRecord:
    """H_{(p-1)/2} + 2 q_p == 0 (mod p) for odd p."""
    _require(p >= 3, "needs an odd prime")
    lhs = harmonic(1, (p - 1) // 2) + 2 * fermat_quotient(p)
    return _verdict("eisenstein", p, lhs, 1)


def verify_lehmer(p: int) -> ReportRecord:
    """H_{(p-1)/2} + 2 q_p - p q_p^2 == 0 (mod p^2) for odd p."""
    _require(p >= 3, "needs an odd prime")
    q = fermat_quotient(p)
    lhs = harmonic(1, (p - 1) // 2) + 2 * q - p * q * q
    return _verdict("lehmer", p, lhs, 2)


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
            yield (-1) ** k * binomial(j + k - 1, j) * p**j * harmonic(k + j, p - 1)
    elif which == "e10eed":
        yield -harmonic(2 * k, p - 1)
        yield 2 * harmonic(2 * k, half)
        for j in count(1):
            yield binomial(j + 2 * k - 1, j) * p**j * harmonic(2 * k + j, half)
    elif which == "e10eee":
        yield -harmonic(k, p - 1)
        yield Fraction(1 + (-1) ** k, 2**k) * harmonic(k, half)
        for j in count(1):
            yield (Fraction((-1) ** k * binomial(j + k - 1, j) * p**j, 2 ** (j + k))
                   * harmonic(k + j, half))
    else:  # e10eeeff
        yield 2 * (2 ** (2 * k) - 1) * harmonic(2 * k, half)
        yield Fraction(0)
        for j in count(1):
            yield (Fraction(binomial(j + 2 * k - 1, j) * (2 ** (2 * k + j) - 1) * p**j, 2**j)
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
    return _verdict(f"expansion-{which}", p, lhs, J, k=k, J=J)


def verify_cor_remark0(which: str, k: int, p: int) -> ReportRecord:
    """The six two-term congruences read off from the expansions (odd p)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(k >= 1, "needs k >= 1")
    half = (p - 1) // 2
    if which == "e10eeez":
        lhs, exponent = harmonic(2 * k - 1, p - 1), 1
    elif which == "e10eeezz":
        lhs = harmonic(2 * k - 1, p - 1) + p * (2 * k - 1) * harmonic(2 * k, half)
        exponent = 2
    elif which == "e9a":
        lhs = harmonic(2 * k - 1, p - 1) + Fraction(p, 2) * (2 * k - 1) * harmonic(
            2 * k, p - 1
        )
        exponent = 2
    elif which == "e10eeea":
        lhs = (
            harmonic(2 * k, p - 1)
            - 2 * harmonic(2 * k, half)
            - p * 2 * k * harmonic(2 * k + 1, half)
        )
        exponent = 2
    elif which == "e10eeee":
        lhs = (2 ** (2 * k) - 1) * harmonic(2 * k, half) + p * Fraction(k, 2) * (
            2 ** (2 * k + 1) - 1
        ) * harmonic(2 * k + 1, half)
        exponent = 2
    elif which == "e10eeeb":
        lhs = 2 * harmonic(2 * k, half) - (2 ** (2 * k + 1) - 1) * harmonic(
            2 * k, p - 1
        )
        exponent = 2
    else:
        raise ValueError(f"unknown congruence {which!r}")
    return _verdict(f"cor-remark0-{REMARK0_IDS.index(which) + 1}", p, lhs, exponent, k=k)


# -- Bernoulli-valued congruences for H^(2k), H^(2k-1) ------------------------


def verify_thm_prop3(which: str, k: int, p: int,
                     cache: BernoulliCache | None = None) -> ReportRecord:
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
        exponent = 2
    elif which == "e10eeeb1":
        lhs = harmonic(2 * k, half) - p * Fraction(k * (2 ** (2 * k + 1) - 1),
                                                   2 * k + 1) * b
        exponent = 2
    elif which == "e9bb":
        lhs = harmonic(2 * k - 1, p - 1) + p * p * Fraction(k * (2 * k - 1),
                                                            2 * k + 1) * b
        exponent = 3
    elif which == "e9bbs":
        lhs = harmonic(2 * k + 1, half) - Fraction(2 * (1 - 4**k), 2 * k + 1) * b
        exponent = 1
    else:
        raise ValueError(f"unknown congruence {which!r}")
    return _verdict(f"prop3-{PROP3_IDS.index(which) + 1}", p, lhs, exponent, k=k)


# -- the tier-ladder theorem for H^(j)_{p-1} ----------------------------------


def _ee10bis_tier(p: int, n: int, i: int,
                  cache: BernoulliCache | None = None) -> int:
    if is_irregular_pair(p, p - 2 * n - 2 * i - 5, cache):
        return 5
    if p >= 2 * n + 2 * i + 7:
        return 4
    if p >= 5 or (p == 3 and n % 3 == 0):
        return 3
    if p >= 3:
        return 2
    return 1


def _ee10bis_series(p: int, i: int, cache: BernoulliCache | None) -> Iterator[Fraction]:
    """0, then C(j+2i,2i) B_j H^(j+2i+1)_{p-1} (-p)^j for j = 0, 1, ..."""
    yield Fraction(0)
    for j in count():
        yield (binomial(j + 2 * i, 2 * i) * (-p) ** j * bernoulli(j, cache)
               * harmonic(j + 2 * i + 1, p - 1))


def _ee10bis_sum(p: int, i: int, length: int, cache: BernoulliCache | None) -> Fraction:
    """The thm-ee10bis series at j < length; cor-ee10biss reads the same sum."""
    return _truncated(("ee10bis", p, i, cache), _ee10bis_series(p, i, cache), length)


def verify_thm_ee10bis(p: int, n: int, i: int, tier: int | None = None,
                       cache: BernoulliCache | None = None) -> ReportRecord:
    """sum(C(j+2i,2i) B_j H^(j+2i+1)_{p-1} (-p)^j, j=0..2n+1) mod p^(2n+m).

    The tier m is resolved to the largest value whose condition holds unless
    the caller pins one.  The ladder starts at m = 1: rung m' <= m holds iff
    the achieved valuation is at least 2n + m'.
    """
    _require(p >= 2, "needs a prime")
    _require(n >= 0 and i >= 0, "needs n, i >= 0")
    m = _ee10bis_tier(p, n, i, cache) if tier is None else tier
    lhs = _ee10bis_sum(p, i, 2 * n + 2, cache)
    return _verdict("thm-ee10bis", p, lhs, 2 * n + m, tier=m, n=n, i=i)


def verify_cor_ee10biss(p: int, i: int, k: int,
                        cache: BernoulliCache | None = None) -> ReportRecord:
    """The same series truncated at j < k is divisible by p^k (odd p)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(k >= 1, "needs k >= 1")
    return _verdict("cor-ee10biss", p, _ee10bis_sum(p, i, k, cache), k, i=i, k=k)


# -- the half-index even-order ladder -----------------------------------------


def _eecj_tier(p: int, n: int, i: int, cache: BernoulliCache | None) -> int:
    half = (p - 1) // 2
    cond = (
        binomial(2 * n + 2 * i, 2 * n + 2)
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


def _eecj_series(p: int, i: int, cache: BernoulliCache | None) -> Iterator[Fraction]:
    """0, then C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j for
    j = 0, 1, ..."""
    yield Fraction(0)
    half = (p - 1) // 2
    for j in count():
        yield (Fraction(binomial(j + 2 * i - 1, j + 1) * (2 ** (j + 2 * i) - 1) * p**j, 2**j)
               * coeff_c(j, cache) * harmonic(j + 2 * i, half))


def _eecj_sum(p: int, i: int, length: int, cache: BernoulliCache | None) -> Fraction:
    """The thm-eecj series at j < length; cor-eecjj reads the same sum at i = 1."""
    return _truncated(("eecj", p, i, cache), _eecj_series(p, i, cache), length)


def verify_thm_eecj(p: int, n: int, i: int, tier: int | None = None,
                    cache: BernoulliCache | None = None) -> ReportRecord:
    """sum(C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j) mod p^(2n+m).

    The sum runs over j < 2n.  The ladder starts at m = 0: rung m' <= m holds
    iff the achieved valuation is at least 2n + m'.
    """
    _require(p >= 3, "needs odd p")
    _require(n >= 1 and i >= 1, "needs n, i >= 1")
    m = _eecj_tier(p, n, i, cache) if tier is None else tier
    lhs = _eecj_sum(p, i, 2 * n, cache)
    return _verdict("thm-eecj", p, lhs, 2 * n + m, tier=m, n=n, i=i)


def _eecjj_exponent(p: int, J: int) -> int:
    """J, less one when J is odd and (p-1) | (J+1).

    The first omitted term carries B_{J+1}, whose denominator contains p
    exactly then; the 2^(J+2)-1 factor protects B_{J+2} but not B_{J+1}, so
    that term only contributes p^(J-1).
    """
    return J - 1 if (J % 2 == 1 and (J + 1) % (p - 1) == 0) else J


def verify_cor_eecjj(p: int, J: int, cache: BernoulliCache | None = None) -> ReportRecord:
    """The i=1 series truncated at j < J is divisible by p^J, or by p^(J-1)
    where _eecjj_exponent drops it (odd p)."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(J >= 1, "needs J >= 1")
    return _verdict("cor-eecjj", p, _eecj_sum(p, 1, J, cache), _eecjj_exponent(p, J), J=J)


# -- the odd-order half-index results -----------------------------------------


def verify_prop41(p: int, n: int, cache: BernoulliCache | None = None) -> ReportRecord:
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
    return _verdict("prop41", p, lhs, n, n=n)


def verify_prop42(p: int, n: int, h: int,
                  cache: BernoulliCache | None = None) -> ReportRecord:
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
            * binomial(2 * i + 2 * h, 2 * i)
            * coeff_z(p, n, h + i, cache)
            * (2 ** (2 * h + 1) - Fraction(1, 2 ** (2 * i)))
        )
    return _verdict("prop42", p, lhs, n - 1, n=n, h=h)


def _ee20_series(p: int, cache: BernoulliCache | None) -> Iterator[Fraction]:
    """0, then the terms j = 0, 1, ... of the B/H series plus the q_p series."""
    yield Fraction(0)
    half = (p - 1) // 2
    q = q_terms(fermat_quotient(p), p)
    for j in count():
        coeff = Fraction((2 ** (j + 1) - 1) * (2 ** (j + 2) - 1) * 2 * p**j,
                         (j + 1) * (j + 2) * 2**j)
        yield coeff * bernoulli(j + 2, cache) * harmonic(j + 1, half) + next(q)


def verify_thm_ee20(p: int, n: int, cache: BernoulliCache | None = None) -> ReportRecord:
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
    return _verdict("thm-ee20", p, lhs, n, n=n)


def verify_intermediate_47(p: int, n: int,
                           cache: BernoulliCache | None = None) -> ReportRecord:
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
    return _verdict("eq47", p, left - right, n, n=n)


def sun_congruence(p: int, cache: BernoulliCache | None = None) -> ReportRecord:
    """H_{(p-1)/2} + (7/12) B_{p-3} p^2 + 2(q - q^2 p/2 + q^3 p^2/3) mod p^3."""
    _require(p >= 5, "needs p >= 5")
    q = fermat_quotient(p)
    lhs = (
        harmonic(1, (p - 1) // 2)
        + Fraction(7, 12) * bernoulli(p - 3, cache) * p * p
        + 2 * (q - Fraction(q * q * p, 2) + Fraction(q**3 * p * p, 3))
    )
    return _verdict("sun", p, lhs, 3)


# -- the theorem table ----------------------------------------------------------


class Theorem(NamedTuple):
    """What `verify` and `scan` know of one theorem id.

    ``params`` name the grid parameters as their CLI flags do, in the order a
    scan nests them, the last innermost: a series truncated at its last param
    is then read at ascending lengths, one running sum per prime and values
    of the other params.  ``run(p, args, cache)`` is the verdict on one case
    (``args`` also holds a pinned ``tier``); it calls its verifier by
    module-level name, so a profiler can wrap it.  ``bernoulli_need(p, args)``
    is the largest Bernoulli index one case reads at p, and at any smaller p
    (-1 for none); ``verify`` and ``scan`` fill the cache to its maximum over
    the cases at the grid's largest prime.  Scans skip cases failing
    ``hypothesis`` and cases whose verifier raises HypothesisViolated, so
    ``hypothesis`` states only what a verifier deliberately leaves unchecked.
    ``tiers`` are the rungs of a tier ladder a case may pin with ``tier``;
    None for a theorem without one.
    """

    params: tuple[str, ...]
    run: Callable[[int, dict, BernoulliCache | None], ReportRecord]
    bernoulli_need: Callable[[int, dict], int] = lambda p, a: -1
    hypothesis: Callable[[int, dict], bool] = lambda p, a: True
    tiers: range | None = None

    def case(self, args: dict) -> dict:
        """The params a record on these arguments names (``j_terms`` as J)."""
        return {"J" if n == "j_terms" else n: args[n] for n in self.params}


def _ladder_need(offset: int):
    """The series reads B_{2n+1}; resolving the tier reads B_{2n+2} (thm-eecj)
    and B_{p-2n-2i-offset}, to test for an irregular pair."""

    def need(p: int, a: dict) -> int:
        series = 2 * a["n"] + 1
        if a.get("tier") is not None:
            return series
        return max(series + 1, p - 2 * a["n"] - 2 * a["i"] - offset)

    return need


def _z_need(p: int, a: dict) -> int:
    # coeff_z(p, n, h' >= h) reads B_{p^(n-1)(p-1) - 2h'}; n < 2 reads none
    return p ** (a["n"] - 1) * (p - 1) - 2 * a.get("h", 1) if a["n"] >= 2 else -1


THEOREMS: dict[str, Theorem] = {
    "wolstenholme": Theorem((), lambda p, a, c: verify_wolstenholme(p)),
    "wolstenholme-refined": Theorem((), lambda p, a, c: verify_wolstenholme_refined(p)),
    "eisenstein": Theorem((), lambda p, a, c: verify_eisenstein(p)),
    "lehmer": Theorem((), lambda p, a, c: verify_lehmer(p)),
    **{f"expansion-{w}": Theorem(
        ("k", "j_terms"),
        lambda p, a, c, w=w: verify_expansion_truncation(w, a["k"], p, a["j_terms"]),
    ) for w in EXPANSION_IDS},
    **{f"cor-remark0-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_cor_remark0(w, a["k"], p),
    ) for idx, w in enumerate(REMARK0_IDS, start=1)},
    **{f"prop3-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_thm_prop3(w, a["k"], p, c),
        lambda p, a: p - 1 - 2 * a["k"],
    ) for idx, w in enumerate(PROP3_IDS, start=1)},
    "thm-ee10bis": Theorem(
        ("i", "n"), lambda p, a, c: verify_thm_ee10bis(p, a["n"], a["i"], a.get("tier"), c),
        _ladder_need(5), tiers=range(1, 6),
    ),
    "cor-ee10biss": Theorem(
        ("i", "k"), lambda p, a, c: verify_cor_ee10biss(p, a["i"], a["k"], c),
        lambda p, a: a["k"] - 1,
    ),
    "thm-eecj": Theorem(
        ("i", "n"), lambda p, a, c: verify_thm_eecj(p, a["n"], a["i"], a.get("tier"), c),
        _ladder_need(1), tiers=range(0, 3),
    ),
    "cor-eecjj": Theorem(
        ("j_terms",), lambda p, a, c: verify_cor_eecjj(p, a["j_terms"], c),
        lambda p, a: a["j_terms"] + 1,
    ),
    "prop41": Theorem(("n",), lambda p, a, c: verify_prop41(p, a["n"], c), _z_need),
    "prop42": Theorem(("n", "h"), lambda p, a, c: verify_prop42(p, a["n"], a["h"], c), _z_need),
    "thm-ee20": Theorem(
        ("n",), lambda p, a, c: verify_thm_ee20(p, a["n"], c),
        lambda p, a: a["n"] + 1,
        hypothesis=lambda p, a: 2 * p > a["n"] + 1,
    ),
    "eq47": Theorem(("n",), lambda p, a, c: verify_intermediate_47(p, a["n"], c), _z_need),
    "sun": Theorem((), lambda p, a, c: sun_congruence(p, c), lambda p, a: p - 3),
}
