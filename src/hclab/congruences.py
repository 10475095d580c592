"""The verdict engine: one verifier per congruence claim.

Every verifier computes its left-hand side exactly, takes the p-adic
valuation, and compares against the claimed modulus exponent.  Theorems whose
strength depends on side conditions (the tier ladders) resolve the largest
provable tier first, then judge the congruence at that tier; callers may pin
a tier instead to probe the ladder rung by rung.  Theorems that truncate one
series judge every length of a grid in one pass over its terms.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice

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


def _walk(lengths: Sequence[int], series: Iterator[Fraction],
          judge: Callable[[int, Fraction], ReportRecord]) -> list[tuple[ReportRecord, float]]:
    """Judge a truncated series at every length in ascending ``lengths``, in
    one pass.

    ``series`` yields the left-hand side at length 0, then the terms j = 0,
    1, ..., each added once to a running left-hand side; ``judge(L, lhs)``
    makes the record at length L.  Each record is paired with the ms spent
    on it: extending the sum from the previous length, then judging it.  So
    the times of one pass add up to the pass.
    """
    timed = []
    t0 = time.perf_counter()
    lhs, done = next(series), 0
    for length in lengths:
        lhs = sum(islice(series, length - done), lhs)
        done = length
        record = judge(length, lhs)
        t1 = time.perf_counter()
        timed.append((record, (t1 - t0) * 1000.0))
        t0 = t1
    return timed


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


def verify_expansion_truncations(which: str, k: int, p: int,
                                 Js: Sequence[int]) -> list[tuple[ReportRecord, float]]:
    """Truncations of one of the four harmonic expansions at j < J, for each
    J in ascending ``Js``, in one pass.

    The left-hand side is (truncated series) - (target value); every omitted
    term carries p^j with j >= J times a p-integral cofactor, so the claimed
    exponent is J.
    """
    if which not in EXPANSION_IDS:
        raise ValueError(f"unknown expansion {which!r}")
    _require(k >= 1, "needs k >= 1")
    _require(all(J >= 0 for J in Js), "needs J >= 0")
    if which != "e10ee":
        _require(p % 2 == 1, "needs odd p")
    return _walk(Js, _expansion_series(which, k, p),
                 lambda J, lhs: _verdict(f"expansion-{which}", p, lhs, J, k=k, J=J))


def verify_expansion_truncation(which: str, k: int, p: int, J: int) -> ReportRecord:
    """The truncation at j < J alone; see verify_expansion_truncations."""
    return verify_expansion_truncations(which, k, p, [J])[0][0]


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


def _ee10bis_terms(p: int, i: int, cache: BernoulliCache | None) -> Iterator[Fraction]:
    """C(j+2i,2i) B_j H^(j+2i+1)_{p-1} (-p)^j for j = 0, 1, ..."""
    for j in count():
        yield (binomial(j + 2 * i, 2 * i) * (-p) ** j * bernoulli(j, cache)
               * harmonic(j + 2 * i + 1, p - 1))


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
    lhs = sum(islice(_ee10bis_terms(p, i, cache), 2 * n + 2), Fraction(0))
    return _verdict("thm-ee10bis", p, lhs, 2 * n + m, tier=m, n=n, i=i)


def verify_cor_ee10biss_truncations(p: int, i: int, ks: Sequence[int],
                                    cache: BernoulliCache | None = None
                                    ) -> list[tuple[ReportRecord, float]]:
    """The same series truncated at j < k is divisible by p^k (odd p), for
    each k in ascending ``ks``, in one pass."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(all(k >= 1 for k in ks), "needs k >= 1")
    return _walk(ks, chain([Fraction(0)], _ee10bis_terms(p, i, cache)),
                 lambda k, lhs: _verdict("cor-ee10biss", p, lhs, k, i=i, k=k))


def verify_cor_ee10biss(p: int, i: int, k: int,
                        cache: BernoulliCache | None = None) -> ReportRecord:
    """The truncation at j < k alone; see verify_cor_ee10biss_truncations."""
    return verify_cor_ee10biss_truncations(p, i, [k], cache)[0][0]


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


def _eecj_terms(p: int, i: int, cache: BernoulliCache | None) -> Iterator[Fraction]:
    """C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j for j = 0, 1, ..."""
    half = (p - 1) // 2
    for j in count():
        yield (Fraction(binomial(j + 2 * i - 1, j + 1) * (2 ** (j + 2 * i) - 1) * p**j, 2**j)
               * coeff_c(j, cache) * harmonic(j + 2 * i, half))


def verify_thm_eecj(p: int, n: int, i: int, tier: int | None = None,
                    cache: BernoulliCache | None = None) -> ReportRecord:
    """sum(C(j+2i-1,j+1) (2^(j+2i)-1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j) mod p^(2n+m).

    The sum runs over j < 2n.  The ladder starts at m = 0: rung m' <= m holds
    iff the achieved valuation is at least 2n + m'.
    """
    _require(p >= 3, "needs odd p")
    _require(n >= 1 and i >= 1, "needs n, i >= 1")
    m = _eecj_tier(p, n, i, cache) if tier is None else tier
    lhs = sum(islice(_eecj_terms(p, i, cache), 2 * n), Fraction(0))
    return _verdict("thm-eecj", p, lhs, 2 * n + m, tier=m, n=n, i=i)


def _eecjj_exponent(p: int, J: int) -> int:
    """J, less one when J is odd and (p-1) | (J+1).

    The first omitted term carries B_{J+1}, whose denominator contains p
    exactly then; the 2^(J+2)-1 factor protects B_{J+2} but not B_{J+1}, so
    that term only contributes p^(J-1).
    """
    return J - 1 if (J % 2 == 1 and (J + 1) % (p - 1) == 0) else J


def verify_cor_eecjj_truncations(p: int, Js: Sequence[int],
                                 cache: BernoulliCache | None = None
                                 ) -> list[tuple[ReportRecord, float]]:
    """The i=1 series truncated at j < J is divisible by p^J, or by p^(J-1)
    where _eecjj_exponent drops it (odd p), for each J in ascending ``Js``,
    in one pass."""
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(all(J >= 1 for J in Js), "needs J >= 1")
    return _walk(Js, chain([Fraction(0)], _eecj_terms(p, 1, cache)),
                 lambda J, lhs: _verdict("cor-eecjj", p, lhs, _eecjj_exponent(p, J), J=J))


def verify_cor_eecjj(p: int, J: int, cache: BernoulliCache | None = None) -> ReportRecord:
    """The truncation at j < J alone; see verify_cor_eecjj_truncations."""
    return verify_cor_eecjj_truncations(p, [J], cache)[0][0]


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


def verify_thm_ee20_truncations(p: int, ns: Sequence[int],
                                cache: BernoulliCache | None = None
                                ) -> list[tuple[ReportRecord, float]]:
    """The final theorem: the B/H series plus the q_p series, modulo p^n, for
    each n in ascending ``ns``, in one pass.

    The sum is well-defined for any odd p, so the p > (n+1)/2 hypothesis is
    deliberately not enforced here: evaluating just outside it is how the
    sharpness counterexample (p=3, n=5, valuation 4 < 5) is exhibited.
    Grid scans apply the hypothesis as a skip filter instead.
    """
    _require(p % 2 == 1 and p >= 3, "needs odd p")
    _require(all(n >= 1 for n in ns), "needs n >= 1")
    return _walk(ns, _ee20_series(p, cache), lambda n, lhs: _verdict("thm-ee20", p, lhs, n, n=n))


def verify_thm_ee20(p: int, n: int, cache: BernoulliCache | None = None) -> ReportRecord:
    """The truncation at j < n alone; see verify_thm_ee20_truncations."""
    return verify_thm_ee20_truncations(p, [n], cache)[0][0]


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


@dataclass(frozen=True)
class Theorem:
    """What `verify` and `scan` know of one theorem id.

    ``params`` name the grid parameters as their CLI flags do.  ``run(p, args,
    cache)`` is the verdict on one case (``args`` also holds a pinned ``tier``).
    A theorem that truncates one series at its last param has a ``walk(p,
    args, lengths, cache)`` instead, which judges every length in ascending
    ``lengths`` in one pass and pairs each record with its time, as `_walk`
    does.  Both call their verifier by module-level name, so a profiler can
    wrap it.  ``bernoulli_need(p_hi, grids, tier)`` bounds every Bernoulli
    index that cases with p <= p_hi read (-1 for none); ``verify`` and
    ``scan`` fill the cache to it before the first case.  Scans skip cases
    failing ``hypothesis``; with a ``walk``, it states every condition its
    verifier puts on the last param, so that a scan walks only lengths the
    verifier accepts.
    """

    params: tuple[str, ...]
    run: Callable[[int, dict, BernoulliCache | None], ReportRecord] | None = None
    bernoulli_need: Callable[[int, dict, int | None], int] = lambda p_hi, g, tier: -1
    hypothesis: Callable[[int, dict], bool] = lambda p, a: True
    tiered: bool = False
    walk: Callable[[int, dict, list[int], BernoulliCache | None],
                   list[tuple[ReportRecord, float]]] | None = None

    def case(self, args: dict) -> dict:
        """The params a record on these arguments names (``j_terms`` as J)."""
        return {"J" if n == "j_terms" else n: args[n] for n in self.params}

    def judge(self, p: int, cases: list[dict],
              cache: BernoulliCache | None) -> list[tuple[ReportRecord, float]]:
        """The record on each case, paired with the ms spent on it.  With a
        ``walk``, the cases differ only in the last param, which ascends."""
        if self.walk is not None:
            return self.walk(p, cases[0], [a[self.params[-1]] for a in cases], cache)
        timed = []
        for args in cases:
            t0 = time.perf_counter()
            record = self.run(p, args, cache)
            timed.append((record, (time.perf_counter() - t0) * 1000.0))
        return timed


def _ladder_need(offset: int):
    """The series reads B_{2n+1}; resolving the tier reads B_{2n+2} (thm-eecj)
    and B_{p-2n-2i-offset}, to test for an irregular pair."""

    def need(p_hi: int, g: dict, tier: int | None) -> int:
        series = 2 * max(g["n"]) + 1
        if tier is not None:
            return series
        return max(series + 1, p_hi - 2 * min(g["n"]) - 2 * min(g["i"]) - offset)

    return need


def _z_need(p_hi: int, g: dict, tier: int | None) -> int:
    # coeff_z(p, n, h) with h >= 1 reads B_{p^(n-1)(p-1) - 2h}
    return p_hi ** max(max(g["n"]) - 1, 0) * (p_hi - 1) - 2


THEOREMS: dict[str, Theorem] = {
    "wolstenholme": Theorem((), lambda p, a, c: verify_wolstenholme(p)),
    "wolstenholme-refined": Theorem((), lambda p, a, c: verify_wolstenholme_refined(p)),
    "eisenstein": Theorem((), lambda p, a, c: verify_eisenstein(p)),
    "lehmer": Theorem((), lambda p, a, c: verify_lehmer(p)),
    **{f"expansion-{w}": Theorem(
        ("k", "j_terms"), hypothesis=lambda p, a: a["j_terms"] >= 0,
        walk=lambda p, a, Js, c, w=w: verify_expansion_truncations(w, a["k"], p, Js),
    ) for w in EXPANSION_IDS},
    **{f"cor-remark0-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_cor_remark0(w, a["k"], p),
    ) for idx, w in enumerate(REMARK0_IDS, start=1)},
    **{f"prop3-{idx}": Theorem(
        ("k",), lambda p, a, c, w=w: verify_thm_prop3(w, a["k"], p, c),
        lambda p_hi, g, tier: p_hi - 3,  # B_{p-1-2k}, k >= 1
    ) for idx, w in enumerate(PROP3_IDS, start=1)},
    "thm-ee10bis": Theorem(
        ("n", "i"), lambda p, a, c: verify_thm_ee10bis(p, a["n"], a["i"], a.get("tier"), c),
        _ladder_need(5), tiered=True,
    ),
    "cor-ee10biss": Theorem(
        ("i", "k"), bernoulli_need=lambda p_hi, g, tier: max(g["k"]) - 1,
        hypothesis=lambda p, a: a["k"] >= 1,
        walk=lambda p, a, ks, c: verify_cor_ee10biss_truncations(p, a["i"], ks, c),
    ),
    "thm-eecj": Theorem(
        ("n", "i"), lambda p, a, c: verify_thm_eecj(p, a["n"], a["i"], a.get("tier"), c),
        _ladder_need(1), tiered=True,
    ),
    "cor-eecjj": Theorem(
        ("j_terms",), bernoulli_need=lambda p_hi, g, tier: max(g["j_terms"]) + 1,
        hypothesis=lambda p, a: a["j_terms"] >= 1,
        walk=lambda p, a, Js, c: verify_cor_eecjj_truncations(p, Js, c),
    ),
    "prop41": Theorem(("n",), lambda p, a, c: verify_prop41(p, a["n"], c), _z_need),
    "prop42": Theorem(("n", "h"), lambda p, a, c: verify_prop42(p, a["n"], a["h"], c), _z_need),
    "thm-ee20": Theorem(
        ("n",), bernoulli_need=lambda p_hi, g, tier: max(g["n"]) + 1,
        hypothesis=lambda p, a: a["n"] >= 1 and 2 * p > a["n"] + 1,
        walk=lambda p, a, ns, c: verify_thm_ee20_truncations(p, ns, c),
    ),
    "eq47": Theorem(("n",), lambda p, a, c: verify_intermediate_47(p, a["n"], c), _z_need),
    "sun": Theorem((), lambda p, a, c: sun_congruence(p, c), lambda p_hi, g, tier: p_hi - 3),
}
