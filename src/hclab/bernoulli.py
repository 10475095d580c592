"""Exact Bernoulli numbers, a persistent cache, and the classical identities.

Every verifier in the package funnels its Bernoulli needs through a
BernoulliCache so the O(n^2) recurrence is paid once per index.  The cache
checks each even-index denominator against the Von Staudt-Clausen product on
insert: a wrong denominator would silently poison every downstream verdict.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from . import _kernels
from .errors import CacheFileCorrupt, HypothesisViolated, IndexCeilingExceeded
from .exact import PrimePower, binomial, is_prime, vp

DEFAULT_CEILING = 2500


def von_staudt_denominator(two_j: int) -> int:
    """Product of the primes p with (p-1) | two_j; the denominator of B_{two_j}."""
    if two_j < 2 or two_j % 2:
        raise ValueError("index must be a positive even integer")
    d = 1
    for div in range(1, two_j + 1):
        if two_j % div == 0 and is_prime(div + 1):
            d *= div + 1
    return d


class BernoulliCache:
    """Append-only store of exact B_n, optionally mirrored to a text file.

    File format: one record per line, ``<index> <num>/<den>``, indices
    strictly increasing and contiguous from 0 (odd indices stored as 0/1).
    Readers are free-threaded; extension holds a single writer lock.
    """

    def __init__(self, path=None, ceiling: int = DEFAULT_CEILING):
        self._nums: list[int] = []
        self._dens: list[int] = []
        self._path = path
        self._ceiling = ceiling
        self._lock = threading.Lock()
        if path is not None:
            self._load()

    @property
    def high_water(self) -> int:
        """Largest contiguous index stored; -1 when empty."""
        return len(self._nums) - 1

    @property
    def ceiling(self) -> int:
        return self._ceiling

    def _load(self):
        try:
            fh = open(self._path, encoding="utf-8")
        except FileNotFoundError:
            return
        with fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{self._path}:{lineno}"
                try:
                    idx_s, frac_s = line.split()
                    num_s, den_s = frac_s.split("/")
                    idx, num, den = int(idx_s), int(num_s), int(den_s)
                except ValueError as exc:
                    raise CacheFileCorrupt(
                        f"{where}: malformed line {line[:40]!r}: {exc}"
                    ) from None
                if idx != len(self._nums):
                    raise CacheFileCorrupt(f"{where}: non-contiguous index {idx}")
                try:
                    self._append_checked(num, den)
                except ValueError as exc:
                    raise CacheFileCorrupt(f"{where}: {exc}") from None

    def _append_checked(self, num: int, den: int):
        n = len(self._nums)
        if n == 0 and (num, den) != (1, 1):
            raise ValueError("B_0 must be 1")
        if n == 1 and (num, den) != (-1, 2):
            raise ValueError("B_1 must be -1/2")
        if n >= 3 and n % 2 == 1 and num != 0:
            raise ValueError(f"B_{n} must vanish")
        if n >= 2 and n % 2 == 0 and den != von_staudt_denominator(n):
            raise ValueError(f"B_{n} denominator fails the Von Staudt-Clausen check")
        self._nums.append(num)
        self._dens.append(den)

    def extend_to(self, n: int):
        if n > self._ceiling:
            raise IndexCeilingExceeded(
                f"Bernoulli index {n} exceeds ceiling {self._ceiling}"
            )
        if n <= self.high_water:
            return
        with self._lock:
            if n <= self.high_water:
                return
            old = len(self._nums)
            nums = list(self._nums)
            dens = list(self._dens)
            _kernels.bernoulli_extend(nums, dens, n)
            for i in range(old, len(nums)):
                self._append_checked(nums[i], dens[i])
            if self._path is not None:
                with open(self._path, "a", encoding="utf-8") as fh:
                    for i in range(old, len(self._nums)):
                        fh.write(f"{i} {self._nums[i]}/{self._dens[i]}\n")

    def get(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be non-negative")
        self.extend_to(n)
        return Fraction(self._nums[n], self._dens[n])


_default_cache = BernoulliCache()


def default_cache() -> BernoulliCache:
    return _default_cache


def bernoulli(n: int, cache: BernoulliCache | None = None) -> Fraction:
    """Exact B_n (B_1 = -1/2), extending the cache contiguously."""
    return (cache or _default_cache).get(n)


def check_recurrence(n: int, cache: BernoulliCache | None = None) -> bool:
    """sum(B_k C(n,k), k=0..n) == (-1)^n B_n, exactly."""
    b = (cache or _default_cache).get
    total = sum(b(k) * binomial(n, k) for k in range(n + 1))
    return total == (-1) ** n * b(n)


def faulhaber_sum(n: int, i: int, cache: BernoulliCache | None = None) -> Fraction:
    """sum(j^i, j=1..n) through the Bernoulli closed form."""
    b = (cache or _default_cache).get
    total = sum(
        (-1) ** h * binomial(i + 1, h) * b(h) * Fraction(n) ** (i + 1 - h)
        for h in range(i + 1)
    )
    return Fraction(total, i + 1)


def check_kummer(h: int, k: int, p: int, cache: BernoulliCache | None = None) -> bool:
    """B_h/h == B_k/k (mod p) for h == k (mod p-1), neither divisible by p-1."""
    if (h - k) % (p - 1) != 0 or h % (p - 1) == 0 or k % (p - 1) == 0:
        raise HypothesisViolated(
            f"Kummer congruence needs h == k mod {p - 1}, neither divisible by it"
        )
    b = (cache or _default_cache).get
    return vp(Fraction(b(h), h) - Fraction(b(k), k), p) >= 1


def check_lemma_binomial_sums(k: int, cache: BernoulliCache | None = None) -> bool:
    """The four binomial-weighted Bernoulli sum identities, exactly at k."""
    b = (cache or _default_cache).get
    half = Fraction(1, 2)

    def s(top):
        return sum(binomial(top, 2 * j - 1) * b(2 * j) for j in range(1, k + 1))

    return (
        s(2 * k - 1) == half + b(2 * k) + b(2 * k - 1)
        and s(2 * k) == half - b(2 * k)
        and s(2 * k + 1) == half
        and s(2 * k + 2) == half - (2 * k + 3) * b(2 * k + 2)
    )


def check_lemma_weighted_sums(k: int, cache: BernoulliCache | None = None) -> bool:
    """The two 2^j-weighted Bernoulli sum identities, exactly at k."""
    b = (cache or _default_cache).get
    lhs1 = sum(b(j) * (2**j - 1) * binomial(k, j) for j in range(k + 1))
    lhs2 = sum(b(j) * 2**j * binomial(k, j) for j in range(k + 1))
    return lhs1 == (-1) ** k * b(k) * (1 - 2**k) and lhs2 == 2 * b(k) * (
        1 - Fraction(2) ** (k - 1)
    )


def check_lemma_tangent_identity(k: int, cache: BernoulliCache | None = None) -> bool:
    """The tangent-derived identity tying weighted B_{j+1}/(j+1) to B_{2k}/2k."""
    b = (cache or _default_cache).get
    lhs = sum(
        binomial(2 * k - 1, j)
        * (2**j - 1)
        * (2 ** (j + 1) - 1)
        * Fraction(b(j + 1), j + 1)
        for j in range(2 * k)
    )
    return lhs == (2 ** (2 * k) - 1) * Fraction(b(2 * k), 2 * k)


def is_irregular_pair(p: int, two_k: int, cache: BernoulliCache | None = None) -> bool:
    """True iff p >= two_k + 3 and p divides the numerator of B_{two_k}."""
    if two_k % 2 or two_k < 2:
        return False
    if p < two_k + 3:
        return False
    return vp(bernoulli(two_k, cache), p) >= 1


def irregular_pairs(p_max: int, cache: BernoulliCache | None = None):
    """All irregular pairs (p, 2k) with p <= p_max, ascending."""
    from .primes import primes_in

    out = []
    for p in primes_in(3, p_max):
        for two_k in range(2, p - 2, 2):
            if is_irregular_pair(p, two_k, cache):
                out.append((p, two_k))
    return out
