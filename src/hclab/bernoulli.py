"""Exact Bernoulli numbers, a persistent cache, and the classical identities.

Every verifier in the package funnels its Bernoulli needs through a
BernoulliCache, filled from the tangent-number kernel in as few calls as
possible: the kernel rebuilds its triangle from B_0 on every call.  A wrong
value would silently poison every downstream verdict, so the cache puts each
even-index value B_2k it loads or computes through four checks:

- sign: B_2k has the sign (-1)^(k+1);
- denominator: it is the product of the primes p with (p-1) | 2k;
- full Von Staudt-Clausen: B_2k plus the sum of those 1/p is an integer;
- magnitude: log|B_2k| is log 2 + log (2k)! - 2k log 2pi to within 1.

The last three read one table, sieved once per process up to CEILING (or
further, if a larger index is asked for), so each check is O(1) per index.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left
from contextlib import contextmanager, suppress
from fractions import Fraction
from math import gcd, lgamma, log, pi

from . import _kernels
from .errors import CacheFileCorrupt, HypothesisViolated, IndexCeilingExceeded
from .exact import binomial, vp

CEILING = 2500


def check_ceiling(n: int) -> None:
    """Reject an index past CEILING before anything is computed."""
    if n > CEILING:
        raise IndexCeilingExceeded(f"needs Bernoulli index {n}, beyond ceiling {CEILING}")


# Von Staudt-Clausen data by index, filled for even indices only: the
# denominator of B_n, the product of the primes p with (p-1) | n, and the sum
# of den/p over those primes.  Built by _von_staudt_table, once per process.
_vsc_dens: list[int] = []
_vsc_sums: list[int] = []


def _von_staudt_table(n: int) -> None:
    """Sieve the Von Staudt-Clausen data up to max(n, CEILING), unless the
    table already reaches n."""
    global _vsc_dens, _vsc_sums
    if n < len(_vsc_dens):
        return
    from .primes import primes_in

    top = max(n, CEILING)
    primes = primes_in(2, top + 1)
    # p - 1 is even for odd p; p = 2 divides the denominator at every even index
    steps = [(p, max(p - 1, 2)) for p in primes]
    dens = [1] * (top + 1)
    for p, step in steps:
        for i in range(step, top + 1, step):
            dens[i] *= p
    sums = [0] * (top + 1)
    for p, step in steps:
        for i in range(step, top + 1, step):
            sums[i] += dens[i] // p
    _vsc_dens, _vsc_sums = dens, sums


def von_staudt_denominator(two_j: int) -> int:
    """Product of the primes p with (p-1) | two_j; the denominator of B_{two_j}."""
    if two_j < 2 or two_j % 2:
        raise ValueError("index must be a positive even integer")
    _von_staudt_table(two_j)
    return _vsc_dens[two_j]


def _check_value(n: int, num: int, den: int) -> None:
    """Raise ValueError unless num/den can be B_n, checked cheaply."""
    if n == 0 and (num, den) != (1, 1):
        raise ValueError("B_0 must be 1")
    if n == 1 and (num, den) != (-1, 2):
        raise ValueError("B_1 must be -1/2")
    if n >= 3 and n % 2 == 1 and (num, den) != (0, 1):
        raise ValueError(f"B_{n} must vanish, stored as 0/1")
    if n >= 2 and n % 2 == 0:
        # B_2k has the sign (-1)^(k+1)
        if n % 4 == 2 and num <= 0 or n % 4 == 0 and num >= 0:
            raise ValueError(f"B_{n} must be {'positive' if n % 4 == 2 else 'negative'}")
        if den != von_staudt_denominator(n):
            raise ValueError(f"B_{n} denominator fails the Von Staudt-Clausen check")
        # B_n + sum(1/p) is an integer; the table reaches n after the lookup
        if (num + _vsc_sums[n]) % den:
            raise ValueError(f"B_{n} numerator fails the full Von Staudt-Clausen check")
        # |B_n| = 2 n! zeta(n) / (2 pi)^n, and 0 < log zeta(n) <= log(pi^2/6) < 0.5
        log_magnitude = log(2) + lgamma(n + 1) - n * log(2 * pi)
        if abs(log(abs(num)) - log(den) - log_magnitude) > 1:
            raise ValueError(f"B_{n} magnitude is off from 2 n! / (2 pi)^n")


@contextmanager
def any_digits():
    """Lift the int<->str digit limit (Python 3.10.7+) inside the block and
    restore the caller's after it: numerators near CEILING have about 5,400
    decimal digits, and verdict left-hand sides can have more."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class BernoulliCache:
    """Growing store of exact B_n, optionally mirrored to a text file.

    File format: one record per line, ``<index> <num>/<den>``, indices
    strictly increasing and contiguous from 0 (odd indices stored as 0/1).
    Each fill rewrites the whole file and replaces the old one atomically.
    ``extend_to(n)`` fills exactly to n; ``get(n)`` past the stored run grows
    it geometrically, so single-index readers make few kernel calls.
    """

    def __init__(self, path=None):
        self._nums: list[int] = []
        self._dens: list[int] = []
        self._path = path
        if path is not None:
            self._load()

    @property
    def high_water(self) -> int:
        """Largest contiguous index stored; -1 when empty."""
        return len(self._nums) - 1

    def _load(self):
        try:
            fh = open(self._path, "rb")
        except FileNotFoundError:
            return
        with fh, any_digits():
            for lineno, raw in enumerate(fh, start=1):
                where = f"{self._path}:{lineno}"
                try:
                    line = raw.decode("utf-8").strip()  # a ValueError if not UTF-8
                    if not line:
                        continue
                    idx_s, frac_s = line.split()
                    num_s, den_s = frac_s.split("/")
                    idx, num, den = int(idx_s), int(num_s), int(den_s)
                except ValueError as exc:
                    raise CacheFileCorrupt(
                        f"{where}: malformed line {raw.strip()[:40]!r}: {exc}"
                    ) from None
                if idx != len(self._nums):
                    raise CacheFileCorrupt(f"{where}: non-contiguous index {idx}")
                try:
                    _check_value(idx, num, den)
                except ValueError as exc:
                    raise CacheFileCorrupt(f"{where}: {exc}") from None
                self._nums.append(num)
                self._dens.append(den)

    def extend_to(self, n: int):
        """Store B_0..B_n, computing what is missing and rewriting the file."""
        check_ceiling(n)
        old = len(self._nums)
        if n < old:
            return
        _kernels.bernoulli_extend(self._nums, self._dens, n)
        try:
            for i in range(old, n + 1):
                _check_value(i, self._nums[i], self._dens[i])
        except ValueError:
            del self._nums[old:], self._dens[old:]
            raise
        if self._path is not None:
            self._store()

    def _store(self):
        """Rewrite the file with every stored value, through a temporary file
        in its directory that then replaces it: a write cut short leaves the
        old file whole."""
        tmp = f"{self._path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh, any_digits():
                for i, (num, den) in enumerate(zip(self._nums, self._dens)):
                    fh.write(f"{i} {num}/{den}\n")
            os.replace(tmp, self._path)
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    def get(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be non-negative")
        if n > self.high_water:
            # at least double the stored run, up to CEILING: a reader stepping
            # up one index at a time then costs O(log n) kernel calls
            self.extend_to(max(n, min(2 * self.high_water, CEILING)))
        return Fraction(self._nums[n], self._dens[n])


_default_cache = BernoulliCache()


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
    """True iff two_k is even, 2 <= two_k <= p - 3 and p divides the numerator
    of B_{two_k}; as p - 1 > two_k, p never divides its denominator."""
    if two_k % 2 or not 2 <= two_k <= p - 3:
        return False
    return bernoulli(two_k, cache).numerator % p == 0


def irregular_pairs(p_max: int, cache: BernoulliCache | None = None):
    """All irregular pairs (p, 2k) with p <= p_max, sorted; each B_2k is read
    once, and one gcd with the product of the primes p >= 2k + 3 picks out
    the primes to test."""
    from .primes import largest_prime, primes_in

    # The largest prime P <= p_max sets the top read, B_{P-3}; it is looked
    # for only when p_max itself could pass the ceiling.
    if p_max - 3 > CEILING:
        check_ceiling(largest_prime(3, p_max) - 3)
    primes = primes_in(5, p_max)
    top = max(primes, default=2) - 3
    (cache or _default_cache).extend_to(top)  # one kernel call for every read
    # suffix[i] is the product of primes[i:]
    suffix = [1] * (len(primes) + 1)
    for i in range(len(primes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * primes[i]
    out = []
    for two_k in range(2, top + 1, 2):
        first = bisect_left(primes, two_k + 3)
        g = gcd(bernoulli(two_k, cache).numerator, suffix[first])
        if g > 1:
            out += [(p, two_k) for p in primes[first:] if g % p == 0]
    return sorted(out)
