"""Prime iteration and classification, Fermat quotients, and the arithmetic
congruence lemmas (as opposed to the exact identities, which live in
bernoulli.py)."""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice
from math import isqrt
from typing import NamedTuple

from .bernoulli import BernoulliCache, bernoulli
from .errors import HypothesisViolated
from .exact import is_prime, vp
from .harmonic import harmonic


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending: a sieve of that window alone by the
    primes up to isqrt(hi), so memory is O(hi - lo + sqrt(hi))."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    # composite[i] is set when lo + i is composite.  Zero-filled bytearray(n),
    # not bytearray([1]) * n: when that repeat runs out of memory, CPython 3.11
    # also prints a spurious SystemError line.
    composite = bytearray(hi - lo + 1)
    for q in primes_in(2, isqrt(hi)):
        first = max(q * q, -(-lo // q) * q) - lo  # first multiple of q to strike
        composite[first::q] = b"\x01" * len(range(first, len(composite), q))
    return [n for n, c in zip(range(lo, hi + 1), composite) if not c]


def largest_prime(lo: int, hi: int) -> int | None:
    """The largest prime in [lo, hi], None if there is none; found stepping
    down from hi, so no window is sieved."""
    return next((n for n in range(hi, max(lo, 2) - 1, -1) if is_prime(n)), None)


def fermat_quotient(p: int) -> int:
    """(2^(p-1) - 1) / p for odd prime p; exact division."""
    if p == 2:
        raise HypothesisViolated("base-2 Fermat quotient needs an odd prime")
    num = 2 ** (p - 1) - 1
    q, r = divmod(num, p)
    if r:
        raise HypothesisViolated(f"{p} does not divide 2^{p - 1} - 1; not prime?")
    return q


class PrimeClass(NamedTuple):
    p: int
    is_wieferich: bool
    is_mersenne: bool
    fermat_quotient: int


def classify(p: int) -> PrimeClass:
    """Wieferich / Mersenne classification of an odd prime."""
    q = fermat_quotient(p)
    succ = p + 1
    return PrimeClass(
        p=p,
        is_wieferich=q % p == 0,
        is_mersenne=succ & (succ - 1) == 0,
        fermat_quotient=q,
    )


def _falling(a: int, j: int) -> int:
    """a (a-1) ... (a-j+1); empty product is 1."""
    out = 1
    for t in range(j):
        out *= a - t
    return out


def _rising(a: int, j: int) -> int:
    """a (a+1) ... (a+j-1); empty product is 1."""
    out = 1
    for t in range(j):
        out *= a + t
    return out


def check_lemma_binom(p: int, n: int, i: int, j: int) -> bool:
    """j! C(p^(n-1)(p-1) - i, j) == (-1)^j j! C(i+j-1, j)  (mod p^(n-1)).

    Both sides evaluated through falling/rising factorials so i = 0 and
    j = 0 need no special casing.
    """
    big = p ** (n - 1) * (p - 1)
    if big - i < j:
        raise HypothesisViolated("binomial upper argument smaller than j")
    lhs = _falling(big - i, j)
    rhs = (-1) ** j * _rising(i, j)
    return (lhs - rhs) % p ** (n - 1) == 0


def check_lemma_pB(
    p: int, n: int, h: int, cache: BernoulliCache | None = None
) -> bool:
    """The two p*B congruences.

    p B_{p^(n-1)(p-1)} == p - 1 (mod p^n), and for h >= 1,
    p B_{p^(n-1)(p-1)-2h} == H^(2h)_{p-1} (mod p).
    """
    if p == 2:
        raise HypothesisViolated("odd prime required")
    big = p ** (n - 1) * (p - 1)
    ok = vp(p * bernoulli(big, cache) - (p - 1), p) >= n
    if h >= 1:
        if big - 2 * h < 2:
            raise HypothesisViolated("Bernoulli index below 2")
        lhs = p * bernoulli(big - 2 * h, cache) - harmonic(2 * h, p - 1)
        ok = ok and vp(lhs, p) >= 1
    return ok


def q_terms(q: int, p: int) -> Iterator[Fraction]:
    """(-1)^j q^(j+1) p^j / (j+1) for j = 0, 1, ...: the terms of
    log(1 + p q) / p."""
    for j in count():
        yield Fraction((-1) ** j * q ** (j + 1) * p**j, j + 1)


def q_series(q: int, p: int, n: int) -> Fraction:
    """The sum of the first n of q_terms(q, p), i.e. log(1 + p q) / p through
    p^(n-1); with q = q_p, the series in check_fermat_expansion."""
    return sum(islice(q_terms(q, p), n), Fraction(0))


def check_fermat_expansion(p: int, n: int) -> bool:
    """(2^(p^(n-1)(p-1)) - 1) / p^n against its mod-p^n series in p*q_p.

    The Kronecker-delta correction enters exactly when p = n + 1.  The
    quotient mod p^n depends only on 2^big mod p^(2n), so it is recovered
    from that residue; 2^big itself is never formed.
    """
    if 2 * p <= n + 1:
        raise HypothesisViolated(f"needs p > (n+1)/2, got p={p}, n={n}")
    q = fermat_quotient(p)
    big = p ** (n - 1) * (p - 1)
    quotient, r = divmod(pow(2, big, p ** (2 * n)) - 1, p**n)
    if r:
        return False
    rhs = q_series(q, p, n)
    if p == n + 1:
        rhs += q * p ** (n - 1)
    return vp(quotient - rhs, p) >= n
