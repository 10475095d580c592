"""Prime iteration and classification, and Fermat quotients with their
logarithmic series."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import HypothesisViolated
from .exact import is_prime


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


def q_series(q: int, p: int, n: int) -> Fraction:
    """The sum of (-1)^j q^(j+1) p^j / (j+1) for j < n, i.e. log(1 + p q) / p
    through p^(n-1); with q = q_p, the Fermat-quotient series of prop41."""
    return sum((Fraction((-1) ** j * q ** (j + 1) * p**j, j + 1) for j in range(n)), Fraction(0))
