"""Exact rational arithmetic with p-adic valuation semantics.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator), so everything downstream inherits exactness for free.  The one
non-obvious convention: congruence modulo a prime power is defined for
arbitrary rationals through the valuation of the difference, which is what
makes statements like "x/y == 0 mod p^n" meaningful even when intermediate
values are not obviously p-integral.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import NotPIntegral

Rational = Fraction

#: Valuation of zero; compares above every integer.
INFINITE = math.inf

_PRIMALITY_LIMIT = 10**12  # trial division stays deterministic and fast below this


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division."""
    if n < 2:
        return False
    if n > _PRIMALITY_LIMIT:
        raise ValueError(f"primality check limited to n <= {_PRIMALITY_LIMIT}")
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


class PrimePower(NamedTuple("PrimePower", [("p", int), ("e", int)])):
    """The modulus p^e of a congruence claim."""

    __slots__ = ()

    def __new__(cls, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        return super().__new__(cls, p, e)

    @property
    def modulus(self) -> int:
        return self.p**self.e


def vp_int(n: int, p: int) -> int | float:
    """Valuation of an integer; INFINITE for 0."""
    if n == 0:
        return INFINITE
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def vp(x: Rational | int, p: int) -> int | float:
    """p-adic valuation of a rational: v_p(num) - v_p(den); INFINITE for 0."""
    if isinstance(x, int):
        return vp_int(x, p)
    if x == 0:
        return INFINITE
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def congruent_mod(x: Rational | int, y: Rational | int, m: PrimePower) -> bool:
    """x == y (mod p^e) in the valuation sense: v_p(x - y) >= e."""
    return vp(Fraction(x) - Fraction(y), m.p) >= m.e


def reduce_mod(x: Rational | int, m: PrimePower) -> int:
    """Residue of a p-integral rational in [0, p^e).

    Raises NotPIntegral when the denominator is divisible by p; that always
    signals a caller bug or an out-of-hypothesis parameter.
    """
    x = Fraction(x)
    if vp(x, m.p) < 0:
        raise NotPIntegral(f"{x} has negative {m.p}-adic valuation")
    mod = m.modulus
    return x.numerator * pow(x.denominator, -1, mod) % mod


def digit_sum(j: int, p: int) -> int:
    """Sum of the base-p digits of j."""
    if j < 0:
        raise ValueError("j must be non-negative")
    s = 0
    while j:
        j, r = divmod(j, p)
        s += r
    return s


def factorial_valuation(j: int, p: int) -> int:
    """v_p(j!) by summing floor(j / p^k)."""
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v


def check_legendre(j: int, p: int) -> bool:
    """Cross-check v_p(j!) against the digit-sum formula (j - s_p(j))/(p-1)."""
    return factorial_valuation(j, p) * (p - 1) == j - digit_sum(j, p)


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero when k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
