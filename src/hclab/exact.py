"""Exact rational arithmetic with p-adic valuation semantics.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator), so everything downstream inherits exactness for free.  A
verdict judges a congruence modulo p^e by one number, the valuation of its
left-hand side, so the package needs no residue arithmetic: ``vp`` and the
primality check are all there is.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational or int: v_p(num) - v_p(den); INFINITE for 0."""
    if x == 0:
        return INFINITE
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)
