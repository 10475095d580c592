"""Generalized harmonic numbers by two independent routes.

The exact route accumulates rational prefix sums (memoized per order); the
modular route works entirely in arithmetic mod p^e and exists as the
cross-check oracle for the exact one.  The two must always agree through
reduce_mod; that agreement is a standing property test.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UpperIndexNotBelowP
from .exact import PrimePower

_prefix: dict[int, list[Fraction]] = {}


def harmonic(order: int, upto: int) -> Fraction:
    """Exact sum of 1/j^order for j = 1..upto; 0 for the empty sum."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if upto < 0:
        raise ValueError("upper index must be >= 0")
    row = _prefix.get(order)
    if row is None or len(row) <= upto:
        row = _prefix.setdefault(order, [Fraction(0)])
        for j in range(len(row), upto + 1):
            row.append(row[j - 1] + Fraction(1, j**order))
    return row[upto]


def harmonic_mod(order: int, upto: int, m: PrimePower) -> int:
    """The same sum computed mod p^e via modular inverses.

    Refuses upto >= p outright: the source congruences never sum past p-1,
    and silently skipping non-invertible terms would mask caller bugs.
    """
    if upto >= m.p:
        raise UpperIndexNotBelowP(f"upper index {upto} not below p = {m.p}")
    acc = 0
    for j in range(1, upto + 1):
        acc = (acc + pow(j, -order, m.modulus)) % m.modulus
    return acc
