"""Generalized harmonic numbers by two independent routes.

The exact route accumulates rational prefix sums (at most two running sums
per order); the modular route works entirely in arithmetic mod p^e and exists
as the cross-check oracle for the exact one.  The two must always agree through
reduce_mod; that agreement is a standing property test.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndexCeilingExceeded, UpperIndexNotBelowP
from .exact import PrimePower

# Each order keeps at most two running cursors, {index: H^(order)_index}.
# A scan reads every order at p - 1 and at (p - 1)/2 for ascending p, so each
# read rides its own cursor forward and memory is linear in n.  Measured as
# commands (Python 3.11.7): `hclab harmonic --m 1 --n 70000` takes 4.4 s and
# 17 MB of RSS, `--m 6 --n 30000` 12.8 s and 17 MB, `--m 6 --n 70000` 71 s
# and 18 MB; keeping every prefix took 186 MB for H_30000 alone.  The ceiling
# now bounds the time of one sum, not its memory.
CEILING = 70_000

_cursors: dict[int, dict[int, Fraction]] = {}


def check_ceiling(upto: int) -> None:
    """Reject an upper index past CEILING before anything is summed."""
    if upto > CEILING:
        raise IndexCeilingExceeded(
            f"needs harmonic upper index {upto}, beyond ceiling {CEILING}"
        )


def harmonic(order: int, upto: int) -> Fraction:
    """Exact sum of 1/j^order for j = 1..upto; 0 for the empty sum.

    A read returns the cursor sitting at upto, or advances the cursor with
    the largest index below upto; when no cursor is below, it starts one
    from 0, replacing the lower cursor if the order already has two.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if upto < 0:
        raise ValueError("upper index must be >= 0")
    row = _cursors.setdefault(order, {})
    if upto in row:
        return row[upto]
    check_ceiling(upto)
    start = max((index for index in row if index < upto), default=None)
    value = Fraction(0) if start is None else row[start]
    for j in range((start or 0) + 1, upto + 1):
        value += Fraction(1, j**order)
    if start is not None:
        del row[start]
    elif len(row) == 2:
        del row[min(row)]
    row[upto] = value
    return value


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
