"""Generalized harmonic numbers, summed exactly.

Each order keeps rational prefix sums (at most two running sums per order),
and a read adds the terms it passes as one block, summed by binary splitting
and kept over the lcm of its range, so that a sum started far from 0, as a
scan worker's first read is, stays cheap.  The tests check these sums against
an independent route, term-by-term arithmetic mod p^e.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import IndexCeilingExceeded

# Each order keeps at most two running cursors, {index: H^(order)_index}.
# A scan reads every order at p - 1 and at (p - 1)/2 for ascending p, so each
# read rides its own cursor forward and memory is linear in n.  Measured as
# commands (Python 3.11.7, 2-core host): `hclab harmonic --m 1 --n 70000`
# takes 0.4 s and 16 MB of RSS, `--m 6 --n 30000` 0.75 s and 16 MB,
# `--m 6 --n 70000` 2.9 s and 17 MB.  Keeping every prefix took 186 MB for
# H_30000 alone.  The ceiling bounds the time of one sum, not its memory.
CEILING = 70_000

_cursors: dict[int, dict[int, Fraction]] = {}


def check_ceiling(upto: int) -> None:
    """Reject an upper index past CEILING before anything is summed."""
    if upto > CEILING:
        raise IndexCeilingExceeded(
            f"needs harmonic upper index {upto}, beyond ceiling {CEILING}"
        )


def _block(order: int, start: int, upto: int) -> tuple[int, int]:
    """(num, l) with num/l^order the sum of 1/j^order for start < j <= upto
    and l the lcm of start+1..upto.

    Binary splitting (Haible and Papanikolaou, 1998) down to single terms,
    (1, j) for the one term j and (0, 1) for none, with each half kept over
    the lcm of its range: two halves (nL, lL) and (nR, lR) join over
    l = lL lR / g with g = gcd(lL, lR), so the operands stay balanced in size
    and the denominator a read reduces against is l^order rather than the
    product of every j^order.
    """
    if upto - start <= 1:
        return (1, upto) if upto > start else (0, 1)
    mid = (start + upto) // 2
    left_num, left_lcm = _block(order, start, mid)
    right_num, right_lcm = _block(order, mid, upto)
    g = gcd(left_lcm, right_lcm)
    return (left_num * (right_lcm // g) ** order + right_num * (left_lcm // g) ** order,
            left_lcm // g * right_lcm)


def harmonic(order: int, upto: int) -> Fraction:
    """Exact sum of 1/j^order for j = 1..upto; 0 for the empty sum.

    A read returns the cursor sitting at upto, or advances the cursor with
    the largest index below upto; when no cursor is below, it starts one
    from 0, replacing the higher cursor (one an earlier command may have left
    far up) if the order already has two.  An advance adds its terms as one
    binary-split block over the lcm of its range, so a read normalises one
    Fraction however many terms it adds.  Nothing is stored until the block
    is summed: a read that raises leaves every cursor as it was.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if upto < 0:
        raise ValueError("upper index must be >= 0")
    row = _cursors.get(order, {})
    if upto in row:
        return row[upto]
    check_ceiling(upto)
    start = max((index for index in row if index < upto), default=None)
    value = Fraction(0) if start is None else row[start]
    num, lcm = _block(order, start or 0, upto)
    value += Fraction(num, lcm**order)
    if start is not None:
        del row[start]
    elif len(row) == 2:
        del row[max(row)]
    row[upto] = value
    _cursors[order] = row
    return value
