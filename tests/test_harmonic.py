"""Exact harmonic prefix sums and their modular twin."""

import gc
import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

import hclab.harmonic as harmonic_module
from hclab.errors import IndexCeilingExceeded
from hclab.exact import vp
from hclab.harmonic import CEILING, check_ceiling, harmonic
from hclab.primes import primes_in

from oracles import PrimePower, UpperIndexNotBelowP, harmonic_mod, reduce_mod


def test_small_values():
    assert harmonic(1, 0) == 0
    assert harmonic(1, 1) == 1
    assert harmonic(1, 4) == Fraction(25, 12)
    assert harmonic(2, 3) == Fraction(49, 36)
    assert harmonic(3, 2) == Fraction(9, 8)


def test_brute_force_agreement():
    for m in range(1, 7):
        acc = Fraction(0)
        for n in range(1, 120):
            acc += Fraction(1, n**m)
            assert harmonic(m, n) == acc


def test_prefix_additivity():
    for m in (1, 2, 5):
        for n in range(1, 80):
            assert harmonic(m, n) == harmonic(m, n - 1) + Fraction(1, n**m)


def test_p_integrality_below_p():
    for p in primes_in(3, 53):
        for m in range(1, 5):
            assert vp(harmonic(m, p - 1), p) >= 0


def test_modular_path_agreement():
    for p in primes_in(3, 31):
        for e in (1, 2, 3):
            m = PrimePower(p, e)
            for order in range(1, 5):
                for upto in (0, 1, (p - 1) // 2, p - 1):
                    assert harmonic_mod(order, upto, m) == reduce_mod(
                        harmonic(order, upto), m
                    )


def test_refuses_upto_at_or_past_p():
    with pytest.raises(UpperIndexNotBelowP):
        harmonic_mod(1, 5, PrimePower(5, 1))
    with pytest.raises(UpperIndexNotBelowP):
        harmonic_mod(2, 10, PrimePower(7, 2))


def test_argument_validation():
    with pytest.raises(ValueError):
        harmonic(0, 3)
    with pytest.raises(ValueError):
        harmonic(1, -1)


def test_ceiling():
    """Past CEILING nothing is summed; the benchmark's largest p - 1, 2999,
    sits far below it."""
    assert CEILING > 10 * 2999
    check_ceiling(CEILING)
    with pytest.raises(IndexCeilingExceeded, match=f"upper index {CEILING + 1}, beyond"):
        check_ceiling(CEILING + 1)
    harmonic(1, 10)
    before = {order: dict(row) for order, row in harmonic_module._cursors.items()}
    with pytest.raises(IndexCeilingExceeded):
        harmonic(1, CEILING + 1)
    assert harmonic_module._cursors == before


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(harmonic_module, "_cursors", {})
    return harmonic_module._cursors


def _oracle(order, upto):
    return sum((Fraction(1, j**order) for j in range(1, upto + 1)), Fraction(0))


_PRIMES = primes_in(3, 200)
_READ_PATTERNS = {
    # what a scan asks: p - 1 and (p - 1)/2 for ascending p, in either order
    "ascending pairs": [n for p in _PRIMES for n in (p - 1, (p - 1) // 2)],
    "ascending pairs, half first": [n for p in _PRIMES for n in ((p - 1) // 2, p - 1)],
    "descending": [n for p in reversed(_PRIMES) for n in (p - 1, (p - 1) // 2)],
    "repeated": [0, 0, 7, 7, 7, 3, 3, 7, 0],
    # 60 and 40 hold the two cursors; 20 is below both
    "below both cursors": [60, 40, 20, 60, 40, 10, 5, 0, 100],
}


@pytest.mark.parametrize("pattern", sorted(_READ_PATTERNS))
def test_cursor_reads_match_oracle(empty_memo, pattern):
    reads = _READ_PATTERNS[pattern]
    oracle = {(order, n): _oracle(order, n) for order in range(1, 5) for n in set(reads)}
    for order in range(1, 5):
        for n in reads:
            assert harmonic(order, n) == oracle[order, n]
            assert len(empty_memo[order]) <= 2
    assert set(empty_memo) == {1, 2, 3, 4}


def test_scan_cursors_hold_two_values(empty_memo):
    """Each of a scan's two read streams rides its own cursor."""
    for p in _PRIMES:
        harmonic(2, p - 1)
        harmonic(2, (p - 1) // 2)
        assert empty_memo[2] == {p - 1: _oracle(2, p - 1),
                                 (p - 1) // 2: _oracle(2, (p - 1) // 2)}


def test_read_below_both_cursors_replaces_the_higher(empty_memo):
    """A read below both cursors starts from 0 and takes the place of the
    cursor farther from it."""
    for n in (60, 40, 20):
        harmonic(1, n)
    assert empty_memo[1] == {20: _oracle(1, 20), 40: _oracle(1, 40)}


def test_scan_after_high_reads_adds_each_term_once(empty_memo, monkeypatch):
    """High reads, as an earlier command in the process leaves them, do not
    make a later scan from p = 3 restart its reads from 0: each of its two
    read streams sums its terms once."""
    block = harmonic_module._block
    terms = []

    def counting(order, start, upto):
        if upto - start == 1:  # a leaf: one term of the sum
            terms.append(upto)
        return block(order, start, upto)

    harmonic(3, 3000)
    harmonic(3, 1500)
    monkeypatch.setattr(harmonic_module, "_block", counting)
    for p in _PRIMES:
        assert harmonic(3, p - 1) == _oracle(3, p - 1)
        assert harmonic(3, (p - 1) // 2) == _oracle(3, (p - 1) // 2)
    top = _PRIMES[-1] - 1
    assert len(terms) <= top + top // 2


def test_memo_stays_small(empty_memo):
    """After H^(3)_3000 the memo retains one value, not every prefix."""
    tracemalloc.start()
    try:
        harmonic(3, 3000)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
    assert list(empty_memo[3]) == [3000]


_CURSOR_AT = 500
_LENGTHS = [*range(41), 255, 256, 257, 519]


@pytest.mark.parametrize("order", range(1, 10))
def test_blocks_match_term_by_term_oracle(empty_memo, order):
    """Every block of 0..40 terms, so both base cases, one term and none,
    and the splits above them, and blocks of a few hundred terms, from 0 and
    from an existing cursor, summed by the block routine and read through a
    cursor advance."""
    terms = (Fraction(1, j**order) for j in range(1, _CURSOR_AT + max(_LENGTHS) + 1))
    oracle = list(accumulate(terms, initial=Fraction(0)))
    for start in (0, _CURSOR_AT):
        for length in _LENGTHS:
            expected = oracle[start + length] - oracle[start]
            num, lcm = harmonic_module._block(order, start, start + length)
            assert lcm == math.lcm(*range(start + 1, start + length + 1))
            assert Fraction(num, lcm**order) == expected
            empty_memo.clear()
            if start:
                harmonic(order, start)
            assert harmonic(order, start + length) == oracle[start + length]
            assert empty_memo[order] == {start + length: oracle[start + length]}


@pytest.mark.parametrize("start", [None, 10])
def test_failed_block_leaves_cursors_untouched(empty_memo, monkeypatch, start):
    """A block that raises, starting a new order or advancing a cursor,
    short or long, stores nothing."""
    if start is not None:
        harmonic(3, start)
    harmonic(1, 20)
    before = {order: dict(row) for order, row in empty_memo.items()}

    def out_of_memory(order, start, upto):
        raise MemoryError

    monkeypatch.setattr(harmonic_module, "_block", out_of_memory)
    with pytest.raises(MemoryError):
        harmonic(3, 30)
    with pytest.raises(MemoryError):
        harmonic(3, 30 + 256)
    assert empty_memo == before
