"""Exact harmonic prefix sums and their modular twin."""

import importlib
from fractions import Fraction

import pytest

from hclab.errors import IndexCeilingExceeded, UpperIndexNotBelowP
from hclab.exact import PrimePower, reduce_mod, vp
from hclab.harmonic import CEILING, check_ceiling, harmonic, harmonic_mod
from hclab.primes import primes_in

# hclab re-exports the function harmonic under the module's own name
harmonic_module = importlib.import_module("hclab.harmonic")


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
    before = {order: len(row) for order, row in harmonic_module._prefix.items()}
    with pytest.raises(IndexCeilingExceeded):
        harmonic(1, CEILING + 1)
    after = {order: len(row) for order, row in harmonic_module._prefix.items()}
    assert after == before
