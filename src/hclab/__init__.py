"""Exact-arithmetic verification of harmonic-number congruences modulo
prime powers: generalized harmonic numbers, Bernoulli numbers, Fermat
quotients, and the verdict engine tying them together."""

__version__ = "0.1.0"
