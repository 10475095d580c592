"""Exact-arithmetic verification of harmonic-number congruences modulo
prime powers: generalized harmonic numbers, Bernoulli numbers, Fermat
quotients, and the verdict engine tying them together."""

from .bernoulli import BernoulliCache, bernoulli, von_staudt_denominator
from .exact import INFINITE, PrimePower, reduce_mod, vp
from .harmonic import harmonic, harmonic_mod
from .primes import classify, fermat_quotient, primes_in

__all__ = [
    "BernoulliCache",
    "INFINITE",
    "PrimePower",
    "bernoulli",
    "classify",
    "fermat_quotient",
    "harmonic",
    "harmonic_mod",
    "primes_in",
    "reduce_mod",
    "von_staudt_denominator",
    "vp",
]

__version__ = "0.1.0"
