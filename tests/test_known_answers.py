"""Verdicts checked against facts from the literature, not against an oracle
built from the same code."""

from hclab.congruences import verify_eisenstein, verify_wolstenholme
from hclab.primes import classify, primes_in


def test_wolstenholme_primes_to_17000():
    """16843 is the only Wolstenholme prime below 17000 (McIntosh and
    Roettger, Math. Comp. 2007): there H_{p-1} vanishes mod p^3, everywhere
    else exactly mod p^2."""
    valuations = {p: verify_wolstenholme(p).achieved_valuation
                  for p in primes_in(5, 17000)}
    assert {p: v for p, v in valuations.items() if v != 2} == {16843: 3}


def test_wieferich_primes_to_4000():
    """By Lehmer (Ann. of Math. 1938) the eisenstein left-hand side is
    p q_p^2 mod p^2, so it vanishes mod p^2 exactly when p divides q_p: at
    the Wieferich primes 1093 (Meissner 1913) and 3511 (Beeger 1922)."""
    primes = primes_in(3, 4000)
    valuations = {p: verify_eisenstein(p).achieved_valuation for p in primes}
    assert min(valuations.values()) == 1
    reaching_two = {p for p, v in valuations.items() if v >= 2}
    assert reaching_two == {1093, 3511}
    assert reaching_two == {p for p in primes if classify(p).is_wieferich}
