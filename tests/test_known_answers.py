"""Verdicts and Bernoulli values checked against facts from the literature
and against a second route, not against an oracle built from the same code."""

from hclab import congruences as cg
from hclab.bernoulli import CEILING, BernoulliCache, irregular_pairs
from hclab.primes import classify, primes_in

from oracles import PrimePower, harmonic_mod


def test_wolstenholme_primes_to_17000():
    """16843 is the only Wolstenholme prime below 17000 (McIntosh and
    Roettger, Math. Comp. 2007): there H_{p-1} vanishes mod p^3, everywhere
    else exactly mod p^2."""
    valuations = {p: cg.verify_case("wolstenholme", p, {}, None).achieved_valuation
                  for p in primes_in(5, 17000)}
    assert {p: v for p, v in valuations.items() if v != 2} == {16843: 3}


def test_wieferich_primes_to_4000():
    """By Lehmer (Ann. of Math. 1938) the eisenstein left-hand side is
    p q_p^2 mod p^2, so it vanishes mod p^2 exactly when p divides q_p: at
    the Wieferich primes 1093 (Meissner 1913) and 3511 (Beeger 1922)."""
    primes = primes_in(3, 4000)
    valuations = {p: cg.verify_case("eisenstein", p, {}, None).achieved_valuation
                  for p in primes}
    assert min(valuations.values()) == 1
    reaching_two = {p for p, v in valuations.items() if v >= 2}
    assert reaching_two == {1093, 3511}
    assert reaching_two == {p for p in primes if classify(p).is_wieferich}


def test_irregular_pairs_by_two_routes_to_300():
    """By prop3-1, p^2 divides H^(2k)_{p-1} exactly when p divides B_{p-1-2k},
    for 2 <= 2k <= p - 3.  Harmonic sums mod p^2 and the tangent-number
    Bernoulli kernel share no code, and both find the 15 irregular pairs
    below 300 of the classical tables (Buhler, Crandall, Ernvall, Metsankyla
    and Shokrollahi, J. Symbolic Comput. 2001)."""
    by_harmonic = sorted(
        (p, p - 1 - 2 * k)
        for p in primes_in(5, 300)
        for k in range(1, (p - 1) // 2)
        if harmonic_mod(2 * k, p - 1, PrimePower(p, 2)) == 0
    )
    assert by_harmonic == [
        (37, 32), (59, 44), (67, 58), (101, 68), (103, 24), (131, 22), (149, 130),
        (157, 62), (157, 110), (233, 84), (257, 164), (263, 100), (271, 84),
        (283, 20), (293, 156),
    ]
    assert irregular_pairs(300, BernoulliCache()) == by_harmonic


def test_bernoulli_residues_by_akiyama_tanigawa(tmp_path):
    """Every value a cache filled to CEILING holds after a store and a load,
    against the Akiyama-Tanigawa triangle (Kaneko, J. Integer Seq. 2000) run
    mod the Mersenne prime M = 2^61 - 1.  The triangle shares no code with the
    tangent kernel, and it sees what the cache's own checks cannot: B_n plus
    an integer keeps the sign, denominator, Von Staudt-Clausen sum and
    magnitude of a large B_n."""
    m = 2**61 - 1
    path = tmp_path / "b.cache"
    BernoulliCache(path=str(path)).extend_to(CEILING)
    loaded = BernoulliCache(path=str(path))
    # Row i holds a_{i,j} = (j+1)(a_{i-1,j} - a_{i-1,j+1}), from a_{0,j} = 1/(j+1);
    # a_{i,0} is B_i with B_1 = +1/2, so (-1)^i B_i in this package's convention.
    row = [pow(j, -1, m) for j in range(1, CEILING + 2)]
    for i in range(CEILING + 1):
        b = loaded.get(i)
        assert row[0] == (-1) ** i * b.numerator * pow(b.denominator, -1, m) % m, i
        row = [j * (x - y) % m for j, x, y in zip(range(1, len(row)), row, row[1:])]
