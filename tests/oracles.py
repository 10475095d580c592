"""Test oracles: exact identities, arithmetic facts and an independent
modular route to the harmonic numbers, which the tests check on their own
grids and no command runs.

None of them returns a verdict.  The identities and the digit-sum facts
have no modulus a record could carry.  The two congruences here have one,
but `check_lemma_binom` takes a parameter j that no grid flag names, and
`check_fermat_expansion` has no exact left-hand side to report: at p = 97,
n = 6, 2^(p^(n-1)(p-1)) has about 8e11 bits, so it is reduced mod p^(2n)
and never formed.  `harmonic_mod` sums H^(m)_n term by term mod p^e, the
cross-check of the package's exact, binary-split `harmonic`, and
`tangent_triangle` is Brent and Harvey's unscaled tangent triangle, the
cross-check of the package's scaled `_kernels.tangent_numbers`.
`coeff_c`, `coeff_a`, `coeff_z` and `q_series` are the direct formulas of
the paper's series coefficients and of the Fermat-quotient series, the
cross-checks of the terms the package's theorem table builds.
"""

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from hclab.bernoulli import BernoulliCache
from hclab.errors import HypothesisViolated
from hclab.exact import is_prime, vp
from hclab.primes import fermat_quotient

# -- arithmetic mod p^e ---------------------------------------------------------


class NotPIntegral(ValueError):
    """Raised when a rational with v_p < 0 is handed to a residue reduction."""


class UpperIndexNotBelowP(ValueError):
    """Raised when a modular harmonic sum would hit a non-invertible term."""


class PrimePower(NamedTuple("PrimePower", [("p", int), ("e", int)])):
    """The modulus p^e of a congruence claim."""

    __slots__ = ()

    def __new__(cls, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        return super().__new__(cls, p, e)

    @property
    def modulus(self) -> int:
        return self.p**self.e


def reduce_mod(x: Fraction | int, m: PrimePower) -> int:
    """Residue of a p-integral rational in [0, p^e).

    Raises NotPIntegral when the denominator is divisible by p; that always
    signals a caller bug or an out-of-hypothesis parameter.
    """
    x = Fraction(x)
    if vp(x, m.p) < 0:
        raise NotPIntegral(f"{x} has negative {m.p}-adic valuation")
    mod = m.modulus
    return x.numerator * pow(x.denominator, -1, mod) % mod


def harmonic_mod(order: int, upto: int, m: PrimePower) -> int:
    """The sum of 1/j^order for j = 1..upto, computed mod p^e via modular
    inverses.

    Refuses upto >= p outright: the source congruences never sum past p-1,
    and silently skipping non-invertible terms would mask caller bugs.
    """
    if upto >= m.p:
        raise UpperIndexNotBelowP(f"upper index {upto} not below p = {m.p}")
    acc = 0
    for j in range(1, upto + 1):
        acc = (acc + pow(j, -order, m.modulus)) % m.modulus
    return acc


# -- tangent numbers ------------------------------------------------------------


def tangent_triangle(n: int) -> list[int]:
    """T_0..T_n by Brent and Harvey's integer triangle (arXiv:1108.0286,
    Algorithm TangentNumbers), unscaled: t_j = (j-1)! to start, then passes
    k = 2..n of t_{k+i} <- i t_{k+i-1} + (i+2) t_{k+i}."""
    t = [0] + [factorial(k - 1) for k in range(1, n + 1)]
    for k in range(2, n + 1):
        prev = t[k - 1]
        for i in range(n - k + 1):
            prev = t[k + i] = i * prev + (i + 2) * t[k + i]
    return t


# -- exact Bernoulli identities -------------------------------------------------


def check_recurrence(n: int, cache: BernoulliCache) -> bool:
    """sum(B_k C(n,k), k=0..n) == (-1)^n B_n, exactly."""
    b = cache.get
    total = sum(b(k) * comb(n, k) for k in range(n + 1))
    return total == (-1) ** n * b(n)


def faulhaber_sum(n: int, i: int, cache: BernoulliCache) -> Fraction:
    """sum(j^i, j=1..n) through the Bernoulli closed form."""
    b = cache.get
    total = sum(
        (-1) ** h * comb(i + 1, h) * b(h) * Fraction(n) ** (i + 1 - h)
        for h in range(i + 1)
    )
    return Fraction(total, i + 1)


def check_lemma_binomial_sums(k: int, cache: BernoulliCache) -> bool:
    """The four binomial-weighted Bernoulli sum identities, exactly at k."""
    b = cache.get
    half = Fraction(1, 2)

    def s(top):
        return sum(comb(top, 2 * j - 1) * b(2 * j) for j in range(1, k + 1))

    return (
        s(2 * k - 1) == half + b(2 * k) + b(2 * k - 1)
        and s(2 * k) == half - b(2 * k)
        and s(2 * k + 1) == half
        and s(2 * k + 2) == half - (2 * k + 3) * b(2 * k + 2)
    )


def check_lemma_weighted_sums(k: int, cache: BernoulliCache) -> bool:
    """The two 2^j-weighted Bernoulli sum identities, exactly at k."""
    b = cache.get
    lhs1 = sum(b(j) * (2**j - 1) * comb(k, j) for j in range(k + 1))
    lhs2 = sum(b(j) * 2**j * comb(k, j) for j in range(k + 1))
    return lhs1 == (-1) ** k * b(k) * (1 - 2**k) and lhs2 == 2 * b(k) * (
        1 - Fraction(2) ** (k - 1)
    )


def check_lemma_tangent_identity(k: int, cache: BernoulliCache) -> bool:
    """The tangent-derived identity tying weighted B_{j+1}/(j+1) to B_{2k}/2k."""
    b = cache.get
    lhs = sum(
        comb(2 * k - 1, j)
        * (2**j - 1)
        * (2 ** (j + 1) - 1)
        * Fraction(b(j + 1), j + 1)
        for j in range(2 * k)
    )
    return lhs == (2 ** (2 * k) - 1) * Fraction(b(2 * k), 2 * k)


# -- the paper's coefficients ----------------------------------------------------


def coeff_c(j: int, cache: BernoulliCache) -> Fraction:
    """C_j = 2 B_{j+2} + (-1)^j B_{j+1} + 1/2; equals 1/3 at j = 0 and j = 1."""
    return 2 * cache.get(j + 2) + (-1) ** j * cache.get(j + 1) + Fraction(1, 2)


def coeff_a(h: int, cache: BernoulliCache) -> Fraction:
    """A_h = 4 (2^(2h+2) - 1) B_{2h+2} / ((2h+1)(2h+2)); equals -1/6 at h = 1."""
    return Fraction(4 * (2 ** (2 * h + 2) - 1), (2 * h + 1) * (2 * h + 2)) * cache.get(2 * h + 2)


def coeff_z(p: int, n: int, h: int, cache: BernoulliCache) -> Fraction:
    """Z_h = B_{p^(n-1)(p-1) - 2h} / (2h)."""
    return cache.get(p ** (n - 1) * (p - 1) - 2 * h) / (2 * h)


def q_series(q: int, p: int, n: int) -> Fraction:
    """The sum of (-1)^j q^(j+1) p^j / (j+1) for j < n, i.e. log(1 + p q) / p
    through p^(n-1); with q = q_p, the Fermat-quotient series of prop41."""
    return sum((Fraction((-1) ** j * q ** (j + 1) * p**j, j + 1) for j in range(n)), Fraction(0))


# -- congruences with no verdict ------------------------------------------------


def _falling(a: int, j: int) -> int:
    """a (a-1) ... (a-j+1); empty product is 1."""
    out = 1
    for t in range(j):
        out *= a - t
    return out


def _rising(a: int, j: int) -> int:
    """a (a+1) ... (a+j-1); empty product is 1."""
    out = 1
    for t in range(j):
        out *= a + t
    return out


def check_lemma_binom(p: int, n: int, i: int, j: int) -> bool:
    """j! C(p^(n-1)(p-1) - i, j) == (-1)^j j! C(i+j-1, j)  (mod p^(n-1)).

    Both sides evaluated through falling/rising factorials so i = 0 and
    j = 0 need no special casing.
    """
    big = p ** (n - 1) * (p - 1)
    if big - i < j:
        raise HypothesisViolated("binomial upper argument smaller than j")
    lhs = _falling(big - i, j)
    rhs = (-1) ** j * _rising(i, j)
    return (lhs - rhs) % p ** (n - 1) == 0


def check_fermat_expansion(p: int, n: int) -> bool:
    """(2^(p^(n-1)(p-1)) - 1) / p^n against its mod-p^n series in p*q_p.

    The Kronecker-delta correction enters exactly when p = n + 1.  The
    quotient mod p^n depends only on 2^big mod p^(2n), so it is recovered
    from that residue; 2^big itself is never formed.
    """
    if 2 * p <= n + 1:
        raise HypothesisViolated(f"needs p > (n+1)/2, got p={p}, n={n}")
    q = fermat_quotient(p)
    big = p ** (n - 1) * (p - 1)
    quotient, r = divmod(pow(2, big, p ** (2 * n)) - 1, p**n)
    if r:
        return False
    rhs = q_series(q, p, n)
    if p == n + 1:
        rhs += q * p ** (n - 1)
    return vp(quotient - rhs, p) >= n


# -- valuations -----------------------------------------------------------------


def congruent_mod(x: Fraction | int, y: Fraction | int, m: PrimePower) -> bool:
    """x == y (mod p^e) in the valuation sense: v_p(x - y) >= e."""
    return vp(Fraction(x) - Fraction(y), m.p) >= m.e


def digit_sum(j: int, p: int) -> int:
    """Sum of the base-p digits of j."""
    if j < 0:
        raise ValueError("j must be non-negative")
    s = 0
    while j:
        j, r = divmod(j, p)
        s += r
    return s


def factorial_valuation(j: int, p: int) -> int:
    """v_p(j!) by summing floor(j / p^k)."""
    v = 0
    q = p
    while q <= j:
        v += j // q
        q *= p
    return v


def check_legendre(j: int, p: int) -> bool:
    """Cross-check v_p(j!) against the digit-sum formula (j - s_p(j))/(p-1)."""
    return factorial_valuation(j, p) * (p - 1) == j - digit_sum(j, p)
