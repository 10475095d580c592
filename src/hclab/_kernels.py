"""Exact Bernoulli numbers, the package's one hot exact-arithmetic loop, and
the Von Staudt-Clausen table that both it and the cache's checks read.

B_0..B_SWITCH come from tangent numbers, through Brent and Harvey's integer
triangle (Fast computation of Bernoulli, Tangent and Secant numbers, 2011,
arXiv:1108.0286); tangent_numbers states the recurrence.  Every even index
above SWITCH comes from Euler's formula |B_n| = 2 n! zeta(n) / (2 pi)^n,
evaluated in fixed point and rounded against the Von Staudt-Clausen
denominator D_n (Fillebrown, Faster computation of Bernoulli numbers,
J. Algorithms 13, 1992); _euler_numerators states the method and its error
bound.  Each index above SWITCH is computed on its own, so a fill resumes at
the stored top and computes only the missing indices, and bernoulli_range
computes any contiguous run of them: BernoulliCache.extend_to splits a long
fill into such runs across processes, and this module forks nothing.

The kernel lives in its own module, and bernoulli.py calls it as
``_kernels.bernoulli_extend(...)`` looked up at call time, so that a
profiler can replace this module attribute to time and count every call the
filling process makes; a fill's forked workers call bernoulli_range.
IMPLEMENTATION names the kernel in benchmark environment reports.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import factorial, gcd, isqrt
from operator import mul

from . import primes

IMPLEMENTATION = "pure"

# The largest index taken from tangent numbers.  Above it Euler's formula
# needs zeta's odd terms only up to j = 7..19 at n = 62, by the fill's top.
SWITCH = 60

# Von Staudt-Clausen data by index, filled for even indices only: the
# denominator of B_n, the product of the primes p with (p-1) | n, and the sum
# of den/p over those primes.  Sieved by von_staudt, at least doubling each time.
_vsc_dens: list[int] = []
_vsc_sums: list[int] = []


def von_staudt(n: int) -> tuple[int, int]:
    """(D_n, the sum of D_n / p over the primes p with (p-1) | n) for even
    n >= 2.  A table too short for n is sieved again, up to
    max(n, twice its length), so a run of growing reads sieves O(1) times
    its final length in all."""
    global _vsc_dens, _vsc_sums
    if n >= len(_vsc_dens):
        top = max(n, 2 * len(_vsc_dens))
        # p - 1 is even for odd p; p = 2 divides the denominator at every even index
        steps = [(p, max(p - 1, 2)) for p in primes.primes_in(2, top + 1)]
        dens = [1] * (top + 1)
        for p, step in steps:
            for i in range(step, top + 1, step):
                dens[i] *= p
        sums = [0] * (top + 1)
        for p, step in steps:
            for i in range(step, top + 1, step):
                sums[i] += dens[i] // p
        _vsc_dens, _vsc_sums = dens, sums
    return _vsc_dens[n], _vsc_sums[n]


def tangent_numbers(n: int) -> list[int]:
    """T_0..T_n, with T_k the k-th tangent number (T_0 = 0, 1, 2, 16, 272, ...).

    Brent and Harvey's integer triangle (arXiv:1108.0286, Algorithm
    TangentNumbers) starts from t_j = (j-1)! and makes passes k = 2..n of
    t_{k+i} <- i t_{k+i-1} + (i+2) t_{k+i}, leaving T_k = t_k.  Here each
    entry is kept divided by i! 2^(k-1): with s_k[i] = t_{k+i} / (i! 2^(k-1))
    after pass k, s_1[i] = 1 and

        s_k[i] = s_k[i-1] + C(i+2, 2) s_{k-1}[i+1],   T_k = s_k[0] 2^(k-1),

    so each pass is one prefix sum of small multiples of the last row, on
    integers far smaller than the triangle's, with no division.
    """
    t = [0] * (n + 1)
    c2 = [(i + 1) * (i + 2) // 2 for i in range(n)]  # C(i+2, 2)
    s = [1] * n
    for k in range(1, n + 1):
        t[k] = s[0] << (k - 1)
        s = list(accumulate(map(mul, c2, islice(s, 1, None))))
    return t


def _pi(bits: int) -> int:
    """pi 2^bits to within 1.04, by the Chudnovsky series summed by binary
    splitting: pi = 426880 sqrt(10005) / S with
    S = sum_k (-1)^k (6k)! (13591409 + 545140134 k) / ((3k)! k!^3 640320^(3k)).

    Term k over term k-1 is at most 1728 a_k / (a_{k-1} 640320^3), below
    2^-41.7 at k = 1 and 2^-46.1 after, and the terms alternate, so summing
    bits // 46 + 2 of them leaves S off by under 2^(-17 - bits), a relative
    2^(-40 - bits).  The square root's floor costs 426880 / S < 0.032 more,
    and the last floor under 1.
    """
    c3 = 640320**3 // 24

    def split(a: int, b: int) -> tuple[int, int, int]:
        """P, Q, T over terms a..b-1: sum of those terms = T / Q times the
        product of the ratios before a."""
        if b - a == 1:
            p, q = ((6 * a - 5) * (2 * a - 1) * (6 * a - 1), a * a * a * c3) if a else (1, 1)
            t = p * (13591409 + 545140134 * a)
            return p, q, -t if a % 2 else t
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(0, bits // 46 + 2)
    return 426880 * isqrt(10005 << (2 * bits)) * q // t


def _euler_numerators(low: int, top: int) -> list[int]:
    """|B_n| D_n for the even n in [low, top], ascending; low > SWITCH.

    |B_n| D_n is the integer nearest A_n zeta(n) D_n, where
    A_n = 2 n! / (2 pi)^n and zeta(n) = (1 + sum_{odd j >= 3} j^-n) / (1 - 2^-n).
    Going down from top, with F = (largest D_n bit length in [low, top]) + 4
    and g = top.bit_length() + 4, and every value a floor:

    - c = 4 pi^2 2^w from pi 2^(w+8) (error under 1.04), so within 1.11.
      w exceeds an upper bound on log2 A_top + F by 2 top.bit_length() + 10.
    - a_top = 2 top! 2^(F+w) / p, with p = c^(top/2) / 2^(w (top/2 - 1)) by
      left-to-right binary powering.  Each of its <= 2 top.bit_length()
      products adds a relative error under 2^-w (every value is >= 1), and
      is raised to a power <= top/2; so is c's relative error, under
      2^(-w-5).  So p is off by a relative 2^(2 top.bit_length() + 2 - w),
      and a_top is within 1.004 of A_top 2^F.
    - a_{n-2} = a_n c_s / (2^s n (n-1)), with s = a_n.bit_length() + 4 and
      c_s = c >> (w - s), off by a relative 2^(-s-5).  If a_n is within
      alpha of A_n 2^F, a_{n-2} is within
      0.002 + alpha 4 pi^2 / (n (n-1)) + 1 < 1.02, as n (n-1) >= 64 * 63.
    - zeta(n) 2^G, G = a_n.bit_length() + g.  The term for odd j is
      2^G j^-n, from 2^G // j^n or carried from n + 2 as
      t j^2 >> (G_{n+2} - G); it is carried only while 2 j^2 <= 2^(G_{n+2} - G),
      so each term is at most 2 under its value (2 / 2 + 1 when carried).
      The terms stop at the first odd J >= 2^(G / (n-1)), sized in floats:
      the rest sum to at most J^(1-n) / (2 (n-1)), under 0.01.  Dividing by
      1 - 2^-n adds the shifts s >> n, s >> 2n, ..., each a floor, until
      one is 0.  In all zeta(n) 2^G is off by beta < J + G / n + 4.
    - y = a_n z / 2^G, as a_n + (a_n >> k) (z - 2^G) >> (G - k) with
      k = G - (z - 2^G).bit_length(): the dropped low bits of a_n cost under
      1.  So y is within 1.02 zeta(n) + beta 2^-g + 2 of A_n zeta(n) 2^F,
      y D_n / 2^F is within 2^-4 (3.04 + beta 2^-g) of |B_n| D_n, and
      rounding it gives that integer while beta <= 2^(g-2).  That holds
      while J <= n + 1: by Stirling, 2^(G / (n-1)) < n while F + g < 234,
      true at every n > SWITCH as long as D_n has under about 210 bits (at
      most 111 up to 2500).

    Per index, the work is one product of (log2 A_n + F)-bit integers for
    a_{n-2}, a somewhat smaller one for y, and about n / 34 carried terms,
    each one multiply-and-shift.
    """
    indices = range(top, low - 1, -2)
    dens = [von_staudt(n)[0] for n in indices]  # the first read sieves to top
    f = max(dens).bit_length() + 4
    g = top.bit_length() + 4
    fact = 2 * factorial(top)
    # (2 pi)^top >= 2^(2.651 top), so fact / 2^(2651 top / 1000) bounds A_top
    w = fact.bit_length() - top * 2651 // 1000 + f + 2 * top.bit_length() + 10
    pi = _pi(w + 8)
    c = 4 * pi * pi >> (w + 16)
    p = 1 << w
    for bit in bin(top // 2)[2:]:
        p = p * p >> w
        if bit == "1":
            p = p * c >> w
    a = (fact << (f + w)) // p
    big_g = a.bit_length() + g
    terms: list[int] = []  # terms[i] is 2^G (2 i + 3)^-n
    out = []
    for n, den in zip(indices, dens):
        if n < top:
            s = a.bit_length() + 4
            a = (a * (c >> (w - s)) >> s) // ((n + 2) * (n + 1))
        shift, big_g = big_g - a.bit_length() - g, a.bit_length() + g
        big_j = int(2 ** (big_g / (n - 1))) + 1 | 1
        odd_j = range(3, big_j + 1, 2)
        carried = min(len(terms), len(odd_j), max(isqrt(1 << shift >> 1) - 1, 0) // 2)
        terms = [t * j * j >> shift for j, t in zip(odd_j, terms[:carried])]
        terms += [(1 << big_g) // j**n for j in odd_j[carried:]]
        z = t = (1 << big_g) + sum(terms)
        while t := t >> n:
            z += t
        # a z / 2^G, with the low bits of a that cannot reach y's last bit dropped
        v = z - (1 << big_g)
        k = big_g - v.bit_length()
        y = a + ((a >> k) * v >> (big_g - k))
        out.append((y * den + (1 << (f - 1))) >> f)
    return out[::-1]


def bernoulli_range(start: int, upto: int) -> tuple[list[int], list[int]]:
    """Reduced Bernoulli fractions B_start..B_upto, as (numerators,
    denominators); both empty when upto < start.

    Up to SWITCH, B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), reduced by one
    gcd; above it, B_n = (-1)^(n/2+1) N_n / D_n with N_n from
    _euler_numerators, already in lowest terms by Von Staudt-Clausen.  Only
    the indices asked for are computed (the tangent triangle, to at most
    T_{SWITCH/2}, is rebuilt whenever any of them are small).
    """
    nums: list[int] = []
    dens: list[int] = []
    t = tangent_numbers(min(upto, SWITCH) // 2) if start <= SWITCH else []
    low, top = max(start + start % 2, SWITCH + 2), upto - upto % 2
    euler = iter(_euler_numerators(low, top) if low <= top else [])
    for m in range(start, upto + 1):
        k, odd = divmod(m, 2)
        if m == 0:
            num, den = 1, 1
        elif m == 1:
            num, den = -1, 2
        elif odd:
            num, den = 0, 1
        else:
            if m <= SWITCH:
                num = m * t[k]
                den = (1 << m) * ((1 << m) - 1)
                g = gcd(num, den)
                num, den = num // g, den // g
            else:
                num, den = next(euler), von_staudt(m)[0]
            if k % 2 == 0:
                num = -num
        nums.append(num)
        dens.append(den)
    return nums, dens


def bernoulli_extend(nums: list[int], dens: list[int], upto: int) -> None:
    """Append B_len(nums)..B_upto to nums and dens in place, from
    bernoulli_range: nothing is appended until all of them are in."""
    more_nums, more_dens = bernoulli_range(len(nums), upto)
    nums += more_nums
    dens += more_dens
