"""Bernoulli numbers from tangent numbers, the package's one hot
exact-arithmetic loop.

The tangent numbers come from Brent and Harvey's integer triangle (Fast
computation of Bernoulli, Tangent and Secant numbers, 2011,
arXiv:1108.0286), kept scaled down so that each pass is a prefix sum of
small multiples of the last row; tangent_numbers states the recurrence.

It lives in its own module, and bernoulli.py calls it as
``_kernels.bernoulli_extend(...)`` looked up at call time, so that a
profiler can replace this module attribute to time and count every call.
IMPLEMENTATION names the kernel in benchmark environment reports.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import gcd
from operator import mul

IMPLEMENTATION = "pure"


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


def bernoulli_extend(nums: list[int], dens: list[int], upto: int) -> None:
    """Append reduced Bernoulli fractions B_len..B_upto to nums and dens in place.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  The tangent triangle does not
    resume from a prefix, so each call rebuilds it up to T_{upto/2}; callers
    ask once for everything they need.
    """
    start = len(nums)
    if upto < start:
        return
    t = tangent_numbers(upto // 2)
    for m in range(start, upto + 1):
        k, odd = divmod(m, 2)
        if m == 0:
            num, den = 1, 1
        elif m == 1:
            num, den = -1, 2
        elif odd:
            num, den = 0, 1
        else:
            num = m * t[k]
            den = (1 << m) * ((1 << m) - 1)
            g = gcd(num, den)
            num, den = (num if k % 2 else -num) // g, den // g
        nums.append(num)
        dens.append(den)
