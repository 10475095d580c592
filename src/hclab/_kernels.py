"""Bernoulli numbers from tangent numbers, the package's one hot
exact-arithmetic loop.

It lives in its own module, and bernoulli.py calls it as
``_kernels.bernoulli_extend(...)`` looked up at call time, so that a
profiler can replace this module attribute to time and count every call.
IMPLEMENTATION names the kernel in benchmark environment reports.
"""

from __future__ import annotations

from math import factorial, gcd

IMPLEMENTATION = "pure"


def tangent_numbers(n: int) -> list[int]:
    """T_0..T_n, with T_k the k-th tangent number (T_0 = 0, 1, 2, 16, 272, ...).

    Brent and Harvey's integer triangle (arXiv:1108.0286, Algorithm
    TangentNumbers): O(n^2) additions and multiplications by small integers,
    with no division and no fraction.
    """
    t = [0] + [factorial(k - 1) for k in range(1, n + 1)]
    for k in range(2, n + 1):
        prev = t[k - 1]
        for i in range(n - k + 1):
            prev = t[k + i] = i * prev + (i + 2) * t[k + i]
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
