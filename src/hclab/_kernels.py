"""The Bernoulli recurrence, the package's one hot exact-arithmetic loop.

It lives in its own module, and bernoulli.py calls it as
``_kernels.bernoulli_extend(...)`` looked up at call time, so that a
profiler can replace this module attribute to time and count every call.
IMPLEMENTATION names the kernel in benchmark environment reports.
"""

from __future__ import annotations

from math import gcd

IMPLEMENTATION = "pure"


def bernoulli_extend(nums: list[int], dens: list[int], upto: int) -> None:
    """Extend reduced Bernoulli fractions B_0..B_len-1 in place up to index `upto`.

    Uses the classical recurrence sum(C(m+1, k) * B_k, k=0..m) = 0 for even
    m >= 2, accumulating the sum over a running common denominator so that
    only one big gcd is paid per new index.
    """
    start = len(nums)
    if start == 0:
        nums.append(1)
        dens.append(1)
        start = 1
    if start == 1 and upto >= 1:
        nums.append(-1)
        dens.append(2)
        start = 2
    for m in range(start, upto + 1):
        if m % 2 == 1:
            nums.append(0)
            dens.append(1)
            continue
        # c walks C(m+1, k); only k = 0, 1 and even k < m contribute.
        c = 1
        acc_n, acc_d = 0, 1
        for k in range(m):
            if k > 0:
                c = c * (m + 2 - k) // k
            if nums[k] == 0:
                continue
            t_n = c * nums[k]
            t_d = dens[k]
            g = gcd(acc_d, t_d)
            acc_n = acc_n * (t_d // g) + t_n * (acc_d // g)
            acc_d = acc_d // g * t_d
        # B_m = -acc / (m + 1)
        b_n = -acc_n
        b_d = acc_d * (m + 1)
        g = gcd(b_n, b_d)
        nums.append(b_n // g)
        dens.append(b_d // g)
