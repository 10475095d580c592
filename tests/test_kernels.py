"""The Bernoulli kernel, against the classical recurrence and, above the
small indices, against the tangent numbers."""

from fractions import Fraction
from math import gcd

import pytest

from hclab import _kernels
from oracles import tangent_triangle


def recurrence_extend(nums: list[int], dens: list[int], upto: int) -> None:
    """Oracle: the classical recurrence sum(C(m+1, k) * B_k, k=0..m) = 0,
    in reduced fractions, resuming from whatever prefix is stored."""
    if upto >= 0 and not nums:
        nums.append(1)
        dens.append(1)
    if upto >= 1 and len(nums) == 1:
        nums.append(-1)
        dens.append(2)
    for m in range(len(nums), upto + 1):
        if m % 2 == 1:
            nums.append(0)
            dens.append(1)
            continue
        c = 1  # walks C(m+1, k)
        acc_n, acc_d = 0, 1
        for k in range(m):
            if k > 0:
                c = c * (m + 2 - k) // k
            if nums[k] == 0:
                continue
            t_d = dens[k]
            g = gcd(acc_d, t_d)
            acc_n = acc_n * (t_d // g) + c * nums[k] * (acc_d // g)
            acc_d = acc_d // g * t_d
        g = gcd(acc_n, acc_d * (m + 1))
        nums.append(-acc_n // g)
        dens.append(acc_d * (m + 1) // g)


@pytest.fixture(scope="module")
def oracle():
    nums, dens = [], []
    recurrence_extend(nums, dens, 400)
    return nums, dens


def test_selected_implementation_is_known():
    assert _kernels.IMPLEMENTATION == "pure"


def test_tangent_numbers():
    assert _kernels.tangent_numbers(6) == [0, 1, 2, 16, 272, 7936, 353792]
    assert _kernels.tangent_numbers(0) == [0]


def test_tangent_numbers_match_unscaled_triangle():
    """The scaled prefix-sum kernel returns exactly the triangle's T_0..T_n.
    The triangle's T_k does not depend on n, so one run to 300 serves every
    n <= 300; n = 0, 1 and 2 are also checked against their own runs."""
    want = tangent_triangle(300)
    for n in range(301):
        assert _kernels.tangent_numbers(n) == want[:n + 1], n
    for n in (0, 1, 2):
        assert _kernels.tangent_numbers(n) == tangent_triangle(n)


def test_bernoulli_extend_agreement():
    nums, dens = [], []
    _kernels.bernoulli_extend(nums, dens, 80)
    assert Fraction(nums[12], dens[12]) == Fraction(-691, 2730)


def test_matches_recurrence_in_one_call(oracle):
    nums, dens = [], []
    _kernels.bernoulli_extend(nums, dens, 400)
    assert (nums, dens) == oracle


def test_matches_recurrence_resumed_from_prefix(oracle):
    nums, dens = [], []
    _kernels.bernoulli_extend(nums, dens, 10)
    assert (nums, dens) == (oracle[0][:11], oracle[1][:11])
    _kernels.bernoulli_extend(nums, dens, 400)
    assert (nums, dens) == oracle


def test_bernoulli_extend_resumes_in_place():
    nums, dens = [], []
    _kernels.bernoulli_extend(nums, dens, 10)
    _kernels.bernoulli_extend(nums, dens, 30)
    fresh_n, fresh_d = [], []
    _kernels.bernoulli_extend(fresh_n, fresh_d, 30)
    assert nums == fresh_n and dens == fresh_d
    _kernels.bernoulli_extend(nums, dens, 20)  # already stored: a no-op
    assert nums == fresh_n and dens == fresh_d



def test_euler_indices_match_tangent_numbers():
    """Every even index from the switch through 1804 equals B_n from the
    tangent numbers, filled in one call and resumed 0 -> 700 -> 1804.  The
    largest denominator so far grows at 1200, 1260, 1620 and 1680, where a
    precision tied to it instead of falling with n would plateau."""
    t = _kernels.tangent_numbers(902)
    want = {}
    for n in range(2, 1805, 2):
        k = n // 2
        b = Fraction((-1) ** (k - 1) * n * t[k], 4**k * (4**k - 1))
        want[n] = b.numerator, b.denominator
    one = [], []
    _kernels.bernoulli_extend(*one, 1804)
    resumed = [], []
    for upto in (0, 700, 1804):
        _kernels.bernoulli_extend(*resumed, upto)
    assert resumed == one
    nums, dens = one
    for n in (1200, 1260, 1620, 1680):
        assert (nums[n], dens[n]) == want[n], n
    for n in range(_kernels.SWITCH + 2, 1805, 2):
        assert (nums[n], dens[n]) == want[n], n
