"""The Bernoulli recurrence kernel."""

from fractions import Fraction

from hclab import _kernels


def test_selected_implementation_is_known():
    assert _kernels.IMPLEMENTATION == "pure"


def test_bernoulli_extend_agreement():
    nums, dens = [], []
    _kernels.bernoulli_extend(nums, dens, 80)
    assert Fraction(nums[12], dens[12]) == Fraction(-691, 2730)


def test_bernoulli_extend_resumes_in_place():
    nums, dens = [], []
    _kernels.bernoulli_extend(nums, dens, 10)
    _kernels.bernoulli_extend(nums, dens, 30)
    fresh_n, fresh_d = [], []
    _kernels.bernoulli_extend(fresh_n, fresh_d, 30)
    assert nums == fresh_n and dens == fresh_d
