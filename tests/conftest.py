import pytest

from hclab import _kernels
from hclab.bernoulli import BernoulliCache


@pytest.fixture(scope="session")
def cache():
    """One shared in-memory Bernoulli cache, so each index is computed at
    most once in the whole run."""
    return BernoulliCache()


@pytest.fixture
def kernel_calls(monkeypatch):
    """The `upto` of every Bernoulli kernel call made during the test."""
    calls = []
    kernel = _kernels.bernoulli_extend

    def counting(nums, dens, upto):
        calls.append(upto)
        kernel(nums, dens, upto)

    monkeypatch.setattr(_kernels, "bernoulli_extend", counting)
    return calls
