import os
import sys

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


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker forked during the test."""
    pids = []
    fork = os.fork

    def counting():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", counting)
    return pids


@pytest.fixture
def default_digit_limit():
    """Python's default 4300-digit int<->str limit, whatever ran before."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int<->str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)
