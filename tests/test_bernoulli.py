"""Bernoulli values against an independent triangle-scheme oracle, the cache
file contract, and the exact identity lemmas."""

import importlib
import sys
from fractions import Fraction

import pytest

import hclab._kernels
from hclab.bernoulli import (
    CEILING,
    BernoulliCache,
    bernoulli,
    check_kummer,
    check_lemma_binomial_sums,
    check_lemma_tangent_identity,
    check_lemma_weighted_sums,
    check_recurrence,
    faulhaber_sum,
    irregular_pairs,
    is_irregular_pair,
    von_staudt_denominator,
)
from hclab.errors import CacheFileCorrupt, HypothesisViolated, IndexCeilingExceeded
from hclab.exact import is_prime, vp
from hclab.primes import primes_in

# hclab re-exports the function bernoulli under the module's own name
bernoulli_mod = importlib.import_module("hclab.bernoulli")


def triangle_bernoulli(n: int) -> Fraction:
    """Independent oracle: the Akiyama-Tanigawa triangle (first-kind sign)."""
    if n == 1:
        return Fraction(-1, 2)
    row = [Fraction(1, j + 1) for j in range(n + 1)]
    for i in range(1, n + 1):
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(n + 1 - i)]
    return row[0]


def divisor_walk_denominator(n: int) -> int:
    """Independent oracle: the product of the primes p with (p-1) | n, found
    by walking every divisor of n."""
    d = 1
    for div in range(1, n + 1):
        if n % div == 0 and is_prime(div + 1):
            d *= div + 1
    return d


def test_values_match_triangle_oracle(cache):
    for n in range(61):
        assert bernoulli(n, cache) == triangle_bernoulli(n)


def test_known_values(cache):
    assert bernoulli(0, cache) == 1
    assert bernoulli(1, cache) == Fraction(-1, 2)
    assert bernoulli(12, cache) == Fraction(-691, 2730)
    assert bernoulli(20, cache) == Fraction(-174611, 330)
    assert bernoulli(7, cache) == 0


def test_odd_vanish(cache):
    for n in range(3, 601, 2):
        assert bernoulli(n, cache) == 0


def test_von_staudt_denominators(cache):
    assert von_staudt_denominator(12) == 2730
    for n in range(2, 601, 2):
        assert bernoulli(n, cache).denominator == von_staudt_denominator(n)
    for n in (3, 0, -2):
        with pytest.raises(ValueError):
            von_staudt_denominator(n)


def test_von_staudt_sieve_matches_divisor_walk():
    """The sieved table against the divisor walk, at every even index up to
    CEILING and at a few past it, where the table has to grow."""
    for n in [*range(2, CEILING + 1, 2), 2502, 5000]:
        assert von_staudt_denominator(n) == divisor_walk_denominator(n), n


def test_recurrence_full_range(cache):
    for n in range(601):
        assert check_recurrence(n, cache)


def test_faulhaber_vs_brute_force(cache):
    for i in range(13):
        acc = 0
        for n in range(1, 201):
            acc += n**i
            assert faulhaber_sum(n, i, cache) == acc


def test_kummer(cache):
    assert check_kummer(2, 12, 11, cache)
    assert check_kummer(4, 14, 11, cache)
    with pytest.raises(HypothesisViolated):
        check_kummer(2, 11, 11, cache)
    with pytest.raises(HypothesisViolated):
        check_kummer(10, 20, 11, cache)


def test_binomial_sum_identities(cache):
    for k in range(1, 51):
        assert check_lemma_binomial_sums(k, cache)
        assert check_lemma_weighted_sums(k, cache)


def test_tangent_identity(cache):
    for k in range(1, 31):
        assert check_lemma_tangent_identity(k, cache)


def test_irregular_pairs_to_150(cache):
    expected = [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24),
                (131, 22), (149, 130)]
    assert irregular_pairs(150, cache) == expected
    assert is_irregular_pair(691, 12, cache)
    assert not is_irregular_pair(37, 30, cache)
    assert not is_irregular_pair(5, 4, cache)  # p < 2k+3
    assert not is_irregular_pair(37, 31, cache)  # odd: B_31 = 0
    assert not is_irregular_pair(37, 0, cache)
    assert not is_irregular_pair(13, 10, cache)  # p = 2k+3, B_10 = 5/66


def test_irregular_pairs_match_plain_remainder_loop(cache):
    """The gcd filter finds exactly the pairs that testing num % p for every
    prime p >= 2k + 3 finds, at every bound up to 400."""
    nums = {two_k: bernoulli(two_k, cache).numerator for two_k in range(2, 398, 2)}
    for p_max in range(401):
        expected = sorted(
            (p, two_k)
            for p in primes_in(5, p_max)
            for two_k in range(2, p - 2, 2)
            if nums[two_k] % p == 0
        )
        assert irregular_pairs(p_max, cache) == expected, p_max


def test_irregular_pairs_match_valuation_oracle(cache):
    """The old definition, v_p(B_2k) >= 1, over every prime p <= 300; this
    range includes p = 157, irregular at two indices (62 and 110)."""
    expected = [
        (p, two_k)
        for p in primes_in(3, 300)
        for two_k in range(2, p - 2, 2)
        if vp(bernoulli(two_k, cache), p) >= 1
    ]
    assert (157, 62) in expected and (157, 110) in expected
    assert irregular_pairs(300, cache) == expected


class _CountingCache(BernoulliCache):
    def __init__(self):
        super().__init__()
        self.reads = {}

    def get(self, n):
        self.reads[n] = self.reads.get(n, 0) + 1
        return super().get(n)


def test_irregular_pairs_read_each_index_once():
    c = _CountingCache()
    irregular_pairs(300, c)
    assert set(c.reads) == set(range(2, 291, 2))  # up to B_{293-3}
    assert max(c.reads.values()) == 1
    assert c.high_water == 290  # filled once, to the top read, not past it


def test_cache_file_roundtrip(tmp_path):
    path = tmp_path / "bern.cache"
    c1 = BernoulliCache(path=str(path))
    v = c1.get(20)
    text = path.read_text().splitlines()
    assert text[0] == "0 1/1"
    assert text[1] == "1 -1/2"
    assert text[3] == "3 0/1"
    assert text[20] == "20 -174611/330"
    c2 = BernoulliCache(path=str(path))
    assert c2.high_water == 20
    assert c2.get(20) == v
    # idempotence: re-asking a cached index returns the identical fraction
    assert c2.get(12) == Fraction(-691, 2730)
    assert len(path.read_text().splitlines()) == 21


class _WriteFailsPartway:
    """A text file that takes three writes, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes > 3:
            raise OSError(28, "No space left on device")
        self.fh.write(text)
        self.fh.flush()


def test_interrupted_fill_leaves_old_file(tmp_path, monkeypatch):
    """A fill whose write fails partway leaves the old file byte for byte, still
    loading, and no temporary file behind."""
    path = tmp_path / "bern.cache"
    BernoulliCache(path=str(path)).extend_to(10)
    before = path.read_bytes()

    def failing_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return _WriteFailsPartway(fh) if "w" in mode or "a" in mode else fh

    monkeypatch.setattr(bernoulli_mod, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        BernoulliCache(path=str(path)).extend_to(20)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [path.name]
    assert BernoulliCache(path=str(path)).high_water == 10


def test_cache_rejects_corruption(tmp_path):
    """A bad line raises at the first read that reaches it."""
    path = tmp_path / "bad.cache"
    path.write_text("0 1/1\n1 -1/2\n2 1/5\n")
    with pytest.raises(ValueError):
        BernoulliCache(path=str(path)).get(2)
    path.write_text("0 1/1\n2 1/6\n")
    with pytest.raises(ValueError):
        BernoulliCache(path=str(path)).get(1)


def test_cache_parses_only_what_is_read(tmp_path, cache):
    """Opening a cache parses nothing; a read parses up to its index alone,
    and high_water counts the lines not yet parsed."""
    path = tmp_path / "b.cache"
    path.write_text("".join(f"{i} {cache.get(i).numerator}/{cache.get(i).denominator}\n"
                            for i in range(400)) + "400 garbage\n")
    c = BernoulliCache(path=str(path))
    assert (len(c._nums), c.high_water) == (0, 400)
    c.extend_to(10)
    assert (len(c._nums), c.high_water) == (11, 400)
    assert c.get(300) == cache.get(300)
    assert (len(c._nums), c.high_water) == (301, 400)
    with pytest.raises(CacheFileCorrupt, match=f"{path}:401: malformed line"):
        c.get(400)
    # the bad line stays in the way of every later read that reaches it
    with pytest.raises(CacheFileCorrupt, match=f"{path}:401: "):
        c.extend_to(401)
    assert c.high_water == 400


class _KernelCalled(Exception):
    pass


def _no_kernel(*args):
    raise _KernelCalled


def test_ceiling(monkeypatch):
    """Past CEILING, get raises before the kernel is called; at CEILING it
    reaches the kernel.  The ceiling is a constant, not an option."""
    monkeypatch.setattr(hclab._kernels, "bernoulli_extend", _no_kernel)
    c = BernoulliCache()
    with pytest.raises(IndexCeilingExceeded, match=f"needs Bernoulli index {CEILING + 1}"):
        c.get(CEILING + 1)
    with pytest.raises(_KernelCalled):
        c.get(CEILING)
    with pytest.raises(TypeError):
        BernoulliCache(ceiling=10)


def test_get_grows_geometrically(kernel_calls):
    """A reader walking up one index at a time makes O(log n) kernel calls."""
    c = BernoulliCache()
    for n in range(601):
        c.get(n)
    assert len(kernel_calls) <= 12


def test_get_fills_exactly_n_when_empty_and_stops_at_ceiling(monkeypatch):
    c = BernoulliCache()
    c.get(10)
    assert c.high_water == 10
    monkeypatch.setattr(bernoulli_mod, "CEILING", 30)
    c.get(11)  # doubles the stored run
    assert c.high_water == 20
    c.get(21)  # doubling would pass the ceiling
    assert c.high_water == 30
    with pytest.raises(IndexCeilingExceeded):
        c.get(31)
    assert c.high_water == 30


def test_computed_values_are_checked(monkeypatch):
    """A kernel that gets a sign wrong is caught, and nothing is stored."""
    kernel = hclab._kernels.bernoulli_extend

    def flip_b4(nums, dens, upto):
        kernel(nums, dens, upto)
        nums[4] = -nums[4]

    c = BernoulliCache()
    c.extend_to(2)
    monkeypatch.setattr(hclab._kernels, "bernoulli_extend", flip_b4)
    with pytest.raises(ValueError, match="B_4 must be negative"):
        c.extend_to(6)
    assert c.high_water == 2


def test_computed_numerator_is_checked(monkeypatch):
    """A kernel that gets B_6 = 1/42 off by one in its numerator, with the
    right sign and denominator, is caught, and nothing is stored."""
    kernel = hclab._kernels.bernoulli_extend

    def bump_b6(nums, dens, upto):
        kernel(nums, dens, upto)
        nums[6] += 1

    c = BernoulliCache()
    c.extend_to(2)
    monkeypatch.setattr(hclab._kernels, "bernoulli_extend", bump_b6)
    with pytest.raises(ValueError, match="B_6 numerator fails the full Von Staudt-Clausen"):
        c.extend_to(8)
    assert c.high_water == 2


def test_cache_file_reaches_ceiling(tmp_path, kernel_calls):
    """The documented limit is reachable under every check: one kernel call
    fills a file to CEILING, and reloading it checks every index again."""
    path = tmp_path / "ceiling.cache"
    filled = BernoulliCache(path=str(path))
    filled.extend_to(CEILING)
    assert kernel_calls == [CEILING]
    reloaded = BernoulliCache(path=str(path))
    assert reloaded.high_water == CEILING
    assert reloaded.get(CEILING) == filled.get(CEILING)


def test_cache_file_past_int_str_digit_limit(tmp_path, cache, monkeypatch,
                                             default_digit_limit):
    """Numerators from B_2064 on have more than 4300 digits; the cache file
    still writes and reloads them.  The kernel replays the shared cache, so
    only the file I/O is new work."""

    def replay(nums, dens, upto):
        for i in range(len(nums), upto + 1):
            b = cache.get(i)
            nums.append(b.numerator)
            dens.append(b.denominator)

    cache.extend_to(2100)
    monkeypatch.setattr(hclab._kernels, "bernoulli_extend", replay)
    path = tmp_path / "big.cache"
    BernoulliCache(path=str(path)).extend_to(2100)
    reloaded = BernoulliCache(path=str(path))
    assert reloaded.high_water == 2100
    assert abs(reloaded.get(2064).numerator) > 10**4300
    assert all(reloaded.get(n) == cache.get(n) for n in range(2050, 2101))
    assert sys.get_int_max_str_digits() == 4300
