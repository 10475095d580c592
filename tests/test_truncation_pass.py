"""The truncation verifiers, which read their series through one running sum,
against sums taken afresh.

Each oracle below sums its series from j = 0 for a single length.  The running
sum must give the identical left-hand side, exponent and valuation at every
length, whichever order the lengths come in, so it is checked in ascending,
descending and shuffled order: the last two make it restart.
"""

import json
import random
from fractions import Fraction
from itertools import count
from math import comb

import pytest

from hclab import cli, fork
from hclab import congruences as cg
from hclab.bernoulli import BernoulliCache
from hclab.cli import run
from hclab.errors import HypothesisViolated
from hclab.exact import vp
from hclab.harmonic import harmonic
from hclab.primes import fermat_quotient, primes_in

from oracles import coeff_c, q_series

ODD_PRIMES = primes_in(3, 60)
LENGTHS = list(range(8))


def _require(cond):
    if not cond:
        raise HypothesisViolated


def oracle_expansion(which, k, p, J):
    _require(k >= 1 and J >= 0)
    half = (p - 1) // 2
    if which == "e10ee":
        series = (-1) ** k * sum(
            (comb(j + k - 1, j) * harmonic(k + j, p - 1) * Fraction(p) ** j
             for j in range(J)),
            Fraction(0),
        )
        lhs = series - harmonic(k, p - 1)
    elif which == "e10eed":
        series = sum(
            (comb(j + 2 * k - 1, j) * harmonic(2 * k + j, half) * Fraction(p) ** j
             for j in range(1, J)),
            Fraction(0),
        )
        head = 2 * harmonic(2 * k, half) if J >= 1 else Fraction(0)
        lhs = head + series - harmonic(2 * k, p - 1)
    elif which == "e10eee":
        series = (-1) ** k * sum(
            (comb(j + k - 1, j)
             * Fraction(1, 2 ** (j + k))
             * harmonic(k + j, half)
             * Fraction(p) ** j
             for j in range(1, J)),
            Fraction(0),
        )
        head = (
            Fraction(1 + (-1) ** k, 2**k) * harmonic(k, half) if J >= 1 else Fraction(0)
        )
        lhs = head + series - harmonic(k, p - 1)
    else:
        series = sum(
            (comb(j + 2 * k - 1, j)
             * Fraction(2 ** (2 * k + j) - 1, 2**j)
             * harmonic(2 * k + j, half)
             * Fraction(p) ** j
             for j in range(1, J)),
            Fraction(0),
        )
        lhs = 2 * (2 ** (2 * k) - 1) * harmonic(2 * k, half) + series
    return lhs, J


def ee10bis_sum(p, i, k, cache):
    return sum(
        (comb(j + 2 * i, 2 * i)
         * cg.bernoulli(j, cache)
         * harmonic(j + 2 * i + 1, p - 1)
         * Fraction(-p) ** j
         for j in range(k)),
        Fraction(0),
    )


def oracle_cor_ee10biss(p, i, k, cache):
    _require(k >= 1)
    return ee10bis_sum(p, i, k, cache), k


def eecj_sum(p, i, J, cache):
    half = (p - 1) // 2
    return sum(
        (comb(j + 2 * i - 1, j + 1)
         * Fraction(2 ** (j + 2 * i) - 1, 2**j)
         * coeff_c(j, cache)
         * harmonic(j + 2 * i, half)
         * Fraction(p) ** j
         for j in range(J)),
        Fraction(0),
    )


def oracle_cor_eecjj(p, J, cache):
    _require(J >= 1)
    return eecj_sum(p, 1, J, cache), J - 1 if (J % 2 == 1 and (J + 1) % (p - 1) == 0) else J


def oracle_thm_ee20(p, n, cache):
    _require(n >= 1)
    half = (p - 1) // 2
    lhs = sum(
        (Fraction(2 ** (j + 1) - 1, j + 1)
         * Fraction(2 ** (j + 2) - 1, j + 2)
         * cg.bernoulli(j + 2, cache)
         * Fraction(2) ** (1 - j)
         * harmonic(j + 1, half)
         * Fraction(p) ** j
         for j in range(n)),
        Fraction(0),
    ) + q_series(fermat_quotient(p), p, n)
    return lhs, n


def _orders(lengths, key=None):
    """The lengths ascending, descending and shuffled (seeded)."""
    shuffled = list(lengths)
    random.Random(len(lengths)).shuffle(shuffled)
    return [sorted(lengths, key=key), sorted(lengths, key=key, reverse=True), shuffled]


def check_lengths(single, oracle, lengths, p, params):
    """The single-length verifier against the oracle at every length, in
    each of _orders; a length the oracle refuses must be refused."""
    records = {}
    for order in _orders(lengths):
        for n in order:
            try:
                lhs, exponent = oracle(n)
            except HypothesisViolated:
                with pytest.raises(HypothesisViolated):
                    single(n)
                continue
            record = single(n)
            where = (record.theorem_id, p, params, n)
            assert record.lhs == lhs, where
            assert record.required_exponent == exponent, where
            assert record.achieved_valuation == vp(lhs, p), where
            assert record.passed == (vp(lhs, p) >= exponent), where
            assert record.elapsed_ms is None
            assert records.setdefault(n, record) == record, where
    return [records[n] for n in sorted(records)]


@pytest.mark.parametrize("which", cg.EXPANSION_IDS)
def test_expansion_pass_matches_per_length_sums(which):
    for p in ODD_PRIMES:
        for k in (1, 2, 3):
            records = check_lengths(
                lambda J: cg.verify_case(f"expansion-{which}", p, {"k": k, "J": J}, None),
                lambda J: oracle_expansion(which, k, p, J),
                LENGTHS, p, {"k": k},
            )
            # J = 0 is judged too: the target value alone
            assert records[0].params == {"k": k, "J": 0}


def test_cor_ee10biss_pass_matches_per_length_sums(cache):
    for p in ODD_PRIMES:
        for i in (0, 1, 2, 3):
            records = check_lengths(
                lambda k: cg.verify_case("cor-ee10biss", p, {"i": i, "k": k}, cache),
                lambda k: oracle_cor_ee10biss(p, i, k, cache),
                LENGTHS, p, {"i": i},
            )
            assert [r.params["k"] for r in records] == LENGTHS[1:]


def test_cor_eecjj_pass_matches_per_length_sums(cache):
    drops = 0
    for p in ODD_PRIMES:
        records = check_lengths(
            lambda J: cg.verify_case("cor-eecjj", p, {"J": J}, cache),
            lambda J: oracle_cor_eecjj(p, J, cache),
            LENGTHS, p, {},
        )
        drops += sum(r.required_exponent == r.params["J"] - 1 for r in records)
    # p = 3 at every odd J, p = 5 at J = 3 and 7, p = 7 at J = 5
    assert drops == 4 + 2 + 1


def test_thm_ee20_pass_matches_per_length_sums(cache):
    for p in ODD_PRIMES:
        check_lengths(
            lambda n: cg.verify_case("thm-ee20", p, {"n": n}, cache),
            lambda n: oracle_thm_ee20(p, n, cache),
            LENGTHS, p, {},
        )


def test_ladders_share_the_running_sum(cache):
    """Each ladder and its corollary read one series.  Interleaved with each
    other and with the other ladder, in each of _orders, every read gives
    the sum taken afresh."""
    i = 1  # cor-eecjj reads the thm-eecj series at i = 1
    for p in ODD_PRIMES[:6]:
        reads = [
            *((2 * n + 2, ee10bis_sum, "thm-ee10bis", {"n": n, "i": i}) for n in range(4)),
            *((k, ee10bis_sum, "cor-ee10biss", {"i": i, "k": k}) for k in range(1, 8)),
            *((2 * n, eecj_sum, "thm-eecj", {"n": n, "i": i}) for n in range(1, 4)),
            *((J, eecj_sum, "cor-eecjj", {"J": J}) for J in range(1, 8)),
        ]
        for order in _orders(reads, key=lambda read: read[0]):
            for length, series, theorem_id, params in order:
                record = cg.verify_case(theorem_id, p, params, cache)
                assert record.lhs == series(p, i, length, cache), (p, series, length)


def test_group_hypothesis_refuses_whole_pass():
    """An even p, or k = 0, is refused at every length."""
    for J in (0, 1, 2):
        with pytest.raises(HypothesisViolated, match="needs odd p"):
            cg.verify_case("expansion-e10eed", 2, {"k": 1, "J": J}, None)
        with pytest.raises(HypothesisViolated, match="needs k >= 1"):
            cg.verify_case("expansion-e10ee", 5, {"k": 0, "J": J}, None)


class _ShiftedCache(BernoulliCache):
    """Every B_n off by one: a cache whose values differ from the true ones."""

    def get(self, n):
        return super().get(n) + 1


def test_two_caches_do_not_share_a_sum(cache):
    """Alternating between two caches, each read restarts the series from
    its own cache's values, at lengths that would otherwise extend."""
    shifted = _ShiftedCache()
    p = 11
    for n in range(1, 7):
        for c in (cache, shifted):
            record = cg.verify_case("thm-ee20", p, {"n": n}, c)
            assert record.lhs == oracle_thm_ee20(p, n, c)[0], (n, c)
    assert oracle_thm_ee20(p, 6, cache) != oracle_thm_ee20(p, 6, shifted)
    for J in range(1, 7):
        for c in (cache, shifted):
            record = cg.verify_case("cor-eecjj", p, {"J": J}, c)
            assert record.lhs == oracle_cor_eecjj(p, J, c)[0], (J, c)


def test_sum_that_raises_leaves_nothing_stale(monkeypatch):
    """A harmonic read that raises part way through extending a sum leaves
    no running sum behind: the next read, which would have extended it,
    still equals the oracle."""
    p, k = 13, 2
    lhs, _ = oracle_expansion("e10ee", k, p, 2)
    assert cg.verify_case("expansion-e10ee", p, {"k": k, "J": 2}, None).lhs == lhs
    reads = count()

    def failing_harmonic(order, upto):
        if next(reads) == 2:
            raise MemoryError
        return harmonic(order, upto)

    monkeypatch.setattr(cg, "harmonic", failing_harmonic)
    with pytest.raises(MemoryError):
        cg.verify_case("expansion-e10ee", p, {"k": k, "J": 6}, None)
    monkeypatch.setattr(cg, "harmonic", harmonic)
    for J in (6, 7):
        lhs, _ = oracle_expansion("e10ee", k, p, J)
        assert cg.verify_case("expansion-e10ee", p, {"k": k, "J": J}, None).lhs == lhs, J


def test_each_record_times_its_own_case(capsys, tmp_path, monkeypatch):
    """On a clock that ticks one second per read, every ok record of a
    truncation scan is charged exactly one second: the clock is read once
    before and once after its own case, and nothing else is charged to it."""
    ticks = count()
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
    argv = ["scan", "thm-ee20", "--p-min", "3", "--p-max", "13", "--n", "0:6",
            "--cache", str(tmp_path / "c.cache")]
    assert run(argv) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    ok = [r for r in records if r["status"] == "ok"]
    assert len(ok) > 5 * 4
    assert all(r["elapsed_ms"] == 1000.0 for r in ok)
    assert all(r["elapsed_ms"] is None for r in records if r["status"] != "ok")


# -- scans through the CLI ---------------------------------------------------

_GRIDS = {
    "thm-ee20": ["--n", "0:7"],
    "cor-eecjj": ["--j-terms", "0:5"],
    "cor-ee10biss": ["--i", "0:1", "--k", "0:5"],
    "thm-eecj": ["--i", "1:2", "--n", "0:3"],
    **{f"expansion-{w}": ["--k", "0:2", "--j-terms", "0:4"] for w in cg.EXPANSION_IDS},
}


def _records(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    for r in records:
        r["elapsed_ms"] = None
    return code, records


@pytest.mark.parametrize("theorem_id", sorted(_GRIDS))
def test_scan_records_equal_verify_records(capsys, tmp_path, theorem_id):
    """A scan over a range gives, at each point, the record `verify` gives
    there, timings aside; a point the scan skips is one `verify` refuses or
    the scan's hypothesis filters out."""
    cache = ["--cache", str(tmp_path / "c.cache")]
    _, scanned = _records(
        capsys, ["scan", theorem_id, "--p-min", "2", "--p-max", "13", *_GRIDS[theorem_id], *cache]
    )
    theorem = cg.THEOREMS[theorem_id]
    statuses = set()
    for r in scanned:
        flags = [f"--{'j-terms' if name == 'J' else name}" for name in r["params"]]
        argv = ["verify", theorem_id, "--p", str(r["p"]), *cache]
        for flag, value in zip(flags, r["params"].values()):
            argv += [flag, str(value)]
        code, verified = _records(capsys, argv)
        statuses.add(r["status"])
        if r["status"] == "ok":
            assert code in (0, 1) and verified == [r], argv
        else:
            assert code == 2 or not theorem.hypothesis(r["p"], r["params"]), argv
    assert statuses == {"ok", "skipped-hypothesis"}


_READS = [
    # argv, groups of one (p, fixed params), harmonic reads per group
    *(pytest.param(["scan", f"expansion-{w}", "--p-min", "3", "--p-max", "13", "--k", "1:3",
                    "--j-terms", "0:6"], 5 * 3, 6 if w == "e10eeeff" else 7,
                   id=f"expansion-{w}")
      for w in cg.EXPANSION_IDS),
    pytest.param(["scan", "thm-ee20", "--p-min", "5", "--p-max", "13", "--n", "1:6"], 4, 6,
                 id="thm-ee20"),
    pytest.param(["scan", "cor-eecjj", "--p-min", "3", "--p-max", "13", "--j-terms", "0:6"],
                 5, 6, id="cor-eecjj"),
    pytest.param(["scan", "cor-ee10biss", "--p-min", "3", "--p-max", "13", "--i", "0:1",
                  "--k", "0:6"], 5 * 2, 6, id="cor-ee10biss"),
    # 2n + 2 terms at the largest n
    pytest.param(["scan", "thm-ee10bis", "--p-min", "2", "--p-max", "13", "--n", "0:3",
                  "--i", "0:1"], 6 * 2, 8, id="thm-ee10bis"),
    # 2n terms at the largest n, and one read per n to resolve its tier
    pytest.param(["scan", "thm-eecj", "--p-min", "3", "--p-max", "13", "--n", "1:3",
                  "--i", "1:2"], 5 * 2, 6 + 3, id="thm-eecj"),
]


@pytest.mark.parametrize("argv,groups,reads", _READS)
def test_scan_reads_each_term_once(capsys, tmp_path, monkeypatch, argv, groups, reads):
    """Each series term reads its harmonic number once per prime and values
    of the params that do not cut the series, however many lengths a scan
    judges there."""
    harmonic_reads = []

    def counting_harmonic(order, upto):
        harmonic_reads.append((order, upto))
        return harmonic(order, upto)

    monkeypatch.setattr(fork, "workers", lambda: 1)  # the reads are counted in this process
    monkeypatch.setattr(cg, "harmonic", counting_harmonic)
    code = run(argv + ["--cache", str(tmp_path / "c.cache")])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert len(harmonic_reads) == groups * reads
    ok = [r for r in records if r["status"] == "ok"]
    assert len(ok) > groups
    assert all(r["elapsed_ms"] >= 0 for r in ok)
