"""Sharp cases of the claimed exponents: on each case the achieved valuation
equals the required exponent, so lowering the exponent, or raising it, fails
here.  Each case runs through the theorem table, as `verify` does, and pins
the exact left-hand side, taken where possible from routes the package does
not use: Bernoulli numbers from Brent and Harvey's tangent triangle,
harmonic numbers summed term by term and Fermat quotients divided out here.
The two ids that are never sharp, cor-remark0-3 and cor-remark0-5, pin their
least margins instead, and every exponent is checked to be stated once, in
the theorem table."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from hclab import cli, fork
from hclab import congruences as cg
from hclab.primes import primes_in

from oracles import tangent_triangle


def _bernoulli(index: int) -> Fraction:
    """B_index for even index >= 2: (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    n = index // 2
    return Fraction((-1) ** (n - 1) * 2 * n * tangent_triangle(n)[n], 4**n * (4**n - 1))


def _harmonic(order: int, upto: int) -> Fraction:
    return sum((Fraction(1, j**order) for j in range(1, upto + 1)), Fraction(0))


def _q(p: int) -> int:
    """The Fermat quotient q_p = (2^(p-1) - 1)/p."""
    assert (2 ** (p - 1) - 1) % p == 0
    return (2 ** (p - 1) - 1) // p


def _valuation(x: Fraction, p: int) -> int:
    """v_p of a nonzero rational whose denominator p does not divide."""
    assert x and x.denominator % p
    v, num = 0, x.numerator
    while num % p == 0:
        v, num = v + 1, num // p
    return v


# B_1, and C_j = 2 B_{j+2} + (-1)^j B_{j+1} + 1/2 of thm-eecj at j = 0, 1 (B_3 = 0)
_B1 = Fraction(-1, 2)
_C0 = 2 * _bernoulli(2) + _B1 + Fraction(1, 2)
_C1 = -_bernoulli(2) + Fraction(1, 2)

# (theorem id, p, params, exact left-hand side, its exact value, sharp exponent)
_SHARP = [
    ("wolstenholme", 5, {}, _harmonic(1, 4), Fraction(25, 12), 2),
    # The four expansions at J = 1: the value at J = 0 plus the j = 0 term.
    # -H^(k)_{p-1} + (-1)^k H^(k)_{p-1}
    ("expansion-e10ee", 3, {"k": 1, "J": 1}, -_harmonic(1, 2) - _harmonic(1, 2),
     Fraction(-3), 1),
    # -H^(2k)_{p-1} + 2 H^(2k)_{(p-1)/2}
    ("expansion-e10eed", 3, {"k": 1, "J": 1}, -_harmonic(2, 2) + 2 * _harmonic(2, 1),
     Fraction(3, 4), 1),
    # -H^(k)_{p-1} + (1 + (-1)^k)/2^k H^(k)_{(p-1)/2}, whose second term is 0 at odd k
    ("expansion-e10eee", 3, {"k": 1, "J": 1}, -_harmonic(1, 2), Fraction(-3, 2), 1),
    # 2 (2^(2k) - 1) H^(2k)_{(p-1)/2}, and a j = 0 term of 0
    ("expansion-e10eeeff", 3, {"k": 1, "J": 1}, 2 * 3 * _harmonic(2, 1), Fraction(6), 1),
    # C(j+2i, 2i) B_j H^(j+2i+1)_{p-1} (-p)^j for j <= 2n + 1; tier 3, as 3 | n
    ("thm-ee10bis", 3, {"n": 0, "i": 0}, _harmonic(1, 2) + _B1 * _harmonic(2, 2) * -3,
     Fraction(27, 8), 3),
    # the same series at j < k
    ("cor-ee10biss", 3, {"i": 0, "k": 1}, _harmonic(1, 2), Fraction(3, 2), 1),
    # C(j+2i-1, j+1) (2^(j+2i) - 1)/2^j C_j H^(j+2i)_{(p-1)/2} p^j for j < 2n; tier 0
    ("thm-eecj", 3, {"n": 1, "i": 1},
     3 * _C0 * _harmonic(2, 1) + Fraction(7, 2) * _C1 * _harmonic(3, 1) * 3, Fraction(9, 2), 2),
    # the same series at i = 1 and j < J
    ("cor-eecjj", 5, {"J": 1}, 3 * _C0 * _harmonic(2, 2), Fraction(5, 4), 1),
    # H^(2h+1)_{(p-1)/2} + (2^(2h+1) - 2) B_{p^(n-1)(p-1)-2h}/(2h); the sum over
    # i is empty at n = 2
    ("prop42", 5, {"n": 2, "h": 1}, _harmonic(3, 2) + 6 * _bernoulli(18) / 2,
     Fraction(176665, 1064), 1),
    # the j = 0 term of the B/H series, (2 - 1)(4 - 1) 2/2 B_2 H_{(p-1)/2}, plus q_p
    ("thm-ee20", 3, {"n": 1}, 3 * _bernoulli(2) * _harmonic(1, 1) + _q(3), Fraction(3, 2), 1),
    # p^n (2^(n+1) - 1)/2^n B_{p^(n-1)(p-1)-n}/n at n = 2, where delta and
    # the sum over h are empty
    ("eq47", 5, {"n": 2}, 5**2 * Fraction(7, 4) * _bernoulli(18) / 2,
     Fraction(1096675, 912), 2),
    ("lemma-pb-1", 7, {"n": 2}, 7 * _bernoulli(42) - 6,
     Fraction(1520097643918070801143, 258), 2),
    ("lemma-pb-2", 5, {"n": 1, "h": 1}, 5 * _bernoulli(2) - _harmonic(2, 4),
     Fraction(-85, 144), 1),
    # h != k: the h = k cases have lhs 0 and test nothing
    ("kummer", 11, {"h": 2, "k": 12}, _bernoulli(2) / 2 - _bernoulli(12) / 12,
     Fraction(3421, 32760), 1),
    ("wolstenholme-refined", 7, {}, _harmonic(1, 6) + Fraction(7, 2) * _harmonic(2, 6),
     Fraction(55223, 7200), 4),
    ("eisenstein", 5, {}, _harmonic(1, 2) + 2 * _q(5), Fraction(15, 2), 1),
    ("lehmer", 5, {}, _harmonic(1, 2) + 2 * _q(5) - 5 * _q(5) ** 2, Fraction(-75, 2), 2),
    ("cor-remark0-1", 5, {"k": 2}, _harmonic(3, 4), Fraction(2035, 1728), 1),
    # H^(2k-1)_{p-1} + p(2k-1) H^(2k)_{(p-1)/2}
    ("cor-remark0-2", 3, {"k": 1}, _harmonic(1, 2) + 3 * _harmonic(2, 1), Fraction(9, 2), 2),
    # H^(2k)_{p-1} - 2 H^(2k)_{(p-1)/2} - 2kp H^(2k+1)_{(p-1)/2}
    ("cor-remark0-4", 3, {"k": 2}, _harmonic(4, 2) - 2 * _harmonic(4, 1) - 12 * _harmonic(5, 1),
     Fraction(-207, 16), 2),
    # 2 H^(2k)_{(p-1)/2} - (2^(2k+1) - 1) H^(2k)_{p-1}
    ("cor-remark0-6", 3, {"k": 2}, 2 * _harmonic(4, 1) - 31 * _harmonic(4, 2),
     Fraction(-495, 16), 2),
    # H^(2k)_{p-1} - p 2k/(2k+1) B_{p-1-2k}
    ("prop3-1", 7, {"k": 1}, _harmonic(2, 6) - 7 * Fraction(2, 3) * _bernoulli(4),
     Fraction(5929, 3600), 2),
    # H^(2k)_{(p-1)/2} - p k(2^(2k+1) - 1)/(2k+1) B_{p-1-2k}
    ("prop3-2", 5, {"k": 1}, _harmonic(2, 2) - 5 * Fraction(7, 3) * _bernoulli(2),
     Fraction(-25, 36), 2),
    # H^(2k-1)_{p-1} + p^2 k(2k-1)/(2k+1) B_{p-1-2k}
    ("prop3-3", 7, {"k": 1}, _harmonic(1, 6) + 7**2 * Fraction(1, 3) * _bernoulli(4),
     Fraction(343, 180), 3),
    # H^(2k+1)_{(p-1)/2} - 2(1 - 4^k)/(2k+1) B_{p-1-2k}
    ("prop3-4", 5, {"k": 1}, _harmonic(3, 2) + 2 * _bernoulli(2), Fraction(35, 24), 1),
    # H_{(p-1)/2} + 2(q - p q^2/2) + (B_{p(p-1)-2}/2) (2^3 - 1) (p/2)^2 at n = 2
    ("prop41", 5, {"n": 2},
     _harmonic(1, 2) + 2 * (_q(5) - Fraction(5 * _q(5) ** 2, 2))
     + _bernoulli(18) / 2 * 7 * Fraction(5, 2) ** 2,
     Fraction(1062475, 912), 2),
    ("sun", 7, {},
     _harmonic(1, 3) + Fraction(7, 12) * _bernoulli(4) * 7**2
     + 2 * (_q(7) - Fraction(_q(7) ** 2 * 7, 2) + Fraction(_q(7) ** 3 * 7**2, 3)),
     Fraction(8375717, 360), 3),
]


# The tier each ladder's sharp case resolves to; None for every other id.
_TIER = {"thm-ee10bis": 3, "thm-eecj": 0}


@pytest.mark.parametrize("theorem_id, p, args, lhs, value, exponent", _SHARP,
                         ids=[case[0] for case in _SHARP])
def test_sharp_case(cache, theorem_id, p, args, lhs, value, exponent):
    assert lhs == value and _valuation(value, p) == exponent
    record = cg.verify_case(theorem_id, p, dict(args), cache)
    assert (record.theorem_id, record.p, record.params) == (theorem_id, p, args)
    assert record.lhs == value
    assert record.required_exponent == record.achieved_valuation == exponent
    assert record.tier == _TIER.get(theorem_id) and record.passed is True


def test_every_id_but_two_has_a_sharp_case():
    never_sharp = {"cor-remark0-3", "cor-remark0-5"}
    assert sorted(case[0] for case in _SHARP) == sorted(set(cg.THEOREMS) - never_sharp)


@pytest.mark.parametrize("theorem_id, p, args", [case[:3] for case in _SHARP],
                         ids=[case[0] for case in _SHARP])
def test_table_exponent_mutants_fail(cache, monkeypatch, theorem_id, p, args):
    """An exponent raised by one in the table fails the sharp case; one lowered
    by one no longer equals its valuation."""
    row = cg.THEOREMS[theorem_id]
    for by in (1, -1):
        mutant = row._replace(exponent=lambda p, a, t, by=by: row.exponent(p, a, t) + by)
        monkeypatch.setitem(cg.THEOREMS, theorem_id, mutant)
        record = cg.verify_case(theorem_id, p, dict(args), cache)
        if by == 1:
            assert record.passed is False
        else:
            assert record.required_exponent != record.achieved_valuation


# Further pinned cases for terms a sharp case cannot tell apart: at p = 3 every
# H^(m)_{(p-1)/2} is H_1 = 1, so a term's harmonic order can move unseen, and
# e10eee's j = 0 term, (1 + (-1)^k)/2^k H^(k)_{(p-1)/2}, is 0 at odd k.
# (theorem id, p, params, exact left-hand side, its exact value)
_MORE = [
    ("expansion-e10eed", 5, {"k": 1, "J": 1}, -_harmonic(2, 4) + 2 * _harmonic(2, 2),
     Fraction(155, 144)),
    ("expansion-e10eee", 5, {"k": 2, "J": 1}, -_harmonic(2, 4) + Fraction(2, 4) * _harmonic(2, 2),
     Fraction(-115, 144)),
    ("expansion-e10eeeff", 5, {"k": 1, "J": 1}, 2 * 3 * _harmonic(2, 2), Fraction(15, 2)),
    ("thm-eecj", 5, {"n": 1, "i": 1},
     3 * _C0 * _harmonic(2, 2) + Fraction(7, 2) * _C1 * _harmonic(3, 2) * 5, Fraction(125, 16)),
    ("thm-ee20", 5, {"n": 1}, 3 * _bernoulli(2) * _harmonic(1, 2) + _q(5), Fraction(15, 4)),
    ("cor-remark0-2", 5, {"k": 1}, _harmonic(1, 4) + 5 * _harmonic(2, 2), Fraction(25, 3)),
    ("cor-remark0-4", 5, {"k": 2}, _harmonic(4, 4) - 2 * _harmonic(4, 2) - 20 * _harmonic(5, 2),
     Fraction(-449375, 20736)),
    ("cor-remark0-6", 5, {"k": 2}, 2 * _harmonic(4, 2) - 31 * _harmonic(4, 4),
     Fraction(-649375, 20736)),
]


def _expanded(terms) -> list:
    """The terms of one case, a series' terms j = -1, 0, ... with each
    coefficient built."""
    if isinstance(terms, cg._Head):
        return [t._replace(c=t.c()) for j in range(-1, terms.length)
                for t in terms.series(*terms.args, j)]
    return list(terms)


def _mutated(terms, i: int, how: str) -> list:
    """The terms with term i dropped, its sign flipped or its harmonic order
    raised by one."""
    terms = _expanded(terms)
    if how == "drop":
        del terms[i]
    elif how == "flip":
        terms[i] = terms[i]._replace(c=-terms[i].c)
    else:
        terms[i] = terms[i]._replace(h=(terms[i].h[0] + 1, terms[i].h[1]))
    return terms


@pytest.mark.parametrize("theorem_id, p, args", [case[:3] for case in _SHARP],
                         ids=[case[0] for case in _SHARP])
def test_table_lhs_mutants_fail(cache, monkeypatch, theorem_id, p, args):
    """Each term of the sharp case, dropped, with its sign flipped or with its
    harmonic order moved by one in the theorem table, changes the pinned lhs
    or the verdict of the sharp case or of a case of _MORE.  A term on B_3, or
    on any B_n with odd n >= 3, is 0 at every case: mutating it leaves every
    left-hand side as it is, so it has no mutant."""
    row = cg.THEOREMS[theorem_id]
    pinned = [(q, a, value) for t, q, a, _, value, *_ in _SHARP + _MORE if t == theorem_id]
    for q, a, value in pinned:
        monkeypatch.setattr(cg, "_running", None)
        assert cg.verify_case(theorem_id, q, dict(a), cache).lhs == value
    terms = _expanded(row.terms(p, **args))
    assert terms
    for i, term in enumerate(terms):
        if term.b is not None and term.b >= 3 and term.b % 2:
            continue
        for how in ("drop", "flip", "shift") if term.h else ("drop", "flip"):
            mutant = row._replace(  # at, not i, which names a param
                terms=lambda p, at=i, how=how, **a: _mutated(row.terms(p, **a), at, how))
            monkeypatch.setitem(cg.THEOREMS, theorem_id, mutant)
            caught = []
            for q, a, value in pinned:
                monkeypatch.setattr(cg, "_running", None)
                record = cg.verify_case(theorem_id, q, dict(a), cache)
                caught.append(record.lhs != value or record.passed is False)
            assert any(caught), (theorem_id, i, term, how)


@pytest.mark.parametrize("theorem_id, p, args, lhs, value", _MORE,
                         ids=[case[0] for case in _MORE])
def test_more_pins(cache, theorem_id, p, args, lhs, value):
    """Each further pin holds, taken from the routes the package does not use."""
    assert lhs == value
    assert cg.verify_case(theorem_id, p, dict(args), cache).lhs == value


def test_remark0_least_margins(cache):
    """cor-remark0-3 (e9a) and cor-remark0-5 (e10eeee) are claimed mod p^2 and
    never sharp: on every odd p <= 293 and 1 <= k <= 6 the achieved valuation
    passes the table's exponent by at least 1, and e9a's by at least 2 for
    p >= 2k + 5 (the derivation is beside cg.REMARK0_IDS).  These are
    the least margins, each reached on the grid."""
    margins = {"cor-remark0-3": {}, "cor-remark0-5": {}}
    for k in range(1, 7):
        for p in primes_in(3, 293):
            for theorem_id, by_case in margins.items():
                record = cg.verify_case(theorem_id, p, {"k": k}, cache)
                by_case[p, k] = record.achieved_valuation - record.required_exponent
    assert [len(by_case) for by_case in margins.values()] == [366, 366]
    e9a = margins["cor-remark0-3"]
    assert min(e9a.values()) == 1
    assert min(m for (p, k), m in e9a.items() if p >= 2 * k + 5) == 2
    assert min(margins["cor-remark0-5"].values()) == 1


def test_exponent_stated_only_in_the_table():
    """Exponents and hypotheses are stated only in the theorem table: anywhere
    in congruences.py, lambdas included, the one _verdict call and the one
    raise of HypothesisViolated lie in verify_case, the _verdict call passes
    exactly the id, p and lhs by position and no exponent, and nothing but
    Theorem's field assigns an exponent."""
    tree = ast.parse(Path(cg.__file__).read_text(encoding="utf-8"))
    verify_case = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "verify_case")

    def verdicts(root: ast.AST) -> list:
        return [node for node in ast.walk(root)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_verdict"]

    def raises(root: ast.AST) -> list:
        return [node for node in ast.walk(root) if isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "HypothesisViolated"]

    calls = verdicts(tree)
    assert len(calls) == len(verdicts(verify_case)) == 1
    for call in calls:
        assert len(call.args) == 3, ast.unparse(call)
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), ast.unparse(call)
        assert "exponent" not in {kw.arg for kw in call.keywords}, ast.unparse(call)
    assert len(raises(tree)) == len(raises(verify_case)) == 1
    assigned = [node.lineno for top in tree.body
                if not (isinstance(top, ast.ClassDef) and top.name == "Theorem")
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and node.id == "exponent"
                and isinstance(node.ctx, ast.Store)]
    assert assigned == []


# One small grid for every id's params; J is the --j-terms flag.
_GRID = {"n": "0:2", "i": "0:2", "k": "1:3", "h": "1:2", "J": "0:4"}


@pytest.mark.parametrize("theorem_id", sorted(cg.THEOREMS))
def test_record_exponent_from_the_record_alone(capsys, monkeypatch, tmp_path, theorem_id):
    """The table's exponent, worked out from a scanned record's p, params and
    tier alone, is the record's required_exponent."""
    monkeypatch.setattr(fork, "workers", lambda: 1)
    theorem = cg.THEOREMS[theorem_id]
    argv = ["scan", theorem_id, "--p-min", "2", "--p-max", "13",
            "--cache", str(tmp_path / "c.cache")]
    for name in theorem.params:
        argv += ["--j-terms" if name == "J" else f"--{name}", _GRID[name]]
    assert cli.run(argv) in (0, 1)
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    ok = [r for r in records if r["status"] == "ok"]
    assert ok
    for r in ok:
        assert r["required_exponent"] == theorem.exponent(r["p"], r["params"], r["tier"]), r
