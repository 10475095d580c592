"""End-to-end CLI behavior: exit codes, output formats, config precedence."""

import json

import pytest

from hclab import cli
from hclab.bernoulli import BernoulliCache
from hclab.cli import run
from hclab.report import parse


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    # keep CLI runs from dropping ./bernoulli.cache into the working tree
    monkeypatch.setenv("HCL_CACHE", str(tmp_path / "default.cache"))


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_capture(capsys, ["verify", "wolstenholme", "--p", "7"])
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["theorem_id"] == "wolstenholme" and rec["pass"] is True


def test_verify_fail_exit_one(capsys):
    code, out, _ = run_capture(capsys, ["verify", "thm-ee20", "--p", "3", "--n", "5"])
    assert code == 1
    rec = json.loads(out.splitlines()[0])
    assert rec["pass"] is False and rec["achieved_valuation"] == 4


def test_verify_usage_errors(capsys):
    code, _, err = run_capture(capsys, ["verify", "no-such-id", "--p", "5"])
    assert code == 2
    code, _, err = run_capture(capsys, ["verify", "wolstenholme"])
    assert code == 2 and "--p" in err
    code, _, err = run_capture(capsys, ["verify", "thm-ee20", "--p", "5"])
    assert code == 2 and "--n" in err
    # hypothesis violations surface as exit 2, not a crash
    code, _, err = run_capture(capsys, ["verify", "wolstenholme", "--p", "3"])
    assert code == 2 and "hypothesis" in err


@pytest.mark.parametrize("theorem_id,p", [("wolstenholme", "9"), ("lehmer", "341")])
def test_verify_composite_p_exit_two(capsys, theorem_id, p):
    # 341 = 11 * 31 is a base-2 pseudoprime
    code, out, err = run_capture(capsys, ["verify", theorem_id, "--p", p])
    assert code == 2 and out == "" and err == f"{p} is not prime\n"


def test_verify_past_int_str_digit_limit(capsys):
    # the exact left-hand side has more than 4300 decimal digits
    code, out, err = run_capture(
        capsys, ["verify", "thm-ee20", "--p", "1487", "--n", "6"]
    )
    assert code == 0 and err == ""
    rec = json.loads(out.splitlines()[0])
    assert rec["pass"] is True and rec["achieved_valuation"] == 6


@pytest.mark.parametrize(
    "body,problem",
    [
        ("0 1/1\n1 -1/2\n2 1/7\n", "Von Staudt-Clausen"),
        ("0 1/1\n1 -1/2\n2 garbage\n", "malformed line"),
        ("0 1/1\n1 -1/2\n3 0/1\n", "non-contiguous index 3"),
    ],
)
def test_malformed_cache_exit_two(capsys, tmp_path, body, problem):
    path = tmp_path / "bad.cache"
    path.write_text(body)
    code, out, err = run_capture(capsys, ["bernoulli", "4", "--cache", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:3: ") and problem in err
    assert len(err.splitlines()) == 1


def test_unknown_subcommand(capsys):
    assert run_capture(capsys, ["frobnicate"])[0] == 2


def test_scan_json_sorted(capsys):
    code, out, _ = run_capture(
        capsys, ["scan", "wolstenholme", "--p-min", "5", "--p-max", "30"]
    )
    assert code == 0
    ps = [json.loads(line)["p"] for line in out.splitlines()]
    assert ps == sorted(ps) == [5, 7, 11, 13, 17, 19, 23, 29]


def test_scan_csv_and_skipped(capsys):
    code, out, _ = run_capture(
        capsys,
        ["scan", "thm-ee20", "--p-min", "3", "--p-max", "7",
         "--n", "1:6", "--format", "csv"],
    )
    assert code == 0
    records = parse(out, "csv")
    assert len(records) == 18
    skipped = [r for r in records if r.status == "skipped-hypothesis"]
    # p=3 with n=5 and n=6 falls outside p > (n+1)/2
    assert {(r.p, r.params["n"]) for r in skipped} == {(3, 5), (3, 6)}
    assert all(r.passed for r in records if r.status == "ok")


def test_scan_ceiling_exit_two(capsys, tmp_path):
    code, _, err = run_capture(
        capsys,
        ["scan", "prop41", "--p-min", "3", "--p-max", "13", "--n", "1:5",
         "--cache", str(tmp_path / "c.cache")],
    )
    assert code == 2 and "ceiling" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_capture(
        capsys, ["verify", "eisenstein", "--p", "11", "--out", str(target)]
    )
    assert code == 0 and out == ""
    rec = json.loads(target.read_text().splitlines()[0])
    assert rec["theorem_id"] == "eisenstein"


def test_bernoulli_and_harmonic_verbs(capsys, tmp_path):
    code, out, _ = run_capture(
        capsys, ["bernoulli", "12", "--cache", str(tmp_path / "b.cache")]
    )
    assert code == 0 and out.strip() == "-691/2730"
    code, out, _ = run_capture(capsys, ["harmonic", "--m", "2", "--n", "3"])
    assert code == 0 and out.strip() == "49/36"


def test_cache_file_created_and_env_precedence(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "env.cache"
    flag_cache = tmp_path / "flag.cache"
    monkeypatch.setenv("HCL_CACHE", str(env_cache))
    run_capture(capsys, ["bernoulli", "8"])
    assert env_cache.exists()
    lines = env_cache.read_text().splitlines()
    assert lines[0] == "0 1/1" and lines[8] == "8 -1/30"
    # an explicit flag wins over the environment variable
    run_capture(capsys, ["bernoulli", "4", "--cache", str(flag_cache)])
    assert flag_cache.read_text().splitlines()[4] == "4 -1/30"
    assert len(env_cache.read_text().splitlines()) == 9


def test_irregular_pairs_verb(capsys):
    code, out, _ = run_capture(capsys, ["irregular-pairs", "--p-max", "150"])
    assert code == 0
    pairs = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert pairs == [(37, 32), (59, 44), (67, 58), (101, 68), (103, 24),
                     (131, 22), (149, 130)]


def test_classify_prime_verb(capsys):
    code, out, _ = run_capture(capsys, ["classify-prime", "--p", "1093"])
    assert code == 0 and "wieferich=true" in out and "mersenne=false" in out
    code, out, _ = run_capture(capsys, ["classify-prime", "--p", "31"])
    assert "mersenne=true" in out
    assert run_capture(capsys, ["classify-prime", "--p", "10"])[0] == 2


def test_selftest(capsys, tmp_path):
    code, out, _ = run_capture(
        capsys, ["selftest", "--cache", str(tmp_path / "s.cache")]
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)


def test_selftest_deterministic(capsys, tmp_path):
    args = ["selftest", "--cache", str(tmp_path / "s.cache"),
            "--out", str(tmp_path / "r.json")]
    run_capture(capsys, args)
    first = (tmp_path / "r.json").read_text()
    run_capture(capsys, args)
    second = (tmp_path / "r.json").read_text()
    a = [json.loads(l) for l in first.splitlines()]
    b = [json.loads(l) for l in second.splitlines()]
    for ra, rb in zip(a, b):
        ra.pop("elapsed_ms"), rb.pop("elapsed_ms")
    assert a == b


def test_verify_fixed_tier(capsys):
    code, out, _ = run_capture(
        capsys,
        ["verify", "thm-ee10bis", "--p", "11", "--n", "1", "--i", "0",
         "--tier", "2"],
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["tier"] == 2 and rec["required_exponent"] == 4


class _RecordingCache(BernoulliCache):
    largest = -1

    def get(self, n):
        _RecordingCache.largest = max(_RecordingCache.largest, n)
        return super().get(n)


_NEED_GRID = {"n": "0:2", "i": "0:2", "k": "1:3", "h": "1:2", "j_terms": "0:4"}


@pytest.mark.parametrize(
    "theorem_id,tier",
    [(t, None) for t in sorted(cli._REGISTRY)]
    + [("thm-ee10bis", 1), ("thm-eecj", 1)],
)
def test_scan_bernoulli_need_covers_reads(capsys, tmp_path_factory, monkeypatch,
                                          theorem_id, tier):
    """The up-front ceiling check must bound every index a scan reads."""
    monkeypatch.setattr(cli, "BernoulliCache", _RecordingCache)
    monkeypatch.setattr(_RecordingCache, "largest", -1)
    names = cli._REGISTRY[theorem_id][0]
    argv = ["scan", theorem_id, "--p-min", "2", "--p-max", "23",
            "--cache", str(tmp_path_factory.getbasetemp() / "need.cache")]
    for name in names:
        argv += [f"--{name.replace('_', '-')}", _NEED_GRID[name]]
    if tier is not None:
        argv += ["--tier", str(tier)]
    code, _, err = run_capture(capsys, argv)
    assert code in (0, 1), err
    grids = {name: cli._parse_range(_NEED_GRID[name]) for name in names}
    need = cli._max_bernoulli_index(theorem_id, 23, grids, tier)
    assert _RecordingCache.largest <= need
