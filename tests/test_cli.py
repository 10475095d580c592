"""End-to-end CLI behavior: exit codes, output formats, config precedence."""

import itertools
import json
import os
import re
import resource
import shlex
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hclab._kernels
import hclab.bernoulli as bernoulli_mod
import hclab.primes
from hclab import cli, fork
from hclab import congruences as cg
from hclab.bernoulli import BernoulliCache
from hclab.cli import run
from hclab.harmonic import harmonic
from hclab.primes import primes_in
from hclab.report import emit, parse


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
    for verb in ("verify", "scan"):
        code, out, err = run_capture(capsys, [verb, theorem_id, "--p", p])
        assert code == 2 and out == "" and err == f"{p} is not prime\n", verb


def test_verify_past_int_str_digit_limit(capsys, default_digit_limit):
    # the exact left-hand side has more than 4300 decimal digits
    code, out, err = run_capture(
        capsys, ["verify", "thm-ee20", "--p", "1487", "--n", "6"]
    )
    assert code == 0 and err == ""
    rec = json.loads(out.splitlines()[0])
    assert rec["pass"] is True and rec["achieved_valuation"] == 6
    # the command lifted the limit for itself only
    assert sys.get_int_max_str_digits() == 4300


@pytest.mark.parametrize(
    "body,problem",
    [
        ("0 1/1\n1 -1/2\n2 1/7\n", "Von Staudt-Clausen"),
        ("0 1/1\n1 -1/2\n2 garbage\n", "malformed line"),
        ("0 1/1\n1 -1/2\n3 0/1\n", "non-contiguous index 3"),
        # written as the single byte 0xff, which is not UTF-8
        ("0 1/1\n1 -1/2\n2 \udcff/6\n", "malformed line"),
        ("0 1/1\n1 -1/2\n2 1/6\n3 0/0\n", "B_3 must vanish, stored as 0/1"),
        # the right denominator, the wrong sign: B_4 = -1/30
        ("0 1/1\n1 -1/2\n2 1/6\n3 0/1\n4 1/30\n", "B_4 must be negative"),
        # the right sign and denominator, but 5/6 + 1/2 + 1/3 is no integer
        ("0 1/1\n1 -1/2\n2 5/6\n", "B_2 numerator fails the full Von Staudt-Clausen"),
        # passes full Von Staudt-Clausen too, but is 10^9 times too large
        ("0 1/1\n1 -1/2\n2 1/6\n3 0/1\n4 -30000000001/30\n", "B_4 magnitude"),
    ],
)
def test_malformed_cache_exit_two(capsys, tmp_path, body, problem):
    """The last line of each body is the bad one."""
    path = tmp_path / "bad.cache"
    path.write_text(body, encoding="utf-8", errors="surrogateescape")
    code, out, err = run_capture(capsys, ["bernoulli", "4", "--cache", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:{body.count(chr(10))}: ") and problem in err
    assert len(err.splitlines()) == 1


def test_bad_line_past_the_reads_is_left_alone(capsys, tmp_path, cache):
    """A bad last line is reported by the first command that reads it, and
    no command rewrites the file it is in."""
    path = tmp_path / "b.cache"
    path.write_text("".join(f"{i} {cache.get(i).numerator}/{cache.get(i).denominator}\n"
                            for i in range(400)) + "400 garbage\n")
    before = path.read_bytes()
    code, out, err = run_capture(capsys, ["bernoulli", "10", "--cache", str(path)])
    assert (code, out, err) == (0, "5/66\n", "")
    for index in ("400", "401"):
        code, out, err = run_capture(capsys, ["bernoulli", index, "--cache", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:401: malformed line")
        assert len(err.splitlines()) == 1
    assert path.read_bytes() == before


def test_fifo_cache_exit_two(tmp_path):
    """A FIFO at the cache path is refused before it is opened, so the
    command neither blocks on it nor replaces it."""
    path = tmp_path / "fifo.cache"
    os.mkfifo(path)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hclab.cli", "bernoulli", "4", "--cache", str(path)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {path}: not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(path).st_mode)


_CRASH_SCRIPT = """
import sys
from hclab import cli, congruences, fork

verify = congruences.verify_case

def broken(theorem_id, p, params, cache):
    if p < 2500:
        return verify(theorem_id, p, params, cache)
    raise TypeError(f"bug at p={p}")

congruences.verify_case = broken
fork.workers = lambda: 2
cli.main()
"""


@pytest.mark.parametrize("argv, forked", [
    (["verify", "wolstenholme", "--p", "2503"], False),
    # two chunks, 3..2221 and 2237..2999: the bug is in the worker's
    (["scan", "wolstenholme", "--p-min", "3", "--p-max", "3000"], True),
    # two chunks, the parent's from 2503: the bug is in the parent's own
    (["scan", "wolstenholme", "--p-min", "2503", "--p-max", "3000"], False),
])
def test_bug_exits_seventy_with_its_traceback(tmp_path, argv, forked):
    """A verifier that raises TypeError from p = 2500 on is a bug, not a
    failed check: the command exits 70, never 1, with the traceback on
    stderr, in one process, from a forked worker and from the parent's own
    chunk while a worker runs, and writes no report."""
    target = tmp_path / "report.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT, *argv,
         "--cache", str(tmp_path / "c.cache"), "--out", str(target)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (70, "")
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert "TypeError: bug at p=25" in proc.stderr
    assert ("in _scan_worker" in proc.stderr) == forked
    assert not target.exists()


def test_directory_cache_exit_two(capsys, tmp_path):
    code, out, err = run_capture(capsys, ["bernoulli", "4", "--cache", str(tmp_path)])
    assert (code, out, err) == (2, "", f"error: {tmp_path}: not a regular file\n")


def test_symlinked_cache_fills_its_target(capsys, tmp_path):
    """A fill writes through a symlinked cache path: the link stays a link,
    and its target holds the values."""
    target = tmp_path / "target.cache"
    target.write_text("")
    link = tmp_path / "link.cache"
    link.symlink_to(target)
    code, out, _ = run_capture(capsys, ["bernoulli", "4", "--cache", str(link)])
    assert (code, out) == (0, "-1/30\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert len(target.read_text().splitlines()) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["bernoulli", "-1"],
        ["harmonic", "--m", "0", "--n", "5"],
        ["harmonic", "--m", "1", "--n", "-1"],
        # past the trial-division primality limit of 10^12
        ["verify", "wolstenholme", "--p", "1000000000039"],
        ["classify-prime", "--p", "1000000000039"],
        ["scan", "wolstenholme", "--p-min", "5", "--p-max", "7",
         "--out", "{tmp}/missing/x"],
    ],
)
def test_bad_input_exit_two(capsys, tmp_path, argv):
    """Bad input and an unwritable --out end in one line, never a traceback."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_unknown_subcommand(capsys):
    assert run_capture(capsys, ["frobnicate"])[0] == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["harmonic", "--m", "2", "--n", "5", "--cache", "C"],
         "hclab: error: unrecognized arguments: --cache C"),
        (["harmonic", "--m", "2"],
         "hclab harmonic: error: the following arguments are required: --n"),
        (["verify", "wolstenholme", "--p", "x"],
         "hclab verify: error: argument --p: invalid int value: 'x'"),
    ],
)
def test_argparse_errors_in_one_line(capsys, argv, message):
    """A command line argparse rejects ends in its error line alone."""
    assert run_capture(capsys, argv) == (2, "", message + "\n")


def test_help_still_prints_usage(capsys):
    code, out, err = run_capture(capsys, ["harmonic", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: hclab harmonic [-h] --m M --n N\n")


def test_import_skips_dataclasses_and_inspect():
    """The CLI's import chain loads neither module, a fixed cost every
    command would pay."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hclab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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


def test_scan_ceiling_at_largest_prime(capsys, tmp_path, monkeypatch):
    """The ceiling is checked at the grid's largest prime, not at --p-max: with
    the ceiling at 20, p = 23 reads B_20 and 24 is not prime."""
    monkeypatch.setattr(bernoulli_mod, "CEILING", 20)
    code, out, err = run_capture(
        capsys,
        ["scan", "sun", "--p-min", "23", "--p-max", "24", "--cache", str(tmp_path / "c.cache")],
    )
    assert code == 0, err
    assert [json.loads(line)["p"] for line in out.splitlines()] == [23]


def test_scan_ceiling_exit_two(capsys, tmp_path):
    code, _, err = run_capture(
        capsys,
        ["scan", "prop41", "--p-min", "3", "--p-max", "13", "--n", "1:5",
         "--cache", str(tmp_path / "c.cache")],
    )
    assert code == 2 and "ceiling" in err


@pytest.mark.parametrize(
    "argv",
    [
        # B_{13^4 * 12 - 2}
        ["verify", "prop41", "--p", "13", "--n", "5"],
        # resolving the tier reads B_4, then B_2516 for the irregular-pair test
        ["verify", "thm-eecj", "--p", "2521", "--n", "1", "--i", "1"],
        # the irregular-pair test reads B_{p-2n-2i-5} = B_2502
        ["verify", "thm-ee10bis", "--p", "2521", "--n", "0", "--i", "7"],
    ],
)
def test_verify_ceiling_exit_two(capsys, tmp_path, argv):
    """verify is checked against the ceiling before any Bernoulli number is computed."""
    cache = tmp_path / "c.cache"
    code, out, err = run_capture(capsys, argv + ["--cache", str(cache)])
    assert code == 2 and out == "" and "needs Bernoulli index" in err
    assert len(err.splitlines()) == 1
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma-pb-1", "--p", "3", "--n", "20000000"],
        ["verify", "lemma-pb-2", "--p", "5", "--n", "20000000", "--h", "1"],
        ["scan", "prop42", "--p-min", "3", "--p-max", "50", "--n", "20000000", "--h", "1"],
    ],
)
def test_power_index_refused_unbuilt(capsys, tmp_path, argv):
    """An index p^(n-1)(p-1) - 2h whose n alone puts it past the ceiling is
    refused in one short line, without building the power or its digits."""
    cache = tmp_path / "c.cache"
    start = time.perf_counter()
    code, out, err = run_capture(capsys, argv + ["--cache", str(cache)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: needs Bernoulli index \d+\^19999999\*\d+( - 2)?, "
                        r"beyond ceiling 2500\n", err)
    assert not cache.exists()


def test_grid_past_the_ceiling_refused_before_it_is_built(tmp_path):
    """A parameter range far past the Bernoulli ceiling is refused at its
    first case past it, in one line, before the grid is built: building its
    twenty million cases first ran out of memory under this address-space
    limit."""
    cache = tmp_path / "c.cache"
    src = str(Path(cli.__file__).resolve().parents[1])
    limit = 1_500_000 * 1024
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hclab.cli", "scan", "prop41", "--p-min", "3", "--p-max", "5",
         "--n", "1:20000000", "--cache", str(cache)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: needs Bernoulli index 5^12*4 - 2, beyond ceiling 2500\n"
    assert not cache.exists()


@pytest.mark.parametrize("argv, line", [
    (["verify", "thm-ee20", "--p", "3", "--n", "1000000000"],
     "error: needs Bernoulli index 1000000001, beyond ceiling 2500"),
    (["verify", "thm-ee10bis", "--p", "3", "--n", "1000000000", "--i", "0"],
     "error: needs Bernoulli index 2000000001, beyond ceiling 2500"),
    (["verify", "expansion-e10ee", "--p", "1000003", "--k", "1", "--j-terms", "1000000000"],
     "error: needs harmonic upper index 1000002, beyond ceiling 70000"),
    (["verify", "eq47", "--p", "3", "--n", "20000000"],
     "error: needs Bernoulli index 3^19999999*2 - 2, beyond ceiling 2500"),
    (["verify", "eq47", "--p", "3", "--n", "14"],
     "error: needs Bernoulli index 3^13*2 - 2, beyond ceiling 2500"),
    (["verify", "prop42", "--p", "3", "--n", "2000000000", "--h", "999999999"],
     "error: needs Bernoulli index 3^1999999999*2 - 1999999998, beyond ceiling 2500"),
    # out of hypothesis: the terms of a case no smaller p judges are none,
    # so 2^(2k+1), 2^(2h+1) and 2^(2k) stay unbuilt
    (["verify", "prop3-2", "--p", "5", "--k", "1000000000"],
     "hypothesis violated: needs p >= 2k+3"),
    (["verify", "prop3-4", "--p", "5", "--k", "1000000000"],
     "hypothesis violated: needs p >= 2k+3 or p = 2k+1"),
    (["verify", "prop42", "--p", "3", "--n", "2", "--h", "1000000000"],
     "hypothesis violated: needs (n+1)/2 > h"),
    (["verify", "cor-remark0-5", "--p", "2", "--k", "1000000000"],
     "hypothesis violated: needs odd p"),
    # lemma-pb-2 reads nothing at h < 0, so neither a ceiling nor a fill
    (["verify", "lemma-pb-2", "--p", "2521", "--n", "1", "--h", "-1"],
     "hypothesis violated: needs n, h >= 1"),
    (["verify", "lemma-pb-2", "--p", "7", "--n", "1", "--h", "-1"],
     "hypothesis violated: needs n, h >= 1"),
])
def test_far_past_a_ceiling_refused_at_once(tmp_path, argv, line):
    """A case far past a ceiling, or out of its hypothesis, is refused at
    once, with nothing filled: a series' need is read off its last term,
    unbuilt, and eq47 and prop42 name their power index before they build a
    power.  The hangs this guards against run for ten seconds and more, so
    the bound leaves room for a loaded host."""
    cache = tmp_path / "c.cache"
    src = str(Path(cli.__file__).resolve().parents[1])
    limit = 1_500_000 * 1024
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hclab.cli", *argv, "--cache", str(cache)],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert time.perf_counter() - start < 5.0
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")
    assert not cache.exists()


# For each id, the requirements of its row in order, each as the flags of one
# `verify` that fails it first and the message it ends with.
_VIOLATIONS = {
    "wolstenholme": [("--p 3", "needs p >= 5")],
    "wolstenholme-refined": [("--p 5", "needs p >= 7")],
    "eisenstein": [("--p 2", "needs odd p")],
    "lehmer": [("--p 2", "needs odd p")],
    **{f"expansion-{w}": [("--p 5 --k 0 --j-terms 1", "needs k >= 1"),
                          ("--p 5 --k 1 --j-terms -1", "needs J >= 0"),
                          *[("--p 2 --k 1 --j-terms 1", "needs odd p")] * (w != "e10ee")]
       for w in cg.EXPANSION_IDS},
    **{f"cor-remark0-{idx}": [("--p 2 --k 1", "needs odd p"), ("--p 3 --k 0", "needs k >= 1")]
       for idx in range(1, 7)},
    **{f"prop3-{idx}": [("--p 5 --k 0", "needs k >= 1"), ("--p 5 --k 2", "needs p >= 2k+3")]
       for idx in range(1, 4)},
    "prop3-4": [("--p 5 --k 0", "needs k >= 1"),
                ("--p 3 --k 2", "needs p >= 2k+3 or p = 2k+1")],
    "thm-ee10bis": [("--p 3 --i 0 --n -1", "needs n, i >= 0")],
    "cor-ee10biss": [("--p 2 --i 0 --k 1", "needs odd p"),
                     ("--p 3 --i 0 --k 0", "needs i >= 0, k >= 1")],
    "thm-eecj": [("--p 2 --i 1 --n 1", "needs odd p"), ("--p 3 --i 1 --n 0", "needs n, i >= 1")],
    "cor-eecjj": [("--p 2 --j-terms 1", "needs odd p"), ("--p 3 --j-terms 0", "needs J >= 1")],
    "prop41": [("--p 2 --n 1", "needs odd p"), ("--p 3 --n 0", "needs n >= 1"),
               ("--p 3 --n 5", "needs p > (n+1)/2")],
    "prop42": [("--p 2 --n 3 --h 1", "needs odd p"), ("--p 3 --n 2 --h 0", "needs h >= 1"),
               ("--p 3 --n 2 --h 2", "needs (n+1)/2 > h"),
               ("--p 3 --n 5 --h 1", "needs p > (n+1)/2")],
    "thm-ee20": [("--p 2 --n 1", "needs odd p"), ("--p 3 --n 0", "needs n >= 1")],
    "eq47": [("--p 2 --n 2", "needs odd p"), ("--p 3 --n 3", "needs even n >= 2"),
             ("--p 3 --n 6", "needs p > (n+1)/2")],
    "sun": [("--p 3", "needs p >= 5")],
    "lemma-pb-1": [("--p 2 --n 1", "needs odd p"), ("--p 3 --n 0", "needs n >= 1")],
    "lemma-pb-2": [("--p 2 --n 1 --h 1", "needs odd p"), ("--p 7 --n 1 --h 0", "needs n, h >= 1"),
                   ("--p 7 --n 1 --h 3", "needs p^(n-1)(p-1) - 2h >= 2")],
    "kummer": [("--p 2 --h 2 --k 2", "needs odd p"),
               ("--p 11 --h 3 --k 13", "needs even h, k >= 2"),
               ("--p 11 --h 2 --k 4", "needs h == k mod 10, neither divisible by it")],
}


@pytest.mark.parametrize("theorem_id", sorted(cg.THEOREMS))
def test_every_requirement_ends_verify_with_its_line(capsys, tmp_path, theorem_id):
    """Each requirement of a row, failed first, ends `verify` with exit 2,
    nothing on stdout and its own one stderr line."""
    violations = _VIOLATIONS[theorem_id]
    assert [msg for _, msg in violations] == [
        msg if isinstance(msg, str) else msg(11) for _, msg in cg.THEOREMS[theorem_id].requires]
    for flags, msg in violations:
        argv = ["verify", theorem_id, *flags.split(), "--cache", str(tmp_path / "c.cache")]
        assert run_capture(capsys, argv) == (2, "", f"hypothesis violated: {msg}\n"), flags


def test_power_index_below_the_cutoff_is_exact(capsys, tmp_path):
    """Below the cutoff the index is built and named in full, or read."""
    cache = str(tmp_path / "c.cache")
    code, out, err = run_capture(capsys, ["verify", "lemma-pb-1", "--p", "3", "--n", "8",
                                          "--cache", cache])
    assert (code, out, err) == (2, "", "error: needs Bernoulli index 4374, beyond ceiling 2500\n")
    code, out, err = run_capture(capsys, ["verify", "lemma-pb-1", "--p", "3", "--n", "7",
                                          "--cache", cache])
    assert code == 0, err
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "argv,upto",
    [
        (["harmonic", "--m", "1", "--n", "70001"], 70001),
        (["verify", "wolstenholme", "--p", "1000000007"], 1000000006),
        # 70001 - 1 is at the ceiling; the largest prime in the range, 70999, is past it
        (["scan", "lehmer", "--p-min", "69997", "--p-max", "71000"], 70998),
        (["verify", "thm-ee20", "--p", "70003", "--n", "2"], 70002),
    ],
)
def test_harmonic_ceiling_exit_two(capsys, tmp_path, monkeypatch, argv, upto):
    """Harmonic work that cannot fit is refused before any of it is done."""
    def no_work(*args):
        raise AssertionError("harmonic work started")

    monkeypatch.setattr(cg, "harmonic", no_work)
    cache = tmp_path / "c.cache"
    # `harmonic` reads no Bernoulli number and takes no --cache
    code, out, err = run_capture(
        capsys, argv if argv[0] == "harmonic" else argv + ["--cache", str(cache)]
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: needs harmonic upper index {upto}, beyond ceiling 70000"
    ]
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "wolstenholme", "--p", "7", "--tier", "1"],
        ["scan", "prop41", "--p-max", "11", "--p-min", "3", "--n", "1", "--tier", "1"],
        ["verify", "prop41", "--p", "7", "--n", "5:3"],
        ["scan", "prop42", "--p-min", "3", "--p-max", "11", "--n", "3", "--h", "2:1"],
        ["scan", "wolstenholme", "--p-min", "50", "--p-max", "10"],
        ["verify", "thm-ee10bis", "--p", "11", "--n", "1", "--i", "0", "--tier", "9"],
        ["verify", "thm-ee10bis", "--p", "11", "--n", "1", "--i", "0", "--tier", "0"],
        ["scan", "thm-eecj", "--p-min", "3", "--p-max", "11", "--n", "1", "--i", "1",
         "--tier", "-3"],
        ["scan", "thm-eecj", "--p-min", "3", "--p-max", "11", "--n", "1", "--i", "1",
         "--tier", "3"],
        # resolves to tier 4; --tier 5 would ask for a rung the theorem does not give
        ["verify", "thm-ee10bis", "--p", "11", "--n", "1", "--i", "1", "--tier", "5"],
    ],
)
def test_grid_usage_errors_exit_two(capsys, argv):
    """--tier, which no command reads, and reversed ranges are usage errors."""
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert ("tier" in err) if "--tier" in argv else ("empty range" in err)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "cor-eecjj", "--p", "5", "--j-terms", "0:2"],
        ["scan", "thm-eecj", "--p-min", "2", "--p-max", "5", "--n", "1", "--i", "1"],
    ],
)
def test_skipped_params_match_ok_params(capsys, argv):
    """Skipped and evaluated records of one scan name their parameters alike."""
    _, out, _ = run_capture(capsys, argv)
    records = [json.loads(line) for line in out.splitlines()]
    statuses = {r["status"] for r in records}
    assert statuses == {"ok", "skipped-hypothesis"}
    assert len({tuple(r["params"]) for r in records}) == 1
    # the skipped case sorts in its parameter order, not after the rest
    if "--j-terms" in argv:
        assert [r["params"]["J"] for r in records] == [0, 1, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "wolstenholme", "--p", "7", "--p-max", "100"],
        ["scan", "wolstenholme", "--p", "7", "--p-min", "5", "--p-max", "30"],
        ["scan", "wolstenholme", "--p", "7", "--p-min", "5"],
    ],
)
def test_conflicting_prime_flags_exit_two(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines() == ["--p excludes --p-min/--p-max"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "wolstenholme", "--p", "7", "--n", "3"], "--n"),
        (["scan", "sun", "--p-min", "5", "--p-max", "13", "--h", "2"], "--h"),
        (["verify", "prop3-1", "--p", "7", "--k", "1", "--j-terms", "2"], "--j-terms"),
    ],
)
def test_grid_flag_the_theorem_does_not_take_exit_two(capsys, tmp_path, argv, flag):
    """A grid flag the theorem does not read is refused, not dropped."""
    cache = tmp_path / "c.cache"
    code, out, err = run_capture(capsys, argv + ["--cache", str(cache)])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"{argv[1]} does not take {flag}"]
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bernoulli", "12", "--out", "{tmp}/f"],
        ["bernoulli", "12", "--format", "csv"],
        ["irregular-pairs", "--p-max", "50", "--out", "{tmp}/f"],
        ["harmonic", "--m", "2", "--n", "5", "--cache", "{tmp}/c"],
        ["harmonic", "--m", "2", "--n", "5", "--out", "{tmp}/f"],
        ["classify-prime", "--p", "7", "--format", "csv"],
        ["classify-prime", "--p", "7", "--cache", "{tmp}/c"],
    ],
)
def test_command_flag_it_does_not_read_exit_two(capsys, tmp_path, argv):
    """Each command accepts only the flags it reads, and writes no file
    named by one it refuses."""
    code, out, err = run_capture(capsys, [a.format(tmp=tmp_path) for a in argv])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + argv[-2] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,stored",
    [
        # prop3 at k reads B_{p-1-2k} alone
        (["verify", "prop3-1", "--p", "29", "--k", "4"], 21),
        # prop41 at n = 1 reads no Bernoulli number
        (["verify", "prop41", "--p", "29", "--n", "1"], 0),
    ],
)
def test_case_need_reaches_ceiling(capsys, tmp_path, monkeypatch, argv, stored):
    """The fill is each case's own need: with the ceiling at 20 and p = 29,
    these cases read B_20 and nothing, and run."""
    monkeypatch.setattr(bernoulli_mod, "CEILING", 20)
    cache = tmp_path / "c.cache"
    cache.write_text("")
    code, out, err = run_capture(capsys, argv + ["--cache", str(cache)])
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "ok"
    assert len(cache.read_text().splitlines()) == stored


def test_grid_flags_come_from_theorem_table(capsys, monkeypatch):
    """A theorem with a new parameter name needs no CLI edit."""
    fake = cg.Theorem(("q",), lambda p, a, t: 1, lambda p, q: [cg.Term(q * p)], [])
    monkeypatch.setitem(cg.THEOREMS, "fake", fake)
    code, out, err = run_capture(capsys, ["verify", "fake", "--p", "7", "--q", "3"])
    assert code == 0, err
    assert json.loads(out)["params"] == {"q": 3}


def test_out_of_memory_exit_two(capsys, monkeypatch):
    def no_memory(lo, hi):
        raise MemoryError

    monkeypatch.setattr(cli, "primes_in", no_memory)
    code, out, err = run_capture(
        capsys, ["scan", "wolstenholme", "--p-min", "5", "--p-max", "60000"]
    )
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: out of memory"]


def test_harmonic_ceiling_before_sieve(capsys, monkeypatch):
    """A range past the harmonic ceiling is refused at its largest prime,
    found by walking down from --p-max, before any window is sieved."""
    def no_sieve(lo, hi):
        raise AssertionError("primes_in called")

    monkeypatch.setattr(cli, "primes_in", no_sieve)
    code, out, err = run_capture(
        capsys, ["scan", "wolstenholme", "--p-min", "5", "--p-max", "1000000000"]
    )
    assert code == 2 and out == ""
    # 999999937 is the largest prime below 10^9
    assert err.splitlines() == [
        "error: needs harmonic upper index 999999936, beyond ceiling 70000"
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_written_in_batches(capsys, tmp_path, monkeypatch, fmt):
    """A report of several batches is byte-identical to one emit of its
    records, with the CSV header once, on stdout and through --out."""
    monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)  # equal timings
    argv = ["scan", "thm-ee20", "--p-min", "3", "--p-max", "200", "--n", "1:6",
            "--format", fmt]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0
    records = parse(out, fmt)
    assert len(records) > 2 * cli.EMIT_BATCH
    assert out == emit(records, fmt)
    assert out.count(emit([], "csv")) == (fmt == "csv")
    target = tmp_path / f"report.{fmt}"
    code, piped, _ = run_capture(capsys, argv + ["--out", str(target)])
    assert code == 0 and piped == ""
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt,expected", [("json", ""), ("csv", emit([], "csv"))])
def test_empty_grid_report(capsys, tmp_path, fmt, expected):
    """A grid without primes prints nothing in JSON and only the CSV header."""
    argv = ["scan", "wolstenholme", "--p-min", "24", "--p-max", "28", "--format", fmt]
    code, out, _ = run_capture(capsys, argv)
    assert code == 0 and out == expected
    target = tmp_path / f"empty.{fmt}"
    assert run_capture(capsys, argv + ["--out", str(target)])[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == expected


def test_out_flag_writes_file(capsys, tmp_path):
    for verb in ("verify", "scan"):
        target = tmp_path / f"{verb}.json"
        code, out, _ = run_capture(
            capsys, [verb, "eisenstein", "--p", "11", "--out", str(target)]
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


def test_bernoulli_verb_fills_cache_exactly(capsys, tmp_path, kernel_calls):
    """`bernoulli N` stores B_0..B_N, not the geometric growth of a bare read."""
    path = tmp_path / "c.cache"
    BernoulliCache(path=str(path)).extend_to(20)
    kernel_calls.clear()
    code, out, _ = run_capture(capsys, ["bernoulli", "21", "--cache", str(path)])
    assert code == 0 and out == "0/1\n"
    assert kernel_calls == [21]
    assert len(path.read_text().splitlines()) == 22


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


class _KernelCalled(Exception):
    pass


def _no_kernel(*args):
    raise _KernelCalled


def test_irregular_pairs_ceiling_up_front(capsys, tmp_path, monkeypatch):
    """--p-max 2520 reads B_2500 (P = 2503); 2521 is prime and would read B_2518."""
    monkeypatch.setattr(hclab._kernels, "bernoulli_extend", _no_kernel)
    cache = ["--cache", str(tmp_path / "c.cache")]
    code, out, err = run_capture(capsys, ["irregular-pairs", "--p-max", "2521"] + cache)
    assert code == 2 and out == "" and "ceiling" in err
    assert len(err.splitlines()) == 1
    with pytest.raises(_KernelCalled):
        run(["irregular-pairs", "--p-max", "2520"] + cache)


@pytest.mark.parametrize(
    "argv,given",
    [
        (["bernoulli", "2000", "--cache", "{tmp}/missing/x.cache"], "{tmp}/missing/x.cache"),
        (["bernoulli", "2000", "--cache", "{tmp}/link"], "{tmp}/link"),
        (["irregular-pairs", "--p-max", "1800", "--cache", "{tmp}/missing/x.cache"],
         "{tmp}/missing/x.cache"),
        (["scan", "sun", "--p-min", "5", "--p-max", "1800", "--cache", "{tmp}/missing/x.cache"],
         "{tmp}/missing/x.cache"),
        (["scan", "sun", "--p-min", "5", "--p-max", "1800", "--out", "{tmp}/missing/r.jsonl"],
         "{tmp}/missing/r.jsonl"),
        (["scan", "sun", "--p-min", "5", "--p-max", "1800", "--out", "{tmp}/link"], "{tmp}/link"),
        (["selftest", "--out", "{tmp}/missing/r.jsonl"], "{tmp}/missing/r.jsonl"),
    ],
)
def test_missing_directory_refused_before_work(capsys, tmp_path, monkeypatch, argv, given):
    """A --cache or --out whose directory does not exist, also behind a
    dangling symlink, ends in one line naming the path as given, before any
    sieve or kernel call."""
    monkeypatch.setattr(hclab._kernels, "bernoulli_extend", _no_kernel)
    monkeypatch.setattr(cli, "primes_in", _no_kernel)
    monkeypatch.setattr(bernoulli_mod, "primes_in", _no_kernel)
    monkeypatch.setattr(hclab.primes, "primes_in", _no_kernel)
    (tmp_path / "link").symlink_to(tmp_path / "missing" / "target")
    argv = [a.format(tmp=tmp_path) for a in argv]
    missing = os.path.realpath(tmp_path / "missing")
    assert run_capture(capsys, argv) == (
        2, "", f"error: {given.format(tmp=tmp_path)}: directory {missing} does not exist\n")
    assert not os.path.lexists(missing)


def test_missing_cache_directory_from_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(hclab._kernels, "bernoulli_extend", _no_kernel)
    monkeypatch.setenv("HCL_CACHE", str(tmp_path / "missing" / "x.cache"))
    code, out, err = run_capture(capsys, ["bernoulli", "2000"])
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith(f"error: {tmp_path / 'missing' / 'x.cache'}: directory ")


def test_classify_prime_verb(capsys):
    code, out, _ = run_capture(capsys, ["classify-prime", "--p", "1093"])
    assert code == 0 and "wieferich=true" in out and "mersenne=false" in out
    code, out, _ = run_capture(capsys, ["classify-prime", "--p", "31"])
    assert "mersenne=true" in out
    assert run_capture(capsys, ["classify-prime", "--p", "10"]) == (
        2, "", "10 is not an odd prime\n"
    )


def test_selftest(capsys, tmp_path):
    code, out, _ = run_capture(
        capsys, ["selftest", "--cache", str(tmp_path / "s.cache")]
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)
    report = tmp_path / "r.csv"
    code, out, _ = run_capture(
        capsys, ["selftest", "--cache", str(tmp_path / "s.cache"),
                 "--out", str(report), "--format", "csv"]
    )
    assert code == 0 and len(out.splitlines()) == 4
    assert len(parse(report.read_text(), "csv")) == 4


def test_selftest_fills_cache_in_one_kernel_call(capsys, tmp_path, kernel_calls):
    """The gold vectors read up to B_32 (p = 37): one fill, not the geometric
    growth of a bare read."""
    path = tmp_path / "s.cache"
    path.write_text("")
    code, _, err = run_capture(capsys, ["selftest", "--cache", str(path)])
    assert code == 0, err
    assert kernel_calls == [32]
    assert BernoulliCache(path=str(path)).high_water == 32


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


class _RecordingCache(BernoulliCache):
    largest = -1

    def get(self, n):
        _RecordingCache.largest = max(_RecordingCache.largest, n)
        return super().get(n)


def test_scan_fills_cache_in_one_kernel_call(capsys, tmp_path, kernel_calls):
    """The fill is sized by the largest prime in the grid (37, reading
    B_34), not by --p-max."""
    path = tmp_path / "c.cache"
    path.write_text("")
    code, _, err = run_capture(
        capsys, ["scan", "sun", "--p-min", "5", "--p-max", "40", "--cache", str(path)]
    )
    assert code == 0, err
    assert kernel_calls == [34]
    assert BernoulliCache(path=str(path)).high_water == 34


def test_scan_reading_no_bernoulli_leaves_cache_empty(capsys, tmp_path):
    path = tmp_path / "c.cache"
    path.write_text("")
    code, _, _ = run_capture(
        capsys, ["scan", "wolstenholme", "--p-min", "5", "--p-max", "40",
                 "--cache", str(path)]
    )
    assert code == 0 and path.read_text() == ""


_NEED_GRID = {"n": "0:2", "i": "0:2", "k": "1:3", "h": "1:2", "J": "0:4"}


# The "-None" in each id is kept from a since removed tier argument, so that
# the ids stay stable.
@pytest.mark.parametrize("theorem_id", sorted(cg.THEOREMS), ids=lambda t: f"{t}-None")
def test_scan_bernoulli_need_covers_reads(capsys, tmp_path_factory, monkeypatch,
                                          theorem_id):
    """The up-front ceiling check must bound every index a scan reads."""
    monkeypatch.setattr(fork, "workers", lambda: 1)  # the reads are watched in this process
    monkeypatch.setattr(cli, "BernoulliCache", _RecordingCache)
    monkeypatch.setattr(_RecordingCache, "largest", -1)
    theorem = cg.THEOREMS[theorem_id]
    argv = ["scan", theorem_id, "--p-min", "2", "--p-max", "23",
            "--cache", str(tmp_path_factory.getbasetemp() / "need.cache")]
    for name in theorem.params:
        argv += ["--j-terms" if name == "J" else f"--{name}", _NEED_GRID[name]]
    code, _, err = run_capture(capsys, argv)
    assert code in (0, 1), err
    grids = [cli._parse_range(_NEED_GRID[name]) for name in theorem.params]
    cases = [dict(zip(theorem.params, combo)) for combo in itertools.product(*grids)]
    assert _RecordingCache.largest <= max(cg.bernoulli_need(theorem_id, 23, case)
                                          for case in cases)


# For each id, a scan none of whose cases is skipped: (--p-min, --p-max, params).
# kummer's hypothesis ties p to h and k, so its grid is one case; lemma-pb-2
# starts at p = 5, where p^(n-1)(p-1) - 2h >= 2 for n = 1.
_EXACT_GRID = {
    **{t: (5, 13, {}) for t in ("wolstenholme", "eisenstein", "lehmer", "sun")},
    "wolstenholme-refined": (7, 13, {}),
    **{f"expansion-{w}": (3, 13, {"k": "1:2", "J": "0:3"}) for w in cg.EXPANSION_IDS},
    **{f"cor-remark0-{i}": (3, 13, {"k": "1:2"}) for i in range(1, 7)},
    **{f"prop3-{i}": (5, 13, {"k": "1"}) for i in range(1, 5)},
    # below p = 7 the series, not the irregular-pair test, sets the need
    "thm-ee10bis": (2, 5, {"n": "0:2", "i": "0:2"}),
    "cor-ee10biss": (3, 13, {"i": "0:1", "k": "1:4"}),
    "thm-eecj": (3, 13, {"n": "1:2", "i": "1:2"}),
    "cor-eecjj": (3, 13, {"J": "1:4"}),
    "prop41": (3, 13, {"n": "1:2"}),
    "prop42": (3, 7, {"n": "2", "h": "1"}),
    "thm-ee20": (3, 13, {"n": "1:4"}),
    "eq47": (3, 7, {"n": "2"}),
    "lemma-pb-1": (3, 7, {"n": "1:2"}),
    "lemma-pb-2": (5, 7, {"n": "1:2", "h": "1"}),
    "kummer": (11, 11, {"h": "2", "k": "12"}),
}


@pytest.mark.parametrize("theorem_id", sorted(cg.THEOREMS))
def test_scan_bernoulli_need_is_read(capsys, tmp_path_factory, monkeypatch, theorem_id):
    """On a grid whose cases are all judged, the largest Bernoulli index a scan
    reads is the need derived from the terms and tier reads, so the fill holds
    nothing no case reads (thm-ee10bis once declared B_{2n+2} and read B_{2n+1})."""
    monkeypatch.setattr(fork, "workers", lambda: 1)  # the reads are watched in this process
    monkeypatch.setattr(cli, "BernoulliCache", _RecordingCache)
    monkeypatch.setattr(_RecordingCache, "largest", -1)
    p_min, p_max, grid = _EXACT_GRID[theorem_id]
    argv = ["scan", theorem_id, "--p-min", str(p_min), "--p-max", str(p_max),
            "--cache", str(tmp_path_factory.getbasetemp() / "exact.cache")]
    for name, values in grid.items():
        argv += ["--j-terms" if name == "J" else f"--{name}", values]
    code, out, err = run_capture(capsys, argv)
    assert code in (0, 1), err
    assert {json.loads(line)["status"] for line in out.splitlines()} == {"ok"}
    top = cli.largest_prime(p_min, p_max)
    cases = cli._cases({name: cli._parse_range(values) for name, values in grid.items()})
    assert _RecordingCache.largest == max(cg.bernoulli_need(theorem_id, top, case)
                                          for case in cases)


def _is_series(theorem_id: str) -> bool:
    row = cg.THEOREMS[theorem_id]
    return isinstance(row.terms(5, **dict.fromkeys(row.params, 1)), cg._Head)


@pytest.mark.parametrize("theorem_id", [t for t in sorted(cg.THEOREMS) if _is_series(t)])
def test_series_need_lies_in_its_last_term(theorem_id):
    """The need of a series, read off its value at length 0 and its last term,
    is the largest B index among all its terms."""
    theorem = cg.THEOREMS[theorem_id]
    for p in (3, 5, 7, 23):
        for values in itertools.product(range(-1, 5), repeat=len(theorem.params)):
            case = dict(zip(theorem.params, values))
            head = theorem.terms(p, **case)
            every = [t.b for j in range(-1, head.length)
                     for t in head.series(*head.args, j) if t.b is not None]
            assert cg.bernoulli_need(theorem_id, p, case) == max(
                [theorem.tier_need(p, case), *every]), case


@pytest.mark.parametrize("theorem_id", sorted(cg.THEOREMS))
def test_harmonic_reads_stay_below_p(capsys, tmp_path, monkeypatch, theorem_id):
    """Every theorem reads H_n only with n <= p - 1, the bound the harmonic
    ceiling is checked against."""
    judge = cli._judge
    judged, reads = [], []

    def recording_judge(theorem_id, p, args, scan, cache):
        judged.append(p)
        return judge(theorem_id, p, args, scan, cache)

    def recording_harmonic(order, upto):
        reads.append((judged[-1], upto))
        return harmonic(order, upto)

    monkeypatch.setattr(fork, "workers", lambda: 1)  # the reads are watched in this process
    monkeypatch.setattr(cli, "_judge", recording_judge)
    monkeypatch.setattr(cg, "harmonic", recording_harmonic)
    theorem = cg.THEOREMS[theorem_id]
    argv = ["scan", theorem_id, "--p-min", "2", "--p-max", "23",
            "--cache", str(tmp_path / "c.cache")]
    for name in theorem.params:
        argv += ["--j-terms" if name == "J" else f"--{name}", _NEED_GRID[name]]
    code, _, err = run_capture(capsys, argv)
    assert code in (0, 1), err
    assert all(upto <= p - 1 for p, upto in reads)


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples(capsys, line):
    """Each README CLI example runs, exiting 1 where its comment says so."""
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "hclab"
    code, _, err = run_capture(capsys, argv[1:])
    assert code == (1 if "exit code 1" in comment else 0), err


def test_readme_ceiling_imports():
    """The README's spelling of both index ceilings runs and names them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    statements = re.findall(r"`(from hclab\.\w+ import CEILING)`", readme)
    assert statements == ["from hclab.harmonic import CEILING",
                          "from hclab.bernoulli import CEILING"]
    for statement, expected in zip(statements, (70_000, 2500)):
        namespace = {}
        exec(statement, namespace)
        assert namespace["CEILING"] == expected
