#!/usr/bin/env python3
"""End-to-end benchmark of the hclab command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is closed-loop: a single caller runs its `hclab` commands one
at a time, each in a fresh interpreter with its own working directory and
cache path, and repeats the whole workload until S seconds have passed.
The seed shuffles the order of the commands in every repetition; the grids
are fixed, so the gold outputs stay exact.

  bernoulli-cold  `scan sun` up to p = 1800 on an empty cache: B_0..B_1786
                  are generated in 276 small incremental extensions, the
                  case that punishes a generator that recomputes from zero.
  bernoulli-warm  nine read-side commands against a cache filled once (not
                  timed) to B_1804: each loads and validates all of it and
                  computes none. A generator change should not move it.
  harmonic-sweep  fifteen commands that need at most B_7, each with its own
                  empty cache: exact harmonic prefix sums, the verifiers'
                  Fraction series, vp and about 15 MB of JSON output.

Every command's exit code, stderr and records (minus `elapsed_ms`) are
checked against perfbench/gold.json (rebuild it with perfbench/make_gold.py);
so are the final bernoulli-cold cache and the warm cache, which must not
change. The known-defect probe `verify thm-ee20 --p 1487 --n 6` runs once
per run outside the timed workloads; its outcome is reported, not counted.

With --trace 0 the last stdout line holds the end-to-end metrics (medians
over the repetitions); with --trace 1 it holds the per-layer metrics from
perfbench/traced_cli.py, measured on traced repetitions interleaved with
untraced ones, whose wall-time difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLD_PATH = BENCH / "gold.json"
TRACED_CLI = BENCH / "traced_cli.py"

# What the `hclab` console script runs.
HCLAB = ("-c", "from hclab.cli import main; main()")

WARM_FILL = "bernoulli 1804"
SETUP_COMMAND = "bernoulli 0"
PROBE = "verify thm-ee20 --p 1487 --n 6"
WORKLOADS = {
    "bernoulli-cold": (False, ["scan sun --p-min 5 --p-max 1800"]),
    "bernoulli-warm": (
        True,
        [
            "scan prop41 --p-min 3 --p-max 43 --n 1:2",
            "scan sun --p-min 5 --p-max 1800",
            "irregular-pairs --p-max 1800",
            *(f"scan prop3-{i} --p-min 5 --p-max 900 --k 1:3" for i in range(1, 5)),
            "scan thm-ee10bis --p-min 2 --p-max 400 --n 0:2 --i 0:2",
            "scan thm-eecj --p-min 3 --p-max 400 --n 1:2 --i 1:2",
        ],
    ),
    "harmonic-sweep": (
        False,
        [
            "scan thm-ee20 --p-min 3 --p-max 1000 --n 1:6",
            *(
                f"scan expansion-{e} --p-min 3 --p-max 600 --k 1:3 --j-terms 0:6"
                for e in ("e10ee", "e10eed", "e10eee", "e10eeeff")
            ),
            *(f"scan cor-remark0-{i} --p-min 3 --p-max 1500 --k 1:3" for i in range(1, 7)),
            *(
                f"scan {t} --p-min 5 --p-max 3000"
                for t in ("wolstenholme", "wolstenholme-refined", "eisenstein", "lehmer")
            ),
        ],
    ),
}

# Record fields compared with gold; fields added later are ignored.
GOLD_FIELDS = (
    "theorem_id", "p", "params", "status", "required_exponent",
    "achieved_valuation", "tier", "pass", "lhs",
)
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170.0  # a run must end within 180 s; keep a margin

# Per-layer metrics: name -> (unit, value from the summed trace summaries).
LAYER_METRICS = {
    "kernels.bernoulli_extend_s": ("s", lambda t: t.total("kernels.bernoulli_extend")),
    "kernels.bernoulli_extend_calls": ("count", lambda t: t.calls("kernels.bernoulli_extend")),
    "kernels.bernoulli_indices": ("count", lambda t: t.count("kernels.bernoulli_indices")),
    "kernels.bernoulli_max_index": ("index", lambda t: t.max_index),
    "bernoulli.extend_to_calls": ("count", lambda t: t.calls("bernoulli.extend_to")),
    "bernoulli.extend_to_hit_ratio": (
        "ratio",
        lambda t: t.count("bernoulli.extend_to_hits") / max(t.calls("bernoulli.extend_to"), 1),
    ),
    "bernoulli.extend_to_self_s": ("s", lambda t: t.self_s("bernoulli.extend_to")),
    "bernoulli.store_bytes": ("bytes", lambda t: t.count("bernoulli.store_bytes")),
    "bernoulli.load_s": ("s", lambda t: t.total("bernoulli.load")),
    "bernoulli.load_indices": ("count", lambda t: t.count("bernoulli.load_indices")),
    "bernoulli.validate_s": ("s", lambda t: t.total("bernoulli.validate")),
    "bernoulli.validate_calls": ("count", lambda t: t.calls("bernoulli.validate")),
    "exact.is_prime_s": ("s", lambda t: t.total("exact.is_prime")),
    "exact.is_prime_calls": ("count", lambda t: t.calls("exact.is_prime")),
    "exact.vp_s": ("s", lambda t: t.total("exact.vp")),
    "exact.vp_calls": ("count", lambda t: t.calls("exact.vp")),
    "harmonic.harmonic_s": ("s", lambda t: t.total("harmonic.harmonic")),
    "harmonic.harmonic_calls": ("count", lambda t: t.calls("harmonic.harmonic")),
    "harmonic.prefix_terms": ("count", lambda t: t.count("harmonic.prefix_terms")),
    "congruences.verify_self_s": ("s", lambda t: t.self_s("congruences.verify")),
    "congruences.verify_calls": ("count", lambda t: t.calls("congruences.verify")),
    "primes.fermat_quotient_s": ("s", lambda t: t.total("primes.fermat_quotient")),
    "primes.primes_in_s": ("s", lambda t: t.total("primes.primes_in")),
    "report.record_s": ("s", lambda t: t.total("report.record")),
    "report.emit_s": ("s", lambda t: t.total("report.emit")),
    "report.emit_bytes": ("bytes", lambda t: t.count("report.emit_bytes")),
    "report.records": ("count", lambda t: t.count("report.records")),
    "cli.import_s": ("s", lambda t: t.import_s),
    "cli.run_s": ("s", lambda t: t.total("cli.run")),
    "cli.commands": ("count", lambda t: t.commands),
}
# Counts that two traced repetitions must reproduce exactly.
SELF_CHECK = (
    "kernels.bernoulli_indices", "bernoulli.extend_to_calls", "bernoulli.load_indices",
    "harmonic.prefix_terms", "exact.vp_calls", "report.records", "report.emit_bytes",
)


class Failure(Exception):
    """A command whose exit code, stderr or output disagrees with gold."""


class Trace:
    """Trace summaries of one workload repetition, summed over its commands."""

    def __init__(self, summaries):
        self.commands = len(summaries)
        self.import_s = sum(s["import_s"] for s in summaries)
        self.max_index = max((s["max_index"] for s in summaries), default=-1)
        self.layers = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        for s in summaries:
            for name, row in s["layers"].items():
                acc = self.layers[name]
                for i, v in enumerate(row):
                    acc[i] += v
            for name, v in s["counts"].items():
                self.counts[name] += v

    def calls(self, name):
        return self.layers[name][0]

    def total(self, name):
        return self.layers[name][1]

    def self_s(self, name):
        return self.layers[name][2]

    def count(self, name):
        return self.counts[name]

    def metrics(self):
        return {name: get(self) for name, (_, get) in LAYER_METRICS.items()}


class Runner:
    """Spawns hclab commands in fresh interpreters and checks them against gold."""

    def __init__(self, tmp: Path, gold: dict, deadline: float):
        self.tmp = tmp
        self.gold = gold
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "HCL_CACHE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self._dirs = 0

    def workdir(self) -> Path:
        self._dirs += 1
        path = self.tmp / f"w{self._dirs}"
        path.mkdir()
        return path

    def spawn(self, command: str, cache: Path, cwd: Path, trace: Path | None = None):
        """Run one command to completion; returns (exit code, max RSS in KiB)."""
        args = [*command.split(), "--cache", str(cache)]
        if trace is None:
            argv = [sys.executable, *HCLAB, *args]
        else:
            argv = [sys.executable, str(TRACED_CLI), str(trace), *args]
        with open(cwd / "out", "wb") as out, open(cwd / "err", "wb") as err:
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
        killer = threading.Timer(
            max(self.deadline - time.monotonic(), 0.0), os.kill, (proc.pid, signal.SIGKILL)
        )
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def check(self, command: str, cwd: Path, rc: int) -> int:
        """Count one finished command; returns its ok records matching gold."""
        self.attempted += 1
        try:
            return self.verify(command, cwd, rc)
        except Failure as exc:
            self.failed += 1
            print(f"FAILED {exc}", file=sys.stderr)
            return 0

    def verify(self, command: str, cwd: Path, rc: int) -> int:
        """Compare one finished command with gold; raises Failure on a difference."""
        gold = self.gold["commands"][command]
        err = (cwd / "err").read_bytes()
        if b"Traceback (most recent call last)" in err:
            raise Failure(f"{command}: traceback\n{err.decode(errors='replace')[-2000:]}")
        if rc != gold["exit"]:
            raise Failure(f"{command}: exit {rc}, gold {gold['exit']}")
        try:
            digest, ok = digest_output(gold["kind"], (cwd / "out").read_bytes())
        except ValueError as exc:
            raise Failure(f"{command}: output is not JSON lines: {exc}") from None
        if digest != gold["sha256"]:
            raise Failure(f"{command}: output differs from gold")
        return ok

    def check_cache(self, path: Path, workload: str) -> bool:
        """Compare a cache file with the workload's gold cache."""
        if sha256_file(path) == self.gold["caches"][workload]:
            return True
        print(f"FAILED {workload}: cache file differs from gold", file=sys.stderr)
        return False


def digest_output(kind: str, data: bytes):
    """sha256 of a command's output and its number of `ok` records.

    Records are JSON lines projected onto GOLD_FIELDS, so timings and fields
    added later do not count as differences.
    """
    if kind == "text":
        return hashlib.sha256(data).hexdigest(), 0
    h = hashlib.sha256()
    ok = 0
    for line in data.splitlines():
        rec = json.loads(line)
        ok += rec.get("status") == "ok"
        row = {f: rec.get(f) for f in GOLD_FIELDS}
        h.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest(), ok


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def run_repetition(runner, commands, warm_cache, rng, traced):
    """One pass over the workload's commands in a seeded order.

    Returns (wall seconds, ok records matching gold, peak RSS MiB, trace,
    cache path of the first command run).
    """
    order = rng.sample(commands, len(commands))
    dirs = [runner.workdir() for _ in order]
    caches = []
    for d in dirs:
        if warm_cache is None:
            (d / "bernoulli.cache").write_bytes(b"")
        caches.append(warm_cache or d / "bernoulli.cache")
    traces = [d / "trace.json" if traced else None for d in dirs]
    results = []
    t0 = time.perf_counter()
    for command, cache, d, tr in zip(order, caches, dirs, traces):
        results.append(runner.spawn(command, cache, d, tr))
    wall = time.perf_counter() - t0
    cases = 0
    for command, d, (rc, _) in zip(order, dirs, results):
        cases += runner.check(command, d, rc)
    trace = None
    if traced:
        trace = Trace([json.loads(p.read_text()) for p in traces if p.exists()])
    rss = max(kb for _, kb in results) / 1024
    return wall, cases, rss, trace, caches[0]


def measure_setup(runner, warm_cache) -> float:
    """Wall time of `hclab bernoulli 0` on the workload's starting cache."""
    d = runner.workdir()
    cache = warm_cache
    if cache is None:
        cache = d / "bernoulli.cache"
        cache.write_bytes(b"")
    t0 = time.perf_counter()
    rc, _ = runner.spawn(SETUP_COMMAND, cache, d)
    elapsed = time.perf_counter() - t0
    runner.check(SETUP_COMMAND, d, rc)
    return elapsed


def run_probe(runner) -> bool:
    """Run the known-defect probe; True when it matches gold."""
    d = runner.workdir()
    (d / "bernoulli.cache").write_bytes(b"")
    rc, _ = runner.spawn(PROBE, d / "bernoulli.cache", d)
    try:
        runner.verify(PROBE, d, rc)
    except Failure as exc:
        print(f"known-defect probe fails: {str(exc).splitlines()[-1]}", file=sys.stderr)
        return False
    print("known-defect probe matches gold", file=sys.stderr)
    return True


def environment(runner) -> dict:
    """The interpreter, kernel and commit the run measured."""
    probe = runner.workdir()
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, hclab, hclab._kernels as k; "
         "print(json.dumps([hclab.__file__, k.IMPLEMENTATION]))"],
        cwd=probe, env=runner.env, capture_output=True, text=True, check=True,
    ).stdout
    hclab_file, implementation = json.loads(out)
    if not Path(hclab_file).resolve().is_relative_to(SRC):
        raise SystemExit(f"hclab imports from {hclab_file}, not from {SRC}")
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "kernel": implementation,
        "HCLAB_PURE": "HCLAB_PURE" in os.environ,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hclab" / "cli.py").is_file():
        print(f"hclab sources not found under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    gold = json.loads(GOLD_PATH.read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return bench(args, gold, tmp, start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench(args, gold, tmp, start) -> int:
    runner = Runner(tmp, gold, start + RUN_LIMIT_S)
    env = environment(runner)
    print(json.dumps({"seed": args.seed, "workload": args.workload, **env}))
    rng = random.Random(args.seed)
    warm, commands = WORKLOADS[args.workload]
    correct = True
    warm_cache = None
    if warm:
        warm_cache = tmp / "warm.cache"
        d = runner.workdir()
        rc, _ = runner.spawn(WARM_FILL, warm_cache, d)
        runner.check(WARM_FILL, d, rc)
        correct &= runner.check_cache(warm_cache, args.workload)
    probe_ok = run_probe(runner)

    walls, cases, rss, setups, traced_walls, traces = [], [], [], [], [], []
    traced = bool(args.trace) and rng.random() < 0.5
    t_end = time.perf_counter() + args.seconds
    while True:
        enough = (len(walls) >= 2 and len(traces) >= 2) if args.trace else walls
        if enough and time.perf_counter() >= t_end:
            break
        last = max(walls + traced_walls, default=0.0)
        if enough and time.monotonic() + 2 * last > start + RUN_LIMIT_S:
            break
        if not args.trace:
            setups += [measure_setup(runner, warm_cache) for _ in range(2)]
        wall, n, peak, trace, cache = run_repetition(
            runner, commands, warm_cache, rng, traced
        )
        print(f"repetition {len(walls) + len(traced_walls) + 1}"
              f"{' traced' if traced else ''}: {wall:.3f} s", file=sys.stderr)
        if traced:
            traced_walls.append(wall)
            traces.append(trace)
        else:
            walls.append(wall)
            cases.append(n / wall)
            rss.append(peak)
        if args.workload in gold["caches"]:
            correct &= runner.check_cache(cache, args.workload)
        if args.trace:
            traced = not traced
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup(runner, warm_cache))

    if args.trace:
        per_rep = [t.metrics() for t in traces]
        for name in SELF_CHECK:
            values = {m[name] for m in per_rep}
            if len(values) != 1:
                correct = False
                print(f"FAILED trace self-check: {name} differs between traced "
                      f"repetitions: {sorted(values)}", file=sys.stderr)
        series = {name: [m[name] for m in per_rep] for name in LAYER_METRICS}
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        series["trace.overhead_s"] = [
            statistics.median(traced_walls) - statistics.median(walls)
        ]
        units["trace.overhead_s"] = "s"
        series["probe.failed"] = [0 if probe_ok else 1]
        units["probe.failed"] = "count"
    else:
        series = {"wall_s": walls, "cases_per_s": cases, "setup_s": setups,
                  "peak_rss_mb": rss}
        units = {"wall_s": "s", "cases_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

    metrics = {}
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:34} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(values)}")
        metrics[name] = {"value": med, "unit": units[name]}
    if args.trace:
        print(f"{'traced wall_s':34} median {statistics.median(traced_walls):.6g} s  "
              f"untraced {statistics.median(walls):.6g} s")
    correct &= runner.failed == 0
    print(json.dumps({"correct": bool(correct), "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
