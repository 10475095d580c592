#!/usr/bin/env python3
"""Run the benchmark on a parent and a change revision in alternating pairs,
and write BENCH_<workload>.json at the repository root.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent REV [--change REV] --workload NAME [NAME ...]
        --pairs N --seed K --seconds S [--trace 0|1]
    python3 tools/bench_pairs.py --parent REV [--change REV] --kernel

Each revision is extracted with `git archive` into its own temporary
directory (under $TMPDIR, one per side, so a revision can be paired with
itself), so the working tree, the index and the refs are never touched, and
its own perfbench/run.py runs there unchanged.  Pair i
runs seed K + i on both sides; the parent runs first in even pairs and the
change first in odd ones, so a host that drifts during a run leans on
neither side.  To measure uncommitted changes, pass `--change $(git stash
create)`: that makes a commit object of the working tree without changing
it.

Each BENCH file holds the two revisions, every env line and result line that
run.py printed, and for each metric each side's median and quartiles over
the pairs and the number of pairs the change won (ties count for neither),
with the direction of "better" read from BENCHMARK.json.

It also holds the process floor, taken before and after the pairs: for each
revision, the median wall time of FLOOR_RUNS runs of each FLOOR command in
run.py's environment for its commands (this one, less HCL_CACHE, with
PYTHONPATH at the revision's src), and whether PYTHONDONTWRITEBYTECODE is set,
in which case every hclab process compiles its modules from source.  Much of
a short command's time is this floor, so a claim on setup_s or on a workload
of short commands must show that the floor did not move.

With --kernel it runs no workload and writes no file at the root: it
prints, for each revision, the median seconds over KERNEL_RUNS runs of

- a cold fill in memory, `BernoulliCache().extend_to(N)`, at each N in
  KERNEL_N;
- a cold fill of a new cache file, `BernoulliCache(path).extend_to(N)`
  (kernel, checks and store), at each N in FILE_N;
- a resumed fill, `BernoulliCache(path).extend_to(FILE_RESUME[1])` on an
  untimed copy of the B_0..B_FILE_RESUME[0] file that the fill of a new file
  to FILE_RESUME[0] wrote: a stored run is parsed and checked, its bytes
  copied, and only the new lines computed and appended;
- a fresh load and full parse of the file the fill of a new file wrote to
  FILE_N[-1], `BernoulliCache(path).get(N)`;

each in a new process started like the floor's commands and timed around
that call alone, the sides taking turns within each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# The interpreter's own start, without `site`, and the import of the CLI.
FLOOR = {
    "python -c pass": ["-c", "pass"],
    "python -S -c pass": ["-S", "-c", "pass"],
    'python -c "import hclab.cli"': ["-c", "import hclab.cli"],
}
FLOOR_RUNS = 10

KERNEL_N = (500, 1000, 1786, 2500)
FILE_N = (1786, 2500)
FILE_RESUME = (1786, 1790)  # its first index is one of FILE_N
KERNEL_RUNS = 5
# Each prints the seconds of one cache call on index argv[1] and the cache
# file argv[2], or no file if that is empty.
_TIMED = (
    "import sys, time; from hclab.bernoulli import BernoulliCache; "
    "n, path = int(sys.argv[1]), sys.argv[2] or None; "
    "t = time.perf_counter(); BernoulliCache(path).{}(n); print(time.perf_counter() - t)"
)
KERNEL_FILL = _TIMED.format("extend_to")
KERNEL_LOAD = _TIMED.format("get")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(sha: str, tree: Path) -> Path:
    """The tree of sha, written into the new directory tree by `git archive`."""
    tree.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in tree: its env line and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return {"env": json.loads(lines[0]), "result": json.loads(lines[-1])}


def command_env(tree: Path) -> dict[str, str]:
    """run.py's environment for its commands: this one, less HCL_CACHE, with
    PYTHONPATH at the tree's src."""
    env = {k: v for k, v in os.environ.items() if k != "HCL_CACHE"}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def floor(trees: dict[str, Path]) -> dict[str, dict[str, float]]:
    """Per side, the median wall seconds of FLOOR_RUNS runs of each FLOOR
    command, started as run.py starts its commands; the sides and commands
    take turns within each run, so a drifting host leans on none of them."""
    times = {side: {name: [] for name in FLOOR} for side in trees}
    for _ in range(FLOOR_RUNS):
        for side, tree in trees.items():
            env = command_env(tree)
            for name, args in FLOOR.items():
                t0 = time.perf_counter()
                subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True)
                times[side][name].append(time.perf_counter() - t0)
    return {side: {name: statistics.median(runs) for name, runs in by_name.items()}
            for side, by_name in times.items()}


def kernel_table(trees: dict[str, Path], tmp: Path) -> str:
    """A markdown table of each side's median seconds over KERNEL_RUNS runs
    of each timed cache call (see the module docstring), its cache files in
    tmp; the sides take turns within each run."""
    start, stop = FILE_RESUME
    # (label, code, index, on a file, the index of the file to resume or None)
    jobs = [(f"fill to {n} in memory", KERNEL_FILL, n, False, None) for n in KERNEL_N]
    jobs += [(f"fill to {n} of a new file", KERNEL_FILL, n, True, None) for n in FILE_N]
    jobs.append((f"resume a file from {start} to {stop}", KERNEL_FILL, stop, True, start))
    jobs.append((f"load and parse a file to {FILE_N[-1]}", KERNEL_LOAD, FILE_N[-1], True, None))
    times = {side: {label: [] for label, *_ in jobs} for side in trees}
    for _ in range(KERNEL_RUNS):
        for label, code, n, on_file, resumed in jobs:
            for side, tree in trees.items():
                path = tmp / f"{side}-{n}.cache" if on_file else None
                if resumed is not None:
                    shutil.copyfile(tmp / f"{side}-{resumed}.cache", path)
                elif path and code is KERNEL_FILL:
                    path.unlink(missing_ok=True)
                out = subprocess.run([sys.executable, "-c", code, str(n), str(path or "")],
                                     cwd=tree, env=command_env(tree), check=True,
                                     capture_output=True, text=True).stdout
                times[side][label].append(float(out))
    rows = ["| timed | parent s | change s | change / parent |", "|---|---|---|---|"]
    for label, *_ in jobs:
        parent, change = (statistics.median(times[side][label]) for side in SIDES)
        rows.append(f"| {label} | {parent:.4f} | {change:.4f} | {change / parent:.2f} |")
    return "\n".join(rows)


def quartiles(values: list[float]) -> dict:
    """The median and quartiles as perfbench/run.py computes them."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles over the pairs, and the change's wins."""
    names = pairs[0]["parent"]["result"]["metrics"]
    out = {}
    for name in names:
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        sign = -1 if better.get(name) == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": names[name]["unit"],
            "better": better.get(name),
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the change revision (HEAD)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", nargs="+")
    mode.add_argument("--kernel", action="store_true",
                      help="time cold Bernoulli fills instead of running a workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seed", type=int, help="the first pair's seed")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload and None in (args.pairs, args.seed, args.seconds):
        parser.error("--workload needs --pairs, --seed and --seconds")
    shas = {side: git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}")
            for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: extract(sha, Path(tmp) / side) for side, sha in shas.items()}
        if args.kernel:
            print(f"parent {shas['parent']}, change {shas['change']}")
            print(kernel_table(trees, Path(tmp)))
            return 0
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        for workload in args.workload:
            floor_before = floor(trees)
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds, args.trace)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"{json.dumps(pair[side]['result']['metrics'])}", file=sys.stderr)
                pairs.append(pair)
            report = {
                "workload": workload,
                "parent": shas["parent"],
                "change": shas["change"],
                "seconds": args.seconds,
                "trace": args.trace,
                "host": {"python": platform.python_version(), "machine": platform.machine()},
                "floor": {
                    "runs": FLOOR_RUNS,
                    "PYTHONDONTWRITEBYTECODE": "PYTHONDONTWRITEBYTECODE" in os.environ,
                    "before": floor_before,
                    "after": floor(trees),
                },
                "metrics": summary(pairs, better),
                "pairs": pairs,
            }
            path = ROOT / f"BENCH_{workload}.json"
            path.write_text(json.dumps(report, indent=1) + "\n")
            print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
