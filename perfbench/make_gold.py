#!/usr/bin/env python3
"""Rebuild perfbench/gold.json from the hclab sources in this checkout.

Usage, from the repository root: python3 perfbench/make_gold.py

Runs every benchmark command once, each in a fresh interpreter, and stores
its exit code and the digest of its output (records projected onto
run.GOLD_FIELDS). The two Bernoulli cache files are checked value by value
against B_2k computed independently from tangent numbers (Brent & Harvey,
arXiv:1108.0286) before their digests are stored. The known-defect probe
crashes the CLI on Python's integer-to-string limit, so its gold comes from
the library, called in this process with the limit lifted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import run

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


def tangent_bernoulli(n: int) -> dict[int, Fraction]:
    """B_2k for 2 <= 2k <= n from the tangent numbers T_1..T_{n/2}."""
    m = n // 2
    t = [0] * (m + 1)
    if m:
        t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return {
        2 * k: Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
        for k in range(1, m + 1)
    }


def check_cache_file(path) -> None:
    """Exit unless every line `i num/den` of the cache file holds B_i."""
    lines = path.read_text(encoding="utf-8").splitlines()
    even = tangent_bernoulli(len(lines) - 1)
    for i, line in enumerate(lines):
        idx, frac = line.split()
        num, den = (int(x) for x in frac.split("/"))
        if i == 0:
            want = Fraction(1)
        elif i == 1:
            want = Fraction(-1, 2)
        else:
            want = even.get(i, Fraction(0))
        if int(idx) != i or (num, den) != (want.numerator, want.denominator):
            raise SystemExit(f"{path}: line {i + 1} is not B_{i}")
    print(f"{path.name}: B_0..B_{len(lines) - 1} match tangent numbers", file=sys.stderr)


def probe_gold() -> dict:
    sys.path.insert(0, str(run.SRC))
    from hclab.bernoulli import BernoulliCache
    from hclab.congruences import verify_thm_ee20
    from hclab.report import ReportRecord, emit

    _, _, _, p, _, n = run.PROBE.split()
    verdict = verify_thm_ee20(int(p), int(n), BernoulliCache())
    text = emit([ReportRecord.from_verdict(verdict, 0.0)], "json")
    sha, ok = run.digest_output("records", text.encode())
    return {"kind": "records", "exit": 0 if verdict.passed else 1, "sha256": sha, "ok": ok}


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        return build(run.Runner(tmp, {}, time.monotonic() + 3600), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def build(runner, tmp) -> int:
    commands, caches = {}, {}

    def record(command, cache):
        d = runner.workdir()
        rc, _ = runner.spawn(command, cache, d)
        if b"Traceback" in (d / "err").read_bytes():
            raise SystemExit(f"{command} crashed:\n{(d / 'err').read_text()}")
        kind = "records" if command.split()[0] in ("scan", "verify") else "text"
        sha, ok = run.digest_output(kind, (d / "out").read_bytes())
        gold = {"kind": kind, "exit": rc, "sha256": sha, "ok": ok}
        if commands.setdefault(command, gold) != gold:
            raise SystemExit(f"{command}: output depends on the starting cache")
        print(f"exit {rc} ok={ok:6} {command}", file=sys.stderr)

    warm_cache = tmp / "warm.cache"
    record(run.WARM_FILL, warm_cache)
    check_cache_file(warm_cache)
    caches["bernoulli-warm"] = run.sha256_file(warm_cache)
    record(run.SETUP_COMMAND, warm_cache)

    for name, (warm, cmds) in run.WORKLOADS.items():
        for command in cmds:
            if warm:
                record(command, warm_cache)
                continue
            cache = runner.workdir() / "bernoulli.cache"
            cache.write_bytes(b"")
            record(command, cache)
            if name == "bernoulli-cold":
                check_cache_file(cache)
                caches[name] = run.sha256_file(cache)
    if run.sha256_file(warm_cache) != caches["bernoulli-warm"]:
        raise SystemExit("the warm cache changed while the workload ran")
    commands[run.PROBE] = probe_gold()
    gold = {"commands": commands, "caches": caches}
    run.GOLD_PATH.write_text(json.dumps(gold, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
