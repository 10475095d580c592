"""Run one hclab command in this interpreter with a span around every call
into each layer's public functions.

Usage: python3 perfbench/traced_cli.py SUMMARY_JSON ARG...

Behaves like the `hclab` console script (same stdout, stderr and exit code)
and, at exit, writes SUMMARY_JSON: per span name the call count, inclusive
time and self time (duration minus the time covered by direct child spans),
plus the layer counters. Spans are kept in memory until then.

Modules bind each other's functions with `from .x import y`, so every
importing module's binding is wrapped, not only the defining one.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

_t0 = time.perf_counter()
import hclab.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

_clock = time.perf_counter
_spans: list[list] = []  # [name, start, end, parent index]
_stack = [-1]
_counts: dict[str, int] = defaultdict(int)
_prefix_upto: dict[int, int] = {}
_max_index = [-1]


def _span(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(_spans)
        span = [name, _clock(), 0.0, _stack[-1]]
        _spans.append(span)
        _stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            _stack.pop()
            span[2] = _clock()

    return wrapper


def _count_extend(fn):
    def bernoulli_extend(nums, dens, upto):
        before = len(nums)
        fn(nums, dens, upto)
        _counts["kernels.bernoulli_indices"] += len(nums) - before
        if len(nums) > before:
            _max_index[0] = max(_max_index[0], len(nums) - 1)

    return bernoulli_extend


def _count_extend_to(fn):
    def extend_to(self, n):
        if n <= self.high_water:
            _counts["bernoulli.extend_to_hits"] += 1
            return fn(self, n)
        path = self._path
        size = os.path.getsize(path) if path and os.path.exists(path) else 0
        try:
            return fn(self, n)
        finally:
            if path and os.path.exists(path):
                _counts["bernoulli.store_bytes"] += os.path.getsize(path) - size

    return extend_to


def _count_load(fn):
    def _load(self):
        fn(self)
        _counts["bernoulli.load_indices"] += len(self._nums)

    return _load


def _count_harmonic(fn):
    def harmonic(order, upto):
        if upto > _prefix_upto.get(order, -1):
            _prefix_upto[order] = upto
        return fn(order, upto)

    return harmonic


def _count_emit(fn):
    def emit(records, fmt):
        text = fn(records, fmt)
        _counts["report.records"] += len(records)
        # Not counting the digits of the timings keeps the count reproducible.
        timings = sum(len(repr(r.elapsed_ms)) for r in records if r.elapsed_ms is not None)
        _counts["report.emit_bytes"] += len(text.encode()) - timings
        return text

    return emit


def _install():
    mods = sys.modules
    kernels = mods["hclab._kernels"]
    bern = mods["hclab.bernoulli"]
    exact = mods["hclab.exact"]
    harm = mods["hclab.harmonic"]
    primes = mods["hclab.primes"]
    cg = mods["hclab.congruences"]
    cli = mods["hclab.cli"]
    cache_cls = bern.BernoulliCache
    record_cls = mods["hclab.report"].ReportRecord

    kernels.bernoulli_extend = _span(
        "kernels.bernoulli_extend", _count_extend(kernels.bernoulli_extend)
    )
    cache_cls.extend_to = _span(
        "bernoulli.extend_to", _count_extend_to(cache_cls.extend_to)
    )
    cache_cls._load = _span("bernoulli.load", _count_load(cache_cls._load))
    bern.von_staudt_denominator = _span(
        "bernoulli.validate", bern.von_staudt_denominator
    )
    record_cls.from_verdict = staticmethod(
        _span("report.record", record_cls.from_verdict)
    )
    cli.emit = _span("report.emit", _count_emit(cli.emit))

    harmonic = _span("harmonic.harmonic", _count_harmonic(harm.harmonic))
    # Reported by no metric; the span keeps Bernoulli lookups out of the
    # verifiers' self time.
    bernoulli = _span("bernoulli.bernoulli", bern.bernoulli)
    bindings = {
        "is_prime": ("exact.is_prime", exact.is_prime, (exact, bern, cli)),
        "vp": ("exact.vp", exact.vp, (exact, bern, cg, primes)),
        "fermat_quotient": (
            "primes.fermat_quotient", primes.fermat_quotient, (primes, cg)
        ),
        "primes_in": ("primes.primes_in", primes.primes_in, (primes, cli)),
    }
    for attr, (name, fn, owners) in bindings.items():
        wrapped = _span(name, fn)
        for mod in owners:
            setattr(mod, attr, wrapped)
    for mod in (cg, primes, cli):
        mod.harmonic = harmonic
    for mod in (bern, cg, primes, cli):
        mod.bernoulli = bernoulli
    for attr in dir(cg):
        if attr.startswith("verify_") or attr == "sun_congruence":
            setattr(cg, attr, _span("congruences.verify", getattr(cg, attr)))


def _summary() -> dict:
    child = [0.0] * len(_spans)
    for name, start, end, parent in _spans:
        if parent >= 0:
            child[parent] += end - start
    layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _) in enumerate(_spans):
        row = layers[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    counts = dict(_counts)
    counts["harmonic.prefix_terms"] = sum(u + 1 for u in _prefix_upto.values())
    return {
        "import_s": IMPORT_S,
        "max_index": _max_index[0],
        "layers": layers,
        "counts": counts,
    }


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    _install()
    run = _span("cli.run", hclab.cli.run)
    try:
        return run(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
