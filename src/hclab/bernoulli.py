"""Exact Bernoulli numbers, a persistent cache, and irregular pairs.

Every read of a Bernoulli number goes through a BernoulliCache that the
caller passes in; there is no module-level store to fall back on.  Missing
values come from _kernels.bernoulli_extend: tangent numbers up to
_kernels.SWITCH, Euler's zeta formula rounded against the Von Staudt-Clausen
denominator above it.  A fill computes only the indices past the stored
top, but each one pays for pi and the top index's powers, so commands still
fill their cache in as few calls as they can.  A long fill is cut once into
contiguous runs of about equal cost, one per CPU the process may use (at
most fork.MAX_WORKERS) and each worth at least RUN_WEIGHT; each process,
the filling one and a forked worker per run after the first, computes the
missing values of its run and renders its run's lines of the file.
Every value is still checked in the calling process: a wrong one would
silently poison every downstream verdict, so the cache puts each even-index
value B_2k it parses or computes through four checks:

- sign: B_2k has the sign (-1)^(k+1);
- denominator: it is the product of the primes p with (p-1) | 2k;
- full Von Staudt-Clausen: B_2k plus the sum of those 1/p is an integer;
- magnitude: log|B_2k| is log 2 + log (2k)! - 2k log 2pi to within 1.

The last three read the kernel's own Von Staudt-Clausen table
(_kernels.von_staudt), sieved lazily and at least doubled each time it is
outgrown, so each check is O(1) per index.
"""

from __future__ import annotations

import marshal
import os
import shutil
import stat
import sys
from bisect import bisect_left
from contextlib import contextmanager, nullcontext, suppress
from fractions import Fraction
from math import gcd, lgamma, log, pi

from . import _kernels, fork, primes
from .errors import CacheFileCorrupt, CommandError, IndexCeilingExceeded

CEILING = 2500

# The least work worth a forked fill worker, over a run's lines: n^2 to
# render line n, plus n^2 more when B_n is computed.  On a shared 2-CPU host
# (Python 3.11.7, medians of 9 in new processes) one worker took a cold file
# fill to B_800 (weight 3.4e8) from 26 to 20 ms, to B_1070 (8.2e8) from 50
# to 37 ms, and rewrote a file of B_0..B_800 (1.7e8) in 9.7 ms against 8.2,
# of B_0..B_1340 (8.1e8) in 29.7 against 36.5.  Below 8e8 it saves a few ms
# for as much CPU time again, so a cold fill forks from about B_1070.
RUN_WEIGHT = 4 * 10**8


def check_ceiling(n: int) -> None:
    """Reject an index past CEILING before anything is computed."""
    if n > CEILING:
        raise IndexCeilingExceeded(f"needs Bernoulli index {n}, beyond ceiling {CEILING}")


def von_staudt_denominator(two_j: int) -> int:
    """Product of the primes p with (p-1) | two_j; the denominator of B_{two_j}."""
    if two_j < 2 or two_j % 2:
        raise ValueError("index must be a positive even integer")
    return _kernels.von_staudt(two_j)[0]


def _check_value(n: int, num: int, den: int) -> None:
    """Raise ValueError unless num/den can be B_n, checked cheaply."""
    if n == 0 and (num, den) != (1, 1):
        raise ValueError("B_0 must be 1")
    if n == 1 and (num, den) != (-1, 2):
        raise ValueError("B_1 must be -1/2")
    if n >= 3 and n % 2 == 1 and (num, den) != (0, 1):
        raise ValueError(f"B_{n} must vanish, stored as 0/1")
    if n >= 2 and n % 2 == 0:
        # B_2k has the sign (-1)^(k+1)
        if n % 4 == 2 and num <= 0 or n % 4 == 0 and num >= 0:
            raise ValueError(f"B_{n} must be {'positive' if n % 4 == 2 else 'negative'}")
        if den != von_staudt_denominator(n):
            raise ValueError(f"B_{n} denominator fails the Von Staudt-Clausen check")
        # B_n + sum(1/p) is an integer
        if (num + _kernels.von_staudt(n)[1]) % den:
            raise ValueError(f"B_{n} numerator fails the full Von Staudt-Clausen check")
        # |B_n| = 2 n! zeta(n) / (2 pi)^n, and 0 < log zeta(n) <= log(pi^2/6) < 0.5
        log_magnitude = log(2) + lgamma(n + 1) - n * log(2 * pi)
        if abs(log(abs(num)) - log(den) - log_magnitude) > 1:
            raise ValueError(f"B_{n} magnitude is off from 2 n! / (2 pi)^n")


@contextmanager
def any_digits():
    """Lift the int<->str digit limit (Python 3.10.7+) inside the block and
    restore the caller's after it: numerators near CEILING have about 5,400
    decimal digits, and verdict left-hand sides can have more."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _write_lines(fh, run: range, nums: list[int], dens: list[int]) -> None:
    """Write the cache lines of the indices in run, valued nums[0]/dens[0] on."""
    with any_digits():
        for i, num, den in zip(run, nums, dens):
            fh.write(f"{i} {num}/{den}\n")


class BernoulliCache:
    """Growing store of exact B_n, optionally mirrored to a text file.

    File format: one record per line, ``<index> <num>/<den>``, indices
    strictly increasing and contiguous from 0 (odd indices stored as 0/1).
    The path must name a regular file, or a symlink to one, or nothing yet;
    a fill writes through a symlink to its target.  Opening the cache reads
    the file's lines but parses none; lines are
    parsed and checked in order, only as far as the highest index asked for,
    so a bad line is reported by the first read that reaches it.  Each fill
    parses every stored line first, computes the missing values and rewrites
    the whole file into a temporary one, checks the new values, and then
    replaces the old file atomically; a long fill splits across forked
    workers (extend_to).  ``extend_to(n)`` fills exactly to n;
    ``get(n)`` past the stored run grows it geometrically, so single-index
    readers make few kernel calls.
    """

    def __init__(self, path=None):
        self._nums: list[int] = []
        self._dens: list[int] = []
        # (line number, raw line) of each stored line not yet parsed, the
        # next one last
        self._unparsed: list[tuple[int, bytes]] = []
        self._path = path
        self._mirrored = path is not None
        if path is not None:
            self._load()

    @property
    def high_water(self) -> int:
        """Largest contiguous index stored, parsed or not; -1 when empty."""
        return len(self._nums) + len(self._unparsed) - 1

    def _load(self):
        """Keep the file's non-blank lines, with their line numbers, for
        _parse_through.  Anything but a regular file at the path is refused
        before it is opened: a FIFO would block the read, and a device would
        be replaced by the first fill."""
        try:
            mode = os.stat(self._path).st_mode
        except FileNotFoundError:
            return
        if not stat.S_ISREG(mode):
            raise CacheFileCorrupt(f"{self._path}: not a regular file")
        with open(self._path, "rb") as fh:
            lines = fh.read().split(b"\n")
        self._unparsed = [(lineno, raw) for lineno, raw in enumerate(lines, start=1)
                          if raw.strip()][::-1]

    def _parse_through(self, n: int):
        """Parse and check the stored lines up to index n, or all of them.
        A line is dropped only once it has passed, so a bad one stays in the
        way of every later read that reaches it."""
        todo = self._unparsed
        with any_digits():
            while todo and len(self._nums) <= n:
                lineno, raw = todo[-1]
                where = f"{self._path}:{lineno}"
                try:
                    idx_s, frac_s = raw.decode("utf-8").split()  # a ValueError if not UTF-8
                    num_s, den_s = frac_s.split("/")
                    idx, num, den = int(idx_s), int(num_s), int(den_s)
                except ValueError as exc:
                    raise CacheFileCorrupt(
                        f"{where}: malformed line {raw.strip()[:40]!r}: {exc}"
                    ) from None
                if idx != len(self._nums):
                    raise CacheFileCorrupt(f"{where}: non-contiguous index {idx}")
                try:
                    _check_value(idx, num, den)
                except ValueError as exc:
                    raise CacheFileCorrupt(f"{where}: {exc}") from None
                self._nums.append(num)
                self._dens.append(den)
                todo.pop()

    def extend_to(self, n: int):
        """Store B_0..B_n, computing what is missing and rewriting the file.

        The lines to write, or for an in-memory cache the indices to compute,
        are cut into contiguous runs of about equal weight (RUN_WEIGHT), one
        per process (fork.processes).  This process computes and writes the
        first run while a forked worker does each other one (_fill_run),
        then appends the workers' values and copies their lines after its
        own in run order, so no process holds every line at once.  The lines
        go to a temporary file in the file's directory, which replaces the
        file once every new value has passed its checks: a fill that fails
        in any process leaves the stored values and the old file as they
        were.  A symlinked path is followed, so the link stays and its
        target is rewritten."""
        check_ceiling(n)
        self._parse_through(n)
        old = len(self._nums)
        if n < old:
            return
        lines = range(0 if self._mirrored else old, n + 1)
        weights = [i * i * ((i >= old) + self._mirrored) for i in lines]
        first, *rest = fork.cut(lines, weights, fork.processes(sum(weights) // RUN_WEIGHT))
        if rest:
            _kernels.von_staudt(n)  # sieved once, before any fork, for every run and the checks
        target = self._mirrored and os.path.realpath(self._path)
        tmp = target and f"{target}.{os.getpid()}.tmp"
        try:
            with (open(tmp, "w", encoding="utf-8") if tmp else nullcontext() as fh,
                  fork.forked("fill", rest, self._fill_run,
                              lambda run: f"filling B_{run[0]}..B_{run[-1]}") as reap):
                _kernels.bernoulli_extend(self._nums, self._dens, first[-1])
                if tmp:
                    _write_lines(fh, first, self._nums, self._dens)
                    fh.flush()
                for run, (_, part) in zip(rest, reap()):
                    nums, dens = marshal.loads(
                        part.buffer.read(int.from_bytes(part.buffer.read(8), "little")))
                    want = max(run[-1] + 1 - len(self._nums), 0)
                    if len(nums) != want:
                        raise CommandError(f"error: a fill worker handed back {len(nums)} of "
                                           f"the {want} values B_{len(self._nums)}..B_{run[-1]}")
                    self._nums += nums
                    self._dens += dens
                    if tmp:
                        shutil.copyfileobj(part.buffer, fh.buffer)
            for i in range(old, n + 1):
                _check_value(i, self._nums[i], self._dens[i])
            if tmp:
                os.replace(tmp, target)
        except BaseException:
            del self._nums[old:], self._dens[old:]
            if tmp:
                with suppress(FileNotFoundError):
                    os.remove(tmp)
            raise

    def _fill_run(self, run: range, fh) -> int:
        """A fill worker's run: the values of its indices past the stored
        top, written to fh as one marshal blob after its 8-byte length (linear
        time, where decimal is quadratic), then, for a mirrored cache, the
        run's lines; 0, the worker's outcome."""
        start = max(run[0], len(self._nums))
        nums, dens = _kernels.bernoulli_range(start, run[-1])
        blob = marshal.dumps((nums, dens))
        fh.buffer.write(len(blob).to_bytes(8, "little"))
        fh.buffer.write(blob)
        if self._mirrored:
            _write_lines(fh, run, self._nums[run[0]:] + nums, self._dens[run[0]:] + dens)
        return 0

    def detach(self):
        """Keep later fills in memory only: a forked scan worker reads its
        parent's cache and must never rewrite the parent's file."""
        self._mirrored = False

    def get(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("index must be non-negative")
        if n >= len(self._nums):
            if n > self.high_water:
                # at least double the stored run, up to CEILING: a reader
                # stepping up one index at a time then costs O(log n) kernel calls
                self.extend_to(max(n, min(2 * self.high_water, CEILING)))
            else:
                self._parse_through(n)
        return Fraction(self._nums[n], self._dens[n])


def bernoulli(n: int, cache: BernoulliCache) -> Fraction:
    """Exact B_n (B_1 = -1/2), read from the caller's cache."""
    return cache.get(n)


def is_irregular_pair(p: int, two_k: int, cache: BernoulliCache) -> bool:
    """True iff two_k is even, 2 <= two_k <= p - 3 and p divides the numerator
    of B_{two_k}; as p - 1 > two_k, p never divides its denominator."""
    if two_k % 2 or not 2 <= two_k <= p - 3:
        return False
    return bernoulli(two_k, cache).numerator % p == 0


def irregular_pairs(p_max: int, cache: BernoulliCache):
    """All irregular pairs (p, 2k) with p <= p_max, sorted; each B_2k is read
    once, and one gcd with the product of the primes p >= 2k + 3 picks out
    the primes to test."""
    # The largest prime P <= p_max sets the top read, B_{P-3}; it is looked
    # for only when p_max itself could pass the ceiling.
    if p_max - 3 > CEILING:
        check_ceiling(primes.largest_prime(3, p_max) - 3)
    candidates = primes.primes_in(5, p_max)
    top = max(candidates, default=2) - 3
    cache.extend_to(top)  # one kernel call for every read
    # suffix[i] is the product of candidates[i:]
    suffix = [1] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * candidates[i]
    out = []
    for two_k in range(2, top + 1, 2):
        first = bisect_left(candidates, two_k + 3)
        g = gcd(bernoulli(two_k, cache).numerator, suffix[first])
        if g > 1:
            out += [(p, two_k) for p in candidates[first:] if g % p == 0]
    return sorted(out)
