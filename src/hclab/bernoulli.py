"""Exact Bernoulli numbers, a persistent cache, and irregular pairs.

Every read of a Bernoulli number goes through a BernoulliCache that the
caller passes in; there is no module-level store to fall back on.  Missing
values come from _kernels.bernoulli_extend: tangent numbers up to
_kernels.SWITCH, Euler's zeta formula rounded against the Von Staudt-Clausen
denominator above it.  A fill computes only the indices past the stored
top, but each one pays for pi and the top index's powers, so commands still
fill their cache in as few calls as they can.  A fill's missing indices are
cut once into contiguous runs of about equal cost, one per CPU the process
may use (at most fork.MAX_WORKERS) and each worth at least RUN_WEIGHT; each
process, the filling one and a forked worker per run after the first,
computes and renders its run, appended to a copy of the stored file's bytes.
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

from . import _kernels, fork
from .errors import CacheFileCorrupt, CommandError, IndexCeilingExceeded
from .primes import largest_prime, primes_in

CEILING = 2500

# The least work worth a forked fill worker, over a run's missing indices:
# n^2 for B_n.  One worker took a cold fill to B_1000 (weight 3.3e8) from
# 28.0 to 27.1 ms in a file and 31.0 to 23.3 in memory, to B_1070 (4.1e8)
# from 47.0 to 31.4 and 34.8 to 24.9 ms (shared 2-CPU host, Python 3.11.7,
# medians of 15 in new processes), so a fill from nothing forks from there.
RUN_WEIGHT = 2 * 10**8


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


def _stamp_of(st: os.stat_result) -> tuple:
    """What tells a file's bytes from those of a changed or replaced one."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _write_lines(fh, run: range, nums: list[int], dens: list[int]) -> None:
    """Write the cache lines of run's indices, valued nums[0]/dens[0] on, to binary fh."""
    with any_digits():
        for i, num, den in zip(run, nums, dens):
            fh.write(f"{i} {num}/{den}\n".encode())


class BernoulliCache:
    """Growing store of exact B_n, optionally mirrored to a text file.

    File format: one record per line, ``<index> <num>/<den>``, indices
    strictly increasing and contiguous from 0 (odd indices stored as 0/1).
    The path must name a regular file, or a symlink to one, or nothing yet;
    a fill writes through a symlink to its target.  Opening the cache reads
    the file's lines but parses none; lines are parsed and checked in order,
    only as far as the highest index asked for, so a bad line is reported by
    the first read that reaches it.  Each fill parses every stored line
    first, then appends the new ones to a copy of the file that replaces it
    atomically (extend_to).  ``extend_to(n)`` fills exactly to n; ``get(n)``
    past the stored run grows it geometrically, so readers make few fills.
    """

    def __init__(self, path=None):
        self._nums: list[int] = []
        self._dens: list[int] = []
        # (line number, raw line) of each stored line not yet parsed, the
        # next one last
        self._unparsed: list[tuple[int, bytes]] = []
        self._stamp = None  # _stamp_of the file read or last written, if any
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
            self._stamp = _stamp_of(os.fstat(fh.fileno()))
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
        """Store B_0..B_n, computing what is missing and appending its lines.

        The missing indices are cut into runs of about equal weight, one per
        process (fork.processes).  This process computes the first run while
        a forked worker computes and renders each other one (_fill_run), then
        writes the stored bytes (_copy_stored), its run's lines and the
        workers' lines in run order to a temporary file beside the file (a
        symlink's target), which replaces it once every new value has passed
        its checks: a fill that fails in any process leaves the stored values
        and the old file as they were."""
        check_ceiling(n)
        self._parse_through(n)
        old = len(self._nums)
        if n < old:
            return
        missing = range(old, n + 1)
        weights = [i * i for i in missing]
        first, *rest = fork.cut(missing, weights, fork.processes(sum(weights) // RUN_WEIGHT))
        if rest:
            _kernels.von_staudt(n)  # sieved once, before any fork, for every run and the checks
        target = self._mirrored and os.path.realpath(self._path)
        tmp = target and f"{target}.{os.getpid()}.tmp"
        try:
            with (open(tmp, "wb") if tmp else nullcontext() as fh,
                  fork.forked("fill", rest, self._fill_run,
                              lambda run: f"filling B_{run[0]}..B_{run[-1]}") as reap):
                _kernels.bernoulli_extend(self._nums, self._dens, first[-1])
                if tmp:
                    self._copy_stored(target, fh)
                    _write_lines(fh, first, self._nums[old:], self._dens[old:])
                for run, (_, part) in zip(rest, reap()):
                    nums, dens = marshal.loads(
                        part.buffer.read(int.from_bytes(part.buffer.read(8), "little")))
                    if len(nums) != len(run):
                        raise CommandError(f"error: a fill worker handed back {len(nums)} of "
                                           f"the {len(run)} values B_{run[0]}..B_{run[-1]}")
                    self._nums += nums
                    self._dens += dens
                    if tmp:
                        shutil.copyfileobj(part.buffer, fh)
            for i in missing:
                _check_value(i, self._nums[i], self._dens[i])
            if tmp:
                stamp = _stamp_of(os.stat(tmp))
                os.replace(tmp, target)
                self._stamp = stamp
        except BaseException:
            del self._nums[old:], self._dens[old:]
            if tmp:
                with suppress(FileNotFoundError):
                    os.remove(tmp)
            raise

    def _copy_stored(self, target: str, out) -> None:
        """Copy the stored bytes to out, ending their last line, unless the file
        changed since this cache read it: new lines could then leave a gap."""
        if self._stamp:
            with open(target, "rb") as src:
                if _stamp_of(os.fstat(src.fileno())) != self._stamp:
                    raise CommandError(f"error: {self._path} changed after this command "
                                       "read it; nothing was written")
                stored = src.read()
            out.write(stored)
            if stored and not stored.endswith(b"\n"):
                out.write(b"\n")

    def _fill_run(self, run: range, fh) -> int:
        """A fill worker's run: its values as one marshal blob (linear, where decimal
        is quadratic) after its 8-byte length, since one read beats marshal.load of
        the file (ROADMAP item 7); then, if mirrored, their lines; 0, its outcome."""
        nums, dens = _kernels.bernoulli_range(run[0], run[-1])
        blob = marshal.dumps((nums, dens))
        fh.buffer.write(len(blob).to_bytes(8, "little"))
        fh.buffer.write(blob)
        if self._mirrored:
            _write_lines(fh.buffer, run, nums, dens)
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
                # at least double the stored run, up to CEILING: each fill pays for pi, top
                # powers and a file copy, and filling exactly to n took get(0..2500) over a
                # file from 0.35 to 12.2 s, in memory get(0..600) from 0.03 to 0.07 s
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
        check_ceiling(largest_prime(3, p_max) - 3)
    candidates = primes_in(5, p_max)
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
