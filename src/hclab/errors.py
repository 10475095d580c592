"""Exception types shared across the package, and the one stderr line each
ends a command with."""

from __future__ import annotations

# The exit code of a bug (sysexits.h), never the 1 of a failed check.
EX_SOFTWARE = 70


class HclabError(Exception):
    """Base class for all hclab errors."""


class HypothesisViolated(HclabError):
    """Raised when a verifier is called outside its stated hypotheses."""


class IndexCeilingExceeded(HclabError):
    """Raised when a Bernoulli index beyond ``bernoulli.CEILING``, or a harmonic
    upper index beyond ``harmonic.CEILING``, is requested."""


class CacheFileCorrupt(HclabError, ValueError):
    """Raised when a Bernoulli cache path is not a regular file, or a line of
    the file is malformed or fails a check; the message starts with the path,
    and for a line with ``path:line``."""


class CommandError(Exception):
    """Ends a command with its message, one line as it stands, and exit code
    2: a command line the parser took but the command refuses, or the line a
    forked worker wrote or left in place of its outcome."""


class WorkerCrash(Exception):
    """An exception no command expects, raised in a forked worker.  Its
    message is the worker's traceback; like the exception it leaves
    ``cli.run`` uncaught, and ``cli.main`` writes that traceback and exits
    EX_SOFTWARE."""


def error_line(exc: Exception) -> str | None:
    """The one stderr line that ends a command with exit 2 on exc; None for
    an exception no command expects."""
    if isinstance(exc, CommandError):
        return str(exc)
    if isinstance(exc, HypothesisViolated):
        return f"hypothesis violated: {exc}"
    if isinstance(exc, (HclabError, ValueError, OSError)):
        # ValueError and OSError: bad input such as a negative index or a p
        # past the primality limit, and an --out that cannot be written
        return f"error: {exc}"
    if isinstance(exc, MemoryError):
        return "error: out of memory"
    return None
