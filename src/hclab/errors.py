"""Exception types shared across the package."""


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
