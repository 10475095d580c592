"""Exception types shared across the package."""


class HclabError(Exception):
    """Base class for all hclab errors."""


class NotPIntegral(HclabError):
    """Raised when a rational with v_p < 0 is handed to a residue reduction."""


class HypothesisViolated(HclabError):
    """Raised when a verifier is called outside its stated hypotheses."""


class IndexCeilingExceeded(HclabError):
    """Raised when a Bernoulli index beyond ``bernoulli.CEILING``, or a harmonic
    upper index beyond ``harmonic.CEILING``, is requested."""


class UpperIndexNotBelowP(HclabError):
    """Raised when a modular harmonic sum would hit a non-invertible term."""


class CacheFileCorrupt(HclabError, ValueError):
    """Raised when a Bernoulli cache file line is malformed or fails a check;
    the message starts with ``path:line``."""
