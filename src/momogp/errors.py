"""Error types shared across the package.

Invalid arguments raise plain ValueError; the classes here cover
failures that need their own exit-code category in the command line
interface or carry diagnostic payload.
"""


class MomogpError(Exception):
    """Base class for package-specific failures."""


class NotFittedError(MomogpError):
    """An operation needed cached fit state (Cholesky factor, alpha) that is absent."""


class NumericalError(MomogpError):
    """Linear algebra failed beyond recovery (e.g. Cholesky after full jitter escalation)."""

    def __init__(self, message: str, jitter_levels=None):
        super().__init__(message)
        # relative jitter levels that were attempted before giving up
        self.jitter_levels = tuple(jitter_levels) if jitter_levels is not None else ()


class SchemaError(MomogpError):
    """A config or model file does not match the expected schema."""
