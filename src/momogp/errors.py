"""Error types shared across the package.

Invalid arguments raise plain ValueError; the classes here cover
failures that need their own exit-code category in the command line
interface.
"""


class MomogpError(Exception):
    """Base class for package-specific failures."""


class NotFittedError(MomogpError):
    """An operation needed cached fit state (Cholesky factor, alpha) that is absent."""


class NumericalError(MomogpError):
    """Linear algebra failed beyond recovery (e.g. Cholesky after full jitter escalation)."""


class SchemaError(MomogpError):
    """A config or model file does not match the expected schema."""
