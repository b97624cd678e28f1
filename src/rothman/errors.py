"""Exception hierarchy shared across the package."""


class RothmanError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RothmanError):
    """Malformed input (CSV/JSON structure, bad field values)."""


class ValidationError(RothmanError):
    """A domain invariant was violated (counts, proportions, weights)."""


class UndefinedMeasureError(RothmanError):
    """A measure of association is undefined at a required point."""


class GlmError(RothmanError):
    """Base class for model-fitting failures."""


class ZeroMarginError(GlmError):
    """A (stratum, exposure) cell used by the design has zero total."""


class NonConvergenceError(GlmError):
    """A fit failed to converge; carries the deviance trace."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []


class NestingError(GlmError):
    """Likelihood-ratio comparison of models that are not nested."""
