"""Exception types shared across the package.

Every failure the tools can diagnose carries a short machine-readable
``code`` so the CLI can map it onto exit codes and reports.
"""

from __future__ import annotations


class KlabError(Exception):
    """Base class; ``code`` is a stable kebab-case identifier."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class InputError(KlabError):
    """Malformed or inconsistent input data (CLI exit code 2)."""

    code = "input-error"


class HorizonExceeded(KlabError):
    """A configured enumeration cap was hit; results may be truncated."""

    code = "horizon-exceeded"


class UndecidableBackend(KlabError):
    code = "undecidable-backend"


class NotAnEquivalence(KlabError):
    code = "not-an-equivalence"


class EmptyCover(KlabError):
    code = "empty-cover"


class DifferentComplex(KlabError):
    code = "different-complex"


class DegenerateForm(KlabError):
    code = "degenerate-form"


class SupportEscape(KlabError):
    code = "support-escape"


class IdempotentFailure(KlabError):
    code = "idempotent-failure"


class HypothesisViolation(KlabError):
    code = "hypothesis-violation"


class IdentityFailure(KlabError):
    code = "identity-failure"


class SampleBudgetExceeded(KlabError):
    code = "sample-budget-exceeded"


class ZeroDenominator(KlabError):
    code = "zero-denominator"
