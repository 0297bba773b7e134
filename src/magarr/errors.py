"""Structured errors shared across the package."""


class MagarrError(Exception):
    """Base class for all package errors."""


class ParseError(MagarrError):
    """Invalid arrangement input."""


class BudgetExceededError(MagarrError):
    """A computation exceeded its configured size budget; ``hint`` says
    how to ask for less."""

    def __init__(self, stage, limit, observed, hint):
        self.stage = stage
        self.limit = limit
        self.observed = observed
        self.hint = hint
        super().__init__(f"{stage}: budget {limit} exceeded (observed {observed})")


class CheckFailedError(MagarrError):
    """An internal cross-check that must hold by construction failed."""
