"""Exception hierarchy shared across the toolkit."""


class ToolError(ValueError):
    """Base class for all domain errors raised by this package."""


class DistributionError(ToolError):
    """Malformed distribution or incompatible operands."""


class FieldError(ToolError):
    """Invalid finite-field construction or operation."""


class CodeError(ToolError):
    """Invalid linear-code construction, or a code table above the table limit."""


class MatroidError(ToolError):
    """Rank/independence structure violates the required axioms."""


class SearchBudgetExceeded(ToolError):
    """The question is undecided: it lies outside the results implemented,
    such as an open case of the MDS conjecture."""


class ScanError(ToolError):
    """Simplex scan configuration or size-limit failure."""
