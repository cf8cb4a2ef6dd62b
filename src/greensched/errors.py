"""Exception classes shared across the package."""

from pathlib import Path


class GreenschedError(Exception):
    """Base class for all package errors."""


class ModelDomainError(GreenschedError, ValueError):
    """An input is outside the physical domain of a model (e.g. T <= 0)."""


class InvalidArgumentError(GreenschedError, ValueError):
    """A structurally invalid argument (e.g. a mode not belonging to a server)."""


class InvalidTraceError(InvalidArgumentError):
    """A job trace row breaks a rule: ``row`` is its 0-based position as given."""

    def __init__(self, row: int, problem: str):
        super().__init__(f"job row {row}: {problem}")
        self.row, self.problem = row, problem


class InfeasibleTermError(GreenschedError, ValueError):
    """A per-task energy term that cannot be realized (zero utilization, nonzero work)."""


class EmptySampleError(GreenschedError, ValueError):
    """A statistic was requested over an empty sample."""


class IncompleteEvaluationError(GreenschedError, ValueError):
    """Constraint checking was asked about a task with no recorded statistics."""


class InfeasiblePeriodsError(GreenschedError, ValueError):
    """No period assignment can satisfy the utilization bound."""


class UnderdeterminedFitError(GreenschedError, ValueError):
    """The calibration design matrix is rank deficient.

    ``coefficients`` names the model coefficients that cannot be identified
    from the provided samples.
    """

    def __init__(self, message: str, coefficients: list[str]):
        super().__init__(message)
        self.coefficients = coefficients


class ParseError(GreenschedError, ValueError):
    """An input file failed to parse.  The message names the file ``path`` and,
    when set, the 1-based physical line ``row``."""

    def __init__(self, path: str | Path, message: str, row: int | None = None):
        super().__init__(f"{path}: {message}" if row is None else f"{path}: row {row}: {message}")
        self.row = row


class InvalidAllocationError(GreenschedError, ValueError):
    """An allocation violates a structural invariant (single-host rule, bounds)."""


class ConfigurationError(GreenschedError, ValueError):
    """A scenario or optimizer configuration is unusable."""
