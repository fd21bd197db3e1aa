"""Exception types shared across the package."""


class TwoStageError(Exception):
    """Base class for package-specific errors."""


class DegenerateInputError(TwoStageError, ValueError):
    """A statistic is undefined at the supplied point (e.g. 0/0)."""


class SingularDesignError(TwoStageError, ValueError):
    """A regression design matrix is rank deficient."""


class DataFormatError(TwoStageError, ValueError):
    """A tabular input file violates the expected format.

    Carries the offending 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(TwoStageError, ValueError):
    """A run configuration is malformed or fails schema validation."""
