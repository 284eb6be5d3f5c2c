"""Exception hierarchy shared across the package.

Three families map onto the CLI exit codes: parameter problems (usage, 1),
data problems (2), numerical problems (3).
"""


class ExoSirError(Exception):
    """Base class for all package errors."""


class ParameterError(ExoSirError):
    """Invalid argument values (negative rates, n <= m, bad flag combinations)."""


class DataError(ExoSirError):
    """Base class for input-data and configuration problems."""


class SchemaError(DataError):
    """Input file does not match the expected schema (missing column, empty file)."""


class DuplicateDateError(DataError):
    """Duplicate (date, status) rows in a daily-series input."""


class NegativeCountError(DataError):
    """Negative count in an input that only admits nonnegative counts."""


class ConfigError(DataError):
    """Bad configuration value (missing state, nonpositive population)."""


class ScaleError(DataError):
    """A normalized cumulative series left [0, 1]; N is probably too small."""


class NumericalError(ExoSirError):
    """Base class for numerical failures."""


class InvalidStateError(NumericalError):
    """Non-finite or out-of-domain compartment state."""


class IntegrationError(NumericalError):
    """Integration produced a non-finite or out-of-tolerance state."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.reason = message
        self.step = step


class HorizonError(NumericalError):
    """A peak was not bracketed within the allowed horizon doublings."""


class SingularDesignError(NumericalError):
    """Rank-deficient design matrix in a regression."""


class UnidentifiableParameterError(NumericalError):
    """A rate cannot be estimated because its signal is identically zero."""

    def __init__(self, parameter: str):
        super().__init__(f"parameter {parameter!r} is unidentifiable from the data")
        self.parameter = parameter


class ScalingDomainError(NumericalError):
    """Nonpositive peak value passed to the log scaler."""
