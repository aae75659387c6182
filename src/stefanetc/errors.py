"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A parameter or config file is invalid (CLI exit code 1)."""


class ValidityBreach(RuntimeError):
    """A model-validity condition failed during a run (CLI exit code 2).

    Carries the name of the violated condition and the offending value so the
    harness can emit a structured breach record instead of a bare traceback;
    the record's time is the loop's clock, not the exception's.  The message
    does not repeat the condition, which the record and the CLI line name.
    """

    def __init__(self, condition: str, message: str,
                 value: float | None = None):
        super().__init__(message)
        self.condition = condition
        self.value = value


class InvariantViolation(ValidityBreach):
    """A quantity the theory guarantees (m > 0, tau < 1/c, ...) failed numerically."""


class NumericalFailure(RuntimeError):
    """NaN/Inf appeared in a state, or a linear solve hit a zero pivot."""

    condition = "numerical"
