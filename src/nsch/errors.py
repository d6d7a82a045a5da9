"""Exception types shared across the solver suite."""


class NschError(Exception):
    """Base class for all solver errors."""


class ConfigError(NschError):
    """A configuration value violates a model assumption or a solver precondition."""


class SingularSymbolError(NschError):
    """The spectral symbol of an implicit operator vanishes on a nonzero mode."""


class IncompatibleMeanError(NschError):
    """A pure-derivative solve was given a right-hand side with nonzero mean."""


class BlowUpError(NschError):
    """A time stepper produced a non-finite or absurdly large field."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
