"""Exception hierarchy shared across the toolkit.

The command line front end maps these onto exit codes, so library code
should raise the most specific class that applies.
"""


class AbckitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AbckitError):
    """Bad or missing configuration key."""


class TableFormatError(AbckitError):
    """Malformed simulation/observation/definition file."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        if loc:
            message = f"{loc}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class EstParseError(TableFormatError):
    """Syntax or semantic error in a prior-definition (est) file."""


class EvalError(AbckitError):
    """Expression evaluation failed (names the offending node)."""


class NumericalError(AbckitError):
    """A numerical routine failed (singular covariance, empty grid, ...)."""


class SimulatorError(AbckitError):
    """An external or builtin simulator failed."""
