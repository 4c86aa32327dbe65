"""Exception hierarchy shared across the toolkit.

Everything raised on bad input or an infeasible analysis derives from
ToolkitError so the CLI can map the whole family to exit code 1.
"""


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(ToolkitError):
    """Malformed input file. Carries the offending line number, if any."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(ToolkitError):
    """A domain type invariant is violated."""


class DivergenceError(ToolkitError):
    """Min-plus deconvolution diverges (rate of f exceeds rate of g)."""


class InstabilityError(ToolkitError):
    """Arrival rate meets or exceeds service rate; no finite delay bound."""


class ConvergenceError(ToolkitError):
    """Fixed-point iteration hit its iteration cap without converging."""


class CapacityError(ToolkitError):
    """A CQF cycle was asked to carry more transmission time than T."""


class HorizonError(ToolkitError):
    """Simulation horizon too short for the configured traffic."""

