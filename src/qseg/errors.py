"""Exception hierarchy shared across the package.

Everything raised on bad domain input derives from :class:`QsegError`, so
callers (and the CLI) can distinguish domain failures from programming
errors with a single except clause.
"""


class QsegError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateNodes(QsegError):
    """Interpolation nodes share an x coordinate (or are not increasing)."""


class TooManyNodes(QsegError):
    """Dense interpolation requested above the conditioning guard."""


class TooFewPoints(QsegError):
    """A series is too short to build even one segment."""


class EvenSeries(QsegError):
    """A series of even length cannot be split into 3-point segments."""


class NonMonotonicX(QsegError):
    """Sample x values are not strictly increasing."""


class NonFiniteSample(QsegError):
    """A sample coordinate is NaN or infinite."""


class OutOfDomain(QsegError):
    """An evaluation point lies outside the model's domain."""


class NoRootInRange(QsegError):
    """No representative input exists inside the segment bounds."""


class SignMismatch(QsegError):
    """Model and reference integrals disagree in sign; the accuracy ratio
    is meaningless."""


class ZeroIntegral(QsegError):
    """An aggregate integral is too close to zero to form a ratio."""


class QuadratureBudget(QsegError):
    """Adaptive quadrature spent its evaluation budget before it met its
    tolerance."""


class TargetFailure(QsegError):
    """A measurement target raised or exited non-zero."""


class GridTooSmall(QsegError):
    """A sweep grid is too short, even-length, or not strictly increasing."""


class InsufficientArity(QsegError):
    """The operation needs a target with more input variables."""


class DegenerateDesign(QsegError):
    """A candidate's evaluator is constant (or undefined) over the grid."""


class ParseError(QsegError):
    """A persisted file could not be parsed."""


class WriteError(QsegError):
    """An output file could not be written."""
