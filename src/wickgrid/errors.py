"""Exception types, and the residual reduction of the checks, shared across the package.

An error that means the caller's inputs are out of range is a ParameterError,
which cli.main reports as a config error; a RuntimeError here means the computation failed."""


def _worst(a: float, b: float) -> float:
    """max(a, b) for residuals, except that a NaN in either wins.

    Python's max(a, nan) returns a, so a check folding its residuals with max
    would pass on NaN; on numbers this returns what max returns.
    """
    return a if a != a or a >= b else b


class ParameterError(ValueError):
    """An input is outside its admissible range; the base of every input error."""


class GridAlignmentError(ParameterError):
    """A time was used that is not a node of the relevant grid."""


class ModelGridError(ParameterError):
    """Gram matrix of a model/grid pair is indefinite beyond the eigenvalue floor."""


class ConditioningError(ParameterError):
    """Gram matrix is numerically singular beyond what flooring can repair."""


class DegenerateSplitError(ParameterError):
    """A past/future split was requested at r = 0 or r = T."""


class MartingaleCaseError(ParameterError):
    """The requested construction exists only for non-martingale processes."""


class UnsupportedOperationError(RuntimeError):
    """Operation would leave the closed algebra the object lives in."""


class ShapeError(ParameterError):
    """Tensor order or dimension mismatch."""


class IntervalError(ParameterError):
    """Interval endpoints are in the wrong order."""


class RegimeError(ParameterError):
    """Parameter (typically the Hurst index) is outside the regime of the routine."""


class CalibrationError(RuntimeError):
    """Numerical calibration of a constant did not meet its residual target."""
