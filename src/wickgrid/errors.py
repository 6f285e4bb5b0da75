"""Exception types, and the residual reduction of the checks, shared across the package."""


def _worst(a: float, b: float) -> float:
    """max(a, b) for residuals, except that a NaN in either wins.

    Python's max(a, nan) returns a, so a check folding its residuals with max
    would pass on NaN; on numbers this returns what max returns.
    """
    return a if a != a or a >= b else b


class ParameterError(ValueError):
    """A model or operator parameter is outside its admissible range."""


class GridAlignmentError(ValueError):
    """A time was used that is not a node of the relevant grid."""


class ModelGridError(ValueError):
    """Gram matrix of a model/grid pair is indefinite beyond the eigenvalue floor."""


class ConditioningError(RuntimeError):
    """Gram matrix is numerically singular beyond what flooring can repair."""


class DegenerateSplitError(ValueError):
    """A past/future split was requested at r = 0 or r = T."""


class MartingaleCaseError(RuntimeError):
    """The requested construction exists only for non-martingale processes."""


class UnsupportedOperationError(RuntimeError):
    """Operation would leave the closed algebra the object lives in."""


class ShapeError(ValueError):
    """Tensor order or dimension mismatch."""


class IntervalError(ValueError):
    """Interval endpoints are in the wrong order."""


class RegimeError(ParameterError):
    """Parameter (typically the Hurst index) is outside the regime of the routine."""


class CalibrationError(RuntimeError):
    """Numerical calibration of a constant did not meet its residual target."""
