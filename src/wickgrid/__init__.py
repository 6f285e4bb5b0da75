"""Grid-level Wick calculus for centered Gaussian processes."""

import logging

from .covariance import *
from .firstchaos import *
from .chaos import *
from .qce import *
from .skorokhod import *
from .bsde import *
from .fraccalc import *
# each layer module's __all__ is its public API, and the package re-exports exactly those names
from . import bsde, chaos, covariance, firstchaos, fraccalc, qce, skorokhod

__all__ = [name for layer in (covariance, firstchaos, chaos, qce, skorokhod, bsde, fraccalc)
           for name in layer.__all__]

__version__ = "0.1.0"

# the library logs nothing unless an application configures this logger
logging.getLogger(__name__).addHandler(logging.NullHandler())
