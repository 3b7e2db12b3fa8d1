"""Exact arithmetic for the product/lcm ratio of consecutive
arithmetic-progression terms: closed-form smallest periods, brute-force
verification, and period-accelerated lcm evaluation.

The package exports exactly the names its modules list in __all__.
"""

from . import errors, gfun, numtheory, period, verify
from .errors import *
from .gfun import *
from .numtheory import *
from .period import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *gfun.__all__,
    *numtheory.__all__,
    *period.__all__,
    *verify.__all__,
]
