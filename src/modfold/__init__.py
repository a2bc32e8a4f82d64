"""modfold: robust reconstruction of integers from erroneous remainders.

The package recovers an unknown integer N from noisy values of
N mod M_1, ..., N mod M_L for an arbitrary set of distinct moduli, by
determining the folding numbers N // M_i exactly whenever the remainder
errors stay within computable bounds.  It ships the single-stage solver,
multi-stage reconstruction over grouping plans (which can tolerate larger
errors), the exact-rational bound calculus, a grouping search, and a
deterministic Monte Carlo harness.

The public names are those of the six modules' __all__ lists, in order.
"""

from . import congruence, grouping, intmath, multistage, robust, simulate
from .congruence import *
from .grouping import *
from .intmath import *
from .multistage import *
from .robust import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (congruence, grouping, intmath, multistage, robust, simulate)
    for name in module.__all__
]
