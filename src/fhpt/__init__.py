"""Quantized-momentum states of a trigonometric secant-squared well.

The package derives the discrete momentum spectrum and normalized states of
an oscillator-like equation in a time coordinate, equips the level ladder
with first-order raising and lowering maps realizing an su(1,1) algebra,
builds annihilation-eigenstate superpositions over the ladder, and verifies
every identity numerically through a named check suite (also exposed as the
``fhpt`` command line tool).
"""

from . import algebra, checks, coherent, errors, model, quadrature, special
from .algebra import *
from .checks import *
from .coherent import *
from .errors import *
from .model import *
from .quadrature import *
from .special import *

__version__ = "0.1.0"

# each submodule's __all__ is the one list of its public names
__all__ = sorted(
    name for mod in (algebra, checks, coherent, errors, model, quadrature, special) for name in mod.__all__
)
