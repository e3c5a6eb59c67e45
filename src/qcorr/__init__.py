"""Analysis of measure-and-prepare channel structure and classical broadcasting.

The package classifies bipartite states and channels by one-sided
classicality, extracts measurement maps from Choi states, studies the
finite Markov chains those maps induce in any basis, and constructs and
verifies spectrum/full broadcasting of states and classical correlations.
Each layer module lists its public names in its own ``__all__``; the
package re-exports exactly those.
"""

from . import broadcast, channels, errors, linalg, markov, measurement, states, structure
from .broadcast import *
from .channels import *
from .errors import *
from .linalg import *
from .markov import *
from .measurement import *
from .states import *
from .structure import *

__version__ = "0.1.0"

_LAYERS = (broadcast, channels, errors, linalg, markov, measurement, states, structure)
__all__ = sorted(name for module in _LAYERS for name in module.__all__)
