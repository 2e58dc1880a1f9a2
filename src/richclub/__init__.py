"""Rich-club analytics for large graphs.

Rank nodes by degree, grow the induced club one rank at a time, and
measure how influential, stable, dense and connected every club size
is; includes seeded ER / Barabasi-Albert / Affiliation generators and a
CLI (``richclub``) for the full pipeline.
"""

from .axioms import *
from .generators import *
from .graph import *
from .sweep import *

__version__ = "0.1.0"

# importing a submodule binds its name here: the API is their __all__s
__all__ = axioms.__all__ + generators.__all__ + graph.__all__ + sweep.__all__
