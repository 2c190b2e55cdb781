"""Numerics for variational convergence of Tikhonov regularization.

Grid functions and discrete norms, integral and Galerkin forward
operators with approximating families, Tikhonov functionals with
levelwise perturbations of operator, data, and regularization weight,
solvers with closed-form cross-checks, and studies that turn
Gamma-convergence statements into finite computations with verdicts.
"""

from . import config, errors, fem, functionals, grids, operators, solvers, studies
from .config import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fem import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .grids import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .studies import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is its one list of public names
__all__ = ["__version__"] + [
    name
    for module in (errors, grids, operators, fem, functionals, config, solvers, studies)
    for name in module.__all__
]
