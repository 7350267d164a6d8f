"""Metric operators, Dyson maps, and perturbation series for
finite-dimensional quasi-Hermitian Hamiltonians.

A Hamiltonian H that is non-Hermitian in its working space but satisfies
H^dag Theta = Theta H for some Hermitian positive-definite Theta generates
unitary evolution under the Theta inner product.  This package constructs
the (ambiguous) family of such metrics, removes the ambiguity with
candidate observables, factors Dyson maps Omega^dag Omega = Theta, expands
the metric order by order when H is perturbed, and maps the stability
domains where all of this remains possible.
"""

from . import dyson, errors, matrixio, metric, perturbation, spectra, stability
from .dyson import *  # noqa: F403
from .errors import *  # noqa: F403
from .matrixio import *  # noqa: F403
from .metric import *  # noqa: F403
from .perturbation import *  # noqa: F403
from .spectra import *  # noqa: F403
from .stability import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [name for module in (dyson, errors, matrixio, metric, perturbation, spectra, stability)
           for name in module.__all__]
