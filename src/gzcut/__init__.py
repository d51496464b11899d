"""Eigenvalue coincidences between a complex matrix and its leading cutoff.

A square complex matrix x and its upper-left (n-1) x (n-1) corner share some
number l of eigenvalues, counted with multiplicity.  That count partitions
matrix space into strata whose pieces are swept out by conjugating an explicit
catalog of parabolic subalgebras with block-diagonal group elements.  This
package computes the count, builds the catalog, verifies the sweeping
statements by seeded Monte Carlo and tangent-space ranks, and implements the
constructive reduction taking a matrix (with regular semisimple cutoff) into
its catalog parabolic.
"""

# the public names are the __all__ lists of the modules, in one place each
from .linalg import *  # noqa: F403
from .spectra import *  # noqa: F403
from .flags import *  # noqa: F403
from .orbits import *  # noqa: F403
from .canonical import *  # noqa: F403

__version__ = "0.1.0"
