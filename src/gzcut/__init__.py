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

from .linalg import (
    DEFAULT_TOL,
    EigensolverError,
    SubspaceTest,
    Tolerances,
    aberth_roots,
    as_cmatrix,
    centralizer_basis,
    cutoff,
    eigenvalues,
    numerical_rank,
    sort_complex,
)
from .spectra import (
    CoincidenceReport,
    GZImage,
    coincidence_count,
    gz_function,
    match_spectra,
    newton_to_charpoly,
    phi_n,
    v_membership,
)
from .flags import (
    OrbitIndex,
    PartialFlag,
    SubalgebraSpec,
    all_orbit_indices,
    borel_b,
    cayley,
    column_span_equal,
    contains,
    cutoff_flag,
    cutoff_parabolic,
    fixed_point_subalgebra,
    flag_F,
    is_theta_stable,
    nilradical_n,
    parabolic_p,
    partial_flag_P,
    project_cutoff,
    span_contains,
    span_equal,
    stabilizer,
    standard_flag,
    theta,
    v_matrix,
)
from .orbits import (
    ContainmentReport,
    KElement,
    SeededRng,
    ad,
    estimate_dim,
    sample_K,
    sample_in,
    tangent_dim,
    verify_containment,
)
from .canonical import (
    CanonicalFormResult,
    CutoffNotRegularSemisimple,
    MethodDisagreement,
    RoundTripReport,
    StrongRegularityReport,
    ULPattern,
    XiElement,
    XiInvariantError,
    canonical_form,
    gz_gradients,
    is_n_strongly_regular,
    random_xi,
    reduce_to_xi,
    sn_membership,
    stabilized_flag,
    verify_roundtrips,
    xi_build,
    xi_pattern,
)

__version__ = "0.1.0"
