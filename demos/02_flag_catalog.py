"""The catalog of flags and subalgebras behind the coincidence strata.

For each pair (i, j) with 1 <= i <= j <= n there is an explicit flag, an
integer matrix carrying the standard flag onto it, a Borel subalgebra (its
stabilizer), and a theta-stable parabolic.  A flag is held as its
stabilizer: the k-th step is spanned by the first k columns of the Borel's
frame.  This script prints the whole catalog for n = 4 and checks the
structural facts the rest of the package relies on.
"""

from gzcut import (
    OrbitIndex,
    all_orbit_indices,
    borel_b,
    column_span_equal,
    cutoff_parabolic,
    is_theta_stable,
    parabolic_p,
    project_cutoff,
    span_contains,
    span_equal,
    v_matrix,
)
from gzcut.flags import _levi_blocks

n = 4
print(f"catalog for n = {n}: {len(all_orbit_indices(n))} orbit indices\n")

for idx in all_orbit_indices(n):
    v = v_matrix(idx, n)
    b = borel_b(idx, n)
    p = parabolic_p(idx, n)
    carried = all(column_span_equal(v[:, :k], b.frame[:, :k]) for k in range(1, n + 1))
    cut = cutoff_parabolic(idx, n)
    print(
        f"(i,j) = ({idx.i},{idx.j})  length {idx.length}  "
        f"dim b = {b.dim}, dim p = {p.dim}  "
        f"v carries standard flag: {carried}  "
        f"b inside p: {span_contains(p.basis, b.basis)}  "
        f"theta-stable: {is_theta_stable(p)}"
    )
    print(
        f"          cutoff projection is a parabolic with Levi blocks "
        f"{sorted(_levi_blocks(cut.mask), reverse=True)}: "
        f"{span_equal(project_cutoff(p), cut.basis)}"
    )

print("\nflag for (1, 3): columns are e1+e4, e2, e1, e3")
print(borel_b(OrbitIndex(1, 3), n).frame.real.astype(int))
print("\ncarrier matrix v for (1, 3):")
print(v_matrix(OrbitIndex(1, 3), n).real.astype(int))
