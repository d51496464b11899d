"""The catalog of flags and subalgebras behind the coincidence strata.

For each pair (i, j) with 1 <= i <= j <= n there is an explicit flag, an
integer matrix carrying the standard flag onto it, a Borel subalgebra (its
stabilizer), and a theta-stable parabolic.  A flag is held as its
stabilizer: the k-th step is spanned by the first k columns of the Borel's
frame.  This script prints the whole catalog for n = 4 and checks the
structural facts the rest of the package relies on, each as a membership
read off the frame and mask with `contains`.
"""

import numpy as np

from gzcut import (
    OrbitIndex,
    all_orbit_indices,
    borel_b,
    contains,
    cutoff_parabolic,
    is_theta_stable,
    parabolic_p,
    project_cutoff,
    v_matrix,
)
from gzcut.flags import _levi_blocks


def inside(s, mats):
    """Whether every matrix of mats lies in the subalgebra s."""
    return all(contains(s, m).ok for m in mats)


n = 4
print(f"catalog for n = {n}: {len(all_orbit_indices(n))} orbit indices\n")

for idx in all_orbit_indices(n):
    v = v_matrix(idx, n)
    b = borel_b(idx, n)
    p = parabolic_p(idx, n)
    # v B^-1 lies in b, so B^-1 v is upper triangular, and invertible
    carried = inside(b, [v @ b.inverse]) and np.diagonal(b.inverse @ v).all()
    cut = cutoff_parabolic(idx, n)
    # the cutoff projection of p lies in cut, and cut, padded by zeros, in p
    padded = np.zeros((cut.dim, n, n), dtype=complex)
    padded[:, :-1, :-1] = cut.basis
    projection = inside(cut, project_cutoff(p)) and inside(p, padded)
    print(
        f"(i,j) = ({idx.i},{idx.j})  length {idx.length}  "
        f"dim b = {b.dim}, dim p = {p.dim}  "
        f"v carries standard flag: {carried}  "
        f"b inside p: {inside(p, b.basis)}  "
        f"theta-stable: {is_theta_stable(p)}"
    )
    print(
        f"          cutoff projection is a parabolic with Levi blocks "
        f"{sorted(_levi_blocks(cut.mask), reverse=True)}: "
        f"{projection}"
    )

print("\nflag for (1, 3): columns are e1+e4, e2, e1, e3")
print(borel_b(OrbitIndex(1, 3), n).frame.real.astype(int))
print("\ncarrier matrix v for (1, 3):")
print(v_matrix(OrbitIndex(1, 3), n).real.astype(int))
