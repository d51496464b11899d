"""How many eigenvalues does a matrix share with its cutoff?

The cutoff of an n x n matrix is its upper-left (n-1) x (n-1) corner.  The
two spectra are compared by a one-to-one matching, so multiplicities count:
a double eigenvalue can only be shared twice if it appears twice on both
sides.  This walk-through counts coincidences three ways and shows they agree.
"""

import numpy as np

from gzcut import (
    Tolerances,
    coincidence_count,
    eigenvalues,
    match_spectra,
    newton_to_charpoly,
    phi_n,
    v_membership,
)

x = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 2.0, 1.0],
        [0.0, 1.0, 3.0],
    ]
)

print("matrix:\n", x)
print("\ncutoff spectrum: ", eigenvalues(x[:2, :2]))
print("full spectrum:   ", eigenvalues(x))

# route 1: match the two spectra directly
rep = coincidence_count(x)
print(f"\ncoincidence count l = {rep.l}")
for (mu, lam), res in zip(rep.pairs, rep.residuals):
    print(f"  matched {mu:.6f} (cutoff) with {lam:.6f} (full), residual {res:.2e}")

# route 2: the same count through power sums and Newton's identities
img = phi_n(x)
print("\npower sums of the cutoff:", np.round(img.c_prev, 6))
print("power sums of the matrix:", np.round(img.c_full, 6))
print("cutoff char poly from power sums:", np.round(newton_to_charpoly(img.c_prev).real, 6))
for l in range(3):
    print(f"  at least {l} shared eigenvalues? {v_membership(img, l)}")

# route 3: a multiset matching on hand-made data, to see multiplicity at work
rep = match_spectra([0.0, 0.0], [0.0, 0.0, 0.0])
print(f"\n{{0,0}} vs {{0,0,0}} matches {rep.l} pairs (multiplicity counts)")

rep = match_spectra([1.0, 2.0], [1.0 + 1e-9, 5.0], Tolerances(eig_match=1e-7))
print(f"{{1,2}} vs {{1+1e-9, 5}} at radius 1e-7 matches {rep.l} pair")
