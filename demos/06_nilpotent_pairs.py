"""Matrices that are nilpotent together with their cutoffs.

The locus of such matrices is swept out by conjugating the n catalog
nilradicals.  Sampling confirms membership, and an independence test on the
trace-function differentials separates the components: only the first and the
last carry independent differentials at generic points.
"""

from gzcut import (
    SeededRng,
    ad,
    eigenvalues,
    is_n_strongly_regular,
    nilradical_n,
    sample_K,
    sample_in,
    sn_membership,
)

n = 5
trials = 150
print(f"n = {n}, {trials} conjugated samples per nilradical component\n")

stream = 0
for i in range(1, n + 1):
    nil = nilradical_n(i, n)
    nilpotent = strong = 0
    for _ in range(trials):
        rng = SeededRng(31, stream)
        stream += 1
        x = ad(sample_K(rng, n), sample_in(nil, rng))
        nilpotent += bool(sn_membership(x))
        strong += bool(is_n_strongly_regular(x).ok)
    print(
        f"component {i}: nilpotent pairs {nilpotent}/{trials}, "
        f"strongly independent differentials {strong / trials:.2f}"
    )

rng = SeededRng(31, stream)
x = ad(sample_K(rng, n), sample_in(nilradical_n(1, n), rng))
print("\na sample from component 1 has both spectra at zero:")
print("  matrix spectrum moduli:", [f"{abs(v):.1e}" for v in eigenvalues(x)])
print("  cutoff spectrum moduli:", [f"{abs(v):.1e}" for v in eigenvalues(x[:-1, :-1])])
