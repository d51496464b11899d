"""The constructive reduction, step by step.

Plant a bordered-diagonal matrix with two shared eigenvalues, hide it by a
random block-diagonal conjugation, then undo everything: diagonalize the
cutoff, sort shared eigenvalues first, read the U/L pattern off the border,
and permute the frame of the pattern's parabolic onto the catalog one.  The output certifies
itself: the image sits inside the catalog parabolic up to a tiny residual.
"""

import numpy as np

from gzcut import (
    SeededRng,
    ad,
    canonical_form,
    coincidence_count,
    pattern_parabolic,
    random_xi,
    reduce_to_xi,
    sample_K,
    xi_build,
    xi_pattern,
)

rng = SeededRng(99)
n, l = 5, 2

e = random_xi(rng, n, l)
planted = xi_build(e)
print(f"planted bordered form, n = {n}, coincidences l = {l}")
print("diagonal h:", np.round(e.h, 3))
print("border y:  ", np.round(e.y, 3))
print("border z:  ", np.round(e.z, 3))
print("pattern:   ", xi_pattern(e).marks, "(U: z_i = 0, L: y_i = 0)")

g = sample_K(rng, n)
x = ad(g, planted)
print("\nafter a hidden conjugation the structure is invisible:")
print(np.round(x, 2))
print("but the coincidence count is conjugation-invariant:", coincidence_count(x).l)

k, recovered = reduce_to_xi(x)
print("\nreduction recovers the bordered form; recovered diagonal:")
print(np.round(recovered.h, 3))

res = canonical_form(x)
spec = pattern_parabolic(res.pattern, n)
print(f"\nthe pattern's parabolic, as a 0/1 mask in its permuted frame (dim {spec.dim}):")
print(spec.mask.astype(int))
print(
    f"target catalog index: ({res.idx.i}, {res.idx.j})  "
    f"(orbit length {res.idx.length} = n - 1 - l)"
)
print(f"membership residual of the image in its parabolic: {res.residual:.2e}")
print("\nimage (rounded); note the parabolic zero pattern:")
print(np.round(res.image, 6))
