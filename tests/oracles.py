"""Independent oracles used to freeze expected values in the tests.

Kept deliberately separate from the package: exact rational characteristic
polynomials, exact ranks over the rationals, brute-force multiset matching,
and least-squares subalgebra membership.  None of these share code paths with
the implementations they check.
"""

from fractions import Fraction

import numpy as np


def _as_fraction_rows(mat):
    a = np.asarray(mat)
    if np.iscomplexobj(a):
        assert np.all(a.imag == 0), "exact oracles work on rational matrices"
        a = a.real
    return [[Fraction(x).limit_denominator(10**12) for x in row] for row in a.tolist()]


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def exact_char_poly(mat):
    """Monic characteristic polynomial over the rationals (descending)."""
    a = _as_fraction_rows(mat)
    n = len(a)
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = _matmul(a, mk)
        for i in range(n):
            mk[i][i] += coeffs[k - 1]
        am = _matmul(a, mk)
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    return coeffs


def exact_rank(mat):
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    rows = _as_fraction_rows(mat)
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def brute_match(a, b, radius):
    """Max-cardinality, then min-total-residual matching by exhaustive search.

    Returns (count, total residual).  Exponential; fine for sizes <= 7.
    """
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    best = [0, 0.0]

    def rec(i, used, count, total):
        if count + (len(a) - i) < best[0]:
            return
        if i == len(a):
            if count > best[0] or (count == best[0] and total < best[1] - 1e-15):
                best[0], best[1] = count, total
            return
        rec(i + 1, used, count, total)
        for j in range(len(b)):
            res = abs(a[i] - b[j])
            if not used[j] and res <= radius:
                used[j] = True
                rec(i + 1, used, count + 1, total + res)
                used[j] = False

    rec(0, [False] * len(b), 0, 0.0)
    return best[0], best[1]


def lstsq_membership_residual(basis, x):
    """Orthogonal distance from x to span(basis), relative: ||x - proj x|| / (1 + ||x||).

    The membership residual gzcut computed by least squares before it read
    membership off the mask; kept as the reference for the masked test.
    """
    a = np.array([np.asarray(b, dtype=complex).reshape(-1) for b in basis]).T
    v = np.asarray(x, dtype=complex).reshape(-1)
    coef, *_ = np.linalg.lstsq(a, v, rcond=None)
    return float(np.linalg.norm(a @ coef - v) / (1.0 + np.linalg.norm(v)))


def cgauss(gen, shape=None):
    """Standard complex Gaussian draws from a numpy Generator."""
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
