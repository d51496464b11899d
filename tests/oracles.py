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


def lsa_assignment(a, b, radius):
    """Max-cardinality, then min-total-residual matching by a rectangular
    assignment with a prohibitive cost on inadmissible pairs, always.

    The matcher gzcut used before it took the admissible pairs directly
    when no value has two admissible partners; kept as the reference for
    that fast path.  Returns (row indices, col indices, residuals).
    """
    from scipy.optimize import linear_sum_assignment

    if a.size == 0 or b.size == 0:
        return [], [], []
    cost = np.abs(a[:, None] - b[None, :])
    admissible = cost <= radius
    big = 1.0 + 2.0 * (radius + 1.0) * min(a.size, b.size)
    rows, cols = linear_sum_assignment(np.where(admissible, cost, big))
    keep = admissible[rows, cols]
    rows, cols = rows[keep], cols[keep]
    return list(rows), list(cols), [float(cost[r, c]) for r, c in zip(rows, cols)]


# The power-sum route as gzcut ran it on numpy before it moved to Python
# complex scalars, kept as the reference the scalar code must reproduce: the
# Aberth roots to rounding, the Newton coefficients exactly.  numpy returns
# inf/nan where Python scalars raise, so a divergent input reaches the
# finiteness check at the end of the Aberth loop.


def _numpy_shift_poly(coeffs: np.ndarray, s: complex) -> np.ndarray:
    """Coefficients of p(z + s), via repeated synthetic division."""
    work = list(coeffs)
    out = []
    for stop in range(len(work), 0, -1):
        for i in range(1, stop):
            work[i] += s * work[i - 1]
        out.append(work[stop - 1])
        work = work[: stop - 1]  # keep quotient only
    return np.asarray(out[::-1], dtype=complex)


def numpy_aberth_roots(coeffs, max_iter: int = 200, step_tol: float = 1e-14) -> np.ndarray:
    """gzcut.aberth_roots on numpy arrays: same start points, update, guards
    and step test, silent at max_iter."""
    from gzcut import EigensolverError

    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0 or c[0] == 0:
        raise ValueError("expected monic coefficients, highest degree first")
    c = c / c[0]
    k = c.size - 1
    if k == 0:
        return np.empty(0, dtype=complex)
    if k == 1:
        return np.array([-c[1]])

    centroid = -c[1] / k
    recentered = _numpy_shift_poly(c, centroid)
    mags = np.abs(recentered[1:])
    if not mags.any():
        # p(z) = (z - centroid)^k exactly
        return np.full(k, centroid)
    with np.errstate(divide="ignore"):
        radius = 2.0 * (mags ** (1.0 / np.arange(1, k + 1))).max()
    angles = 2.0 * np.pi * np.arange(k) / k + 0.39  # offset breaks symmetry
    z = centroid + radius * np.exp(1j * angles)

    dc = c[:-1] * np.arange(k, 0, -1)
    for _ in range(max_iter):
        p = np.polyval(c, z)
        dp = np.polyval(dc, z)
        dp[dp == 0] = 1e-300
        newton = p / dp
        diff = z[:, None] - z[None, :]
        diff.flat[:: k + 1] = np.inf
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        denom[denom == 0] = 1e-300
        w = newton / denom
        z = z - w
        if np.abs(w).max() <= step_tol * (1.0 + np.abs(z).max()):
            break
    if not np.isfinite(z).all():
        raise EigensolverError("Aberth iteration diverged")
    return z


def numpy_newton_to_charpoly(power_sums) -> np.ndarray:
    """gzcut.newton_to_charpoly on numpy scalars and arrays."""
    p = np.asarray(power_sums, dtype=complex).ravel()
    k = p.size
    if k < 1:
        raise ValueError("need at least one power sum")
    e = np.zeros(k + 1, dtype=complex)
    e[0] = 1.0
    for m in range(1, k + 1):
        acc = 0.0 + 0.0j
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * p[i - 1]
        e[m] = acc / m
    return e * (-1.0) ** np.arange(k + 1)


# The serial trial loops gzcut ran before its loops were stacked, kept as the
# reference the stacked loops must reproduce exactly: one trial at a time,
# each through the one-trial functions.


def _xi_matrix(e):
    n = e.n
    m = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(m[: n - 1, : n - 1], e.h)
    m[: n - 1, n - 1] = e.y
    m[n - 1, : n - 1] = e.z
    m[n - 1, n - 1] = e.w
    return m


def serial_containment_trial(p, n, rng, tol):
    from gzcut import ad, coincidence_count, sample_K, sample_in

    k = sample_K(rng, n)
    x = sample_in(p, rng)
    rep = coincidence_count(ad(k, x), tol)
    return rep.l, max(rep.residuals, default=0.0)


def serial_verify_containment(idx, n, trials, rng, tol):
    from gzcut import ContainmentReport, EigensolverError, parabolic_p

    p = parabolic_p(idx, n)
    bound = n - 1 - idx.length
    violations = failures = 0
    min_l = None
    worst = 0.0
    for t in range(trials):
        try:
            l, res = serial_containment_trial(p, n, rng.derive(t), tol)
        except EigensolverError:
            failures += 1
            continue
        min_l = l if min_l is None else min(min_l, l)
        worst = max(worst, res)
        if l < bound:
            violations += 1
    return ContainmentReport(idx, trials, violations, failures, min_l, worst)


def serial_verify_roundtrips(n, l, trials, rng, tol):
    from gzcut import (
        CutoffNotRegularSemisimple,
        EigensolverError,
        RoundTripReport,
        ad,
        canonical_form,
        random_xi,
        sample_K,
    )
    from gzcut.canonical import _ROUNDTRIP_RESIDUAL_CAP

    failures = mismatches = violations = 0
    worst = 0.0
    borels = set()
    for t in range(trials):
        trial = rng.derive(t)
        try:
            e = random_xi(trial, n, l, tol)
            g = sample_K(trial, n)
            # random_xi has validated e with xi_build already
            res = canonical_form(ad(g, _xi_matrix(e)), tol)
        except (EigensolverError, CutoffNotRegularSemisimple):
            failures += 1
            continue
        mismatches += res.l != l or res.idx.length != n - 1 - l
        worst = max(worst, res.residual)
        violations += res.residual >= _ROUNDTRIP_RESIDUAL_CAP
        borels.add(res.idx.i)
    borel_indices = tuple(sorted(borels)) if l == n - 1 else None
    return RoundTripReport(
        l, trials, failures, mismatches, worst, _ROUNDTRIP_RESIDUAL_CAP, violations, borel_indices
    )


def serial_random_xi(rng, n, l, tol):
    """random_xi as it drew before its draws were vectorized: one scalar
    draw per border entry and coin, in slot order."""
    from gzcut import XiElement, XiInvariantError, xi_build
    from gzcut.orbits import _RESAMPLE_LIMIT

    for _ in range(_RESAMPLE_LIMIT):
        h = 2.0 * rng.complex_normal(n - 1)
        gaps = np.abs(h[:, None] - h[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 0.5:
            continue
        y = np.zeros(n - 1, dtype=complex)
        z = np.zeros(n - 1, dtype=complex)
        for i in range(n - 1):
            border = (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            other = (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            if i < l:
                if rng.uniform() < 0.5:
                    y[i] = border  # z stays 0: mark U
                else:
                    z[i] = border  # y stays 0: mark L
            else:
                y[i], z[i] = border, other
        e = XiElement(
            n=n, l=l, h=tuple(h), y=tuple(y), z=tuple(z), w=complex(rng.complex_normal())
        )
        try:
            xi_build(e, tol)
        except XiInvariantError:
            continue
        return e
    raise XiInvariantError("resample limit")
