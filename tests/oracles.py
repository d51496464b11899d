"""Independent oracles used to freeze expected values in the tests.

Kept deliberately separate from the package: exact rational characteristic
polynomials, exact ranks over the rationals, brute-force multiset matching,
and least-squares subalgebra membership.  None of these share code paths with
the implementations they check.
"""

import cmath
import math
import warnings
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


def levi_blocks(mask):
    """Sizes of the Levi blocks of a block upper triangular mask, largest first.

    The Levi part mask & mask.T is block diagonal, and each of its distinct
    rows is the indicator of one block.
    """
    mask = np.asarray(mask, dtype=bool)
    rows = {tuple(row) for row in (mask & mask.T).tolist()}
    return sorted((sum(row) for row in rows), reverse=True)


def cgauss(gen, shape=None):
    """Standard complex Gaussian draws from a numpy Generator."""
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def gz_function(x, i, j):
    """tr((x_i)^j) for the upper-left i x i corner x_i, by np.linalg.matrix_power:
    the oracle for phi_n's power sums and for finite differences of the traces."""
    m = np.asarray(x, dtype=complex)
    return complex(np.trace(np.linalg.matrix_power(m[:i, :i], j)))


def per_power_phi_n(x):
    """phi_n's power sums one power at a time, as gzcut computed them before
    it stacked the powers: eye, then p @ m per degree, then complex(p.trace()).
    Returns (cutoff sums, full sums)."""
    m = np.asarray(x, dtype=complex)
    out = []
    for a in (m[:-1, :-1], m):
        p = np.eye(a.shape[0], dtype=complex)
        sums = []
        for _ in range(a.shape[0]):
            p = p @ a
            sums.append(complex(p.trace()))
        out.append(tuple(sums))
    return tuple(out)


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
# Aberth roots to rounding, the Newton coefficients exactly.  The numpy Aberth
# loop keeps the old start circle (twice the largest |a_d|^(1/d)) and the step
# test as its only exit, so it reaches the same fixed points by another path.
# numpy returns inf/nan where Python scalars raise, so a divergent input
# reaches the finiteness check at the end of the Aberth loop.


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
    """gzcut.aberth_roots on numpy arrays as it was before the rounding-floor
    exit and the root-modulus start circle: same update, guards and step
    test, silent at max_iter."""
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


def jacobi_aberth_roots(coeffs, max_iter: int = 200) -> np.ndarray:
    """gzcut.aberth_roots as it was before its Gauss-Seidel sweeps: Jacobi
    sweeps that update every iterate from the previous sweep's values, until
    every |p(z_i)| is at Horner's rounding floor at once or the largest step
    is below the step tolerance.  Same start circle, floor, guards, warning
    and errors."""
    from gzcut.linalg import _ABERTH_STEP_TOL, EigensolverError, _shift_poly

    c = np.asarray(coeffs, dtype=complex).ravel().tolist()
    if not c or c[0] == 0:
        raise ValueError("expected monic coefficients, highest degree first")
    if not all(map(cmath.isfinite, c)):
        raise ValueError("polynomial coefficients must be finite")
    lead = c[0]
    c = [v / lead for v in c]
    k = len(c) - 1
    if k == 0:
        return np.empty(0, dtype=complex)
    if k == 1:
        return np.array([-c[1]])

    # Python complex scalars, not numpy arrays: at degree <= 8 numpy's
    # per-call dispatch costs more than the arithmetic.  Scalars raise where
    # numpy returns inf/nan (1/0j, abs() past the float range); either way
    # the iterates have left the finite numbers.
    try:
        centroid = -c[1] / k
        # p(centroid) by Horner's rule: the constant term of p(z + centroid)
        at_centroid = c[0]
        for a in c[1:]:
            at_centroid = at_centroid * centroid + a
        if at_centroid:
            # |p(centroid)|^(1/k): the geometric mean of |z_i - centroid|
            radius = abs(at_centroid) ** (1.0 / k)
        else:
            mags = [abs(v) for v in _shift_poly(c, centroid)[1:]]
            if not any(mags):
                # p(z) = (z - centroid)^k exactly
                return np.full(k, centroid)
            radius = 2.0 * max(m ** (1.0 / d) for d, m in enumerate(mags, 1))
        # offset breaks symmetry
        z = [centroid + cmath.rect(radius, 2.0 * math.pi * i / k + 0.39) for i in range(k)]
        c0, c_rest = c[0], c[1:]
        # |p(z)| <= floor * s(|z|) is within Horner's rounding error, where s
        # is Horner's rule on the absolute coefficients
        floor = k * 2.0**-53
        abs_rest = [abs(v) for v in c_rest]
        dc = [v * (k - i) for i, v in enumerate(c[:-1])]
        dc0 = dc[0]
        # p and p' by Horner's rule in one loop over their common degrees
        both, c_last = list(zip(c_rest, dc[1:])), c_rest[-1]
        pairs = tuple((i, j) for i in range(k) for j in range(i + 1, k))
        converged = False
        for _ in range(max_iter):
            # 1/(z_j - z_i) = -1/(z_i - z_j) exactly, so each pair divides once
            repulsion = [0j] * k
            for i, j in pairs:
                t = 1.0 / (z[i] - z[j])
                repulsion[i] += t
                repulsion[j] -= t
            w = []
            at_floor = True
            for zi, r in zip(z, repulsion):
                # Horner's rule, as np.polyval
                p, dp = c0, dc0
                for a, da in both:
                    p = p * zi + a
                    dp = dp * zi + da
                p = p * zi + c_last
                if at_floor:
                    # once one root is off the floor this pass cannot stop
                    azi = abs(zi)
                    s = 1.0
                    for a in abs_rest:
                        s = s * azi + a
                    at_floor = abs(p) <= floor * s
                newton = p / (dp if dp != 0 else 1e-300)
                denom = 1.0 - newton * r
                w.append(newton / (denom if denom != 0 else 1e-300))
            if at_floor:
                converged = True
                break
            z = [zi - wi for zi, wi in zip(z, w)]
            if max(map(abs, w)) <= _ABERTH_STEP_TOL * (1.0 + max(map(abs, z))):
                converged = True
                break
    except (ZeroDivisionError, OverflowError) as exc:
        raise EigensolverError("Aberth iteration diverged") from exc
    if not all(map(cmath.isfinite, z)):
        raise EigensolverError("Aberth iteration diverged")
    if not converged:
        # one text per degree and cap, so the warning registry stays bounded
        warnings.warn(
            f"Aberth iteration on a degree-{k} polynomial stopped at max_iter={max_iter} "
            "without converging; returning unconverged roots",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.array(z)


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


# The serial trial loops, kept as the reference the stacked loops must
# reproduce exactly: one trial at a time, each through the one-trial kernels.
# They build the stream layout themselves from numpy.  Stage s of redraw
# round r of the loop on handle (seed, stream) is one block drawn by
# Generator(PCG64(SeedSequence(seed, spawn_key=(stream, s, r)))), and trial t
# takes row t of it; a complex normal is an adjacent (real, imaginary) pair of
# standard normals over sqrt(2).  A rejected draw is redone from the next
# round's block.

K_BLOCK, K_SCALAR, COEFFS, XI_NORMALS, XI_UNIFORMS = range(5)


def stage_row(rng, stage, rnd, t, shape, normal):
    """Row t of the stage's round-rnd block of the loop on rng: complex
    normals when normal is true, else uniforms on [0, 1)."""
    seq = np.random.SeedSequence(rng.seed, spawn_key=(rng.stream, stage, rnd))
    gen = np.random.Generator(np.random.PCG64(seq))
    if not normal:
        return gen.random((t + 1, *shape))[t]
    pairs = gen.standard_normal((t + 1, *shape, 2))[t]
    return (pairs[..., 0] + 1j * pairs[..., 1]) / np.sqrt(2.0)


def serial_sample_K(rng, n, t):
    """Trial t's sample_K: its first block, round by round, whose smallest
    singular value clears the conditioning floor."""
    from gzcut import EigensolverError, KElement
    from gzcut.orbits import _MIN_BLOCK_SV, _RESAMPLE_LIMIT

    for rnd in range(_RESAMPLE_LIMIT):
        block = stage_row(rng, K_BLOCK, rnd, t, (n - 1, n - 1), True)
        if np.linalg.svd(block, compute_uv=False)[-1] > _MIN_BLOCK_SV:
            break
    else:
        raise EigensolverError("conditioning resample limit exceeded")
    u = stage_row(rng, K_SCALAR, 0, t, (2,), False)
    return KElement(block, np.exp(2j * np.pi * u[0]) * (1.0 + u[1]), n)


def serial_sample_in(s, rng, t):
    """Trial t's sample_in: its coefficients against the basis."""
    coeffs = stage_row(rng, COEFFS, 0, t, (s.dim,), True)
    return np.tensordot(coeffs, np.array(s.basis), axes=1)


def serial_conjugated_sample(s, n, rng, t):
    """Trial t's sample of s conjugated by trial t's sample_K."""
    from gzcut import ad

    return ad(serial_sample_K(rng, n, t), serial_sample_in(s, rng, t))


def serial_planted(rng, n, l, t, tol):
    """Trial t's random_xi: round by round, the first of the round's
    candidate diagonals that keeps a pairwise gap of 0.5, until xi_build
    accepts one."""
    from gzcut import XiElement, XiInvariantError, xi_build
    from gzcut.canonical import _XI_CANDIDATES
    from gzcut.orbits import _RESAMPLE_LIMIT

    k = n - 1
    for rnd in range(_RESAMPLE_LIMIT):
        candidates = stage_row(rng, XI_NORMALS, rnd, t, (_XI_CANDIDATES, n), True)
        for normals in candidates:
            h = 2.0 * normals[:k]
            if all(abs(h[i] - h[j]) >= 0.5 for i in range(k) for j in range(i)):
                break
        else:
            continue
        u = stage_row(rng, XI_UNIFORMS, rnd, t, (k, 5), False)
        y = np.zeros(k, dtype=complex)
        z = np.zeros(k, dtype=complex)
        for i in range(k):
            border = (0.5 + u[i, 0]) * np.exp(2j * np.pi * u[i, 1])
            other = (0.5 + u[i, 2]) * np.exp(2j * np.pi * u[i, 3])
            if i < l:
                if u[i, 4] < 0.5:
                    y[i] = border  # z stays 0: mark U
                else:
                    z[i] = border  # y stays 0: mark L
            else:
                y[i], z[i] = border, other
        e = XiElement(n=n, l=l, h=tuple(h), y=tuple(y), z=tuple(z), w=normals[k])
        try:
            xi_build(e, tol)
        except XiInvariantError:
            continue
        return e
    raise XiInvariantError("resample limit")


def _xi_matrix(e):
    n = e.n
    m = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(m[: n - 1, : n - 1], e.h)
    m[: n - 1, n - 1] = e.y
    m[n - 1, : n - 1] = e.z
    m[n - 1, n - 1] = e.w
    return m


def serial_round_trip_point(n, l, rng, t, tol):
    """Trial t's planted point conjugated by trial t's sample_K."""
    from gzcut import ad

    # serial_planted has validated e with xi_build already
    return ad(serial_sample_K(rng, n, t), _xi_matrix(serial_planted(rng, n, l, t, tol)))


def serial_canonical_form(x, tol):
    """canonical_form composed by hand, as it was before the image was read
    off the reduced form: reduce_to_xi, its block's rows reordered into frame
    order by the U/L pattern of the reduced form, an explicit k x k^-1 with
    np.linalg.inv, and contains on the image."""
    from gzcut import (
        CanonicalFormResult,
        KElement,
        OrbitIndex,
        contains,
        parabolic_p,
        reduce_to_xi,
        xi_pattern,
    )
    from gzcut.canonical import _frame_order

    x = np.asarray(x, dtype=complex)
    n = len(x)
    reduced, e = reduce_to_xi(x, tol)
    pattern = xi_pattern(e, tol)
    upper = np.array([m == "U" for m in pattern.marks] + [False] * (n - 1 - e.l))
    k = KElement(reduced.block[_frame_order(upper, np.arange(n - 1) < e.l)], 1.0, n)
    km = k.as_matrix()
    image = km @ x @ np.linalg.inv(km)
    u = pattern.marks.count("U")
    idx = OrbitIndex(u + 1, u + n - e.l)
    residual = contains(parabolic_p(idx, n), image, tol).residual
    return CanonicalFormResult(k, idx, image, residual, e.l, pattern)


def serial_verify_containment(idx, n, trials, rng, tol):
    from gzcut import ContainmentReport, EigensolverError, coincidence_count, parabolic_p

    p = parabolic_p(idx, n)
    bound = n - 1 - idx.length
    violations = failures = 0
    min_l = None
    worst = 0.0
    for t in range(trials):
        try:
            rep = coincidence_count(serial_conjugated_sample(p, n, rng, t), tol)
        except EigensolverError:
            failures += 1
            continue
        l, res = rep.l, max(rep.residuals, default=0.0)
        min_l = l if min_l is None else min(min_l, l)
        worst = max(worst, res)
        if l < bound:
            violations += 1
    return ContainmentReport(idx, trials, violations, failures, min_l, worst)


def serial_containment_loops(idxs, n, trials, rngs, tol):
    """The containment loops of a `verify` report before they shared one
    stack: one loop per index idxs[k] on its handle rngs[k], in turn."""
    return [serial_verify_containment(idx, n, trials, rng, tol) for idx, rng in zip(idxs, rngs)]


def serial_verify_roundtrips(n, l, trials, rng, tol):
    from gzcut import (
        CutoffNotRegularSemisimple,
        EigensolverError,
        RoundTripReport,
        XiInvariantError,
        ad,
        canonical_form,
    )

    failures = mismatches = violations = 0
    worst = 0.0
    borels = set()
    for t in range(trials):
        # a planting that gives up raises; anything later fails only trial t
        planted = _xi_matrix(serial_planted(rng, n, l, t, tol))
        try:
            res = canonical_form(ad(serial_sample_K(rng, n, t), planted), tol)
        except (EigensolverError, CutoffNotRegularSemisimple, XiInvariantError):
            failures += 1
            continue
        mismatches += res.l != l or res.idx.length != n - 1 - l
        worst = max(worst, res.residual)
        violations += res.residual > tol.membership
        borels.add(res.idx.i)
    borel_indices = tuple(sorted(borels)) if l == n - 1 else None
    return RoundTripReport(
        l, trials, failures, mismatches, worst, tol.membership, violations, borel_indices
    )


def serial_verify_nilradical(i, n, trials, rng, tol):
    """The per-component loop of `gzcut sn` before it was stacked: one point
    at a time through ad, sn_membership and is_n_strongly_regular."""
    from gzcut import MethodDisagreement, is_n_strongly_regular, nilradical_n, sn_membership

    nil = nilradical_n(i, n)
    passed = strong = failures = 0
    for t in range(trials):
        x = serial_conjugated_sample(nil, n, rng, t)
        passed += bool(sn_membership(x, tol))
        try:
            strong += bool(is_n_strongly_regular(x, tol).ok)
        except MethodDisagreement:
            failures += 1
    return passed, strong, failures


def serial_estimate_dim(s, repeats, rng, tol):
    """estimate_dim before it was stacked: one tangent_dim per sample."""
    from gzcut import tangent_dim

    ranks = [tangent_dim(s, serial_sample_in(s, rng, t), tol) for t in range(repeats)]
    return max(ranks, default=0)
