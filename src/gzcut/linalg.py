"""Dense complex linear algebra kernel.

Everything downstream of this module works on small (n <= 8) dense complex
matrices, so the routines here favor exactness and cross-checkability over
asymptotic speed.  Two independent eigenvalue routes are kept on purpose:
the LAPACK Hessenberg + shifted-QR route (`eigenvalues`) and the power-sum
route (`spectra.phi_n`, then `spectra.newton_to_charpoly`, then
`aberth_roots`), so that each can serve as an oracle for the other.

Every LAPACK call, SVDs included, goes through _lapack_try, the one place that
catches a LAPACK failure.  A failed matrix keeps its slot, and its
EigensolverError, which names it, goes into the caller's errors dict by
setdefault, so each position keeps its first failure.  A caller that fails as
a whole runs its stage through _one, which raises the lowest position's failure.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigensolverError",
    "Tolerances",
    "DEFAULT_TOL",
    "SubspaceTest",
    "as_cmatrix",
    "cutoff",
    "sort_complex",
    "eigenvalues",
    "aberth_roots",
    "numerical_rank",
]


class EigensolverError(ValueError):
    """An eigenvalue or SVD iteration failed to converge on a concrete matrix."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs shared across the package.

    eig_match   absolute radius for treating two eigenvalues as coincident
    rank_rel    relative singular-value cutoff for the ranks of dims and sn
                (its default also sets a subalgebra frame's conditioning floor)
    membership  residual cap for subalgebra membership: every catalog relation

    Each field decides one kind of verdict and nothing else; planted round
    trips are judged by membership, as canonical_form is.  All radii are
    absolute and finite; callers working with large-norm matrices should
    rescale eig_match themselves.  Every threshold of the canonical reduction
    (its gap floor, its vanishing border entries, its shared slots) is a fixed
    multiple of eig_match or, for the U/L marks, a comparison, so scaling x by
    c and eig_match by |c| together leaves each of its verdicts unchanged.
    """

    eig_match: float = 1e-7
    rank_rel: float = 1e-10
    membership: float = 1e-8

    def __post_init__(self):
        # comparisons are False for NaN, so it is rejected too
        if not all(0 <= v < math.inf for v in (self.eig_match, self.rank_rel, self.membership)):
            raise ValueError("tolerances must be finite nonnegative numbers")


DEFAULT_TOL = Tolerances()


def as_cmatrix(a) -> np.ndarray:
    """Validate and return a square, finite, complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("matrix entries must be finite")
    return m


def _with_cutoff(a) -> np.ndarray:
    """as_cmatrix for the functions that need a cutoff: n >= 2."""
    m = as_cmatrix(a)
    if m.shape[0] < 2:
        raise ValueError("a 1 x 1 matrix has no cutoff")
    return m


def cutoff(a) -> np.ndarray:
    """Upper-left (n-1) x (n-1) corner of a square matrix, n >= 2."""
    return _with_cutoff(a)[:-1, :-1]


def sort_complex(values) -> np.ndarray:
    """Lexicographic (real, imag) ordering along the last axis; makes spectra
    reproducible.  The sort is stable, so equal values keep their order."""
    return np.sort(np.asarray(values, dtype=complex), axis=-1, kind="stable")


def _failure(what: str, m: np.ndarray) -> EigensolverError:
    """The failure "<what> on <the matrix>"."""
    return EigensolverError(f"{what} on\n{np.array2string(m, precision=6)}")


def _name_by_point(found: dict, xs: np.ndarray, errors: dict) -> None:
    """Record in errors, under each position t of found not there yet, the
    SVD failure named by the point xs[t] whose internal matrix failed."""
    for t in found:
        errors.setdefault(t, _failure("SVD failed to converge", xs[t]))


def _one(stage, *args):
    """stage(*args, errors) on the caller's stack: its output, or the failure
    it records at the lowest failed position, raised."""
    errors = {}
    out = stage(*args, errors)
    if errors:
        raise errors[min(errors)]
    return out


def _lapack_try(kernel, mats):
    """kernel applied to a (T, p, q) stack of matrices in one call:
    (output, failed positions).

    When LAPACK raises on the stack, each matrix is retried alone.  Each one
    that fails stands in as the p x q identity in a second stacked call, so
    the output still has one entry per matrix and a failure costs only its
    own matrix.
    """
    try:
        return kernel(mats), []
    except np.linalg.LinAlgError:
        pass
    stand_in, failed = mats.copy(), []
    for t in range(len(mats)):
        try:
            kernel(mats[t : t + 1])
        except np.linalg.LinAlgError:
            failed.append(t)
            stand_in[t] = np.eye(*mats.shape[-2:])
    return kernel(stand_in), failed


def _lapack_stack(kernel, mats, errors: dict, what: str):
    """_lapack_try's output; each failed matrix records an EigensolverError,
    "<what> on <the matrix>", under its position in errors unless that
    position failed already."""
    out, failed = _lapack_try(kernel, mats)
    for t in failed:
        if t not in errors:
            errors[t] = _failure(what, mats[t])
    return out


# an eigenvalue sum may drift from the trace by this times n (1 + ||x||_F)
_TRACE_DRIFT_REL = 1e-10


def _eigvals_stack(mats: np.ndarray, errors: dict) -> np.ndarray:
    """Unsorted eigenvalues of every matrix in a (T, n, n) stack, by one LAPACK call.

    Each eigenvalue sum is checked against its matrix's trace as a cheap
    normalization guard; a violation means the QR iteration silently
    degraded.  A failed or drifting matrix records its EigensolverError in
    errors, as _lapack_stack does, so a failed solve is never reported as
    drift.  Returns the (T, n) values.
    """
    vals = _lapack_stack(np.linalg.eigvals, mats, errors, "eigenvalue iteration failed")
    # ufunc reductions, not ndarray methods: on the one-matrix path of
    # `eigenvalues` the method wrappers would cost as much as the check.  The
    # Frobenius norm is a hypot reduction, which scales each step by its
    # larger operand, so it neither overflows nor warns where squares would
    drift = abs(np.add.reduce(vals - mats.diagonal(0, -2, -1), -1))
    frobenius = np.hypot.reduce(mats.view(float), (-2, -1))
    bound = (1.0 + frobenius) * (_TRACE_DRIFT_REL * mats.shape[-1])
    for t in (drift > bound).nonzero()[0].tolist():
        errors.setdefault(
            t, _failure(f"eigenvalue sum drifted from the trace by {drift[t]:.3e}", mats[t])
        )
    return vals


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, sorted by (real, imag).

    The one-matrix case of the stacked solve, with the same trace check.
    """
    return sort_complex(_one(_eigvals_stack, as_cmatrix(a)[None])[0])


_ABERTH_STEP_TOL = 1e-14


def _shift_poly(coeffs: list, s: complex) -> list:
    """Coefficients of p(z + s), via repeated synthetic division."""
    work = list(coeffs)
    out = []
    for stop in range(len(work), 0, -1):
        for i in range(1, stop):
            work[i] += s * work[i - 1]
        out.append(work[stop - 1])
    return out[::-1]


@functools.cache
def _others(k: int) -> tuple:
    """For each of k iterates, the indices of the other k - 1."""
    return tuple(tuple(j for j in range(k) if j != i) for i in range(k))


# an iterate whose last step was at most this, relative to 1 + |z_i|, takes
# the rounding-floor test
_ABERTH_NEAR = 1e-3


def aberth_roots(coeffs, max_iter: int = 200) -> np.ndarray:
    """All complex roots of a monic polynomial by the Aberth-Ehrlich iteration.

    Self-contained on purpose: fed by `spectra.newton_to_charpoly`, it gives a
    spectral route with no shared code with the QR eigensolver.  Multiple
    roots converge linearly and come back as a tight cluster, which is exactly
    what multiset matching downstream wants.  The iteration starts on the
    circle about the centroid whose radius is the geometric mean of the root
    moduli about it.  It runs in Gauss-Seidel sweeps: each iterate is updated
    in place, so the later ones in a sweep see its new value, and an iterate
    leaves the sweeps for good once it passes either of two tests, as in
    MPSolve (Bini and Fiorentino, Numer. Algorithms 23, 2000).  One is
    `|p(z_i)|` down at the a priori bound on Horner's rounding error (Bini,
    Numer. Algorithms 13, 1996), tried only once the iterate's last step was
    below _ABERTH_NEAR relative to 1 + |z_i|; the other is a step below
    _ABERTH_STEP_TOL on that scale.  The solve ends when no iterate is left.
    Reaching `max_iter` sweeps with some left emits a RuntimeWarning; the
    roots are still returned.  Raises ValueError on a non-finite coefficient,
    and EigensolverError when the iterates leave the finite numbers or two of
    them coincide exactly.
    """
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
        others = _others(k)
        # the iterates still moving, and whether each one's last step was near
        live, near = range(k), [False] * k
        for _ in range(max_iter):
            moving = []
            for i in live:
                zi = z[i]
                # the repulsion comes before any test, so that coincident
                # iterates raise instead of stopping together
                r = 0j
                for j in others[i]:
                    r += 1.0 / (zi - z[j])
                # Horner's rule, as np.polyval
                p, dp = c0, dc0
                for a, da in both:
                    p = p * zi + a
                    dp = dp * zi + da
                p = p * zi + c_last
                if near[i]:
                    azi = abs(zi)
                    s = 1.0
                    for a in abs_rest:
                        s = s * azi + a
                    if abs(p) <= floor * s:
                        continue
                newton = p / (dp if dp != 0 else 1e-300)
                denom = 1.0 - newton * r
                w = newton / (denom if denom != 0 else 1e-300)
                zi -= w
                z[i] = zi
                step, scale = abs(w), 1.0 + abs(zi)
                if step > _ABERTH_STEP_TOL * scale:
                    moving.append(i)
                    near[i] = step <= _ABERTH_NEAR * scale
            live = moving
            if not live:
                break
    except (ZeroDivisionError, OverflowError) as exc:
        raise EigensolverError("Aberth iteration diverged") from exc
    if not all(map(cmath.isfinite, z)):
        raise EigensolverError("Aberth iteration diverged")
    if live:
        # one text per degree and cap, so the warning registry stays bounded
        warnings.warn(
            f"Aberth iteration on a degree-{k} polynomial stopped at max_iter={max_iter} "
            "without converging; returning unconverged roots",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.array(z)


def _singular_values(mats: np.ndarray) -> np.ndarray:
    """Singular values of a (T, p, q) stack, largest first: a kernel for _lapack_stack."""
    return np.linalg.svd(mats, compute_uv=False)


def _rank_stack(mats: np.ndarray, tol: Tolerances, errors: dict, sv=None) -> np.ndarray:
    """Numerical ranks of a (T, p, q) stack: the singular values above
    rank_rel * sigma_max * max(p, q), so 0 for a zero matrix.

    The singular values come from one guarded stacked SVD unless given as sv.
    """
    if sv is None:
        sv = _lapack_stack(_singular_values, mats, errors, "SVD failed to converge")
    return np.count_nonzero(sv > tol.rank_rel * sv[..., :1] * max(mats.shape[-2:]), axis=-1)


def numerical_rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Singular values above rank_rel * sigma_max * max(shape), by the stacked
    rule; 0 for the zero matrix.  A failed SVD raises, naming the matrix."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if a.size == 0:
        return 0
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return int(_one(_rank_stack, a[None], tol)[0])


class SubspaceTest(NamedTuple):
    """Boolean verdict plus the relative residual that produced it."""

    ok: bool
    residual: float
