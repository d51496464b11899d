"""Dense complex linear algebra kernel.

Everything downstream of this module works on small (n <= 8) dense complex
matrices, so the routines here favor exactness and cross-checkability over
asymptotic speed.  Two independent eigenvalue routes are kept on purpose:
the LAPACK Hessenberg + shifted-QR route (`eigenvalues`) and the power-sum
route (`spectra.phi_n`, then `spectra.newton_to_charpoly`, then
`aberth_roots`), so that each can serve as an oracle for the other.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigensolverError",
    "Tolerances",
    "DEFAULT_TOL",
    "Spectrum",
    "SubspaceTest",
    "as_cmatrix",
    "cutoff",
    "sort_complex",
    "eigenvalues",
    "aberth_roots",
    "numerical_rank",
    "centralizer_basis",
]


class EigensolverError(ValueError):
    """An eigenvalue or SVD iteration failed to converge on a concrete matrix."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs shared across the package.

    eig_match   absolute radius for treating two eigenvalues as coincident
    rank_rel    relative singular-value cutoff for numerical ranks
    membership  residual cap for subspace and subalgebra membership

    All radii are absolute; callers working with large-norm matrices should
    rescale eig_match themselves.
    """

    eig_match: float = 1e-7
    rank_rel: float = 1e-10
    membership: float = 1e-8

    def __post_init__(self):
        # written as `not >= 0` so that NaN is rejected too
        if not (self.eig_match >= 0 and self.rank_rel >= 0 and self.membership >= 0):
            raise ValueError("tolerances must be nonnegative numbers")


DEFAULT_TOL = Tolerances()


def as_cmatrix(a) -> np.ndarray:
    """Validate and return a square, finite, complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("matrix entries must be finite")
    return m


def cutoff(a) -> np.ndarray:
    """Upper-left (n-1) x (n-1) corner of a square matrix, n >= 2."""
    m = as_cmatrix(a)
    if m.shape[0] < 2:
        raise ValueError("a 1 x 1 matrix has no cutoff")
    return m[:-1, :-1]


def sort_complex(values) -> np.ndarray:
    """Lexicographic (real, imag) ordering along the last axis; makes spectra
    reproducible.  The sort is stable, so equal values keep their order."""
    return np.sort(np.asarray(values, dtype=complex), axis=-1, kind="stable")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with algebraic multiplicity, sorted by (real, imag)."""

    values: tuple
    dim: int

    def __post_init__(self):
        if len(self.values) != self.dim:
            raise ValueError("spectrum length must equal the matrix dimension")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=complex)


def _lapack_stack(kernel, mats):
    """kernel applied to a (T, n, n) stack of matrices in one call.

    When LAPACK raises on the stack, each matrix is retried alone.  The ones
    that fail are listed and stand in as the identity in a second stacked
    call, so the output still has one entry per matrix and a failure costs
    only its own matrix.  Returns (output, failed positions).
    """
    try:
        return kernel(mats), []
    except np.linalg.LinAlgError:
        pass
    failed = []
    for t in range(len(mats)):
        try:
            kernel(mats[t : t + 1])
        except np.linalg.LinAlgError:
            failed.append(t)
    stand_in = mats.copy()
    stand_in[failed] = np.eye(mats.shape[-1])
    return kernel(stand_in), failed


def _eigvals_stack(mats: np.ndarray, tol: Tolerances):
    """Unsorted eigenvalues of every matrix in a (T, n, n) stack, by one LAPACK call.

    Each eigenvalue sum is checked against its matrix's trace as a cheap
    normalization guard; a violation means the QR iteration silently
    degraded.  Returns the (T, n) values and a dict from the position of
    each failed matrix to its EigensolverError.
    """
    vals, failed = _lapack_stack(np.linalg.eigvals, mats)
    # ufunc reductions, not ndarray methods: on the one-matrix path of
    # `eigenvalues` the method wrappers would cost as much as the check
    add = np.add.reduce
    drift = abs(add(vals - mats.diagonal(0, -2, -1), -1))
    parts = mats.view(float)
    bound = (1.0 + np.sqrt(add(parts * parts, (-2, -1)))) * (tol.rank_rel * mats.shape[-1])
    errors = {
        t: EigensolverError(
            f"eigenvalue iteration failed on\n{np.array2string(mats[t], precision=6)}"
        )
        for t in failed
    }
    for t in (drift > bound).nonzero()[0].tolist():
        errors[t] = EigensolverError(
            f"eigenvalue sum drifted from the trace by {drift[t]:.3e} on\n"
            f"{np.array2string(mats[t], precision=6)}"
        )
    return vals, errors


def eigenvalues(a, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """All eigenvalues with algebraic multiplicity, deterministically ordered.

    The one-matrix case of the stacked solve, with the same trace check.
    """
    m = as_cmatrix(a)
    vals, errors = _eigvals_stack(m[None], tol)
    if errors:
        raise errors[0]
    return Spectrum(tuple(sort_complex(vals[0])), m.shape[0])


def _shift_poly(coeffs: list, s: complex) -> list:
    """Coefficients of p(z + s), via repeated synthetic division."""
    work = list(coeffs)
    out = []
    for stop in range(len(work), 0, -1):
        for i in range(1, stop):
            work[i] += s * work[i - 1]
        out.append(work[stop - 1])
    return out[::-1]


def aberth_roots(coeffs, max_iter: int = 200, step_tol: float = 1e-14) -> np.ndarray:
    """All complex roots of a monic polynomial by the Aberth-Ehrlich iteration.

    Self-contained on purpose: fed by `spectra.newton_to_charpoly`, it gives a
    spectral route with no shared code with the QR eigensolver.  Multiple
    roots converge linearly and come back as a tight cluster, which is exactly
    what multiset matching downstream wants.  Reaching `max_iter` without
    passing the step test emits a RuntimeWarning; the roots are still
    returned.  Raises EigensolverError when the iterates leave the finite
    numbers or two of them coincide exactly.
    """
    c = np.asarray(coeffs, dtype=complex).ravel().tolist()
    if not c or c[0] == 0:
        raise ValueError("expected monic coefficients, highest degree first")
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
        mags = [abs(v) for v in _shift_poly(c, centroid)[1:]]
        if not any(mags):
            # p(z) = (z - centroid)^k exactly
            return np.full(k, centroid)
        radius = 2.0 * max(m ** (1.0 / d) for d, m in enumerate(mags, 1))
        # offset breaks symmetry
        z = [centroid + cmath.rect(radius, 2.0 * math.pi * i / k + 0.39) for i in range(k)]
        c0, c_rest = c[0], c[1:]
        dc = [v * (k - i) for i, v in enumerate(c[:-1])]
        dc0, dc_rest = dc[0], dc[1:]
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        converged, step = False, math.inf
        for _ in range(max_iter):
            # 1/(z_j - z_i) = -1/(z_i - z_j) exactly, so each pair divides once
            repulsion = [0j] * k
            for i, j in pairs:
                t = 1.0 / (z[i] - z[j])
                repulsion[i] += t
                repulsion[j] -= t
            w = []
            for zi, r in zip(z, repulsion):
                # Horner's rule, as np.polyval
                p = c0
                for a in c_rest:
                    p = p * zi + a
                dp = dc0
                for a in dc_rest:
                    dp = dp * zi + a
                newton = p / (dp if dp != 0 else 1e-300)
                denom = 1.0 - newton * r
                w.append(newton / (denom if denom != 0 else 1e-300))
            z = [zi - wi for zi, wi in zip(z, w)]
            step = max(map(abs, w))
            if step <= step_tol * (1.0 + max(map(abs, z))):
                converged = True
                break
    except (ZeroDivisionError, OverflowError) as exc:
        raise EigensolverError("Aberth iteration diverged") from exc
    if not all(map(cmath.isfinite, z)):
        raise EigensolverError("Aberth iteration diverged")
    if not converged:
        warnings.warn(
            f"Aberth iteration on a degree-{k} polynomial stopped at max_iter={max_iter} "
            f"with last step {step:.1e}; returning unconverged roots",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.array(z)


def numerical_rank(m, tol: Tolerances = DEFAULT_TOL) -> int:
    """Singular values above rank_rel * sigma_max * max(shape); 0 for the zero matrix."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if a.size == 0:
        return 0
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"SVD failed to converge on a {a.shape[0]} x {a.shape[1]} matrix"
        ) from exc
    if s[0] == 0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * s[0] * max(a.shape)))


def centralizer_basis(a, tol: Tolerances = DEFAULT_TOL) -> list:
    """Orthonormal basis of {z : az = za}.

    The commutation equations are the kernel of the operator z -> az - za,
    flattened (row-major) to an n^2 x n^2 map a (x) I - I (x) a^T.
    """
    m = as_cmatrix(a)
    n = m.shape[0]
    eye = np.eye(n, dtype=complex)
    op = np.kron(m, eye) - np.kron(eye, m.T)
    _, s, vh = np.linalg.svd(op)
    if s[0] == 0:
        kernel = np.eye(n * n, dtype=complex)
    else:
        rank = int(np.count_nonzero(s > tol.rank_rel * s[0] * n * n))
        kernel = vh[rank:].conj()
    return [row.reshape(n, n) for row in kernel]


class SubspaceTest(NamedTuple):
    """Boolean verdict plus the relative residual that produced it."""

    ok: bool
    residual: float
