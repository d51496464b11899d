"""Dense complex linear algebra kernel.

Everything downstream of this module works on small (n <= 8) dense complex
matrices, so the routines here favor exactness and cross-checkability over
asymptotic speed.  Two independent eigenvalue routes are kept on purpose:
the LAPACK Hessenberg + shifted-QR route (`eigenvalues`) and the
characteristic-polynomial route (`char_poly` followed by `aberth_roots`),
so that each can serve as an oracle for the other.
"""

from __future__ import annotations

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
    "char_poly",
    "aberth_roots",
    "eigenvalues_charpoly",
    "numerical_rank",
    "centralizer_basis",
    "is_invariant_subspace",
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
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def cutoff(a) -> np.ndarray:
    """Upper-left (n-1) x (n-1) corner of a square matrix, n >= 2."""
    m = as_cmatrix(a)
    if m.shape[0] < 2:
        raise ValueError("a 1 x 1 matrix has no cutoff")
    return m[:-1, :-1]


def sort_complex(values) -> np.ndarray:
    """Lexicographic (real, imag) ordering; makes spectra reproducible."""
    v = np.asarray(values, dtype=complex)
    return v[np.lexsort((v.imag, v.real))]


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


def eigenvalues(a, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """All eigenvalues with algebraic multiplicity, deterministically ordered.

    The eigenvalue sum is checked against the trace as a cheap normalization
    guard; a violation means the QR iteration silently degraded.
    """
    m = as_cmatrix(a)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigenvalue iteration failed on\n{np.array2string(m, precision=6)}"
        ) from exc
    drift = abs(vals.sum() - np.trace(m))
    if drift > tol.rank_rel * (1.0 + np.linalg.norm(m)) * m.shape[0]:
        raise EigensolverError(
            f"eigenvalue sum drifted from the trace by {drift:.3e} on\n"
            f"{np.array2string(m, precision=6)}"
        )
    return Spectrum(tuple(sort_complex(vals)), m.shape[0])


def char_poly(a) -> np.ndarray:
    """Monic coefficients of det(lambda I - a), highest degree first.

    Faddeev-LeVerrier recursion: exact in float64 for the small integer
    matrices of the catalog, stable enough at desk scale otherwise.
    """
    m = as_cmatrix(a)
    n = m.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    eye = np.eye(n, dtype=complex)
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(m @ mk) / k
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("characteristic polynomial coefficients overflowed")
    return coeffs


def _shift_poly(coeffs: np.ndarray, s: complex) -> np.ndarray:
    """Coefficients of p(z + s), via repeated synthetic division."""
    work = list(coeffs)
    out = []
    for stop in range(len(work), 0, -1):
        for i in range(1, stop):
            work[i] += s * work[i - 1]
        out.append(work[stop - 1])
        work = work[: stop - 1]  # keep quotient only
    return np.asarray(out[::-1], dtype=complex)


def aberth_roots(coeffs, max_iter: int = 200, step_tol: float = 1e-14) -> np.ndarray:
    """All complex roots of a monic polynomial by the Aberth-Ehrlich iteration.

    Self-contained on purpose: together with `char_poly` this gives a spectral
    route with no shared code with the QR eigensolver.  Multiple roots converge
    linearly and come back as a tight cluster, which is exactly what multiset
    matching downstream wants.
    """
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
    recentered = _shift_poly(c, centroid)
    mags = np.abs(recentered[1:])
    if not mags.any():
        # p(z) = (z - centroid)^k exactly
        return np.full(k, centroid)
    with np.errstate(divide="ignore"):
        radius = 2.0 * (mags ** (1.0 / np.arange(1, k + 1))).max()
    angles = 2.0 * np.pi * np.arange(k) / k + 0.39  # offset breaks symmetry
    z = centroid + radius * np.exp(1j * angles)

    # Hot loop: ndarray methods and in-place masked writes keep numpy's
    # Python-level wrappers (reductions, `where`, `fill_diagonal`) out of it.
    # Both `np.polyval` calls stay module lookups: bench/spans.py counts
    # iterations from them.
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


def eigenvalues_charpoly(a) -> Spectrum:
    """Spectral oracle independent of the QR route (intended for n <= 8)."""
    m = as_cmatrix(a)
    roots = aberth_roots(char_poly(m))
    return Spectrum(tuple(sort_complex(roots)), m.shape[0])


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


def is_invariant_subspace(a, basis, tol: Tolerances = DEFAULT_TOL) -> SubspaceTest:
    """Whether a maps the column span of `basis` into itself.

    True iff stacking the image columns does not raise the numerical rank.
    The residual is ||(I - proj) a B|| / ||a B||, zero when a B = 0.
    """
    m = as_cmatrix(a)
    b = np.asarray(basis, dtype=complex)
    if b.ndim == 1:
        b = b[:, None]
    k = b.shape[1]
    if numerical_rank(b, tol) != k:
        raise ValueError("subspace basis is rank deficient")
    image = m @ b
    ok = numerical_rank(np.hstack([b, image]), tol) == k
    q, _ = np.linalg.qr(b)
    defect = image - q @ (q.conj().T @ image)
    scale = np.linalg.norm(image)
    residual = 0.0 if scale == 0 else float(np.linalg.norm(defect) / scale)
    return SubspaceTest(ok, residual)
