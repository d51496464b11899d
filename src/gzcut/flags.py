"""The catalog of flag stabilizers, permutation and Cayley matrices.

The catalog is indexed by pairs (i, j) with 1 <= i <= j <= n.  Index (i, i)
names one of the n closed block-diagonal-group orbits on the full flag
variety; index (i, j) with i < j names one of the C(n, 2) non-closed ones.

A flag is held as its stabilizer: a SubalgebraSpec whose frame's first
steps[k] columns span the k-th step, with the block upper triangular mask
over the steps.  Every catalog frame is a permutation or unimodular integer
matrix, so the bases B E_rs B^-1 are exact integer matrices and the rank
tests downstream are effectively exact.  Each catalog constructor builds its
spec once per argument and returns that one read-only spec on every call.

Convention: the permutation matrix of a cycle c sends e_k to e_{c(k)}.  This
is validated against the explicit frames (the column prefixes of
v_matrix(idx, n) must span those of borel_b(idx, n).frame) and must not be
changed independently of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    SubspaceTest,
    Tolerances,
    as_cmatrix,
    numerical_rank,
)

__all__ = [
    "OrbitIndex",
    "all_orbit_indices",
    "SubalgebraSpec",
    "cayley",
    "v_matrix",
    "stabilizer",
    "parabolic_p",
    "borel_b",
    "nilradical_n",
    "cutoff_parabolic",
    "fixed_point_subalgebra",
    "theta",
    "is_theta_stable",
    "contains",
    "column_span_equal",
    "span_equal",
    "span_contains",
    "project_cutoff",
]


@dataclass(frozen=True, order=True)
class OrbitIndex:
    """Orbit label (i, j), 1 <= i <= j; the orbit length is j - i."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i <= self.j:
            raise ValueError(f"invalid orbit index ({self.i}, {self.j})")

    @property
    def length(self) -> int:
        return self.j - self.i


def all_orbit_indices(n: int) -> list:
    """All n + C(n, 2) orbit indices for dimension n, sorted."""
    if n < 1:
        raise ValueError("n must be positive")
    return [OrbitIndex(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


@dataclass(frozen=True, eq=False)
class SubalgebraSpec:
    """The subalgebra {B y B^-1 : y supported on mask} of gl(n).

    frame is the invertible matrix B and mask a boolean n x n pattern, both
    kept read-only with the inverse of B.  The basis {B E_rs B^-1 : mask[r, s]},
    row-major over the mask, is built on first use and read-only too, so a
    spec can be shared.  Closure under the bracket holds for the catalog's
    masks and is tested, not checked here.
    """

    frame: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        frame = as_cmatrix(self.frame).copy()
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != frame.shape:
            raise ValueError(f"mask shape {mask.shape} does not match frame {frame.shape}")
        inverse = _checked_inverse(frame, "frame")
        for name, arr in (("frame", frame), ("mask", mask), ("inverse", inverse)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return int(self.mask.sum())

    @cached_property
    def basis(self) -> tuple:
        rows, cols = np.nonzero(self.mask)
        basis = tuple(np.outer(self.frame[:, r], self.inverse[s, :]) for r, s in zip(rows, cols))
        for b in basis:
            b.flags.writeable = False
        return basis


def _stack(mats) -> np.ndarray:
    return np.array([np.asarray(m, dtype=complex).reshape(-1) for m in mats])


def _in_range(idx: OrbitIndex, n: int) -> tuple:
    if idx.j > n:
        raise ValueError(f"orbit index {idx} out of range for n={n}")
    return idx.i, idx.j


def _borel_frame(idx: OrbitIndex, n: int) -> np.ndarray:
    """Frame of the catalog full flag for orbit (i, j).

    For i = j the columns are (e_1, ..., e_{i-1}, e_n, e_i, ..., e_{n-1});
    for i < j the column at position i is e_i + e_n and the one at position j
    is e_i, with the remaining e's filling in order.
    """
    i, j = _in_range(idx, n)
    frame = np.eye(n)[:, [*range(j - 1), n - 1 if i == j else i - 1, *range(j - 1, n - 1)]]
    if i < j:
        frame[n - 1, i - 1] = 1.0
    return frame


def cayley(i: int, n: int) -> np.ndarray:
    """Rotation-like integer matrix mixing e_i and e_{i+1}; determinant 2."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"Cayley index {i} out of range for n={n}")
    u = np.eye(n)
    u[i - 1, i - 1] = 1.0
    u[i, i - 1] = 1.0
    u[i - 1, i] = -1.0
    u[i, i] = 1.0
    return u


def _cycle_matrix(cycle, n: int) -> np.ndarray:
    """Permutation matrix of the cycle (c_1 c_2 ... c_k): e_{c_t} -> e_{c_{t+1}}."""
    perm = list(range(n + 1))  # 1-based
    for a, b in zip(cycle, list(cycle[1:]) + list(cycle[:1])):
        perm[a] = b
    m = np.zeros((n, n))
    for k in range(1, n + 1):
        m[perm[k] - 1, k - 1] = 1.0
    return m


def v_matrix(idx: OrbitIndex, n: int) -> np.ndarray:
    """Integer matrix carrying the standard flag onto the flag of borel_b(idx, n).

    Built from the cycle (n, n-1, ..., i), and for i < j additionally the
    Cayley matrix at i and the cycle (i+1, ..., j).
    """
    i, j = _in_range(idx, n)
    w = _cycle_matrix(list(range(n, i - 1, -1)), n)
    if i == j:
        return w
    sigma = _cycle_matrix(list(range(i + 1, j + 1)), n)
    return w @ cayley(i, n) @ sigma


def _inverse(b: np.ndarray) -> np.ndarray:
    """Inverse, snapped to exact integers for unimodular integer inputs."""
    inv = np.linalg.inv(b)
    snapped = np.round(inv.real) + 1j * np.round(inv.imag)
    if np.abs(b @ snapped - np.eye(b.shape[0])).max() == 0.0:
        return snapped
    return inv


def _checked_inverse(b: np.ndarray, what: str) -> np.ndarray:
    """The inverse of b; ValueError when b is singular, exactly or numerically.

    The numerical test applies numerical_rank's relative cutoff to the
    1-norm condition number, so the catalog's permutation and unimodular
    integer bases need no SVD.
    """
    try:
        inverse = _inverse(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} is singular") from exc
    cond = np.linalg.norm(b, 1) * np.linalg.norm(inverse, 1)
    if cond * DEFAULT_TOL.rank_rel >= 1.0:
        raise ValueError(f"{what} is singular (condition number {cond:.3e})")
    return inverse


def stabilizer(frame, steps, strict: bool = False) -> SubalgebraSpec:
    """The stabilizer {x : x V_k <= V_k for every step} of a flag.

    V_k is spanned by the first steps[k] columns of the invertible frame;
    the steps must increase strictly to n.  In the frame's own basis the
    stabilizer is the block upper triangular pattern over the steps, so it
    is the frame with that pattern as mask.  With strict=True only the
    strictly block upper pairs are kept: the nilradical
    {x : x V_k <= V_(k-1) for every step}.
    """
    n = len(frame)
    steps = tuple(int(s) for s in steps)
    rising = all(a < b for a, b in zip(steps, steps[1:]))
    if not steps or steps[0] < 1 or steps[-1] != n or not rising:
        raise ValueError(f"steps {steps} must increase strictly to n={n}")
    block = np.searchsorted(steps, np.arange(1, n + 1))
    mask = block[:, None] < block if strict else block[:, None] <= block
    return SubalgebraSpec(frame, mask)


def _levi_blocks(mask) -> list:
    """Sizes of the diagonal blocks of a block upper triangular mask, in
    order: a block ends where the mask's subdiagonal is off."""
    ends = np.flatnonzero(np.append(~np.diagonal(mask, -1), True)) + 1
    return np.diff(ends, prepend=0).tolist()


@cache
def parabolic_p(idx: OrbitIndex, n: int) -> SubalgebraSpec:
    """Theta-stable parabolic for orbit (i, j): the stabilizer of the partial
    flag e_1 < ... < e_{i-1} < {e_i..e_{j-1}, e_n} < e_j < ... < e_{n-1}.

    For i = j the flag is full and the parabolic is borel_b(idx, n).
    """
    i, j = _in_range(idx, n)
    frame = np.eye(n)[:, [*range(j - 1), n - 1, *range(j - 1, n - 1)]]
    return stabilizer(frame, (*range(1, i), *range(j, n + 1)))


@cache
def borel_b(idx: OrbitIndex, n: int) -> SubalgebraSpec:
    """Borel subalgebra for orbit (i, j): the stabilizer of the catalog full
    flag, whose k-th step is spanned by the first k columns of its frame."""
    return stabilizer(_borel_frame(idx, n), range(1, n + 1))


@cache
def nilradical_n(i: int, n: int) -> SubalgebraSpec:
    """Nilradical of the closed-orbit Borel (i, i): strictly upper pattern in
    the frame of borel_b((i, i), n).  Its elements are nilpotent together
    with their cutoffs."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    return stabilizer(_borel_frame(OrbitIndex(i, i), n), range(1, n + 1), strict=True)


@cache
def cutoff_parabolic(idx: OrbitIndex, n: int) -> SubalgebraSpec:
    """Parabolic of gl(n-1) predicted for the cutoff projection of parabolic_p.

    It stabilizes parabolic_p's flag with e_n deleted, as a flag in C^(n-1):
    its Levi blocks are n-1-(j-i) singletons and one block of size j-i,
    which is the shape the projection of the catalog parabolic must
    reproduce.
    """
    i, j = _in_range(idx, n)
    # step dimensions: 1..i-1, then j-1 when the block e_i..e_{j-1} is not
    # empty, then j..n-1; strictly increasing and ending at n-1 for n >= 2
    steps = (*range(1, i), *((j - 1,) if j > i else ()), *range(j, n))
    return stabilizer(np.eye(n - 1), steps)


@cache
def fixed_point_subalgebra(n: int) -> SubalgebraSpec:
    """Block-diagonal gl(n-1) + gl(1): the fixed points of the involution."""
    if n < 2:
        raise ValueError("need n >= 2")
    mask = np.zeros((n, n), dtype=bool)
    mask[:-1, :-1] = mask[-1, -1] = True
    return SubalgebraSpec(np.eye(n), mask)


def theta(x) -> np.ndarray:
    """Involution d x d^-1 with d = diag(1, ..., 1, -1): flips the signs of the
    last row and column off the diagonal."""
    m = as_cmatrix(x).copy()
    m[-1, :-1] *= -1.0
    m[:-1, -1] *= -1.0
    return m


def is_theta_stable(s: SubalgebraSpec, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the involution maps the span of the basis into itself."""
    stacked = _stack(s.basis)
    mapped = _stack([theta(b) for b in s.basis])
    return numerical_rank(np.vstack([stacked, mapped]), tol) == s.dim


def _residual_stack(specs: list, xs: np.ndarray) -> np.ndarray:
    """contains' residual of each xs[t] in specs[t], over a (T, n, n) stack;
    each norm is summed as np.linalg.norm sums one matrix, by dot products."""
    t, n, _ = xs.shape
    frames = np.array([s.frame for s in specs]).reshape(xs.shape)
    inverses = np.array([s.inverse for s in specs]).reshape(xs.shape)
    masks = np.array([s.mask for s in specs], dtype=bool).reshape(xs.shape)
    # both norms are taken of x / 2^e, 2^e a power of two near max|x| (capped,
    # as |x| overflows past 2^1024), so they cannot overflow; the scaling is
    # exact: the residual's bits are the unscaled formula's wherever it is finite
    e = np.frexp(np.minimum(np.abs(xs).max(axis=(1, 2)), 2.0**1023))[1]
    unit = np.ldexp(1.0, -np.maximum(e, 0))
    ms = xs * unit[:, None, None]
    off = inverses @ ms @ frames
    off[masks] = 0.0
    v = np.stack([frames @ off @ inverses, ms]).reshape(2, t, 1, n * n)
    norms = np.sqrt(v.real @ v.real.swapaxes(2, 3) + v.imag @ v.imag.swapaxes(2, 3))[..., 0, 0]
    return norms[0] / (unit + norms[1])


def contains(s: SubalgebraSpec, x, tol: Tolerances = DEFAULT_TOL) -> SubspaceTest:
    """Membership of x in s, read off by masking B^-1 x B.

    The entries of B^-1 x B off the mask, carried back by B, are the part of
    x outside s along the off-mask directions B E_rs B^-1.  The reported
    residual is relative: ||B (off-mask part) B^-1|| / (1 + ||x||).  For a
    permutation frame this is the orthogonal distance to s; for any other
    frame it is an oblique distance, which is never smaller.
    """
    m = as_cmatrix(x)
    if m.shape != (s.n, s.n):
        raise ValueError("dimension mismatch")
    residual = float(_residual_stack([s], m[None])[0])
    return SubspaceTest(residual <= tol.membership, residual)


def column_span_equal(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether two matrices have the same column space."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra = numerical_rank(a, tol)
    rb = numerical_rank(b, tol)
    return ra == rb == numerical_rank(np.hstack([a, b]), tol)


def span_equal(basis_a, basis_b, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether two lists of matrices span the same subspace of gl(n)."""
    return column_span_equal(_stack(basis_a).T, _stack(basis_b).T, tol)


def span_contains(basis_big, basis_small, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether span(basis_small) is contained in span(basis_big)."""
    big = _stack(basis_big)
    return numerical_rank(big, tol) == numerical_rank(
        np.vstack([big, _stack(basis_small)]), tol
    )


def project_cutoff(s: SubalgebraSpec) -> list:
    """Entrywise top-left (n-1) x (n-1) projections of the basis (may be
    linearly dependent; callers compare spans)."""
    return [np.asarray(b)[:-1, :-1] for b in s.basis]
