"""Catalog of flags, permutation and Cayley matrices, and their stabilizers.

The catalog is indexed by pairs (i, j) with 1 <= i <= j <= n.  Index (i, i)
names one of the n closed block-diagonal-group orbits on the full flag
variety; index (i, j) with i < j names one of the C(n, 2) non-closed ones.
Every flag here carries a unimodular integer basis, so stabilizer bases are
exact integer matrices and the rank tests downstream are effectively exact.

Convention: the permutation matrix of a cycle c sends e_k to e_{c(k)}.  This
is validated against the explicit flag constructions (the image of the
standard flag under v_matrix must equal flag_F) and must not be changed
independently of them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "PartialFlag",
    "SubalgebraSpec",
    "standard_flag",
    "flag_F",
    "partial_flag_P",
    "cutoff_flag",
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
class PartialFlag:
    """Nested subspace chain: the first steps[k] basis columns span step k."""

    n: int
    steps: tuple
    basis: np.ndarray

    def __post_init__(self):
        steps = tuple(int(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "basis", as_cmatrix(self.basis))
        if self.basis.shape != (self.n, self.n):
            raise ValueError("flag basis must be n x n")
        if not steps or steps[-1] != self.n or any(
            b <= a for a, b in zip(steps, steps[1:])
        ) or steps[0] < 1:
            raise ValueError(f"steps {steps} must increase strictly to n={self.n}")
        if numerical_rank(self.basis) != self.n:
            raise ValueError("flag basis is singular")

    def subspace(self, k: int) -> np.ndarray:
        """Basis columns of the k-th step (0-based)."""
        return self.basis[:, : self.steps[k]]


@dataclass(frozen=True, eq=False)
class SubalgebraSpec:
    """A matrix Lie subalgebra presented by an explicit basis.

    Linear independence is validated on construction; closure under the
    bracket is a property of the catalog constructions and is exercised by
    the test suite rather than on every instantiation.
    """

    n: int
    basis: tuple
    tag: str = "custom"
    origin: OrbitIndex | None = None

    def __post_init__(self):
        mats = tuple(as_cmatrix(b) for b in self.basis)
        object.__setattr__(self, "basis", mats)
        if any(b.shape != (self.n, self.n) for b in mats):
            raise ValueError("basis matrices must all be n x n")
        if mats and numerical_rank(_stack(mats)) != len(mats):
            raise ValueError("subalgebra basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)


def _stack(mats) -> np.ndarray:
    return np.array([np.asarray(m, dtype=complex).reshape(-1) for m in mats])


def _basis_columns(cols, n: int) -> np.ndarray:
    """Matrix whose k-th column is the k-th entry of `cols` (1-based index lists)."""
    b = np.zeros((n, n))
    for c, ones in enumerate(cols):
        for r in ones:
            b[r - 1, c] = 1.0
    return b


def standard_flag(n: int) -> PartialFlag:
    """The full flag e_1 < e_2 < ... < e_n."""
    return PartialFlag(n, tuple(range(1, n + 1)), np.eye(n))


def flag_F(idx: OrbitIndex, n: int) -> PartialFlag:
    """The catalog full flag for orbit (i, j).

    For i = j the columns are (e_1, ..., e_{i-1}, e_n, e_i, ..., e_{n-1});
    for i < j the column at position i is e_i + e_n and the one at position j
    is e_i, with the remaining e's filling in order.
    """
    i, j = idx.i, idx.j
    if j > n:
        raise ValueError(f"orbit index {idx} out of range for n={n}")
    if i == j:
        cols = [[k] for k in range(1, i)] + [[n]] + [[k] for k in range(i, n)]
    else:
        cols = (
            [[k] for k in range(1, i)]
            + [[i, n]]
            + [[k] for k in range(i + 1, j)]
            + [[i]]
            + [[k] for k in range(j, n)]
        )
    return PartialFlag(n, tuple(range(1, n + 1)), _basis_columns(cols, n))


def partial_flag_P(idx: OrbitIndex, n: int) -> PartialFlag:
    """The catalog partial flag: e_1 < ... < e_{i-1} < {e_i..e_{j-1}, e_n} < e_j < ...

    Its stabilizer is the theta-stable parabolic attached to the orbit; for
    i = j it degenerates to the full flag of flag_F.
    """
    i, j = idx.i, idx.j
    if j > n:
        raise ValueError(f"orbit index {idx} out of range for n={n}")
    cols = (
        [[k] for k in range(1, i)]
        + [[k] for k in range(i, j)]
        + [[n]]
        + [[k] for k in range(j, n)]
    )
    steps = tuple(range(1, i)) + tuple(range(j, n + 1))
    return PartialFlag(n, steps, _basis_columns(cols, n))


def cutoff_flag(idx: OrbitIndex, n: int) -> PartialFlag:
    """partial_flag_P with the e_n column deleted, as a flag in C^(n-1)."""
    i, l = idx.i, idx.length
    if idx.j > n:
        raise ValueError(f"orbit index {idx} out of range for n={n}")
    steps = list(range(1, i))
    if l:
        steps.append(i - 1 + l)
    steps.extend(range(i + l, n))
    if not steps or steps[-1] != n - 1:
        steps.append(n - 1)
    # dedupe while preserving order (the block may end exactly at n-1)
    seen = []
    for s in steps:
        if not seen or s > seen[-1]:
            seen.append(s)
    return PartialFlag(n - 1, tuple(seen), np.eye(n - 1))


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
    """Integer matrix carrying the standard flag onto flag_F(idx).

    Built from the cycle (n, n-1, ..., i), and for i < j additionally the
    Cayley matrix at i and the cycle (i+1, ..., j).
    """
    i, j = idx.i, idx.j
    if j > n:
        raise ValueError(f"orbit index {idx} out of range for n={n}")
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


def stabilizer(
    flag: PartialFlag,
    tol: Tolerances = DEFAULT_TOL,
    tag: str = "parabolic",
    origin: OrbitIndex | None = None,
    strict: bool = False,
) -> SubalgebraSpec:
    """The subalgebra {x : x V_k <= V_k for every step}.

    In the flag's own basis the stabilizer is the block upper triangular
    pattern, so the basis returned is {B E_rs B^-1} over admissible (r, s).
    With strict=True only the strictly block upper pairs are kept: the
    nilradical {x : x V_k <= V_(k-1) for every step}.
    """
    n = flag.n
    binv = _inverse(flag.basis)
    block = np.empty(n, dtype=int)
    k = 0
    for pos in range(1, n + 1):
        if pos > flag.steps[k]:
            k += 1
        block[pos - 1] = k
    basis = [
        np.outer(flag.basis[:, r], binv[s, :])
        for r in range(n)
        for s in range(n)
        if block[r] < block[s] or (not strict and block[r] == block[s])
    ]
    return SubalgebraSpec(n=n, basis=tuple(basis), tag=tag, origin=origin)


def parabolic_p(idx: OrbitIndex, n: int) -> SubalgebraSpec:
    """Theta-stable parabolic for orbit (i, j): stabilizer of partial_flag_P."""
    return stabilizer(partial_flag_P(idx, n), tag="parabolic", origin=idx)


def borel_b(idx: OrbitIndex, n: int) -> SubalgebraSpec:
    """Borel subalgebra for orbit (i, j): stabilizer of the full flag flag_F."""
    return stabilizer(flag_F(idx, n), tag="borel", origin=idx)


def nilradical_n(i: int, n: int) -> SubalgebraSpec:
    """Nilradical of the closed-orbit Borel (i, i): strictly upper pattern in
    the flag_F(i, i) basis.  Its elements are nilpotent together with their
    cutoffs."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    idx = OrbitIndex(i, i)
    return stabilizer(flag_F(idx, n), tag="nilradical", origin=idx, strict=True)


def cutoff_parabolic(idx: OrbitIndex, n: int) -> SubalgebraSpec:
    """Parabolic of gl(n-1) predicted for the cutoff projection of parabolic_p.

    Its Levi blocks are n-1-(j-i) singletons and one block of size j-i, which
    is the shape the projection of the catalog parabolic must reproduce.
    """
    return stabilizer(cutoff_flag(idx, n), tag="parabolic", origin=idx)


def fixed_point_subalgebra(n: int) -> SubalgebraSpec:
    """Block-diagonal gl(n-1) + gl(1): the fixed points of the involution."""
    if n < 2:
        raise ValueError("need n >= 2")
    basis = []
    for r in range(n - 1):
        for s in range(n - 1):
            e = np.zeros((n, n))
            e[r, s] = 1.0
            basis.append(e)
    corner = np.zeros((n, n))
    corner[n - 1, n - 1] = 1.0
    basis.append(corner)
    return SubalgebraSpec(n=n, basis=tuple(basis), tag="fixed-point")


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


def contains(s: SubalgebraSpec, x, tol: Tolerances = DEFAULT_TOL) -> SubspaceTest:
    """Membership of x in the span of the basis, by least squares.

    The reported residual is relative: ||x - proj x|| / (1 + ||x||).
    """
    m = as_cmatrix(x)
    if m.shape != (s.n, s.n):
        raise ValueError("dimension mismatch")
    a = _stack(s.basis).T
    v = m.reshape(-1)
    coef, *_ = np.linalg.lstsq(a, v, rcond=None)
    residual = float(np.linalg.norm(a @ coef - v) / (1.0 + np.linalg.norm(v)))
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
    a = _stack(basis_a)
    b = _stack(basis_b)
    ra = numerical_rank(a, tol)
    rb = numerical_rank(b, tol)
    return ra == rb == numerical_rank(np.vstack([a, b]), tol)


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
