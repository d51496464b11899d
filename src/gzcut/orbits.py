"""Sampling from the block-diagonal subgroup and from catalog subalgebras,
adjoint action, Monte Carlo containment checks, and tangent-space ranks.

All randomness flows through SeededRng handles: a handle is fully determined
by (seed, stream), and trial t of a loop draws only from rng.derive(t), the
handle on stream + t, so a loop's draws depend only on its starting handle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flags import OrbitIndex, SubalgebraSpec, fixed_point_subalgebra, parabolic_p, contains
from .linalg import DEFAULT_TOL, EigensolverError, Tolerances, as_cmatrix, numerical_rank
from .spectra import coincidence_count

__all__ = [
    "SeededRng",
    "KElement",
    "ContainmentReport",
    "sample_K",
    "sample_in",
    "ad",
    "verify_containment",
    "tangent_dim",
    "estimate_dim",
]

_MIN_BLOCK_SV = 1e-3
_RESAMPLE_LIMIT = 100


@dataclass(eq=False)
class SeededRng:
    """Reproducible RNG handle: (seed, stream) fully determines the draws."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def derive(self, offset: int) -> "SeededRng":
        """Fresh handle on stream + offset; used to give each trial its own."""
        return SeededRng(self.seed, self.stream + offset)

    def complex_normal(self, shape=None) -> np.ndarray:
        g = self._gen
        return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)

    def uniform(self, low=0.0, high=1.0):
        return self._gen.uniform(low, high)


@dataclass(frozen=True, eq=False)
class KElement:
    """Block-diagonal group element: invertible (n-1) block plus a scalar."""

    block: np.ndarray
    scalar: complex
    n: int

    def __post_init__(self):
        b = np.asarray(self.block, dtype=complex)
        object.__setattr__(self, "block", b)
        object.__setattr__(self, "scalar", complex(self.scalar))
        if b.shape != (self.n - 1, self.n - 1):
            raise ValueError("block must be (n-1) x (n-1)")
        if self.scalar == 0 or not np.all(np.isfinite(b)):
            raise ValueError("element must be invertible and finite")

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=complex)
        m[:-1, :-1] = self.block
        m[-1, -1] = self.scalar
        return m

    def __matmul__(self, other: "KElement") -> "KElement":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return KElement(self.block @ other.block, self.scalar * other.scalar, self.n)


def sample_K(rng: SeededRng, n: int) -> KElement:
    """Random block-diagonal element: Gaussian block with a smallest-singular-
    value floor (for conditioning), scalar on an annulus around the circle."""
    if n < 2:
        raise ValueError("need n >= 2")
    for _ in range(_RESAMPLE_LIMIT):
        block = rng.complex_normal((n - 1, n - 1))
        if np.linalg.svd(block, compute_uv=False)[-1] > _MIN_BLOCK_SV:
            scalar = np.exp(2j * np.pi * rng.uniform()) * (1.0 + rng.uniform())
            return KElement(block, complex(scalar), n)
    raise EigensolverError("conditioning resample limit exceeded")


def sample_in(s: SubalgebraSpec, rng: SeededRng) -> np.ndarray:
    """Gaussian linear combination of the basis elements."""
    if not s.basis:
        raise ValueError("subalgebra basis is empty")
    coeffs = rng.complex_normal(s.dim)
    return np.tensordot(coeffs, np.array(s.basis), axes=1)


def ad(k: KElement, x) -> np.ndarray:
    """Conjugation k x k^-1; preserves the cutoff and full spectra."""
    m = as_cmatrix(x)
    if m.shape[0] != k.n:
        raise ValueError("dimension mismatch")
    km = k.as_matrix()
    return km @ m @ np.linalg.inv(km)


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of Monte Carlo containment trials for one orbit index.

    violations counts trials whose coincidence count fell below n-1-(j-i);
    failures counts eigensolver breakdowns, which are not violations.
    worst_residual is the largest matched-pair residual seen.
    """

    idx: OrbitIndex
    trials: int
    violations: int
    failures: int
    min_observed_l: int | None
    worst_residual: float


def containment_trial(p: SubalgebraSpec, n: int, rng: SeededRng, tol: Tolerances):
    """One trial: conjugate a random element of p by a random group element
    and count coincidences.  Returns (l, worst pair residual) or raises."""
    k = sample_K(rng, n)
    x = sample_in(p, rng)
    rep = coincidence_count(ad(k, x), tol)
    return rep.l, max(rep.residuals, default=0.0)


def verify_containment(
    idx: OrbitIndex,
    n: int,
    trials: int,
    rng: SeededRng,
    tol: Tolerances = DEFAULT_TOL,
) -> ContainmentReport:
    """Monte Carlo check that conjugating the catalog parabolic never drops
    the coincidence count below n - 1 - (j - i).

    The containment is an exact algebraic statement, so any violation beyond
    eigensolver noise is a bug; numerical failures are tallied separately.
    """
    p = parabolic_p(idx, n)
    bound = n - 1 - idx.length
    violations = failures = 0
    min_l: int | None = None
    worst = 0.0
    for t in range(trials):
        try:
            l, res = containment_trial(p, n, rng.derive(t), tol)
        except EigensolverError:
            failures += 1
            continue
        min_l = l if min_l is None else min(min_l, l)
        worst = max(worst, res)
        if l < bound:
            violations += 1
    return ContainmentReport(idx, trials, violations, failures, min_l, worst)


def tangent_dim(s: SubalgebraSpec, x, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of {[z, x] : z in the block-diagonal subalgebra} together with s.

    This is the tangent space at x to the conjugation saturation of s; at a
    generic x its rank is the saturation's dimension.  Rows are normalized so
    large-norm points do not skew the singular-value cutoff.
    """
    m = as_cmatrix(x)
    membership = contains(s, m, tol)
    if not membership.ok:
        raise ValueError(
            f"point is not in the subalgebra (residual {membership.residual:.3e})"
        )
    k_basis = fixed_point_subalgebra(s.n).basis
    rows = [(z @ m - m @ z).reshape(-1) for z in k_basis]
    rows += [b.reshape(-1) for b in s.basis]
    stacked = np.array(rows)
    norms = np.linalg.norm(stacked, axis=1)
    norms[norms == 0] = 1.0
    return numerical_rank(stacked / norms[:, None], tol)


def estimate_dim(
    s: SubalgebraSpec, repeats: int, rng: SeededRng, tol: Tolerances = DEFAULT_TOL
) -> int:
    """Generic rank of the saturation: max tangent rank over Gaussian samples.

    Rank is lower semicontinuous, so the generic value is the max, attained
    with probability one; degenerate samples only ever undershoot.
    """
    best = 0
    for t in range(repeats):
        x = sample_in(s, rng.derive(t))
        best = max(best, tangent_dim(s, x, tol))
    return best
