"""Sampling from the block-diagonal subgroup and from catalog subalgebras,
adjoint action, Monte Carlo containment checks, and tangent-space ranks.

All randomness flows through SeededRng handles, frozen (seed, stream) pairs.
A loop draws on one handle: each stage of each redraw round is one block from
SeedSequence(seed, spawn_key=(stream, stage, round)), and trial t takes row
t, so its values do not depend on the loop's trial count.  A rejected draw is
redone on the same row of the next round's block.

The linear algebra of all a loop's trials is done by one call per kernel on
a (T, n, n) stack; the containment loops of a report, one per catalog index
and handle, run as one stack, with only the sample_in contraction per index.
Every stage takes and returns arrays with one entry per trial: a failed
trial keeps its slot, with stand-in values, and each stage and kernel
records its first exception in the loop's errors dict by setdefault, keyed
by trial number; results skip the failed trials only at the end.  The
one-trial functions (sample_K, sample_in, containment_trial, tangent_dim)
are the engine on trial 0 of a loop on the same handle, or on one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flags import OrbitIndex, SubalgebraSpec, fixed_point_subalgebra, parabolic_p, contains
from .linalg import (
    DEFAULT_TOL,
    EigensolverError,
    Tolerances,
    _lapack_stack,
    _rank_stack,
    as_cmatrix,
)
from .spectra import _coincidence_stack

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

# the stages of a loop's randomness, the middle key of each block's stream
_K_BLOCK, _K_SCALAR, _COEFFS, _XI_NORMALS, _XI_UNIFORMS = range(5)


@dataclass(frozen=True)
class SeededRng:
    """Reproducible RNG handle with no generator state: a draw names a stage,
    a round and rows of that block, and two draws of one stage and round are
    equal."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            # an exact type check, as the CLI's: bool is a subclass of int
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            _check_arg(name, value, 0)

    def derive(self, offset: int) -> "SeededRng":
        """The handle on stream + offset; gives each loop of a report its own."""
        return SeededRng(self.seed, self.stream + offset)

    def _rows(self, draw, stage: int, rnd: int, rows, shape: tuple) -> np.ndarray:
        """The given rows (trial numbers) of the stage's round-rnd block, drawn
        by the Generator method draw, each row of the given shape."""
        rows = np.asarray(rows, dtype=np.intp)
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream, stage, rnd))
        gen = np.random.Generator(np.random.PCG64(seq))
        return draw(gen, (rows.max(initial=-1) + 1, *shape))[rows]

    def complex_normal(self, stage: int, rnd: int, rows, shape: tuple = ()) -> np.ndarray:
        """Standard complex normals, as rows of a block.  A value's real and
        imaginary parts are adjacent draws, so a row does not depend on how
        many rows are drawn."""
        pairs = self._rows(np.random.Generator.standard_normal, stage, rnd, rows, (*shape, 2))
        return pairs.view(complex)[..., 0] / np.sqrt(2.0)

    def uniform(self, stage: int, rnd: int, rows, shape: tuple = ()) -> np.ndarray:
        """Uniforms on [0, 1), as rows of a block."""
        return self._rows(np.random.Generator.random, stage, rnd, rows, shape)


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
        return _block_diagonal(self.block[None], self.scalar)[0]


def _check_arg(name: str, value: int, low: int, high: int | None = None) -> None:
    """Raise a ValueError naming an argument below low or above high."""
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _block_diagonal(blocks: np.ndarray, scalars) -> np.ndarray:
    """Group elements as (T, n, n) matrices from (T, n-1, n-1) blocks and scalars."""
    t, k, _ = blocks.shape
    m = np.zeros((t, k + 1, k + 1), dtype=complex)
    m[:, :-1, :-1] = blocks
    m[:, -1, -1] = scalars
    return m


def _sample_K_stack(rngs: list, trials: int, n: int, errors: dict):
    """sample_K on every trial of the loops on rngs, trials each, loop after
    loop: (blocks, scalars).  A block B clears the conditioning floor exactly
    when B^H B - floor^2 I is positive definite, so each round checks its
    blocks by one stacked Cholesky factorization; a trial whose block misses
    the floor, unless it has failed already, draws again in the next round,
    up to _RESAMPLE_LIMIT rounds."""
    k = n - 1
    blocks = np.empty((len(rngs) * trials, k, k), dtype=complex)
    pending = np.arange(len(blocks))
    for rnd in range(_RESAMPLE_LIMIT):
        if not pending.size:
            break
        loop, row = np.divmod(pending, trials)
        # not np.unique, which imports numpy.ma on its first call (numpy 2.4)
        live = sorted(set(loop.tolist()))
        drawn = np.concatenate(
            [rngs[j].complex_normal(_K_BLOCK, rnd, row[loop == j], (k, k)) for j in live]
        )
        blocks[pending] = drawn
        gram = drawn.conj().transpose(0, 2, 1) @ drawn
        # on the diagonal only: an infinite floor then fails every block
        # without a 0 * inf NaN off the diagonal
        gram[:, range(k), range(k)] -= _MIN_BLOCK_SV**2
        below = {}
        _lapack_stack(np.linalg.cholesky, gram, below, "block under the conditioning floor")
        missed = pending[list(below)].tolist()
        pending = np.array([t for t in missed if t not in errors], dtype=int)
    for t in pending.tolist():
        errors[t] = EigensolverError("conditioning resample limit exceeded")
    u = np.concatenate([rng.uniform(_K_SCALAR, 0, range(trials), (2,)) for rng in rngs])
    return blocks, np.exp(2j * np.pi * u[:, 0]) * (1.0 + u[:, 1])


def _conjugate(kms: np.ndarray, xs: np.ndarray, errors: dict) -> np.ndarray:
    """ad over stacks: kms @ xs @ kms^-1 for every trial; a singular kms
    stands in as the identity."""
    inverses = _lapack_stack(np.linalg.inv, kms, errors, "conjugating element is singular")
    return kms @ xs @ inverses


def sample_K(rng: SeededRng, n: int) -> KElement:
    """Random block-diagonal element: Gaussian block whose smallest singular
    value clears a floor (for conditioning), tested as the positive
    definiteness of B^H B - floor^2 I, and a scalar on an annulus around the
    circle."""
    if n < 2:
        raise ValueError("need n >= 2")
    errors = {}
    blocks, scalars = _sample_K_stack([rng], 1, n, errors)
    if errors:
        raise errors[0]
    return KElement(blocks[0], complex(scalars[0]), n)


def _sample_in_stack(s: SubalgebraSpec, rng: SeededRng, trials: int) -> np.ndarray:
    """sample_in on every trial of the loop on rng.  With a permutation frame
    (every catalog parabolic and nilradical) each entry is one coefficient or
    zero, so the contraction of the stack has the same bits as one sample at
    a time."""
    if not s.basis:
        raise ValueError("subalgebra basis is empty")
    coeffs = rng.complex_normal(_COEFFS, 0, range(trials), (s.dim,))
    return np.tensordot(coeffs, np.array(s.basis), axes=1)


def _conjugated_samples(specs: list, n: int, rngs: list, trials: int, errors: dict) -> np.ndarray:
    """ad(sample_K, sample_in(specs[k])) on every trial of the loop on rngs[k],
    trials each, loop after loop: each loop's sample_in is one contraction,
    and sample_K and ad one stack over all the loops."""
    blocks, scalars = _sample_K_stack(rngs, trials, n, errors)
    xs = np.concatenate([_sample_in_stack(s, rng, trials) for s, rng in zip(specs, rngs)])
    return _conjugate(_block_diagonal(blocks, scalars), xs, errors)


def sample_in(s: SubalgebraSpec, rng: SeededRng) -> np.ndarray:
    """Gaussian linear combination of the basis elements."""
    return _sample_in_stack(s, rng, 1)[0]


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


def _containment_stack(specs: list, n: int, rngs: list, trials: int, tol: Tolerances, errors: dict):
    """containment_trial on every trial of the loop on rngs[k] in specs[k],
    trials each, loop after loop: (l, worst pair residual) of every trial."""
    ys = _conjugated_samples(specs, n, rngs, trials, errors)
    matched, cost = _coincidence_stack(ys, tol, errors)
    return matched.sum(axis=(1, 2)), np.where(matched, cost, 0.0).max(axis=(1, 2))


def containment_trial(p: SubalgebraSpec, n: int, rng: SeededRng, tol: Tolerances):
    """One trial: conjugate a random element of p by a random group element
    and count coincidences.  Returns (l, worst pair residual) or raises."""
    errors = {}
    l, worst = _containment_stack([p], n, [rng], 1, tol, errors)
    if errors:
        raise errors[0]
    return int(l[0]), float(worst[0])


def _containment_loops(idxs: list, n: int, trials: int, rngs: list, tol: Tolerances) -> list:
    """verify_containment for every idxs[k] on its loop handle rngs[k], as one
    stack: the trials of all the loops share each sample_K round, ad and
    eigenvalue call."""
    _check_arg("n", n, 2)
    _check_arg("trials", trials, 0)
    errors = {}
    specs = [parabolic_p(idx, n) for idx in idxs]
    l, worst = _containment_stack(specs, n, rngs, trials, tol, errors)
    reports = []
    for k, idx in enumerate(idxs):
        done = [t for t in range(k * trials, (k + 1) * trials) if t not in errors]
        lk = l[done]
        low = int((lk < n - 1 - idx.length).sum())
        least = int(lk.min()) if lk.size else None
        top = float(worst[done].max(initial=0.0))
        reports.append(ContainmentReport(idx, trials, low, trials - len(done), least, top))
    return reports


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
    return _containment_loops([idx], n, trials, [rng], tol)[0]


def _tangent_ranks(s: SubalgebraSpec, xs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """tangent_dim, without the membership check, at every point of a (T, n, n) stack."""
    t, n, _ = xs.shape
    zs = np.array(fixed_point_subalgebra(n).basis)
    rows = np.empty((t, len(zs) + s.dim, n * n), dtype=complex)
    rows[:, : len(zs)] = (zs @ xs[:, None] - xs[:, None] @ zs).reshape(t, len(zs), n * n)
    rows[:, len(zs) :] = np.reshape(s.basis, (-1, n * n))
    norms = np.linalg.norm(rows, axis=-1)
    norms[norms == 0] = 1.0
    return _rank_stack(rows / norms[..., None], tol)


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
    return int(_tangent_ranks(s, m[None], tol)[0])


def estimate_dim(
    s: SubalgebraSpec, repeats: int, rng: SeededRng, tol: Tolerances = DEFAULT_TOL
) -> int:
    """Generic rank of the saturation: max tangent rank over Gaussian samples,
    sample t being trial t of the loop on rng.

    Rank is lower semicontinuous, so the generic value is the max, attained
    with probability one; degenerate samples only ever undershoot.
    """
    _check_arg("repeats", repeats, 0)
    xs = _sample_in_stack(s, rng, repeats)
    return int(_tangent_ranks(s, xs, tol).max(initial=0))
