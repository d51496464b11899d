"""Sampling from the block-diagonal subgroup and from catalog subalgebras,
adjoint action, Monte Carlo containment checks, and tangent-space ranks.

All randomness flows through SeededRng handles: a handle is fully determined
by (seed, stream), and trial t of a loop draws only from rng.derive(t), the
handle on stream + t, so a loop's draws depend only on its starting handle.

The trial loops are stacked: every trial still draws from its own handle, in
the order a lone trial would, but the linear algebra of all the loop's trials
is done by one call per kernel on a (T, n, n) stack.  The containment loops
of a report, one per catalog index, run as one stack of all their trials
with the stream layout unchanged; only the sample_in contraction stays per
index.  Every stage takes and returns arrays with one entry per trial: a
failed trial keeps its slot, with stand-in values, and its first exception
goes to the loop's errors dict, keyed by trial number; results skip the
failed trials only at the end.  Each stage and kernel records its own
failures there by setdefault.  The one-trial functions (sample_K,
sample_in, containment_trial, tangent_dim) are the engine run on a single
handle or point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass(eq=False)
class SeededRng:
    """Reproducible RNG handle: (seed, stream) fully determines the draws.

    The generator is seeded on the first draw, so a handle that only derives
    others costs nothing.
    """

    seed: int
    stream: int = 0

    @cached_property
    def _gen(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def derive(self, offset: int) -> "SeededRng":
        """Fresh handle on stream + offset; used to give each trial its own."""
        return SeededRng(self.seed, self.stream + offset)

    def complex_normal(self, shape=None) -> np.ndarray:
        g = self._gen
        return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)

    def uniform(self, size=None):
        """Uniform draws on [0, 1); a draw of `size` values equals that many
        single draws in turn."""
        return self._gen.random(size)


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


def _singular_values(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)


def _sample_K_stack(rngs: list, n: int, errors: dict):
    """sample_K on the handle of every trial: (blocks, scalars).

    The first block of every trial is checked against the conditioning floor
    by one stacked SVD; a trial whose block misses it redraws on its own
    handle, up to _RESAMPLE_LIMIT draws in all, unless it has failed already.
    """
    k = n - 1
    blocks = np.array([rng.complex_normal((k, k)) for rng in rngs], dtype=complex)
    blocks = blocks.reshape(-1, k, k)
    unsolved = "SVD failed to converge"
    sv = _lapack_stack(_singular_values, blocks, errors, unsolved)
    for t in (sv[:, -1] <= _MIN_BLOCK_SV).nonzero()[0].tolist():
        if t in errors:
            continue
        for _ in range(_RESAMPLE_LIMIT - 1):
            block = rngs[t].complex_normal((k, k))
            lost = {}
            redraw = _lapack_stack(_singular_values, block[None], lost, unsolved)
            if lost:
                errors[t] = lost[0]
                break
            if redraw[0, -1] > _MIN_BLOCK_SV:
                blocks[t] = block
                break
        else:
            errors[t] = EigensolverError("conditioning resample limit exceeded")
    scalars = [np.exp(2j * np.pi * rng.uniform()) * (1.0 + rng.uniform()) for rng in rngs]
    return blocks, np.array(scalars, dtype=complex)


def _conjugate(kms: np.ndarray, xs: np.ndarray, errors: dict) -> np.ndarray:
    """ad over stacks: kms @ xs @ kms^-1 for every trial; a singular kms
    stands in as the identity."""
    inverses = _lapack_stack(np.linalg.inv, kms, errors, "conjugating element is singular")
    return kms @ xs @ inverses


def sample_K(rng: SeededRng, n: int) -> KElement:
    """Random block-diagonal element: Gaussian block with a smallest-singular-
    value floor (for conditioning), scalar on an annulus around the circle."""
    if n < 2:
        raise ValueError("need n >= 2")
    errors = {}
    blocks, scalars = _sample_K_stack([rng], n, errors)
    if errors:
        raise errors[0]
    return KElement(blocks[0], complex(scalars[0]), n)


def _sample_in_stack(s: SubalgebraSpec, rngs: list) -> np.ndarray:
    """sample_in on every handle.  With a permutation frame (every catalog
    parabolic and nilradical) each entry is one coefficient or zero, so the
    contraction of the stack has the same bits as one sample at a time."""
    if not s.basis:
        raise ValueError("subalgebra basis is empty")
    coeffs = np.array([rng.complex_normal(s.dim) for rng in rngs], dtype=complex)
    return np.tensordot(coeffs.reshape(-1, s.dim), np.array(s.basis), axes=1)


def _conjugated_samples(specs: list, n: int, rngs: list, errors: dict) -> np.ndarray:
    """ad(sample_K(r, n), sample_in(s, r)) on the handle r of every trial.

    The handles run over the specs in equal consecutive groups; each group's
    sample_in is one contraction, and sample_K and ad one stack over all the
    groups.
    """
    blocks, scalars = _sample_K_stack(rngs, n, errors)
    per = len(rngs) // len(specs)
    xs = np.concatenate(
        [_sample_in_stack(s, rngs[k * per : (k + 1) * per]) for k, s in enumerate(specs)]
    )
    return _conjugate(_block_diagonal(blocks, scalars), xs, errors)


def sample_in(s: SubalgebraSpec, rng: SeededRng) -> np.ndarray:
    """Gaussian linear combination of the basis elements."""
    return _sample_in_stack(s, [rng])[0]


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


def _containment_stack(specs: list, n: int, rngs: list, tol: Tolerances, errors: dict):
    """containment_trial on every handle, the handles running over the specs
    in equal consecutive groups: (l, worst pair residual) of every trial."""
    ys = _conjugated_samples(specs, n, rngs, errors)
    _, matched, cost = _coincidence_stack(ys, tol, errors)
    return matched.sum(axis=(1, 2)), np.where(matched, cost, 0.0).max(axis=(1, 2))


def containment_trial(p: SubalgebraSpec, n: int, rng: SeededRng, tol: Tolerances):
    """One trial: conjugate a random element of p by a random group element
    and count coincidences.  Returns (l, worst pair residual) or raises."""
    errors = {}
    l, worst = _containment_stack([p], n, [rng], tol, errors)
    if errors:
        raise errors[0]
    return int(l[0]), float(worst[0])


def _containment_loops(idxs: list, n: int, trials: int, rngs: list, tol: Tolerances) -> list:
    """verify_containment for every idxs[k] on its loop handle rngs[k], as one
    stack: the trials of all the loops share each sample_K, ad and
    eigenvalue call, and every trial draws from its own handle as before."""
    _check_arg("n", n, 2)
    _check_arg("trials", trials, 0)
    handles = [rng.derive(t) for rng in rngs for t in range(trials)]
    errors = {}
    l, worst = _containment_stack([parabolic_p(idx, n) for idx in idxs], n, handles, tol, errors)
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
    sample t drawn from rng.derive(t).

    Rank is lower semicontinuous, so the generic value is the max, attained
    with probability one; degenerate samples only ever undershoot.
    """
    _check_arg("repeats", repeats, 0)
    xs = _sample_in_stack(s, [rng.derive(t) for t in range(repeats)])
    return int(_tangent_ranks(s, xs, tol).max(initial=0))
