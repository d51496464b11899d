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
index.  A trial that fails is retired with its exception and the others go
on; the one-trial functions (sample_K, sample_in, containment_trial,
tangent_dim) are the engine run on a single handle or point.
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


class _Trials:
    """The trials of a stacked loop: which are still live, and why the others failed.

    Stages keep their arrays aligned with `live`; a stage that loses trials
    passes their positions in `live`, with the exception of each, to `drop`
    and filters its arrays by the mask it returns.
    """

    def __init__(self, count: int):
        self.live = np.arange(count)
        self.errors = {}

    def drop(self, errors: dict) -> np.ndarray:
        keep = np.ones(len(self.live), dtype=bool)
        for pos, exc in errors.items():
            keep[pos] = False
            self.errors[int(self.live[pos])] = exc
        self.live = self.live[keep]
        return keep


def _block_diagonal(blocks: np.ndarray, scalars) -> np.ndarray:
    """Group elements as (T, n, n) matrices from (T, n-1, n-1) blocks and scalars."""
    t, k, _ = blocks.shape
    m = np.zeros((t, k + 1, k + 1), dtype=complex)
    m[:, :-1, :-1] = blocks
    m[:, -1, -1] = scalars
    return m


def _singular_values(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)


def _sample_K_stack(rngs: list, n: int, trials: _Trials):
    """sample_K on the handle of every live trial: (blocks, scalars, kept mask).

    The first block of every trial is checked against the conditioning floor
    by one stacked SVD; a trial whose block misses it redraws on its own
    handle, up to _RESAMPLE_LIMIT draws in all.
    """
    k = n - 1
    blocks = np.array([rngs[t].complex_normal((k, k)) for t in trials.live], dtype=complex)
    blocks = blocks.reshape(-1, k, k)
    unsolved = f"SVD failed to converge on a {k} x {k} block"
    sv, failed = _lapack_stack(_singular_values, blocks)
    errors = {pos: EigensolverError(unsolved) for pos in failed}
    for pos in (sv[:, -1] <= _MIN_BLOCK_SV).nonzero()[0]:
        rng = rngs[trials.live[pos]]
        for _ in range(_RESAMPLE_LIMIT - 1):
            block = rng.complex_normal((k, k))
            redraw, failed = _lapack_stack(_singular_values, block[None])
            if failed:
                errors[pos] = EigensolverError(unsolved)
                break
            if redraw[0, -1] > _MIN_BLOCK_SV:
                blocks[pos] = block
                break
        else:
            errors[pos] = EigensolverError("conditioning resample limit exceeded")
    keep = trials.drop(errors)
    scalars = [
        np.exp(2j * np.pi * rngs[t].uniform()) * (1.0 + rngs[t].uniform()) for t in trials.live
    ]
    return blocks[keep], np.array(scalars, dtype=complex), keep


def _conjugate(kms: np.ndarray, xs: np.ndarray, trials: _Trials):
    """ad over stacks: (kms @ xs @ kms^-1 for every live trial, kept mask)."""
    inverses, failed = _lapack_stack(np.linalg.inv, kms)
    keep = trials.drop({t: EigensolverError("conjugating element is singular") for t in failed})
    return kms[keep] @ xs[keep] @ inverses[keep], keep


def sample_K(rng: SeededRng, n: int) -> KElement:
    """Random block-diagonal element: Gaussian block with a smallest-singular-
    value floor (for conditioning), scalar on an annulus around the circle."""
    if n < 2:
        raise ValueError("need n >= 2")
    trials = _Trials(1)
    blocks, scalars, _ = _sample_K_stack([rng], n, trials)
    if trials.errors:
        raise trials.errors[0]
    return KElement(blocks[0], complex(scalars[0]), n)


def _sample_in_stack(s: SubalgebraSpec, rngs: list) -> np.ndarray:
    """sample_in on every handle.  With a permutation frame (every catalog
    parabolic and nilradical) each entry is one coefficient or zero, so the
    contraction of the stack has the same bits as one sample at a time."""
    if not s.basis:
        raise ValueError("subalgebra basis is empty")
    coeffs = np.array([rng.complex_normal(s.dim) for rng in rngs], dtype=complex)
    return np.tensordot(coeffs.reshape(-1, s.dim), np.array(s.basis), axes=1)


def _conjugated_samples(specs: list, n: int, rngs: list, trials: _Trials) -> np.ndarray:
    """ad(sample_K(r, n), sample_in(s, r)) on the handle r of every live trial.

    The handles run over the specs in equal consecutive groups, trial t
    sampling specs[t // (len(rngs) / len(specs))]; each group's sample_in is
    one contraction, and sample_K and ad one stack over all the groups.
    """
    blocks, scalars, _ = _sample_K_stack(rngs, n, trials)
    per = max(len(rngs) // len(specs), 1)
    groups = [trials.live[trials.live // per == k] for k in range(len(specs))]
    xs = np.concatenate([_sample_in_stack(s, [rngs[t] for t in g]) for s, g in zip(specs, groups)])
    return _conjugate(_block_diagonal(blocks, scalars), xs, trials)[0]


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


def _containment_stack(specs: list, n: int, rngs: list, tol: Tolerances):
    """containment_trial on every handle, the handles running over the specs
    in equal consecutive groups: (trials, l, worst pair residual), the last
    two for the trials that did not fail."""
    trials = _Trials(len(rngs))
    ys = _conjugated_samples(specs, n, rngs, trials)
    _, matched, cost, errors = _coincidence_stack(ys, tol)
    keep = trials.drop(errors)
    matched, cost = matched[keep], cost[keep]
    return trials, matched.sum(axis=(1, 2)), np.where(matched, cost, 0.0).max(axis=(1, 2))


def containment_trial(p: SubalgebraSpec, n: int, rng: SeededRng, tol: Tolerances):
    """One trial: conjugate a random element of p by a random group element
    and count coincidences.  Returns (l, worst pair residual) or raises."""
    trials, l, worst = _containment_stack([p], n, [rng], tol)
    if trials.errors:
        raise trials.errors[0]
    return int(l[0]), float(worst[0])


def _containment_loops(idxs: list, n: int, trials: int, rngs: list, tol: Tolerances) -> list:
    """verify_containment for every idxs[k] on its loop handle rngs[k], as one
    stack: the trials of all the loops share each sample_K, ad and
    eigenvalue call, and every trial draws from its own handle as before."""
    handles = [rng.derive(t) for rng in rngs for t in range(trials)]
    specs = [parabolic_p(idx, n) for idx in idxs]
    done, l, worst = _containment_stack(specs, n, handles, tol)
    per = max(trials, 1)
    loop = done.live // per
    failed = np.bincount(np.fromiter(done.errors, int) // per, minlength=len(idxs))
    reports = []
    for k, idx in enumerate(idxs):
        lk = l[loop == k]
        low = int((lk < n - 1 - idx.length).sum())
        least = int(lk.min()) if lk.size else None
        top = float(worst[loop == k].max(initial=0.0))
        reports.append(ContainmentReport(idx, trials, low, int(failed[k]), least, top))
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
    rows[:, : len(zs)] = (zs @ xs[:, None] - xs[:, None] @ zs).reshape(t, -1, n * n)
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
    xs = _sample_in_stack(s, [rng.derive(t) for t in range(repeats)])
    return int(_tangent_ranks(s, xs, tol).max(initial=0))
