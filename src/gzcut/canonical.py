"""Bordered-diagonal normal form and the constructive conjugation reduction.

A matrix whose cutoff is regular semisimple can be conjugated, inside the
block-diagonal subgroup, to a bordered-diagonal form: diagonal cutoff h with
pairwise distinct entries, last column y, last row z, corner w.  A diagonal
value h_i is a shared eigenvalue of the matrix and its cutoff exactly when
z_i * y_i = 0, so the coincidence structure is carried by which border entries
vanish.  Sorting the shared values first and reading the U/L pattern (z_i = 0
versus y_i = 0) identifies a partial flag the matrix stabilizes.  One stable
sort of the slots, U slots first, then the unshared slots and e_n, then the L
slots, orders that flag's frame as the catalog orders its frames.  The net
effect: a matrix with l coincidences lands in the catalog parabolic indexed
(k, k + n - 1 - l), where k - 1 counts the U slots.  For l = n - 1 the target
is one of the n catalog Borel subalgebras.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flags import OrbitIndex, SubalgebraSpec, nilradical_n, parabolic_p, stabilizer
from .flags import _residual_stack
from .linalg import (
    DEFAULT_TOL,
    EigensolverError,
    Tolerances,
    _eigvals_stack,
    _lapack_stack,
    _rank_stack,
    as_cmatrix,
    sort_complex,
)
from .orbits import (
    _RESAMPLE_LIMIT,
    _XI_NORMALS,
    _XI_UNIFORMS,
    KElement,
    SeededRng,
    _block_diagonal,
    _check_arg,
    _conjugate,
    _conjugated_samples,
    _sample_K_stack,
)
from .spectra import _match_stack

__all__ = [
    "CutoffNotRegularSemisimple",
    "XiInvariantError",
    "MethodDisagreement",
    "XiElement",
    "ULPattern",
    "CanonicalFormResult",
    "RoundTripReport",
    "StrongRegularityReport",
    "xi_build",
    "xi_pattern",
    "pattern_parabolic",
    "reduce_to_xi",
    "canonical_form",
    "random_xi",
    "verify_roundtrips",
    "gz_gradients",
    "is_n_strongly_regular",
    "sn_membership",
    "verify_nilradical",
]

# a cutoff is regular semisimple when its eigenvalue gaps clear this many
# matching radii, in validation and reduction alike (the reduction warns up to
# 10x that floor); a border entry vanishes when it is at most one matching
# radius.  So scaling x and eig_match together leaves each verdict unchanged.
_RS_GAP_FACTOR = 1e3

# planted diagonals in each row of a random_xi round: a trial keeps the first
# that clears the 0.5 gap, so a round seldom leaves a trial to redraw
_XI_CANDIDATES = 8

class CutoffNotRegularSemisimple(ValueError):
    """The reduction is only defined for pairwise-separated cutoff spectra."""


class XiInvariantError(ValueError):
    """Normal-form data violates one of its structural invariants."""


class MethodDisagreement(EigensolverError):
    """Two independent numerical routes disagreed: a tolerance pathology."""


@dataclass(frozen=True, eq=False)
class XiElement:
    """Bordered-diagonal normal form data.

    h holds the cutoff eigenvalues, pairwise distinct.  The first l slots are
    the shared eigenvalues, which forces z_i * y_i = 0 there; the remaining
    slots carry z_i * y_i != 0.
    """

    n: int
    l: int
    h: tuple
    y: tuple
    z: tuple
    w: complex

    def __post_init__(self):
        for name in ("h", "y", "z"):
            vec = tuple(complex(v) for v in getattr(self, name))
            object.__setattr__(self, name, vec)
            if len(vec) != self.n - 1:
                raise ValueError(f"{name} must have length n - 1 = {self.n - 1}")
        object.__setattr__(self, "w", complex(self.w))
        for name, vec in (("h", self.h), ("y", self.y), ("z", self.z), ("w", (self.w,))):
            if not all(map(cmath.isfinite, vec)):
                raise ValueError(f"{name} must be finite")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError(f"coincidence count l={self.l} out of range")


@dataclass(frozen=True)
class ULPattern:
    """Per-shared-slot choice: U when z_i = 0, L when y_i = 0 (and z_i != 0)."""

    marks: tuple

    def __post_init__(self):
        if any(m not in ("U", "L") for m in self.marks):
            raise ValueError("marks must be 'U' or 'L'")

    def __len__(self):
        return len(self.marks)


@dataclass(frozen=True, eq=False)
class CanonicalFormResult:
    """Outcome of the constructive reduction.

    k        the conjugating block-diagonal element
    idx      catalog index (kpos, kpos + n - 1 - l)
    image    ad(k, x), lying in the catalog parabolic for idx
    residual relative membership defect of image in that parabolic
    l        coincidence count of x (and of image)
    pattern  the U/L pattern that selected the component
    """

    k: KElement
    idx: OrbitIndex
    image: np.ndarray
    residual: float
    l: int
    pattern: ULPattern


def _min_gap(values: np.ndarray) -> np.ndarray:
    """Smallest pairwise distance within each row of a (T, k) stack; inf for k = 1."""
    k = values.shape[1]
    gaps = np.abs(values[:, :, None] - values[:, None, :])
    gaps[:, range(k), range(k)] = np.inf
    return gaps.min(axis=(1, 2))


def _below_floor(values: np.ndarray, tol: Tolerances):
    """Each row's smallest gap, the gap floor, and whether the gap is at or below it."""
    gap, floor = _min_gap(values), _RS_GAP_FACTOR * tol.eig_match
    return gap, floor, gap <= floor


def _vanishes(v: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Whether each border entry counts as zero."""
    return np.abs(v) <= tol.eig_match


def _rows(e: XiElement):
    """The data of one normal-form element as stacks of one."""
    return np.array([e.h]), np.array([e.y]), np.array([e.z]), np.array([e.w])


def _xi_element(form: np.ndarray, l: int) -> XiElement:
    """The normal-form data read off a bordered matrix."""
    n = form.shape[0]
    return XiElement(
        n=n,
        l=l,
        h=tuple(np.diag(form)[: n - 1]),
        y=tuple(form[: n - 1, n - 1]),
        z=tuple(form[n - 1, : n - 1]),
        w=complex(form[n - 1, n - 1]),
    )


def _shared_slots(values: np.ndarray, mats: np.ndarray, tol: Tolerances, errors: dict):
    """Whether the full matrices of a (T, n, n) stack share each slot of their
    (T, n-1) cutoff spectra values: one stacked solve, matched slot by slot.

    Past the gap floor no two values lie within two matching radii, so each
    full eigenvalue has at most one partner and a slot is shared exactly when
    some full eigenvalue lies within one radius of it.
    """
    full = _eigvals_stack(mats, errors)
    return _match_stack(values, sort_complex(full), tol.eig_match)[0].any(axis=2)


def _xi_stack(h, y, z, w, l: np.ndarray, tol: Tolerances):
    """xi_build over stacks: h, y, z of shape (T, n-1), and w and the planted
    counts l of shape (T,).

    Returns the (T, n, n) bordered matrices and, for each position that fails
    a check, its first XiInvariantError or the EigensolverError of the
    spectral check.  The cutoff of each matrix is diag(h), so its spectrum is
    h itself: one stacked solve of the full matrices finds the shared slots.
    """
    count, k = h.shape
    slots = np.arange(k)
    mats = np.zeros((count, k + 1, k + 1), dtype=complex)
    mats[:, slots, slots] = h
    mats[:, :k, k] = y
    mats[:, k, :k] = z
    mats[:, k, k] = w

    gap, floor, low = _below_floor(h, tol)
    planted = slots < l[:, None]
    # shared slots need a vanishing border entry, the others none
    misplaced = _vanishes(np.minimum(abs(y), abs(z)), tol) != planted
    errors = {}
    for t in low.nonzero()[0]:
        errors[t] = XiInvariantError(
            f"diagonal values are not pairwise distinct (gap {gap[t]:.3e}, floor {floor:.3e})"
        )
    for t in misplaced.any(axis=1).nonzero()[0]:
        i = int(misplaced[t].argmax())
        where = "in the shared range but neither" if i < l[t] else "outside the shared range but a"
        errors.setdefault(t, XiInvariantError(f"slot {i + 1} lies {where} border entry vanishes"))

    shared = _shared_slots(h, mats, tol, errors)
    counts = shared.sum(axis=1)
    for t in (shared != planted).any(axis=1).nonzero()[0]:
        msg = f"assembled matrix shares {counts[t]} eigenvalues with its cutoff, expected {l[t]}"
        if counts[t] == l[t]:
            msg = "shared eigenvalues differ from the leading diagonal values"
        errors.setdefault(t, XiInvariantError(msg))
    return mats, errors


def xi_build(e: XiElement, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Assemble the bordered matrix and validate the planted structure.

    Checks that the diagonal gaps clear reduce_to_xi's floor of 1e3 matching
    radii, that each of the first l slots and no later one has a vanishing
    border entry (|y_i| or |z_i| <= eig_match), and that the slots the
    assembled matrix shares with its cutoff diag(h), each within one matching
    radius of a full eigenvalue, are exactly the first l.
    """
    mats, errors = _xi_stack(*_rows(e), np.array([e.l]), tol)
    if errors:
        raise errors[0]
    return mats[0]


def _upper_marks(y, z, counts, tol: Tolerances, errors: dict) -> np.ndarray:
    """U marks of stacked forms: True where slot i of form t is shared
    (i < counts[t]) and |z_i| <= |y_i|, which a block-diagonal rescaling
    leaves unchanged.  A shared slot where neither entry vanishes fails its
    form with XiInvariantError.
    """
    shared = np.arange(y.shape[1]) < counts[:, None]
    upper = (np.abs(z) <= np.abs(y)) & shared
    stray = ~_vanishes(np.minimum(abs(y), abs(z)), tol) & shared
    msg = "slot {} is marked shared but neither border entry vanishes"
    for t in stray.any(axis=1).nonzero()[0].tolist():
        errors.setdefault(t, XiInvariantError(msg.format(stray[t].argmax() + 1)))
    return upper


def xi_pattern(e: XiElement, tol: Tolerances = DEFAULT_TOL) -> ULPattern:
    """U/L marks over the shared slots: U where |z_i| <= |y_i|, so a slot
    where both border entries vanish equally resolves to U."""
    errors = {}
    upper = _upper_marks(*_rows(e)[1:3], np.array([e.l]), tol, errors)
    if errors:
        raise errors[0]
    return ULPattern(tuple("U" if u else "L" for u in upper[0, : e.l]))


def _frame_order(upper, shared) -> np.ndarray:
    """The slots of a frame in flag order, along the last axis: the U slots,
    then the unshared slots, then the L slots, each group in slot order.  In
    an n-slot frame e_n is the last slot and unshared."""
    return np.argsort(np.where(upper, 0, np.where(shared, 2, 1)), axis=-1, kind="stable")


def pattern_parabolic(pattern: ULPattern, n: int) -> SubalgebraSpec:
    """The stabilizer of the partial flag every normal-form element with this
    pattern stabilizes.

    U-slots become leading singleton steps, then the block spanned by the
    non-shared e's together with e_n, then the L-slots; with l coincidences
    the chain has l + 1 steps.
    """
    c = len(pattern)
    if c > n - 1:
        raise ValueError("pattern longer than n - 1")
    upper = np.array([m == "U" for m in pattern.marks] + [False] * (n - c))
    frame = np.eye(n)[:, _frame_order(upper, np.arange(n) < c)]
    u = pattern.marks.count("U")
    return stabilizer(frame, np.cumsum([1] * u + [n - c] + [1] * (c - u)))


def _reduce_stack(mats: np.ndarray, tol: Tolerances, errors: dict):
    """reduce_to_xi over a (T, n, n) stack: one eig call for the cutoffs, one
    eigvals call for the full matrices and one inv call: each block is an
    inverse eigenbasis with its rows reordered, so its inverse needs no call.

    Returns the conjugating blocks, the bordered forms and the shared counts
    of every trial.  One conditioning warning covers all the trials near the
    gap floor; a failed trial, its full solve included, counts 0 shared
    values and is left out of it.
    """
    evals, evecs = _lapack_stack(
        np.linalg.eig, mats[:, :-1, :-1], errors, "eigendecomposition of the cutoff failed"
    )
    gap, floor, low = _below_floor(evals, tol)
    for t in low.nonzero()[0].tolist():
        errors.setdefault(
            t,
            CutoffNotRegularSemisimple(
                f"cutoff eigenvalue gap {gap[t]:.3e} is at or below the floor {floor:.3e}; "
                "the reduction is undefined here"
            ),
        )
    shared = _shared_slots(evals, mats, tol, errors)
    near = ~low & (gap <= 10.0 * floor)
    near[list(errors)] = False
    if near.any():
        # one warning per call, not per trial, so the registry stays bounded
        warnings.warn(
            f"cutoff spectrum nearly degenerate at {near.sum()} of {len(mats)} points "
            f"(smallest gap {gap[near].min():.3e}; largest eigenvector condition number "
            f"{np.linalg.cond(evecs[near]).max():.3e})",
            RuntimeWarning,
            stacklevel=3,
        )
    # shared values first, each group sorted by (real, imag)
    order = np.lexsort((evals.imag, evals.real, ~shared), axis=-1)
    inverses = _lapack_stack(np.linalg.inv, evecs, errors, "cutoff eigenvectors are singular")
    blocks = np.take_along_axis(inverses, order[..., None], axis=1)
    basis = np.take_along_axis(evecs, order[:, None], axis=2)
    forms = _block_diagonal(blocks, 1.0) @ mats @ _block_diagonal(basis, 1.0)
    counts = shared.sum(axis=1)
    counts[list(errors)] = 0
    return blocks, forms, counts


def reduce_to_xi(x, tol: Tolerances = DEFAULT_TOL):
    """Conjugate x into bordered-diagonal form with shared eigenvalues first.

    Returns (k, e) with ad(k, x) equal to the assembled form of e up to
    roundoff.  Defined only when the cutoff is regular semisimple: every
    eigenvalue gap must clear a floor of 1e3 matching radii, and gaps within
    10x of the floor trigger a conditioning warning.  The shared values are
    sorted lexicographically, then the unshared ones.
    """
    m = as_cmatrix(x)
    n = m.shape[0]
    if n < 2:
        raise ValueError("the reduction needs n >= 2")
    errors = {}
    blocks, forms, counts = _reduce_stack(m[None], tol, errors)
    if errors:
        raise errors[0]
    return KElement(blocks[0], 1.0, n), _xi_element(forms[0], int(counts[0]))


def _canonical_stack(mats: np.ndarray, tol: Tolerances, errors: dict):
    """canonical_form over a (T, n, n) stack, as arrays over the trials: the
    blocks, U marks, shared counts, catalog indices (i, j), images and their
    membership residuals.

    The block takes the reduced eigenbasis in _frame_order, so the reduced
    form's flag lands on the catalog parabolic's frame: the image is the
    reduced form with its first n - 1 slots in that order and e_n fixed.
    """
    t, n, _ = mats.shape
    k = n - 1
    reduced, forms, counts = _reduce_stack(mats, tol, errors)
    upper = _upper_marks(forms[:, :k, k], forms[:, k, :k], counts, tol, errors)
    order = _frame_order(upper, np.arange(k) < counts[:, None])
    blocks = np.take_along_axis(reduced, order[..., None], axis=1)
    slots = np.concatenate([order, np.full((t, 1), k)], axis=1)
    images = forms[np.arange(t)[:, None, None], slots[:, :, None], slots[:, None, :]]
    u = upper.sum(axis=1)
    idx = np.stack([u + 1, u + n - counts], axis=1)
    specs = [parabolic_p(OrbitIndex(i, j), n) for i, j in idx.tolist()]
    return blocks, upper, counts, idx, images, _residual_stack(specs, images)


def canonical_form(x, tol: Tolerances = DEFAULT_TOL) -> CanonicalFormResult:
    """Conjugate x into the catalog parabolic selected by its coincidences.

    Composes the bordered-diagonal reduction, the U/L pattern read-off, and
    the reordering of the eigenbasis by _frame_order, which puts the
    pattern's flag in the catalog parabolic's frame.  With l coincidences and
    k - 1 upper marks the target index is (k, k + n - 1 - l); the conjugator
    stays inside the block-diagonal group throughout.
    """
    m = as_cmatrix(x)
    if m.shape[0] < 2:
        raise ValueError("the reduction needs n >= 2")
    errors = {}
    blocks, upper, counts, idx, images, residuals = _canonical_stack(m[None], tol, errors)
    if errors:
        raise errors[0]
    c, k = int(counts[0]), KElement(blocks[0], 1.0, len(m))
    pattern = ULPattern(tuple("U" if u else "L" for u in upper[0, :c]))
    index, residual = OrbitIndex(*idx[0].tolist()), float(residuals[0])
    return CanonicalFormResult(k, index, images[0], residual, c, pattern)


def _draw_xi(rng: SeededRng, rnd: int, rows, n: int, l: int):
    """Round rnd's random_xi candidates of the trials in rows, as (h, y, z, w)
    stacks, and whether each one's diagonal keeps a pairwise gap of 0.5.

    Trial t takes row t of two blocks: _XI_CANDIDATES candidates of n
    complex normals each, for h and then w, of which it keeps the first whose
    diagonal keeps the gap (or the first, marked not wide, when none does);
    and five uniforms per slot: a border modulus and phase, a second pair
    for the other border entry, and a coin that marks a shared slot U
    (z_i = 0) below 0.5 and L (y_i = 0) otherwise.
    """
    k = n - 1
    normals = rng.complex_normal(_XI_NORMALS, rnd, rows, (_XI_CANDIDATES, n))
    wide = _min_gap(2.0 * normals[..., :k].reshape(-1, k)).reshape(-1, _XI_CANDIDATES) >= 0.5
    first = normals[np.arange(len(normals)), wide.argmax(axis=1)]
    h = 2.0 * first[:, :k]
    u = rng.uniform(_XI_UNIFORMS, rnd, rows, (k, 5))
    border = (0.5 + u[..., 0]) * np.exp(2j * np.pi * u[..., 1])
    other = (0.5 + u[..., 2]) * np.exp(2j * np.pi * u[..., 3])
    shared = np.arange(k) < l
    upper = shared & (u[..., 4] < 0.5)
    y = np.where(shared & ~upper, 0.0, border)
    z = np.where(shared, np.where(upper, 0.0, border), other)
    return h, y, z, first[:, k], wide.any(axis=1)


def _random_xi_stack(rngs: list, trials: int, n: int, ls: list, tol: Tolerances, errors: dict):
    """random_xi on every trial of the loops on rngs, planting ls[k] on the
    loop on rngs[k], trials each, loop after loop: their bordered matrices.

    The loops' rounds run in lockstep.  Each round draws one candidate per
    pending trial, each loop from its own blocks, and validates the ones
    with a wide enough diagonal gap by one stacked xi_build; a trial whose
    candidate is rejected, by the gap (none of its _XI_CANDIDATES diagonals
    clears it) or by validation, is pending in the next round.  A candidate
    whose spectral check fails keeps its slot and fails its trial.
    """
    accepted = np.empty((len(rngs) * trials, n, n), dtype=complex)
    pending = np.arange(len(accepted))
    for rnd in range(_RESAMPLE_LIMIT):
        if not pending.size:
            break
        loop, row = np.divmod(pending, trials)
        # not np.unique, which imports numpy.ma on its first call (numpy 2.4)
        live = sorted(set(loop.tolist()))
        draws = [_draw_xi(rngs[k], rnd, row[loop == k], n, ls[k]) for k in live]
        h, y, z, w, wide = (np.concatenate(part) for part in zip(*draws))
        redraw = pending[~wide].tolist()
        if wide.any():
            planted = np.asarray(ls)[loop[wide]]
            mats, rejected = _xi_stack(h[wide], y[wide], z[wide], w[wide], planted, tol)
            for i, t in enumerate(pending[wide].tolist()):
                exc = rejected.get(i)
                if isinstance(exc, XiInvariantError):
                    redraw.append(t)
                    continue
                accepted[t] = mats[i]
                if exc is not None:
                    errors.setdefault(t, exc)
        pending = np.array(sorted(redraw), dtype=int)
    if pending.size:
        raise XiInvariantError(
            f"no draw out of {_RESAMPLE_LIMIT} planted exactly l={ls[pending[0] // trials]} "
            f"coincidences at n={n} with eig_match={tol.eig_match:g}"
        )
    return accepted


def random_xi(rng: SeededRng, n: int, l: int, tol: Tolerances = DEFAULT_TOL) -> XiElement:
    """Random normal-form element with exactly l coincidences.

    Diagonal values keep a pairwise gap of at least 0.5 and border magnitudes
    stay in [0.5, 1.5], so the planted structure is numerically unambiguous.
    A draw takes the first of _XI_CANDIDATES diagonals whose gap is at least
    0.5, which has the distribution of redrawing one diagonal until its gap
    is; the draw is redone when none of them is wide enough or xi_build,
    whose gap floor is the reduction's, rejects it.  After _RESAMPLE_LIMIT
    draws, which an eig_match of 1e-2 or more forces at n >= 3,
    XiInvariantError is raised.
    """
    _check_arg("n", n, 2)
    _check_arg("l", l, 0, n - 1)
    errors = {}
    mats = _random_xi_stack([rng], 1, n, [l], tol, errors)
    if errors:
        raise errors[0]
    return _xi_element(mats[0], l)


@dataclass(frozen=True)
class RoundTripReport:
    """Planted round trips for one count l.  mismatches counts a wrong count,
    residual_violations a residual above residual_cap (tol.membership),
    failures a solver breakdown, a degenerate cutoff or a shared slot with no
    vanishing border entry; borel_indices is None unless l = n - 1."""

    l: int
    trials: int
    failures: int
    mismatches: int
    max_residual: float
    residual_cap: float
    residual_violations: int
    borel_indices: tuple | None


def _roundtrip_loops(n: int, ls: list, trials: int, rngs: list, tol: Tolerances) -> list:
    """verify_roundtrips for every count ls[k] on its loop handle rngs[k], as
    one stack: the trials of all the loops share each random_xi and sample_K
    round, the conjugation and the canonical reduction."""
    _check_arg("n", n, 2)
    for l in ls:
        _check_arg("l", l, 0, n - 1)
    _check_arg("trials", trials, 0)
    errors = {}
    planted = _random_xi_stack(rngs, trials, n, ls, tol, errors)
    blocks, scalars = _sample_K_stack(rngs, trials, n, errors)
    xs = _conjugate(_block_diagonal(blocks, scalars), planted, errors)
    _, _, counts, idx, _, residuals = _canonical_stack(xs, tol, errors)
    failed = np.isin(np.arange(len(xs)), list(errors))
    residuals[failed] = 0.0
    loops = (a.reshape(len(ls), trials) for a in (failed, counts, idx[:, 0], residuals))
    cap = tol.membership
    reports = []
    for l, bad, count, borel, res in zip(ls, *loops):
        failures, mismatches = int(bad.sum()), int((count[~bad] != l).sum())
        worst, violations = float(res.max(initial=0.0)), int((res > cap).sum())
        borels = tuple(sorted(set(borel[~bad].tolist()))) if l == n - 1 else None
        reports.append(
            RoundTripReport(l, trials, failures, mismatches, worst, cap, violations, borels)
        )
    return reports


def verify_roundtrips(
    n: int, l: int, trials: int, rng: SeededRng, tol: Tolerances = DEFAULT_TOL
) -> RoundTripReport:
    """Monte Carlo check that canonical_form recovers a planted count l; trial
    t conjugates trial t of random_xi by trial t of sample_K, both drawn on
    rng, each from its own stages."""
    return _roundtrip_loops(n, [l], trials, [rng], tol)[0]


def _gradients(xs: np.ndarray) -> np.ndarray:
    """gz_gradients over a (T, n, n) stack, as a (T, 2n - 1, n, n) stack."""
    t, n, _ = xs.shape
    out = np.zeros((t, 2 * n - 1, n, n), dtype=complex)
    for size, mats, first in ((n - 1, xs[:, :-1, :-1], 0), (n, xs, n - 1)):
        power = np.broadcast_to(np.eye(size, dtype=complex), mats.shape)
        for j in range(1, size + 1):
            out[:, first + j - 1, :size, :size] = j * power
            power = power @ mats
    return out


def gz_gradients(x) -> list:
    """Trace-pairing gradients of the corner power traces at the top two levels.

    d tr((x_i)^j) corresponds to j * embed((x_i)^(j-1)) under <a, b> = tr(ab);
    returned in the order j = 1..n-1 for the cutoff, then j = 1..n for the
    full matrix (2n - 1 matrices).  Validated against finite differences in
    the test suite.
    """
    m = as_cmatrix(x)
    if m.shape[0] < 2:
        raise ValueError("need n >= 2")
    return list(_gradients(m[None])[0])


def _centralizers(mats: np.ndarray, tol: Tolerances):
    """Centralizers {z : az = za} of a (T, m, m) stack, as (vh, dims): the last
    dims[t] rows of vh[t], reshaped to m x m, are an orthonormal basis for matrix t.

    They span the kernel of z -> az - za, flattened (row-major) to the m^2 x m^2
    map a (x) I - I (x) a^T; a zero map keeps the standard basis.
    """
    t, m, _ = mats.shape
    eye = np.eye(m, dtype=complex)
    ops = (
        mats[:, :, None, :, None] * eye[None, None, :, None, :]
        - eye[None, :, None, :, None] * mats.transpose(0, 2, 1)[:, None, :, None, :]
    ).reshape(t, m * m, m * m)
    _, sv, vh = np.linalg.svd(ops)
    vh = vh.conj()
    vh[sv[:, 0] == 0] = np.eye(m * m)
    return vh, m * m - _rank_stack(ops, tol, sv)


class StrongRegularityReport(NamedTuple):
    """Verdict plus the data both routes produced."""

    ok: bool
    regular_full: bool
    regular_cutoff: bool
    centralizer_rank: int
    centralizer_expected: int
    gradient_rank: int


def _strong_regularity_stack(xs: np.ndarray, tol: Tolerances):
    """is_n_strongly_regular over a (T, n, n) stack: a report whose fields are
    arrays over the stack, and the MethodDisagreement of each position where
    the two routes disagree."""
    t, n, _ = xs.shape
    k = n - 1
    v_full, d_full = _centralizers(xs, tol)
    v_cut, d_cut = _centralizers(xs[:, :-1, :-1], tol)
    # both bases, the cutoff's embedded in the corner, ranked by one call per
    # pair of centralizer dimensions
    cent_rank = np.empty(t, dtype=int)
    for df, dc in set(zip(d_full.tolist(), d_cut.tolist())):
        sel = ((d_full == df) & (d_cut == dc)).nonzero()[0]
        rows = np.zeros((len(sel), df + dc, n, n), dtype=complex)
        rows[:, :df] = v_full[sel, n * n - df :].reshape(len(sel), df, n, n)
        rows[:, df:, :k, :k] = v_cut[sel, k * k - dc :].reshape(len(sel), dc, k, k)
        cent_rank[sel] = _rank_stack(rows.reshape(len(sel), df + dc, n * n), tol)
    grads = _gradients(xs).reshape(t, 2 * n - 1, n * n)
    norms = np.linalg.norm(grads, axis=-1)
    norms[norms == 0] = 1.0
    regular_full, regular_cut, expected = d_full == n, d_cut == k, d_full + d_cut
    a_ok = regular_full & regular_cut & (cent_rank == expected)
    grad_rank = _rank_stack(grads / norms[..., None], tol)
    b_ok = grad_rank == 2 * n - 1
    errors = {
        pos: MethodDisagreement(
            f"centralizer route says {a_ok[pos]} (rank {cent_rank[pos]}/{expected[pos]}, "
            f"regular: {regular_full[pos]}/{regular_cut[pos]}) but gradient route says "
            f"{b_ok[pos]} (rank {grad_rank[pos]}/{2 * n - 1})"
        )
        for pos in (a_ok != b_ok).nonzero()[0].tolist()
    }
    rep = StrongRegularityReport(a_ok, regular_full, regular_cut, cent_rank, expected, grad_rank)
    return rep, errors


def is_n_strongly_regular(x, tol: Tolerances = DEFAULT_TOL) -> StrongRegularityReport:
    """Independence of the top two levels of trace-function differentials.

    Two independent routes are computed and cross-checked:

      A. the matrix and its cutoff are regular and their centralizers meet
         trivially (stacked centralizer bases have full rank);
      B. the 2n - 1 trace-pairing gradients have rank 2n - 1.

    A disagreement is a genuine tolerance pathology and is raised, not hidden.
    """
    m = as_cmatrix(x)
    if m.shape[0] < 2:
        raise ValueError("need n >= 2")
    rep, errors = _strong_regularity_stack(m[None], tol)
    if errors:
        raise errors[0]
    return StrongRegularityReport(*(v[0].item() for v in rep))


def _nilpotent_pairs(xs: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Whether each matrix of a (T, n, n) stack is nilpotent together with its cutoff.

    An m x m matrix within backward error eps of nilpotent sheds eigenvalues
    of size ~eps^(1/m), so the threshold takes the m-th root of the radius.
    """
    ok = True
    for mats in (xs, xs[:, :-1, :-1]):
        norms = np.linalg.norm(mats, 2, axis=(1, 2))
        thresh = (1.0 + norms) * tol.eig_match ** (1.0 / mats.shape[-1])
        ok = ok & (abs(np.linalg.eigvals(mats)) <= thresh[:, None]).all(axis=1)
    return ok


def sn_membership(x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether both the matrix and its cutoff are (numerically) nilpotent."""
    m = as_cmatrix(x)
    if m.shape[0] < 2:
        raise ValueError("need n >= 2")
    return bool(_nilpotent_pairs(m[None], tol)[0])


def verify_nilradical(
    i: int, n: int, trials: int, rng: SeededRng, tol: Tolerances = DEFAULT_TOL
) -> tuple:
    """Monte Carlo counts on the catalog nilradical i: trial t conjugates trial
    t of sample_in of nilradical_n(i, n) by trial t of sample_K, both on rng.
    Returns (nilpotent pairs, strongly regular trials, method disagreements);
    a trial whose two strong-regularity routes disagree counts only as a
    disagreement."""
    _check_arg("n", n, 2)
    _check_arg("i", i, 1, n)
    _check_arg("trials", trials, 0)
    errors = {}
    xs = _conjugated_samples([nilradical_n(i, n)], n, [rng], trials, errors)
    if errors:
        raise errors[min(errors)]
    rep, disagreements = _strong_regularity_stack(xs, tol)
    strong = int(np.delete(rep.ok, list(disagreements)).sum())
    return int(_nilpotent_pairs(xs, tol).sum()), strong, len(disagreements)
