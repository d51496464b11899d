"""Bordered-diagonal normal form and the constructive conjugation reduction.

A matrix whose cutoff is regular semisimple can be conjugated, inside the
block-diagonal subgroup, to a bordered-diagonal form: diagonal cutoff h with
pairwise distinct entries, last column y, last row z, corner w.  A diagonal
value h_i is a shared eigenvalue of the matrix and its cutoff exactly when
z_i * y_i = 0, so the coincidence structure is carried by which border entries
vanish.  Sorting the shared values first and reading the U/L pattern (z_i = 0
versus y_i = 0) identifies a partial flag the matrix stabilizes, and one more
permutation carries that flag onto a catalog flag.  The net effect: a matrix
with l coincidences lands in the catalog parabolic indexed (k, k + n - 1 - l),
where k - 1 counts the U slots.  For l = n - 1 the target is one of the n
catalog Borel subalgebras.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flags import OrbitIndex, PartialFlag, parabolic_p, contains
from .linalg import (
    DEFAULT_TOL,
    EigensolverError,
    Tolerances,
    as_cmatrix,
    centralizer_basis,
    eigenvalues,
    numerical_rank,
    sort_complex,
)
from .orbits import _RESAMPLE_LIMIT, KElement, SeededRng, ad, sample_K
from .spectra import _assignment, coincidence_count

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
    "stabilized_flag",
    "reduce_to_xi",
    "canonical_form",
    "random_xi",
    "verify_roundtrips",
    "gz_gradients",
    "is_n_strongly_regular",
    "sn_membership",
]

# a cutoff counts as regular semisimple when its eigenvalue gaps clear
# this many matching radii; below 10x the bound we warn about conditioning
_RS_GAP_FACTOR = 1e3

# a planted round trip must land in its parabolic with a residual below this
_ROUNDTRIP_RESIDUAL_CAP = 1e-7


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


def _scale(e: XiElement) -> float:
    return float(
        max(
            max(abs(v) for v in e.h),
            max((abs(v) for v in e.y), default=0.0),
            max((abs(v) for v in e.z), default=0.0),
            abs(e.w),
        )
    )


def _xi_matrix(e: XiElement) -> np.ndarray:
    """The bordered matrix of e, assembled without validation."""
    n = e.n
    m = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(m[: n - 1, : n - 1], e.h)
    m[: n - 1, n - 1] = e.y
    m[n - 1, : n - 1] = e.z
    m[n - 1, n - 1] = e.w
    return m


def xi_build(e: XiElement, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Assemble the bordered matrix and validate the planted structure.

    Checks, at matching tolerance: pairwise distinct diagonal, vanishing
    z_i y_i on the first l slots and nonvanishing afterwards, and that the
    assembled matrix really shares exactly {h_1, ..., h_l} with its cutoff.
    """
    n, l = e.n, e.l
    h = np.asarray(e.h, dtype=complex)
    y = np.asarray(e.y, dtype=complex)
    z = np.asarray(e.z, dtype=complex)

    gap_tol = tol.eig_match * (1.0 + _scale(e))
    diffs = np.abs(h[:, None] - h[None, :])
    np.fill_diagonal(diffs, np.inf)
    if diffs.min() <= gap_tol:
        raise XiInvariantError(
            f"diagonal values are not pairwise distinct (gap {diffs.min():.3e})"
        )

    prod_tol = tol.eig_match * (1.0 + np.abs(y).max(initial=0.0)) * (
        1.0 + np.abs(z).max(initial=0.0)
    )
    products = z * y
    for i in range(n - 1):
        if i < l and abs(products[i]) > prod_tol:
            raise XiInvariantError(
                f"slot {i + 1} lies in the shared range but z*y = {products[i]:.3e}"
            )
        if i >= l and abs(products[i]) <= prod_tol:
            raise XiInvariantError(
                f"slot {i + 1} lies outside the shared range but z*y vanishes"
            )

    m = _xi_matrix(e)
    rep = coincidence_count(m, tol)
    if rep.l != l:
        raise XiInvariantError(
            f"assembled matrix shares {rep.l} eigenvalues with its cutoff, expected {l}"
        )
    if l:
        matched = sort_complex([p[0] for p in rep.pairs])
        planted = sort_complex(h[:l])
        if np.abs(matched - planted).max() > 10.0 * gap_tol:
            raise XiInvariantError(
                "shared eigenvalues differ from the leading diagonal values"
            )
    return m


def xi_pattern(e: XiElement, tol: Tolerances = DEFAULT_TOL) -> ULPattern:
    """U/L marks over the shared slots; a slot where both border entries
    vanish resolves to U so the output is deterministic."""
    thresh = tol.eig_match * (1.0 + _scale(e))
    marks = []
    for i in range(e.l):
        if abs(e.z[i]) <= thresh:
            marks.append("U")
        elif abs(e.y[i]) <= thresh:
            marks.append("L")
        else:
            raise XiInvariantError(
                f"slot {i + 1} is marked shared but neither border entry vanishes"
            )
    return ULPattern(tuple(marks))


def stabilized_flag(pattern: ULPattern, n: int) -> PartialFlag:
    """The partial flag every normal-form element with this pattern stabilizes.

    U-slots become leading singleton steps, then the block spanned by the
    non-shared e's together with e_n, then the L-slots; with l coincidences
    the chain has l + 1 steps.
    """
    c = len(pattern)
    if c > n - 1:
        raise ValueError("pattern longer than n - 1")
    upper = [i + 1 for i, m in enumerate(pattern.marks) if m == "U"]
    lower = [i + 1 for i, m in enumerate(pattern.marks) if m == "L"]
    block = list(range(c + 1, n)) + [n]
    basis = np.eye(n)[:, np.subtract(upper + block + lower, 1)]
    sizes = [1] * len(upper) + [len(block)] + [1] * len(lower)
    steps = tuple(np.cumsum(sizes))
    return PartialFlag(n, steps, basis)


def reduce_to_xi(x, tol: Tolerances = DEFAULT_TOL):
    """Conjugate x into bordered-diagonal form with shared eigenvalues first.

    Returns (k, e) with ad(k, x) equal to the assembled form of e up to
    roundoff.  Defined only when the cutoff is regular semisimple: the gap
    policy is 1e3 matching radii (scaled by the spectral size), and gaps
    within 10x of the policy trigger a conditioning warning.  The shared
    values are sorted lexicographically, then the unshared ones.
    """
    m = as_cmatrix(x)
    n = m.shape[0]
    if n < 2:
        raise ValueError("the reduction needs n >= 2")
    cut = m[:-1, :-1]
    try:
        evals, evecs = np.linalg.eig(cut)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError("eigendecomposition of the cutoff failed") from exc

    gaps = np.abs(evals[:, None] - evals[None, :])
    np.fill_diagonal(gaps, np.inf)
    gap = float(gaps.min())
    policy = _RS_GAP_FACTOR * tol.eig_match * (1.0 + np.abs(evals).max())
    if gap <= policy:
        raise CutoffNotRegularSemisimple(
            f"cutoff eigenvalue gap {gap:.3e} is below the policy {policy:.3e}; "
            "the reduction is undefined here"
        )
    if gap <= 10.0 * policy:
        warnings.warn(
            f"cutoff spectrum nearly degenerate (gap {gap:.3e}); eigenvector "
            f"condition number {np.linalg.cond(evecs):.3e}",
            RuntimeWarning,
            stacklevel=2,
        )

    full = eigenvalues(m, tol).as_array()
    rows, _, _ = _assignment(evals, full, tol.eig_match)
    shared = sorted(rows, key=lambda r: (evals[r].real, evals[r].imag))
    unshared = sorted(
        (r for r in range(n - 1) if r not in set(rows)),
        key=lambda r: (evals[r].real, evals[r].imag),
    )
    perm = np.eye(n - 1)[shared + unshared]

    k = KElement(perm @ np.linalg.inv(evecs), 1.0, n)
    xim = ad(k, m)
    e = XiElement(
        n=n,
        l=len(shared),
        h=tuple(np.diag(xim)[: n - 1]),
        y=tuple(xim[: n - 1, n - 1]),
        z=tuple(xim[n - 1, : n - 1]),
        w=complex(xim[n - 1, n - 1]),
    )
    return k, e


def canonical_form(x, tol: Tolerances = DEFAULT_TOL) -> CanonicalFormResult:
    """Conjugate x into the catalog parabolic selected by its coincidences.

    Composes the bordered-diagonal reduction, the U/L pattern read-off, and
    the permutation carrying the stabilized flag onto the catalog partial
    flag.  With l coincidences and k - 1 upper marks the target index is
    (k, k + n - 1 - l); the conjugator stays inside the block-diagonal group
    throughout.
    """
    m = as_cmatrix(x)
    n = m.shape[0]
    k1, e = reduce_to_xi(m, tol)
    pattern = xi_pattern(e, tol)
    c = e.l
    l_orbit = n - 1 - c
    kpos = pattern.marks.count("U") + 1

    idx = OrbitIndex(kpos, kpos + l_orbit)
    target = parabolic_p(idx, n)
    # both flag bases are permutations: kappa carries the stabilized flag's
    # basis column by column onto the catalog partial flag's
    kappa = target.frame @ stabilized_flag(pattern, n).basis.T
    k2 = KElement(kappa[: n - 1, : n - 1], 1.0, n)

    k_total = k2 @ k1
    image = ad(k_total, m)
    membership = contains(target, image, tol)
    return CanonicalFormResult(
        k=k_total,
        idx=idx,
        image=image,
        residual=membership.residual,
        l=c,
        pattern=pattern,
    )


def random_xi(rng: SeededRng, n: int, l: int, tol: Tolerances = DEFAULT_TOL) -> XiElement:
    """Random normal-form element with exactly l coincidences.

    Diagonal values keep a pairwise gap of at least 0.5 and border magnitudes
    stay in [0.5, 1.5], so the planted structure is numerically unambiguous.
    A draw is redone when its diagonal gap is too small or xi_build rejects
    it at the given tolerance; after _RESAMPLE_LIMIT draws, which a loose
    eig_match can force, XiInvariantError is raised.
    """
    if not 0 <= l <= n - 1:
        raise ValueError(f"l={l} out of range for n={n}")
    for _ in range(_RESAMPLE_LIMIT):
        h = 2.0 * rng.complex_normal(n - 1)
        gaps = np.abs(h[:, None] - h[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 0.5:
            continue
        y = np.zeros(n - 1, dtype=complex)
        z = np.zeros(n - 1, dtype=complex)
        for i in range(n - 1):
            border = (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            other = (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            if i < l:
                if rng.uniform() < 0.5:
                    y[i] = border  # z stays 0: mark U
                else:
                    z[i] = border  # y stays 0: mark L
            else:
                y[i], z[i] = border, other
        e = XiElement(
            n=n, l=l, h=tuple(h), y=tuple(y), z=tuple(z), w=complex(rng.complex_normal())
        )
        try:
            xi_build(e, tol)
        except XiInvariantError:
            continue
        return e
    raise XiInvariantError(
        f"no draw out of {_RESAMPLE_LIMIT} planted exactly l={l} coincidences "
        f"at n={n} with eig_match={tol.eig_match:g}"
    )


@dataclass(frozen=True)
class RoundTripReport:
    """Planted round trips for one count l.  mismatches counts a wrong count or
    orbit length, residual_violations a residual >= residual_cap, failures a
    solver breakdown or degenerate cutoff; borel_indices is None unless l = n - 1."""

    l: int
    trials: int
    failures: int
    mismatches: int
    max_residual: float
    residual_cap: float
    residual_violations: int
    borel_indices: tuple | None


def verify_roundtrips(
    n: int, l: int, trials: int, rng: SeededRng, tol: Tolerances = DEFAULT_TOL
) -> RoundTripReport:
    """Monte Carlo check that canonical_form recovers a planted count l; trial
    t draws random_xi, then sample_K, from rng.derive(t)."""
    failures = mismatches = violations = 0
    worst = 0.0
    borels = set()
    for t in range(trials):
        trial = rng.derive(t)
        try:
            e = random_xi(trial, n, l, tol)
            g = sample_K(trial, n)
            # random_xi has validated e with xi_build already
            res = canonical_form(ad(g, _xi_matrix(e)), tol)
        except (EigensolverError, CutoffNotRegularSemisimple):
            failures += 1
            continue
        mismatches += res.l != l or res.idx.length != n - 1 - l
        worst = max(worst, res.residual)
        violations += res.residual >= _ROUNDTRIP_RESIDUAL_CAP
        borels.add(res.idx.i)
    borel_indices = tuple(sorted(borels)) if l == n - 1 else None
    return RoundTripReport(
        l, trials, failures, mismatches, worst, _ROUNDTRIP_RESIDUAL_CAP, violations, borel_indices
    )


def _embed(mat: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    k = mat.shape[0]
    out[:k, :k] = mat
    return out


def gz_gradients(x) -> list:
    """Trace-pairing gradients of the corner power traces at the top two levels.

    d tr((x_i)^j) corresponds to j * embed((x_i)^(j-1)) under <a, b> = tr(ab);
    returned in the order j = 1..n-1 for the cutoff, then j = 1..n for the
    full matrix (2n - 1 matrices).  Validated against finite differences in
    the test suite.
    """
    m = as_cmatrix(x)
    n = m.shape[0]
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    cut = m[:-1, :-1]
    power = np.eye(n - 1, dtype=complex)
    for j in range(1, n):
        out.append(j * _embed(power, n))
        power = power @ cut
    power = np.eye(n, dtype=complex)
    for j in range(1, n + 1):
        out.append(j * power)
        power = power @ m
    return out


class StrongRegularityReport(NamedTuple):
    """Verdict plus the data both routes produced."""

    ok: bool
    regular_full: bool
    regular_cutoff: bool
    centralizer_rank: int
    centralizer_expected: int
    gradient_rank: int


def is_n_strongly_regular(x, tol: Tolerances = DEFAULT_TOL) -> StrongRegularityReport:
    """Independence of the top two levels of trace-function differentials.

    Two independent routes are computed and cross-checked:

      A. the matrix and its cutoff are regular and their centralizers meet
         trivially (stacked centralizer bases have full rank);
      B. the 2n - 1 trace-pairing gradients have rank 2n - 1.

    A disagreement is a genuine tolerance pathology and is raised, not hidden.
    """
    m = as_cmatrix(x)
    n = m.shape[0]
    if n < 2:
        raise ValueError("need n >= 2")
    cut = m[:-1, :-1]

    z_full = centralizer_basis(m, tol)
    z_cut = centralizer_basis(cut, tol)
    regular_full = len(z_full) == n
    regular_cut = len(z_cut) == n - 1
    stacked = np.array(
        [b.reshape(-1) for b in z_full]
        + [_embed(b, n).reshape(-1) for b in z_cut]
    )
    cent_rank = numerical_rank(stacked, tol)
    expected = len(z_full) + len(z_cut)
    a_ok = regular_full and regular_cut and cent_rank == expected

    rows = np.array([g.reshape(-1) for g in gz_gradients(m)])
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0] = 1.0
    grad_rank = numerical_rank(rows / norms[:, None], tol)
    b_ok = grad_rank == 2 * n - 1

    if a_ok != b_ok:
        raise MethodDisagreement(
            f"centralizer route says {a_ok} (rank {cent_rank}/{expected}, "
            f"regular: {regular_full}/{regular_cut}) but gradient route says "
            f"{b_ok} (rank {grad_rank}/{2 * n - 1})"
        )
    return StrongRegularityReport(
        a_ok, regular_full, regular_cut, cent_rank, expected, grad_rank
    )


def _nilpotent(m: np.ndarray, tol: Tolerances) -> bool:
    # an m x m matrix within backward error eps of nilpotent sheds eigenvalues
    # of size ~eps^(1/m), so the threshold takes the m-th root of the radius
    vals = np.linalg.eigvals(m)
    thresh = (1.0 + np.linalg.norm(m, 2)) * tol.eig_match ** (1.0 / m.shape[0])
    return bool(np.all(np.abs(vals) <= thresh))


def sn_membership(x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether both the matrix and its cutoff are (numerically) nilpotent."""
    m = as_cmatrix(x)
    if m.shape[0] < 2:
        raise ValueError("need n >= 2")
    return _nilpotent(m, tol) and _nilpotent(m[:-1, :-1], tol)
