"""Corner trace functions, the induced spectral maps, and coincidence counting.

The central quantity is the number of eigenvalues a matrix shares with its
cutoff, counted with multiplicity.  Counting "with multiplicity" means a
one-to-one matching between the two spectra.  Greedily pairing nearest values
gets the count wrong near tolerance boundaries, so the matcher finds the
matching with the most pairs, and among those the least total residual.  Where
no value has two partners within the radius the admissible pairs are that
matching; elsewhere a small exact program over the sets of used columns finds
it.  That program solves the assignment problem of Kuhn (1955) and Munkres
(1957) at the sizes n <= 8 gzcut works at, so no library solver is needed.
"""

from __future__ import annotations

import cmath
import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _eigvals_stack,
    aberth_roots,
    as_cmatrix,
    sort_complex,
)

__all__ = [
    "GZImage",
    "CoincidenceReport",
    "phi_n",
    "match_spectra",
    "coincidence_count",
    "newton_to_charpoly",
    "power_sum_count",
    "v_membership",
]


def _lazy_module(name: str):
    """The module `name`, registered in sys.modules but executed only on its
    first attribute access; an already imported module is returned as it is
    (find_spec would hand back its live spec, which must not be rewritten)."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


# unused by gzcut but read by bench/spans.py; ROADMAP item 1 removes both
_optimize = _lazy_module("scipy.optimize")


@dataclass(frozen=True)
class GZImage:
    """Power sums of the cutoff (degrees 1..n-1) and of the full matrix (1..n),
    all finite."""

    c_prev: tuple
    c_full: tuple
    n: int

    def __post_init__(self):
        if len(self.c_prev) != self.n - 1 or len(self.c_full) != self.n:
            raise ValueError("power-sum lists must have lengths n-1 and n")
        bad = [
            (j, level)
            for level, sums in (("cutoff", self.c_prev), ("full matrix", self.c_full))
            for j, v in enumerate(sums, 1)
            if not cmath.isfinite(v)
        ]
        if bad:
            # the lowest degree, the cutoff's on a tie
            raise ValueError("power sum of degree {} of the {} is not finite".format(*min(bad)))

    @cached_property
    def _roots(self) -> tuple:
        """Spectra recovered from (c_prev, c_full) by Newton and Aberth, sorted.

        Computed on first use and kept in the instance __dict__, so it lives
        and dies with the image and plays no part in equality or hashing.
        """
        out = []
        for sums in (self.c_prev, self.c_full):
            roots = sort_complex(aberth_roots(newton_to_charpoly(sums)))
            roots.flags.writeable = False
            out.append(roots)
        return tuple(out)

    @cached_property
    def _counts(self) -> dict:
        """Matched counts of _roots by matching radius, filled by
        power_sum_count; kept in the instance __dict__ as _roots is."""
        return {}


@dataclass(frozen=True)
class CoincidenceReport:
    """Matched eigenvalue pairs between a cutoff spectrum and a full spectrum.

    l          number of matched pairs (the coincidence count)
    pairs      tuples (cutoff eigenvalue, full eigenvalue), each value used once
    residuals  |lambda - mu| per pair
    """

    l: int
    pairs: tuple
    residuals: tuple


def _power_traces(m: np.ndarray, count: int) -> tuple:
    """tr(m^j) for j = 1..count: the powers m + 0.0, then each times m, go
    into one (count, n, n) stack and their traces are one reduction."""
    powers = np.empty((count, *m.shape), dtype=complex)
    # m + 0.0 turns every -0.0 part of m into +0.0, so no power starts from a
    # negative zero; numpy's complex trace sums from +0.0, so a zero power
    # sum is +0.0
    np.add(m, 0.0, out=powers[0])
    for j in range(1, count):
        np.matmul(powers[j - 1], m, out=powers[j])
    return tuple(powers.trace(axis1=1, axis2=2).tolist())


def phi_n(x) -> GZImage:
    """Power sums of the cutoff and of the full matrix; K-conjugation invariant.

    A power sum past the float range raises a ValueError naming the lowest
    such degree.
    """
    m = as_cmatrix(x)
    n = m.shape[0]
    if n < 2:
        raise ValueError("the map needs n >= 2: a 1 x 1 matrix has no cutoff")
    # an overflowing power is caught by GZImage's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        return GZImage(_power_traces(m[:-1, :-1], n - 1), _power_traces(m, n), n)


def _match_stack(a: np.ndarray, b: np.ndarray, radius: float):
    """Max-cardinality, then min-total-residual matching of each row of a
    (T, p) value stack with the same row of a (T, q) one.

    A pair is admissible when its values lie within `radius`.  A pair whose
    two values have no other admissible partner is in every best matching.
    The admissible pairs of values with two or more partners are solved
    exactly by _best_matching, one row pair at a time.  Returns (matched,
    cost): the (T, p, q) mask of matched pairs and the distances.
    """
    cost = abs(a[:, :, None] - b[:, None, :])
    matched = cost <= radius
    row_partners, col_partners = matched.sum(-1), matched.sum(-2)
    # a row pair is ambiguous when a value on either side has two admissible partners
    ambiguous = (row_partners > 1).any(-1) | (col_partners > 1).any(-1)
    for t in ambiguous.nonzero()[0].tolist():
        contested = matched[t] & ((row_partners[t, :, None] > 1) | (col_partners[t] > 1))
        rows, cols = contested.nonzero()
        pairs = _best_matching(rows.tolist(), cols.tolist(), cost[t, rows, cols].tolist())
        matched[t] &= ~contested
        matched[t, [r for r, _ in pairs], [c for _, c in pairs]] = True
    return matched, cost


def _best_matching(rows: list, cols: list, dists: list) -> list:
    """Among the matchings of the admissible pairs (rows[k], cols[k]) at
    distances dists[k], one with the most pairs, and among those the least
    total distance: a list of (row, col) pairs.

    A dynamic program over the sets of columns already used, one row at a
    time, keeps the best (-count, total) for each set; a tuple comparison
    puts the count first.  Of equal candidates the first one found is kept,
    so ties are broken the same way in every run.  At most 2^8 column sets
    exist at n <= 8.
    """
    bit = {c: 1 << k for k, c in enumerate(dict.fromkeys(cols))}
    options = {}
    for r, c, d in zip(rows, cols, dists):
        options.setdefault(r, []).append((bit[c], r, c, d))
    # used columns -> (-count, total, pairs)
    states = {0: (0, 0.0, ())}
    for row_options in options.values():
        grown = dict(states)
        for used, (neg_count, total, pairs) in states.items():
            for b, r, c, d in row_options:
                if not used & b:
                    candidate = (neg_count - 1, total + d, pairs + ((r, c),))
                    best = grown.get(used | b)
                    if best is None or candidate[:2] < best[:2]:
                        grown[used | b] = candidate
        states = grown
    return min(states.values(), key=lambda state: state[:2])[2]


def _assignment(a: np.ndarray, b: np.ndarray, radius: float):
    """The matching of two value lists: (row indices, col indices, residuals)."""
    matched, cost = _match_stack(a[None], b[None], radius)
    rows, cols = matched[0].nonzero()
    return rows.tolist(), cols.tolist(), cost[0][rows, cols].tolist()


def _report(a: np.ndarray, b: np.ndarray, rows: list, cols: list, residuals: list):
    """The CoincidenceReport of the pairs (a[rows[k]], b[cols[k]]) at
    distances residuals[k], sorted by (cutoff value, residual)."""
    a_vals, b_vals = a.tolist(), b.tolist()
    found = sorted(
        ((a_vals[r], b_vals[c], d) for r, c, d in zip(rows, cols, residuals)),
        key=lambda pair: (pair[0].real, pair[0].imag, pair[2]),
    )
    pairs = tuple((u, v) for u, v, _ in found)
    return CoincidenceReport(len(pairs), pairs, tuple(d for _, _, d in found))


def match_spectra(s1, s2, tol: Tolerances = DEFAULT_TOL) -> CoincidenceReport:
    """Maximum multiset matching between two spectra.

    A pair is admissible when |lambda - mu| <= eig_match; each eigenvalue is
    used at most once per side, so multiplicities are respected.  A
    non-finite value raises a ValueError naming its side.
    """
    sides = []
    for side, values in (("first", s1), ("second", s2)):
        v = np.asarray(values, dtype=complex).ravel()
        if not np.isfinite(v).all():
            raise ValueError(f"the {side} spectrum has a non-finite value")
        sides.append(v)
    a, b = sides
    return _report(a, b, *_assignment(a, b, tol.eig_match))


def coincidence_count(x, tol: Tolerances = DEFAULT_TOL) -> CoincidenceReport:
    """Coincidences between the spectra of the cutoff and of the full matrix.

    A failed solve raises its EigensolverError, the cutoff's first.
    """
    m = as_cmatrix(x)
    if m.shape[0] < 2:
        raise ValueError("coincidence counting needs n >= 2")
    errors = {}
    cut, full = _spectra_stack(m[None], errors)
    if errors:
        raise errors[0]
    return _report(cut[0], full[0], *_assignment(cut[0], full[0], tol.eig_match))


def _spectra_stack(mats: np.ndarray, errors: dict):
    """The sorted cutoff and full spectra of a (T, n, n) stack, by one
    eigenvalue call each.  A failed position keeps its slot with stand-in
    values and its EigensolverError goes to errors, the cutoff's first."""
    cut = sort_complex(_eigvals_stack(mats[:, :-1, :-1], errors))
    return cut, sort_complex(_eigvals_stack(mats, errors))


def _coincidence_stack(mats: np.ndarray, tol: Tolerances, errors: dict):
    """coincidence_count over a (T, n, n) stack: (matched, cost), the
    (T, n-1, n) matching of the sorted cutoff spectra against the sorted full
    spectra, and its distances.  A failed position fails as in _spectra_stack.
    """
    return _match_stack(*_spectra_stack(mats, errors), tol.eig_match)


def newton_to_charpoly(power_sums) -> np.ndarray:
    """Monic characteristic-polynomial coefficients from power sums.

    Newton's identities convert p_1..p_k into elementary symmetric functions;
    the coefficient of lambda^(k-i) is (-1)^i e_i.  A non-finite power sum
    raises a ValueError naming the lowest such degree, as GZImage does.
    """
    p = np.asarray(power_sums, dtype=complex).ravel().tolist()
    k = len(p)
    if k < 1:
        raise ValueError("need at least one power sum")
    if not all(map(cmath.isfinite, p)):
        bad = next(j for j, v in enumerate(p, 1) if not cmath.isfinite(v))
        raise ValueError(f"power sum of degree {bad} is not finite")
    e = [1.0 + 0.0j]
    for m in range(1, k + 1):
        acc = 0.0 + 0.0j
        for i in range(1, m + 1):
            if i % 2:
                acc += e[m - i] * p[i - 1]
            else:
                acc -= e[m - i] * p[i - 1]
        # numpy's arithmetic on Python scalars: its complex division scales
        # by the reciprocal, and its sign flip is a multiply by -1.0, so the
        # coefficients match a numpy evaluation of the same sums bit for bit
        e.append(acc * (1.0 / m))
    return np.array([v * -1.0 if i % 2 else v for i, v in enumerate(e)])


def power_sum_count(img: GZImage, tol: Tolerances = DEFAULT_TOL) -> int:
    """The coincidence count of a power-sum image, at most n - 1.

    Both spectra are recovered through Newton's identities and Aberth root
    finding once per image, on the first query, and matched at 10x the
    coincidence radius: the round trip through coefficients loses precision,
    so the radius is derated.  The derated radius may overflow to inf, which
    admits every pair.  The image keeps the count of each radius it was
    queried at, so each radius is matched once.
    """
    radius = 10.0 * tol.eig_match
    counts = img._counts
    if radius not in counts:
        cut, full = img._roots
        counts[radius] = int(_match_stack(cut[None], full[None], radius)[0].sum())
    return counts[radius]


def v_membership(img: GZImage, l: int, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether a power-sum image lies in the locus of >= l shared eigenvalues:
    power_sum_count(img, tol) >= l.  An l outside 0..n-1 raises a ValueError."""
    if not 0 <= l <= img.n - 1:
        raise ValueError(f"l={l} out of range for n={img.n}")
    return power_sum_count(img, tol) >= l
