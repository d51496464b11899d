"""Corner trace functions, the induced spectral maps, and coincidence counting.

The central quantity is the number of eigenvalues a matrix shares with its
cutoff, counted with multiplicity.  Counting "with multiplicity" means a
one-to-one matching between the two spectra, so the matcher below solves an
assignment problem rather than greedily pairing nearest values: near tolerance
boundaries greedy counting gets the answer wrong.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from .linalg import (
    DEFAULT_TOL,
    Spectrum,
    Tolerances,
    _eigvals_stack,
    aberth_roots,
    as_cmatrix,
    cutoff,
    eigenvalues,
    sort_complex,
)

__all__ = [
    "GZImage",
    "CoincidenceReport",
    "gz_function",
    "phi_n",
    "match_spectra",
    "coincidence_count",
    "newton_to_charpoly",
    "v_membership",
]


@dataclass(frozen=True)
class GZImage:
    """Power sums of the cutoff (degrees 1..n-1) and of the full matrix (1..n)."""

    c_prev: tuple
    c_full: tuple
    n: int

    def __post_init__(self):
        if len(self.c_prev) != self.n - 1 or len(self.c_full) != self.n:
            raise ValueError("power-sum lists must have lengths n-1 and n")

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


def gz_function(x, i: int, j: int) -> complex:
    """tr((x_i)^j) for the upper-left i x i corner x_i; homogeneous of degree j."""
    m = as_cmatrix(x)
    n = m.shape[0]
    if not (1 <= i <= n and 1 <= j <= i):
        raise ValueError(f"indices (i={i}, j={j}) out of range for n={n}")
    return complex(np.trace(np.linalg.matrix_power(m[:i, :i], j)))


def _power_traces(m: np.ndarray, count: int) -> tuple:
    out = []
    p = np.eye(m.shape[0], dtype=complex)
    for _ in range(count):
        p = p @ m
        out.append(complex(p.trace()))
    return tuple(out)


def phi_n(x) -> GZImage:
    """Power sums of the cutoff and of the full matrix; K-conjugation invariant."""
    m = as_cmatrix(x)
    n = m.shape[0]
    if n < 2:
        raise ValueError("the map needs n >= 2: a 1 x 1 matrix has no cutoff")
    return GZImage(_power_traces(cutoff(m), n - 1), _power_traces(m, n), n)


def _spectrum_values(s) -> np.ndarray:
    if isinstance(s, Spectrum):
        return s.as_array()
    return np.asarray(s, dtype=complex).ravel()


def _match_stack(a: np.ndarray, b: np.ndarray, radius: float):
    """Max-cardinality, then min-total-residual matching of each row of a
    (T, p) value stack with the same row of a (T, q) one.

    A pair is admissible when its values lie within `radius`.  When no value
    of a row pair has two or more admissible partners, the admissible pairs
    are the matching.  Otherwise the row pair is solved as a rectangular
    assignment with a prohibitive cost on inadmissible pairs; with the
    penalty dominating every admissible total, the assignment maximizes the
    admissible count first and minimizes the residual sum second.  Returns
    (matched, cost): the (T, p, q) mask of matched pairs and the distances.
    """
    cost = abs(a[:, :, None] - b[:, None, :])
    matched = cost <= radius
    # a value with two admissible partners shows up as a repeated
    # (row pair, value) key among the admissible pairs
    stack, rows, cols = (v.tolist() for v in matched.nonzero())
    ambiguous = set()
    for keys in (list(zip(stack, rows)), list(zip(stack, cols))):
        if len(set(keys)) < len(keys):
            ambiguous.update(key[0] for key, count in Counter(keys).items() if count > 1)
    big = 1.0 + 2.0 * (radius + 1.0) * min(a.shape[1], b.shape[1])
    for t in sorted(ambiguous):
        rows, cols = linear_sum_assignment(np.where(matched[t], cost[t], big))
        keep = matched[t, rows, cols]
        matched[t] = False
        matched[t, rows[keep], cols[keep]] = True
    return matched, cost


def _assignment(a: np.ndarray, b: np.ndarray, radius: float):
    """The matching of two value lists: (row indices, col indices, residuals)."""
    matched, cost = _match_stack(a[None], b[None], radius)
    rows, cols = matched[0].nonzero()
    return list(rows), list(cols), cost[0][rows, cols].tolist()


def match_spectra(s1, s2, tol: Tolerances = DEFAULT_TOL) -> CoincidenceReport:
    """Maximum multiset matching between two spectra.

    A pair is admissible when |lambda - mu| <= eig_match; each eigenvalue is
    used at most once per side, so multiplicities are respected.
    """
    a = _spectrum_values(s1)
    b = _spectrum_values(s2)
    rows, cols, residuals = _assignment(a, b, tol.eig_match)
    order = sorted(
        range(len(rows)),
        key=lambda t: (a[rows[t]].real, a[rows[t]].imag, residuals[t]),
    )
    pairs = tuple((complex(a[rows[t]]), complex(b[cols[t]])) for t in order)
    return CoincidenceReport(len(pairs), pairs, tuple(residuals[t] for t in order))


def coincidence_count(x, tol: Tolerances = DEFAULT_TOL) -> CoincidenceReport:
    """Coincidences between the spectra of the cutoff and of the full matrix."""
    m = as_cmatrix(x)
    if m.shape[0] < 2:
        raise ValueError("coincidence counting needs n >= 2")
    return match_spectra(eigenvalues(m[:-1, :-1], tol), eigenvalues(m, tol), tol)


def _coincidence_stack(mats: np.ndarray, tol: Tolerances):
    """coincidence_count over a (T, n, n) stack, with one eigenvalue call for
    the cutoffs and one for the full matrices.

    Returns (cut, matched, cost, errors): the sorted cutoff spectra (T, n-1),
    the (T, n-1, n) matching against the sorted full spectra with its
    distances, and the EigensolverError of each failed position (the
    cutoff's first, as coincidence_count raises it).
    """
    cut, errors = _eigvals_stack(mats[:, :-1, :-1], tol)
    full, full_errors = _eigvals_stack(mats, tol)
    for t, exc in full_errors.items():
        errors.setdefault(t, exc)
    cut = sort_complex(cut)
    matched, cost = _match_stack(cut, sort_complex(full), tol.eig_match)
    return cut, matched, cost, errors


def newton_to_charpoly(power_sums) -> np.ndarray:
    """Monic characteristic-polynomial coefficients from power sums.

    Newton's identities convert p_1..p_k into elementary symmetric functions;
    the coefficient of lambda^(k-i) is (-1)^i e_i.
    """
    p = np.asarray(power_sums, dtype=complex).ravel().tolist()
    k = len(p)
    if k < 1:
        raise ValueError("need at least one power sum")
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


def v_membership(img: GZImage, l: int, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether a power-sum image lies in the locus of >= l shared eigenvalues.

    Both spectra are recovered through Newton's identities and Aberth root
    finding once per image, on the first query, and reused by every later
    query on that image whatever its l or tol.  Each query rematches them at
    10x the coincidence radius: the round trip through coefficients loses
    precision, so the radius is derated.
    """
    if not 0 <= l <= img.n - 1:
        raise ValueError(f"l={l} out of range for n={img.n}")
    roots_prev, roots_full = img._roots
    loose = replace(tol, eig_match=10.0 * tol.eig_match)
    return match_spectra(roots_prev, roots_full, loose).l >= l
