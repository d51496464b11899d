import cmath
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gzcut import (
    EigensolverError,
    SeededRng,
    Tolerances,
    aberth_roots,
    ad,
    eigenvalues,
    newton_to_charpoly,
    numerical_rank,
    phi_n,
    random_xi,
    sample_K,
    sort_complex,
    span_equal,
    xi_build,
)
from gzcut.linalg import _TRACE_DRIFT_REL
from oracles import (
    cgauss,
    exact_char_poly,
    jacobi_aberth_roots,
    numpy_aberth_roots,
    numpy_newton_to_charpoly,
)
from gzcut.canonical import _centralizers


def test_eigenvalues_identity():
    assert_allclose(eigenvalues(np.eye(2)), [1.0, 1.0])


def test_eigenvalues_nilpotent_block():
    assert_allclose(eigenvalues([[0, 1], [0, 0]]), [0.0, 0.0])


def test_eigenvalues_symmetric_2x2_quadratic_oracle():
    # char poly from the exact oracle, roots by the quadratic formula
    coeffs = exact_char_poly([[2, 1], [1, 3]])
    assert coeffs == [1, -5, 5]
    disc = cmath.sqrt(5**2 - 4 * 5)
    expected = sort_complex([(5 - disc) / 2, (5 + disc) / 2])
    assert_allclose(eigenvalues([[2, 1], [1, 3]]), expected, atol=1e-12)


def test_eigenvalues_order_is_deterministic():
    vals = eigenvalues([[0, -2], [1, 0]])
    assert vals[0].imag < vals[1].imag or vals[0].real < vals[1].real


def test_eigenvalues_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues([[np.nan, 0], [0, 1]])


def test_spectrum_sum_matches_trace():
    gen = np.random.default_rng(11)
    for n in range(2, 7):
        m = cgauss(gen, (n, n))
        s = eigenvalues(m)
        assert abs(s.sum() - np.trace(m)) <= _TRACE_DRIFT_REL * (
            1 + np.linalg.norm(m)
        ) * n


def test_the_trace_check_holds_past_the_squaring_overflow(monkeypatch):
    # entries of modulus 1e200 square past the float range; the suite turns
    # an overflow warning into a failure, and an infinite bound would pass
    # any drift
    m = cgauss(np.random.default_rng(8), (4, 4))
    assert_allclose(eigenvalues(1e200 * m) / 1e200, eigenvalues(m), rtol=1e-12, atol=1e-12)
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: real(a) * (1 + 1e-6))
    with pytest.raises(EigensolverError, match="drifted from the trace"):
        eigenvalues(1e200 * m)


def test_aberth_known_roots():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a converged solve is silent
        roots = sort_complex(aberth_roots([1, -6, 11, -6]))
    assert_allclose(roots, [1, 2, 3], atol=1e-9)
    roots = sort_complex(aberth_roots([1, 0, 1]))  # z^2 + 1
    assert_allclose(roots, [-1j, 1j], atol=1e-10)


def test_aberth_multiple_roots_cluster():
    # pure power handled exactly, shifted power as a tight cluster
    assert_allclose(aberth_roots([1, 0, 0, 0]), [0, 0, 0], atol=0)
    roots = aberth_roots([1, -4, 4])  # (z - 2)^2
    assert_allclose(roots, [2, 2], atol=1e-5)
    # two triple roots converge linearly, and stop once p is down at
    # Horner's rounding error: silently, a cluster of radius ~eps^(1/3)
    coeffs = np.poly([1, 1, 1, 2, 2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = sort_complex(aberth_roots(coeffs))
    assert_allclose(roots, [1, 1, 1, 2, 2, 2], atol=1e-4)
    # a cap the iteration cannot converge in is still loud
    with pytest.warns(RuntimeWarning, match="degree-6.*max_iter=3"):
        aberth_roots(coeffs, max_iter=3)


def test_aberth_capped_warning_text_depends_only_on_degree_and_cap():
    # one text per (degree, max_iter): capped solves do not grow the
    # warning registry
    messages = []
    for coeffs in ([1, -6, 11, -6], [1, 2j, -3, 5]):
        with pytest.warns(RuntimeWarning, match="degree-3.*max_iter=2") as record:
            aberth_roots(coeffs, max_iter=2)
        messages += [str(w.message) for w in record]
    assert len(messages) == 2 and messages[0] == messages[1]


def test_aberth_rejects_nonmonic_garbage():
    with pytest.raises(ValueError):
        aberth_roots([0, 1, 2])


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), complex(0, float("nan"))))
def test_aberth_rejects_a_non_finite_coefficient_at_entry(bad):
    # no iterations are spent on a polynomial that cannot converge
    for coeffs in ([1, bad, 2], [1, 0, 0, bad], [bad, 1]):
        with pytest.raises(ValueError, match="^polynomial coefficients must be finite"):
            aberth_roots(coeffs, max_iter=1)


@pytest.mark.parametrize(
    "coeffs, overflow",
    [
        ([1, 1e300, 1e300], False),
        ([1, 1e160, 1e160, 1e160], False),
        ([1, 0, 1.7e308 + 1.7e308j], True),  # abs() of the recentered constant
    ],
)
def test_aberth_divergence_is_an_eigensolver_error(coeffs, overflow):
    with pytest.raises(EigensolverError, match="diverged") as info:
        aberth_roots(coeffs)
    assert isinstance(info.value.__cause__, OverflowError) == overflow
    with np.errstate(all="ignore"), pytest.raises(EigensolverError, match="diverged"):
        numpy_aberth_roots(coeffs)


def test_aberth_coincident_iterates_are_an_eigensolver_error(monkeypatch):
    # every start point on the centroid: the first repulsion sum divides by 0j
    monkeypatch.setattr(cmath, "rect", lambda r, phi: 0j)
    with pytest.raises(EigensolverError, match="diverged") as info:
        aberth_roots([1, -6, 11, -6])
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def _repeated_planted(gen, rng, n, l):
    """k b k^-1 for a bordered b with l coincidences whose slots 0 and 1 share
    a diagonal value and a zero border entry: a double eigenvalue of b and of
    its cutoff."""
    h = 2.0 * cgauss(gen, n - 1)
    h[1] = h[0]
    b = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(b[:-1, :-1], h)
    b[:-1, -1] = 1.0 + cgauss(gen, n - 1) / 4
    b[-1, :-1] = 1.0 + cgauss(gen, n - 1) / 4
    b[-1, :l] = 0.0
    b[-1, -1] = cgauss(gen)
    return ad(sample_K(rng, n), b)


def _power_sum_polys():
    """(monic coefficients, whether every root is simple) of degree 1..8:
    random coefficients, random roots, and both characteristic polynomials of
    planted points and of planted points with a double eigenvalue."""
    gen = np.random.default_rng(43)
    rng = SeededRng(43)
    for k in range(1, 9):
        for _ in range(10):
            yield np.concatenate([[1.0], cgauss(gen, k)]), True
            yield np.poly(2.0 * cgauss(gen, k)), True
    for n in range(2, 9):
        for l in range(n):
            trial = rng.derive(2 * (10 * n + l))
            img = phi_n(ad(sample_K(trial.derive(1), n), xi_build(random_xi(trial, n, l))))
            yield newton_to_charpoly(img.c_prev), True
            yield newton_to_charpoly(img.c_full), True
    for n in range(3, 9):
        for l in range(2, n):
            img = phi_n(_repeated_planted(gen, rng.derive(200 + 10 * n + l), n, l))
            yield newton_to_charpoly(img.c_prev), False
            yield newton_to_charpoly(img.c_full), False


def test_aberth_matches_the_numpy_loop():
    # the scalar loop runs the numpy loop's iteration with other rounding:
    # converged simple roots agree to rounding; runs the oracle capped at
    # max_iter, and double roots (fixed only to ~sqrt(eps) by any floating
    # evaluation), agree to 1e-6
    seen = {"converged": 0, "loose": 0}
    for coeffs, simple in _power_sum_polys():
        with np.errstate(all="ignore"):
            want = numpy_aberth_roots(coeffs)
            # a run that passed its step test stops at the same iteration when allowed more
            converged = np.array_equal(want, numpy_aberth_roots(coeffs, max_iter=400))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = aberth_roots(coeffs)
        want, got = sort_complex(want), sort_complex(got)
        if converged and simple:
            seen["converged"] += 1
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        else:
            seen["loose"] += 1
            assert np.abs(got - want).max() <= 1e-6
    assert seen["converged"] > 200 and seen["loose"] > 10


def test_aberth_sweeps_match_the_jacobi_loop():
    # the Gauss-Seidel sweeps and the Jacobi loop they replaced share their
    # fixed points and their exits: simple roots agree to rounding, double
    # roots (fixed only to ~sqrt(eps) by any floating evaluation) to 1e-6
    seen = {True: 0, False: 0}
    for coeffs, simple in _power_sum_polys():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = sort_complex(jacobi_aberth_roots(coeffs))
            got = sort_complex(aberth_roots(coeffs))
        seen[simple] += 1
        if simple:
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        else:
            assert np.abs(got - want).max() <= 1e-6
    assert seen[True] > 200 and seen[False] > 10


def test_aberth_converges_on_every_power_sum_polynomial():
    # the rounding-floor exit ends double-eigenvalue solves and simple roots
    # whose steps stall above the step tolerance alike: no solve reaches max_iter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs, _ in _power_sum_polys():
            aberth_roots(coeffs)


def test_newton_to_charpoly_matches_the_numpy_loop():
    gen = np.random.default_rng(47)
    for n in range(2, 9):
        for _ in range(5):
            img = phi_n(cgauss(gen, (n, n)))
            for sums in (img.c_prev, img.c_full):
                assert_array_equal(newton_to_charpoly(sums), numpy_newton_to_charpoly(sums))


def test_two_eigenvalue_routes_agree():
    gen = np.random.default_rng(5)
    for n in range(2, 7):
        m = cgauss(gen, (n, n))
        a = eigenvalues(m)
        b = sort_complex(aberth_roots(newton_to_charpoly(phi_n(m).c_full)))
        assert_allclose(a, b, atol=1e-8 * (1 + np.abs(a).max()))


def test_numerical_rank_examples():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank([[1, 1], [1, 1]]) == 1


def test_numerical_rank_rectangular():
    assert numerical_rank(np.ones((2, 5))) == 1
    assert numerical_rank(cgauss(np.random.default_rng(0), (3, 5))) == 3


def test_rank_invariant_under_unitary():
    gen = np.random.default_rng(17)
    for _ in range(10):
        m = cgauss(gen, (4, 4))
        m[:, 2] = m[:, 0] + m[:, 1]  # force rank 3
        q, _ = np.linalg.qr(cgauss(gen, (4, 4)))
        assert numerical_rank(q @ m) == numerical_rank(m) == 3


def test_spectrum_invariant_under_permutation_similarity():
    gen = np.random.default_rng(23)
    tol = Tolerances()
    for _ in range(10):
        m = cgauss(gen, (5, 5))
        p = np.eye(5)[gen.permutation(5)]
        a = eigenvalues(m)
        b = eigenvalues(p @ m @ p.T)
        assert_allclose(a, b, atol=100 * tol.eig_match)


def centralizer_bases(mats):
    """The centralizer bases the stacked kernel gives a stack of matrices."""
    mats = np.asarray(mats, dtype=complex)
    vh, dims = _centralizers(mats, Tolerances())
    n = mats.shape[-1]
    return [list(v[n * n - d :].reshape(-1, n, n)) for v, d in zip(vh, dims)]


def centralizer_basis(a):
    return centralizer_bases(np.asarray(a)[None])[0]


def test_centralizer_identity_is_everything():
    assert len(centralizer_basis(np.eye(3))) == 9


def test_centralizer_distinct_diagonal():
    basis = centralizer_basis(np.diag([1.0, 2.0]))
    assert len(basis) == 2
    off = [abs(b[0, 1]) + abs(b[1, 0]) for b in basis]
    assert max(off) < 1e-10


def test_centralizer_nilpotent_2x2_hand_solve():
    # solving [a, z] = 0 entrywise gives z = alpha I + beta a
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    basis = centralizer_basis(a)
    assert len(basis) == 2
    assert span_equal(basis, [np.eye(2), a])


def test_centralizer_contains_identity_and_counts_regularity():
    gen = np.random.default_rng(31)
    for n in (2, 3, 4):
        # one stacked call for a generic, a scalar and a regular diagonal matrix
        mats = [cgauss(gen, (n, n)), np.eye(n), np.diag(np.arange(n, dtype=float))]
        for m, basis in zip(mats, centralizer_bases(mats)):
            stacked = np.array([b.reshape(-1) for b in basis] + [np.eye(n).reshape(-1)])
            assert numerical_rank(stacked) == len(basis)  # identity inside the span
            assert len(basis) >= n
            assert all(np.abs(m @ b - b @ m).max() < 1e-10 for b in basis)
