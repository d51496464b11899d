import cmath
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gzcut import (
    EigensolverError,
    SeededRng,
    Spectrum,
    Tolerances,
    aberth_roots,
    ad,
    centralizer_basis,
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
from oracles import (
    cgauss,
    exact_char_poly,
    numpy_aberth_roots,
    numpy_newton_to_charpoly,
)


def test_eigenvalues_identity():
    assert_allclose(eigenvalues(np.eye(2)).as_array(), [1.0, 1.0])


def test_eigenvalues_nilpotent_block():
    assert_allclose(eigenvalues([[0, 1], [0, 0]]).as_array(), [0.0, 0.0])


def test_eigenvalues_symmetric_2x2_quadratic_oracle():
    # char poly from the exact oracle, roots by the quadratic formula
    coeffs = exact_char_poly([[2, 1], [1, 3]])
    assert coeffs == [1, -5, 5]
    disc = cmath.sqrt(5**2 - 4 * 5)
    expected = sort_complex([(5 - disc) / 2, (5 + disc) / 2])
    assert_allclose(eigenvalues([[2, 1], [1, 3]]).as_array(), expected, atol=1e-12)


def test_eigenvalues_order_is_deterministic():
    vals = eigenvalues([[0, -2], [1, 0]]).as_array()
    assert vals[0].imag < vals[1].imag or vals[0].real < vals[1].real


def test_eigenvalues_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues([[np.nan, 0], [0, 1]])


def test_spectrum_sum_matches_trace():
    gen = np.random.default_rng(11)
    tol = Tolerances()
    for n in range(2, 7):
        m = cgauss(gen, (n, n))
        s = eigenvalues(m, tol)
        assert abs(s.as_array().sum() - np.trace(m)) <= tol.rank_rel * (
            1 + np.linalg.norm(m)
        ) * n


def test_spectrum_length_validated():
    with pytest.raises(ValueError):
        Spectrum((1 + 0j,), 2)


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
    # two triple roots: linear convergence runs the loop to max_iter
    with pytest.warns(RuntimeWarning, match="degree-6.*max_iter=200"):
        roots = sort_complex(aberth_roots(np.poly([1, 1, 1, 2, 2, 2])))
    assert_allclose(roots, [1, 1, 1, 2, 2, 2], atol=2e-4)


def test_aberth_rejects_nonmonic_garbage():
    with pytest.raises(ValueError):
        aberth_roots([0, 1, 2])


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
        a = eigenvalues(m).as_array()
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
        a = eigenvalues(m).as_array()
        b = eigenvalues(p @ m @ p.T).as_array()
        assert_allclose(a, b, atol=100 * tol.eig_match)


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
        for m in (cgauss(gen, (n, n)), np.eye(n), np.diag(np.arange(n, dtype=float))):
            basis = centralizer_basis(m)
            stacked = np.array([b.reshape(-1) for b in basis] + [np.eye(n).reshape(-1)])
            assert numerical_rank(stacked) == len(basis)  # identity inside the span
            assert len(basis) >= n
