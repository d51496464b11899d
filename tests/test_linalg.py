import cmath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gzcut import (
    Spectrum,
    Tolerances,
    aberth_roots,
    centralizer_basis,
    char_poly,
    eigenvalues,
    eigenvalues_charpoly,
    is_invariant_subspace,
    is_regular,
    numerical_rank,
    sort_complex,
    span_equal,
)
from oracles import cgauss, exact_char_poly


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


def test_char_poly_examples():
    assert_allclose(char_poly(np.eye(2)).real, [1, -2, 1], atol=0)
    assert_allclose(char_poly(np.diag([1, 2, 3])).real, [1, -6, 11, -6], atol=0)
    # hand cofactor expansion: det(lI - [[2,1],[1,3]]) = l^2 - 5l + 5
    assert_allclose(char_poly([[2, 1], [1, 3]]).real, [1, -5, 5], atol=0)


def test_char_poly_matches_exact_oracle():
    gen = np.random.default_rng(3)
    for n in range(2, 6):
        m = gen.integers(-4, 5, size=(n, n))
        expected = [float(c) for c in exact_char_poly(m)]
        assert_allclose(char_poly(m).real, expected, rtol=1e-12, atol=1e-9)


def test_aberth_known_roots():
    assert_allclose(sort_complex(aberth_roots([1, -6, 11, -6])), [1, 2, 3], atol=1e-9)
    roots = sort_complex(aberth_roots([1, 0, 1]))  # z^2 + 1
    assert_allclose(roots, [-1j, 1j], atol=1e-10)


def test_aberth_multiple_roots_cluster():
    # pure power handled exactly, shifted power as a tight cluster
    assert_allclose(aberth_roots([1, 0, 0, 0]), [0, 0, 0], atol=0)
    roots = aberth_roots([1, -4, 4])  # (z - 2)^2
    assert_allclose(roots, [2, 2], atol=1e-5)
    # two triple roots: linear convergence runs the loop to max_iter
    roots = sort_complex(aberth_roots(np.poly([1, 1, 1, 2, 2, 2])))
    assert_allclose(roots, [1, 1, 1, 2, 2, 2], atol=2e-4)


def test_aberth_rejects_nonmonic_garbage():
    with pytest.raises(ValueError):
        aberth_roots([0, 1, 2])


def test_two_eigenvalue_routes_agree():
    gen = np.random.default_rng(5)
    for n in range(2, 7):
        m = cgauss(gen, (n, n))
        a = eigenvalues(m).as_array()
        b = eigenvalues_charpoly(m).as_array()
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
            assert (len(basis) == n) == is_regular(m)


def test_invariant_subspace_examples():
    gen = np.random.default_rng(41)
    m = cgauss(gen, (3, 3))
    assert is_invariant_subspace(m, np.eye(3)).ok
    ok, res = is_invariant_subspace(np.diag([1.0, 2.0]), np.eye(2)[:, :1])
    assert ok and res < 1e-14
    lower_shift = np.array([[0, 0], [1, 0]], dtype=complex)
    assert not is_invariant_subspace(lower_shift, np.eye(2)[:, :1]).ok


def test_invariant_subspace_rejects_rank_deficient_basis():
    with pytest.raises(ValueError):
        is_invariant_subspace(np.eye(2), np.ones((2, 2)))
