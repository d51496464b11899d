import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gzcut.spectra

from gzcut import (
    GZImage,
    SeededRng,
    Tolerances,
    ad,
    coincidence_count,
    eigenvalues,
    gz_function,
    match_spectra,
    newton_to_charpoly,
    phi_n,
    random_xi,
    sample_K,
    v_membership,
    xi_build,
)
from oracles import brute_match, cgauss, exact_char_poly

# bordered matrix used across the suite: cutoff diag(1, 2), border (0,1)/(0,1), corner 3
BORDERED = np.array([[1, 0, 0], [0, 2, 1], [0, 1, 3]], dtype=complex)


def test_gz_function_examples():
    assert gz_function(np.diag([1, 2, 3]), 2, 2) == pytest.approx(5)
    assert gz_function(np.zeros((3, 3)), 3, 2) == 0
    cyc = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).T  # cube root of identity
    assert gz_function(cyc, 3, 3) == pytest.approx(3)


def test_gz_function_range_checks():
    with pytest.raises(ValueError):
        gz_function(np.eye(2), 3, 1)
    with pytest.raises(ValueError):
        gz_function(np.eye(2), 2, 3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**31 - 1),
)
def test_gz_function_homogeneity(n, lam, seed):
    x = cgauss(np.random.default_rng(seed), (n, n))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            left = gz_function(lam * x, i, j)
            right = lam**j * gz_function(x, i, j)
            assert abs(left - right) <= 1e-9 * (1 + abs(right))


def test_phi_n_examples():
    img = phi_n(np.diag([1, 2, 3]))
    assert_allclose(img.c_prev, [3, 5], atol=0)
    assert_allclose(img.c_full, [6, 14, 36], atol=0)
    img0 = phi_n(np.zeros((2, 2)))
    assert img0.c_prev == (0,) and img0.c_full == (0, 0)


def test_phi_n_bordered_against_matrix_power_oracle():
    # freeze the expected power sums by direct matrix powers
    expected_prev = [np.trace(np.linalg.matrix_power(BORDERED[:2, :2], j)) for j in (1, 2)]
    expected_full = [np.trace(np.linalg.matrix_power(BORDERED, j)) for j in (1, 2, 3)]
    assert_allclose(expected_prev, [3, 5], atol=0)
    assert_allclose(expected_full, [6, 16, 51], atol=0)
    img = phi_n(BORDERED)
    assert_allclose(img.c_prev, expected_prev, atol=0)
    assert_allclose(img.c_full, expected_full, atol=0)


def test_phi_n_needs_a_cutoff():
    with pytest.raises(ValueError):
        phi_n(np.eye(1))


def test_phi_n_matches_gz_function():
    gen = np.random.default_rng(2)
    m = cgauss(gen, (4, 4))
    img = phi_n(m)
    assert_allclose(img.c_prev, [gz_function(m, 3, j) for j in (1, 2, 3)], rtol=1e-12)
    assert_allclose(img.c_full, [gz_function(m, 4, j) for j in (1, 2, 3, 4)], rtol=1e-12)


def test_phi_n_conjugation_invariance():
    gen = np.random.default_rng(7)
    rng = SeededRng(99)
    for n in (2, 3, 5):
        m = cgauss(gen, (n, n))
        k = sample_K(rng, n)
        a = np.concatenate([phi_n(m).c_prev, phi_n(m).c_full])
        b_img = phi_n(ad(k, m))
        b = np.concatenate([b_img.c_prev, b_img.c_full])
        assert_allclose(a, b, rtol=1e-6, atol=1e-8)


def test_match_spectra_examples():
    rep = match_spectra([1.0], [1.0, 2.0])
    assert rep.l == 1 and rep.pairs == ((1 + 0j, 1 + 0j),)
    assert match_spectra([0.0, 0.0], [0.0, 0.0, 0.0]).l == 2
    rep = match_spectra([1.0, 2.0], [1 + 1e-9, 5.0], Tolerances(eig_match=1e-7))
    assert rep.l == 1
    assert brute_match([1.0, 2.0], [1 + 1e-9, 5.0], 1e-7)[0] == 1


def test_match_spectra_prefers_small_residuals():
    tol = Tolerances(eig_match=1.0)
    rep = match_spectra([0.0, 0.1], [0.05, 0.12])
    # max matching is forced; the assignment must pick the cheaper pairing
    count, total = brute_match([0.0, 0.1], [0.05, 0.12], 1.0)
    assert rep.l == 0  # default radius is tiny
    rep = match_spectra([0.0, 0.1], [0.05, 0.12], tol)
    assert rep.l == count == 2
    assert sum(rep.residuals) == pytest.approx(total, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False), max_size=5),
    st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False), max_size=6),
    st.floats(min_value=1e-3, max_value=2.0),
)
def test_match_spectra_agrees_with_brute_force(a, b, radius):
    rep = match_spectra(a, b, Tolerances(eig_match=radius))
    count, total = brute_match(a, b, radius)
    assert rep.l == count
    assert sum(rep.residuals) == pytest.approx(total, abs=1e-9)


def test_coincidence_count_examples():
    assert coincidence_count(np.zeros((3, 3))).l == 2
    assert coincidence_count(np.diag([1.0, 2.0])).l == 1
    rep = coincidence_count(BORDERED)
    assert rep.l == 1
    # exact factorization: block diag(1) + [[2,1],[1,3]]; the lower block has
    # char poly l^2 - 5l + 5 (oracle), roots (5 +- sqrt5)/2, neither equal to 2
    assert exact_char_poly(BORDERED[1:, 1:].real) == [1, -5, 5]
    disc = cmath.sqrt(5)
    assert min(abs((5 + s * disc) / 2 - 2) for s in (-1, 1)) > 0.3
    assert rep.pairs[0] == (1 + 0j, 1 + 0j)


def test_coincidence_partition():
    # every matrix lands in exactly one class 0 <= l <= n-1
    gen = np.random.default_rng(13)
    for n in (2, 3, 4):
        for _ in range(20):
            l = coincidence_count(cgauss(gen, (n, n))).l
            assert 0 <= l <= n - 1


def test_newton_to_charpoly_examples():
    assert_allclose(newton_to_charpoly([6, 14, 36]).real, [1, -6, 11, -6], atol=1e-12)
    assert_allclose(newton_to_charpoly([0, 0]).real, [1, 0, 0], atol=0)
    assert_allclose(newton_to_charpoly([2]).real, [1, -2], atol=0)


def test_newton_round_trip_against_exact_oracle():
    gen = np.random.default_rng(29)
    for n in range(2, 6):
        m = gen.integers(-3, 4, size=(n, n))
        sums = phi_n(m).c_full
        expected = [float(c) for c in exact_char_poly(m)]
        assert_allclose(newton_to_charpoly(sums).real, expected, rtol=1e-10, atol=1e-7)
        assert_allclose(newton_to_charpoly(sums).imag, 0, atol=1e-8)


def test_v_membership_examples():
    assert v_membership(phi_n(np.zeros((3, 3))), 2)
    # disjoint spectra: cutoff power sums from diag(4, 5), full from diag(1, 2, 3)
    img = GZImage(phi_n(np.diag([4.0, 5.0, 0.0])).c_prev, phi_n(np.diag([1, 2, 3])).c_full, 3)
    assert not v_membership(img, 1)
    img = phi_n(BORDERED)
    assert v_membership(img, 1)
    assert not v_membership(img, 2)


def test_v_membership_recovers_spectra_once_per_image(monkeypatch):
    # bordered diagonal sharing exactly 2 eigenvalues (y[0] = y[1] = 0),
    # conjugated by a block-diagonal element of K
    b = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
    b[:-1, -1] = [0, 0, 1, 1]
    b[-1, :-1] = [1, 1, 1, 1]
    k = np.eye(5, dtype=complex)
    k[:-1, :-1] = cgauss(np.random.default_rng(11), (4, 4))
    x = k @ b @ np.linalg.inv(k)
    fresh = [v_membership(phi_n(x), l) for l in range(5)]
    assert fresh == [True, True, True, False, False]

    calls = []
    original = gzcut.spectra.aberth_roots

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gzcut.spectra, "aberth_roots", counting)
    img = phi_n(x)
    assert [v_membership(img, l) for l in range(5)] == fresh
    assert len(calls) == 2
    assert img == phi_n(x)
    assert hash(img) == hash(phi_n(x))


def test_v_membership_range():
    with pytest.raises(ValueError):
        v_membership(phi_n(np.zeros((3, 3))), 3)


def test_two_path_classification_agreement():
    gen = np.random.default_rng(37)
    tol = Tolerances(eig_match=1e-6)
    for n in range(2, 6):
        for _ in range(50):
            m = cgauss(gen, (n, n))
            l = coincidence_count(m, tol).l
            img = phi_n(m)
            assert v_membership(img, l, tol)
            if l < n - 1:
                assert not v_membership(img, l + 1, tol)


# a simple root can leave Aberth's step test unmet at the rounding floor (here
# one of 198 solves, n = 5, last step ~7e-13); the capped roots must still
# classify, so that warning is allowed and no other
@pytest.mark.filterwarnings("ignore:Aberth iteration:RuntimeWarning")
def test_both_routes_classify_planted_points_exactly():
    rng = SeededRng(53)
    for n in range(3, 9):
        for l in range(n):
            for t in range(3):
                trial = rng.derive(2 * (100 * n + 10 * l + t))
                x = ad(sample_K(trial.derive(1), n), xi_build(random_xi(trial, n, l)))
                assert coincidence_count(x).l == l
                img = phi_n(x)
                assert v_membership(img, l)
                assert l == n - 1 or not v_membership(img, l + 1)
