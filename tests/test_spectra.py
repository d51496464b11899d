import cmath
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    match_spectra,
    newton_to_charpoly,
    phi_n,
    random_xi,
    sample_K,
    v_membership,
    xi_build,
)
from gzcut.cli import read_matrix_file
from oracles import brute_match, cgauss, exact_char_poly, gz_function, per_power_phi_n

DATA = Path(__file__).resolve().parent / "data"

# bordered matrix used across the suite: cutoff diag(1, 2), border (0,1)/(0,1), corner 3
BORDERED = np.array([[1, 0, 0], [0, 2, 1], [0, 1, 3]], dtype=complex)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**31 - 1),
)
def test_gz_function_homogeneity(n, lam, seed):
    # the power sum p_j of phi_n, at either level, is homogeneous of degree j
    x = cgauss(np.random.default_rng(seed), (n, n))
    scaled, img = phi_n(lam * x), phi_n(x)
    for sums, base in ((scaled.c_prev, img.c_prev), (scaled.c_full, img.c_full)):
        for j, (left, p) in enumerate(zip(sums, base), 1):
            right = lam**j * p
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


def _parts(re, im, n):
    """An n x n complex matrix with the given real and imaginary parts, which
    may be -0.0: a sum re + 1j * im would round a -0.0 part to +0.0."""
    m = np.empty((n, n), dtype=complex)
    m.real, m.imag = re, im
    return m


def _bits(values):
    """The bit patterns of complex values: -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def test_phi_n_equals_the_per_power_oracle_bit_for_bit():
    gen = np.random.default_rng(19)
    for n in range(2, 9):
        mats = [cgauss(gen, (n, n)) for _ in range(8)]
        mats += [gen.integers(-3, 4, size=(n, n)), np.zeros((n, n)), 1e30 * cgauss(gen, (n, n))]
        # signed zeros: a zero power sum must come out as +0.0, as the
        # oracle's eye @ m makes it
        mats += [
            _parts(-0.0, gen.standard_normal((n, n)), n),
            _parts(gen.integers(-3, 4, size=(n, n)), -0.0, n),
            _parts(-0.0, -0.0, n),
        ]
        for m in mats:
            img = phi_n(m)
            c_prev, c_full = per_power_phi_n(m)
            assert _bits(img.c_prev) == _bits(c_prev)
            assert _bits(img.c_full) == _bits(c_full)


def test_phi_n_names_the_first_power_sum_past_the_float_range():
    x = cgauss(np.random.default_rng(3), (8, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning leaks out of the powers
        for scale, degree, level in ((1e40, 8, "full matrix"), (1e100, 4, "cutoff")):
            with pytest.raises(ValueError, match=f"^power sum of degree {degree} of the {level} "):
                phi_n(scale * x)
        phi_n(1e30 * x)


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), complex(1, float("-inf"))))
def test_gz_image_rejects_a_non_finite_power_sum(bad):
    with pytest.raises(ValueError, match="^power sum of degree 2 of the full matrix is not finite"):
        GZImage((1.0, 2.0), (3.0, bad, 4.0), 3)
    with pytest.raises(ValueError, match="^power sum of degree 1 of the cutoff is not finite"):
        GZImage((bad, 2.0), (bad, 3.0, 4.0), 3)


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
        k = sample_K(rng.derive(n), n)
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


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), complex(0, float("-inf"))))
def test_match_spectra_rejects_a_non_finite_value_naming_its_side(bad):
    # a NaN would go unmatched and an inf would match nothing, both silently
    with pytest.raises(ValueError, match="^the first spectrum has a non-finite value"):
        match_spectra([bad, 1], [1, 2])
    with pytest.raises(ValueError, match="^the second spectrum has a non-finite value"):
        match_spectra([1, 2], [2, bad])
    with pytest.raises(ValueError, match="^the first spectrum"):
        match_spectra([bad], [bad])


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


def test_the_trace_check_does_not_read_the_rank_cutoff():
    # the trace check's bound is fixed, so no rank cutoff fails a solve
    for rank_rel in (0.0, 1e-10, 1e300):
        assert coincidence_count(BORDERED, Tolerances(rank_rel=rank_rel)).l == 1
    x = cgauss(np.random.default_rng(3), (5, 5))
    assert coincidence_count(x, Tolerances(rank_rel=0)) == coincidence_count(x)


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


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), complex(1, float("-inf"))))
def test_newton_to_charpoly_rejects_a_non_finite_power_sum(bad):
    with pytest.raises(ValueError, match="^power sum of degree 1 is not finite"):
        newton_to_charpoly([bad, 1])
    with pytest.raises(ValueError, match="^power sum of degree 3 is not finite"):
        newton_to_charpoly([1, 2, bad, bad])


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

    calls, matches = [], []
    original, original_match = gzcut.spectra.aberth_roots, gzcut.spectra._match_stack

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def counting_match(a, b, radius):
        matches.append(radius)
        return original_match(a, b, radius)

    monkeypatch.setattr(gzcut.spectra, "aberth_roots", counting)
    monkeypatch.setattr(gzcut.spectra, "_match_stack", counting_match)
    img = phi_n(x)
    assert [v_membership(img, l) for l in range(5)] == fresh
    assert len(calls) == 2 and matches == [1e-6]
    # at a 0.5 radius the cutoff value 4 matches the full eigenvalue 3.65:
    # the image is rematched once for the new radius, and each radius keeps
    # its own answer
    loose = Tolerances(eig_match=0.05)
    assert [v_membership(img, l, loose) for l in range(5)] == [True] * 4 + [False]
    assert [v_membership(img, l) for l in range(5)] == fresh
    assert [v_membership(img, l, loose) for l in range(5)] == [True] * 4 + [False]
    assert len(calls) == 2 and matches == [1e-6, 0.5]
    # a second image of the same matrix recovers and matches on its own
    other = phi_n(x)
    assert [v_membership(other, l) for l in range(5)] == fresh
    assert len(calls) == 4 and matches == [1e-6, 0.5, 1e-6]
    assert img == phi_n(x)
    assert hash(img) == hash(phi_n(x))


def test_v_membership_range():
    with pytest.raises(ValueError):
        v_membership(phi_n(np.zeros((3, 3))), 3)


def test_v_membership_accepts_every_finite_radius():
    # 10 x 1e308 overflows to inf, a radius that admits every pair
    img = phi_n(np.diag([1.0, 2.0, 3.0]))
    assert v_membership(img, 1, Tolerances(eig_match=1e308))
    assert v_membership(img, 2, Tolerances(eig_match=1e308))


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


# planted twopath inputs whose power-sum route misses the count (ROADMAP item
# 10), saved from bench/workloads.twopath_inputs(seed, batch)[item]
ROUTE2_MISSES = (
    pytest.param("route2_s3108_b188_i209.json", 3, id="seed3108-batch188-item209"),
    pytest.param("route2_s3115_b25_i139.json", 7, id="seed3115-batch25-item139"),
    pytest.param("route2_s518_b259_i203.json", 2, id="seed518-batch259-item203"),
)


@pytest.mark.parametrize("name, l", ROUTE2_MISSES)
def test_eigvals_route_counts_the_planted_inputs_route_2_misses(name, l):
    assert coincidence_count(read_matrix_file(str(DATA / name))).l == l


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: float power traces put the recovered roots past the rematch radius",
)
@pytest.mark.parametrize("name, l", ROUTE2_MISSES)
def test_power_sum_route_confirms_the_planted_count(name, l):
    x = read_matrix_file(str(DATA / name))
    img = phi_n(x)
    assert v_membership(img, l)
    assert l == x.shape[0] - 1 or not v_membership(img, l + 1)


# an integer bordered matrix with diagonal (2, 2, -1, 3) whose first two
# slots are both L slots, so 2 is a semisimple double eigenvalue of the matrix
# and of its cutoff, conjugated by a unimodular integer block of K
REPEATED = DATA / "repeated_eigenvalue_n5_l2.json"


def test_a_semisimple_double_eigenvalue_counts_twice():
    assert coincidence_count(read_matrix_file(str(REPEATED))).l == 2


NO_ASSIGNMENT_SOLVER_PROBE = """
import contextlib, io, sys
import gzcut, gzcut.cli
solve, solved = gzcut.spectra._best_matching, []
def counting(*args):
    solved.append(1)
    return solve(*args)
gzcut.spectra._best_matching = counting
with contextlib.redirect_stdout(io.StringIO()):
    assert gzcut.cli.main(["verify", "--n", "4", "--trials", "3", "--seed", "0"]) == 0
assert not solved
assert gzcut.match_spectra([0, 1e-9], [0, 2e-9, 5]).l == 2
x = gzcut.cli.read_matrix_file(sys.argv[1])
assert gzcut.coincidence_count(x).l == 2
img = gzcut.phi_n(x)
assert gzcut.v_membership(img, 2) and not gzcut.v_membership(img, 3)
assert len(solved) == 3
assert "scipy.optimize._lsap" not in sys.modules
assert "scipy.optimize" in sys.modules
"""


def test_no_matching_loads_the_scipy_assignment_solver():
    # a fresh interpreter: every ambiguous matching is solved in gzcut, and
    # scipy.optimize stays registered for bench/spans.py but never runs
    env = {**os.environ, "PYTHONPATH": str(Path(gzcut.spectra.__file__).parents[1])}
    argv = [sys.executable, "-c", NO_ASSIGNMENT_SOLVER_PROBE, str(REPEATED)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
