import cmath
import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gzcut import (
    CutoffNotRegularSemisimple,
    EigensolverError,
    OrbitIndex,
    RoundTripReport,
    SeededRng,
    Tolerances,
    ULPattern,
    XiElement,
    XiInvariantError,
    ad,
    canonical_form,
    coincidence_count,
    contains,
    eigenvalues,
    gz_gradients,
    is_n_strongly_regular,
    nilradical_n,
    numerical_rank,
    parabolic_p,
    pattern_parabolic,
    random_xi,
    reduce_to_xi,
    sample_K,
    sample_in,
    sn_membership,
    sort_complex,
    stabilizer,
    verify_roundtrips,
    xi_build,
    xi_pattern,
)
from oracles import cgauss, failing_kernel, gz_function, serial_canonical_form

BORDERED = np.array([[1, 0, 0], [0, 2, 1], [0, 1, 3]], dtype=complex)


def xi(n, l, h, y, z, w):
    return XiElement(n=n, l=l, h=tuple(h), y=tuple(y), z=tuple(z), w=w)


def test_xi_build_examples():
    m = xi_build(xi(3, 1, (1, 2), (0, 1), (0, 1), 3))
    assert_allclose(m, BORDERED, atol=0)

    # no coincidence: char poly of the assembly is l^2 - 5l - 1, whose roots
    # (5 +- sqrt(29))/2 stay away from the cutoff eigenvalue 5
    m = xi_build(xi(2, 0, (5,), (1,), (1,), 0))
    assert_allclose(m, [[5, 1], [1, 0]], atol=0)
    disc = cmath.sqrt(29)
    assert min(abs((5 + s * disc) / 2 - 5) for s in (-1, 1)) > 0.1

    m = xi_build(xi(2, 1, (0,), (0,), (1,), 0))
    assert_allclose(m, [[0, 0], [1, 0]], atol=0)
    assert coincidence_count(m).l == 1


def test_xi_build_invariant_violations():
    with pytest.raises(XiInvariantError, match="distinct"):
        xi_build(xi(3, 1, (1, 1), (0, 1), (0, 1), 0))
    with pytest.raises(XiInvariantError, match="shared range"):
        xi_build(xi(3, 1, (1, 2), (1, 1), (1, 1), 0))  # product nonzero in slot 1
    with pytest.raises(XiInvariantError, match="vanishes"):
        xi_build(xi(3, 0, (1, 2), (0, 1), (0, 1), 0))  # slot 1 should be unshared
    # no border entry vanishes, but slot 1's product of 1e-10 still shares h_1
    with pytest.raises(XiInvariantError, match="shares 1 eigenvalues with its cutoff, expected 0"):
        xi_build(xi(3, 0, (1, 2), (1e-5, 1), (1e-5, 1), 0))
    # y_1 vanishes, but z_1 = 1e4 moves h_1 off the spectrum; slot 2's
    # product of 1e-10 keeps h_2 on it
    with pytest.raises(XiInvariantError, match="differ from the leading diagonal values"):
        xi_build(xi(3, 1, (1, 2), (5e-8, 1e-5), (1e4, 1e-5), 0))


@pytest.mark.parametrize("field", ("h", "y", "z", "w"))
@pytest.mark.parametrize("bad", (np.inf, np.nan, complex(0, -np.inf)))
def test_xi_element_rejects_non_finite_entries(field, bad):
    data = {"h": (1, 2), "y": (0, 1), "z": (0, 1), "w": 3}
    data[field] = bad if field == "w" else (bad, 1)
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        XiElement(n=3, l=1, **data)


def test_xi_element_needs_a_cutoff():
    # a 1 x 1 form has no diagonal to gap-check, so xi_build could not validate it
    with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
        XiElement(1, 0, (), (), (), 0.5)


def test_xi_pattern_examples():
    assert xi_pattern(xi(3, 1, (1, 2), (0, 1), (1, 1), 0)).marks == ("L",)
    assert xi_pattern(xi(3, 1, (1, 2), (1, 1), (0, 1), 0)).marks == ("U",)
    # both entries zero resolves to U
    assert xi_pattern(xi(3, 1, (1, 2), (0, 1), (0, 1), 0)).marks == ("U",)
    with pytest.raises(XiInvariantError):
        xi_pattern(xi(3, 1, (1, 2), (1, 1), (1, 1), 0))


def test_stabilized_flag_shapes():
    s = pattern_parabolic(ULPattern(("U",)), 3)
    assert (s.mask == stabilizer(np.eye(3), (1, 3)).mask).all()
    assert_allclose(s.frame.real, np.eye(3), atol=0)

    s = pattern_parabolic(ULPattern(("L",)), 3)
    assert (s.mask == stabilizer(np.eye(3), (2, 3)).mask).all()
    assert_allclose(s.frame.real[:, 0], [0, 1, 0], atol=0)
    assert_allclose(s.frame.real[:, 2], [1, 0, 0], atol=0)

    assert pattern_parabolic(ULPattern(()), 4).mask.all()  # one step: (4,)


def test_xi_elements_stabilize_their_flag():
    rng = SeededRng(14)
    for n, l in ((3, 1), (4, 2), (5, 3)):
        e = random_xi(rng.derive(10 * n + l), n, l)
        m = xi_build(e)
        s = pattern_parabolic(xi_pattern(e), n)
        # V_k is a step of the flag when no mask entry carries it out of itself
        steps = [k for k in range(1, n + 1) if not s.mask[k:, :k].any()]
        assert len(steps) == l + 1
        for k in steps:
            v = s.frame[:, :k]
            assert numerical_rank(np.hstack([v, m @ v])) == v.shape[1]


def test_reduce_to_xi_diagonal():
    k, e = reduce_to_xi(np.diag([1.0, 2.0, 3.0]))
    assert e.l == 2
    assert_allclose(sort_complex(e.h), [1, 2], atol=1e-12)
    assert max(abs(v) for v in e.y + e.z) < 1e-12
    assert e.w == pytest.approx(3)


def test_reduce_to_xi_fixed_point_up_to_sorting():
    k, e = reduce_to_xi(BORDERED)
    assert e.l == 1
    assert_allclose(sort_complex(e.h), [1, 2], atol=1e-10)
    assert_allclose(ad(k, BORDERED), xi_build(e), atol=1e-10)


def test_reduce_to_xi_round_trip_preserves_data():
    rng = SeededRng(50)
    for t, (n, l) in enumerate(((3, 0), (3, 2), (4, 1), (5, 2))):
        e = random_xi(rng.derive(t), n, l)
        g = sample_K(rng.derive(100 + t), n)
        x = ad(g, xi_build(e))
        k, out = reduce_to_xi(x)
        assert out.l == l
        assert_allclose(sort_complex(out.h), sort_complex(e.h), atol=1e-8)
        assert_allclose(ad(k, x), xi_build(out, Tolerances()), atol=1e-8)


def test_reduce_to_xi_rejects_degenerate_cutoff():
    m = np.diag([1.0, 1.0, 5.0])
    with pytest.raises(CutoffNotRegularSemisimple):
        reduce_to_xi(m)


def test_reduce_to_xi_warns_near_the_gap_policy():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = 0.0, 5e-4, 1.0
    with pytest.warns(RuntimeWarning, match="nearly degenerate"):
        reduce_to_xi(m)


def test_a_failed_full_solve_is_left_out_of_the_conditioning_warning(monkeypatch):
    # the cutoff gap of 0.5 lies in the warning band (0.1, 1] at eig_match
    # 1e-4, but x's own eigenvalue solve fails, so x fails instead of warning
    x = np.array([[0, 0, 1], [0, 0.5, 1], [1, 1, 3]], dtype=complex)
    failing_kernel(monkeypatch, "eigvals", x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EigensolverError, match="eigenvalue iteration failed"):
            reduce_to_xi(x, Tolerances(eig_match=1e-4))


def test_canonical_form_worked_example():
    res = canonical_form(BORDERED)
    assert res.l == 1
    assert (res.idx.i, res.idx.j) == (2, 3)
    assert res.pattern.marks == ("U",)
    assert res.residual < 1e-10
    assert contains(parabolic_p(res.idx, 3), res.image).ok


def test_canonical_form_diagonal_hits_a_borel():
    # maximal coincidence count: the target is a closed-orbit Borel, and a
    # diagonal matrix (everything shared, pattern all U) lands in (n, n)
    res = canonical_form(np.diag([1.0, 2.0, 3.0]))
    assert res.l == 2
    assert (res.idx.i, res.idx.j) == (3, 3)
    assert res.residual < 1e-12


def _planted_patterns():
    """Every U/L pattern of every length c <= n - 1, n = 2..6, planted
    exactly: 119 (n, marks, bordered matrix) cases."""
    for n in range(2, 7):
        h = [1.0 + 1.25 * i for i in range(n - 1)]
        for c in range(n):
            for marks in itertools.product("UL", repeat=c):
                y = [0.7 if m == "U" else 0.0 for m in marks] + [0.9] * (n - 1 - c)
                z = [0.0 if m == "U" else 0.6 for m in marks] + [1.1] * (n - 1 - c)
                yield n, marks, xi_build(xi(n, c, h, y, z, -0.3))


def test_canonical_form_planted_patterns_reach_the_predicted_indices():
    # k - 1 counts the U marks and the orbit length is n - 1 - c
    cases = 0
    for n, marks, m in _planted_patterns():
        c = len(marks)
        res = canonical_form(m)
        u = marks.count("U")
        assert (res.idx.i, res.idx.j) == (u + 1, u + n - c), (n, marks)
        assert res.pattern.marks == marks and res.l == c
        assert res.residual < 1e-10
        assert contains(pattern_parabolic(ULPattern(marks), n), m).ok
        cases += 1
    assert cases == 119


def _assert_matches_explicit_conjugation(x, tol=Tolerances()):
    got, want = canonical_form(x, tol), serial_canonical_form(x, tol)
    assert (got.l, got.idx, got.pattern) == (want.l, want.idx, want.pattern)
    assert np.array_equal(got.k.block, want.k.block)
    assert np.abs(got.image - want.image).max() <= 1e-12 * (1 + np.abs(x).max())
    assert abs(got.residual - want.residual) <= 1e-12


def test_canonical_form_equals_an_explicit_conjugation_on_planted_patterns():
    # the image is read off the reduced form by permuting its slots; the
    # oracle conjugates x again by the reordered block and its inverse
    for _, _, m in _planted_patterns():
        _assert_matches_explicit_conjugation(m)


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_form_equals_an_explicit_conjugation_on_round_trips(n):
    rng = SeededRng(26, n)
    for l in range(n):
        for t in range(20):
            e = random_xi(rng.derive(2 * (20 * l + t)), n, l)
            x = ad(sample_K(rng.derive(2 * (20 * l + t) + 1), n), xi_build(e))
            _assert_matches_explicit_conjugation(x)


def test_canonical_form_upper_triangular_sample():
    # generic upper triangular matrices share their whole cutoff spectrum
    gen = np.random.default_rng(3)
    x = np.triu(cgauss(gen, (4, 4)))
    res = canonical_form(x)
    assert res.l == 3
    assert res.idx.length == 0  # a Borel
    assert res.residual < 1e-8


def test_canonical_round_trips_recover_count_index_and_membership():
    rng = SeededRng(2024)
    t = 0
    for n in (3, 4, 5):
        for l in range(n):
            for _ in range(12):
                e = random_xi(rng.derive(t), n, l)
                g = sample_K(rng.derive(10_000 + t), n)
                x = ad(g, xi_build(e))
                res = canonical_form(x)
                assert res.l == l == coincidence_count(x).l
                assert res.idx.length == n - 1 - l
                assert res.residual < 1e-7
                t += 1


def test_gradients_match_finite_differences():
    # directional derivative of tr((x_i)^j) along xi vs the trace pairing
    gen = np.random.default_rng(8)
    h = 1e-6
    for n in (3, 4):
        x = cgauss(gen, (n, n))
        grads = gz_gradients(x)
        labels = [(n - 1, j) for j in range(1, n)] + [(n, j) for j in range(1, n + 1)]
        for (i, j), grad in zip(labels, grads):
            for _ in range(3):
                direction = cgauss(gen, (n, n))
                fd = (
                    gz_function(x + h * direction, i, j)
                    - gz_function(x - h * direction, i, j)
                ) / (2 * h)
                expected = np.trace(grad @ direction)
                assert abs(fd - expected) <= 1e-5 * (1 + abs(expected))


def test_strong_regularity_hand_solved_2x2():
    x = np.array([[0, 1], [0, 0]], dtype=complex)
    # by hand: the centralizer of x is span{I, x}; the cutoff centralizer is
    # the full 1 x 1 algebra span{E_11}; a I + b x = c E_11 forces a = b = c = 0
    rep = is_n_strongly_regular(x)
    assert rep.ok
    assert rep.centralizer_rank == rep.centralizer_expected == 3
    assert rep.gradient_rank == 3


def test_strong_regularity_counterexamples():
    assert not is_n_strongly_regular(np.eye(2)).ok  # not regular
    assert not is_n_strongly_regular(np.diag([1.0, 1.0, 2.0])).ok  # cutoff not regular


def test_strong_regularity_with_a_zero_dimensional_centralizer_returns_a_report():
    # at a rank cutoff of 0 rounding noise leaves this matrix's centralizer
    # no dimension, and its gradients keep an exact zero singular value
    x = np.array([[1, 0, 1], [0, 2, 0], [1, 0, 0]], dtype=complex)
    rep = is_n_strongly_regular(x, Tolerances(rank_rel=0))
    assert not rep.ok and not rep.regular_full and rep.regular_cutoff
    assert rep.centralizer_rank == rep.centralizer_expected == 2 and rep.gradient_rank == 4


def test_strong_regularity_methods_agree_on_random_samples():
    gen = np.random.default_rng(12)
    for n in (2, 3, 4):
        for _ in range(60):
            rep = is_n_strongly_regular(cgauss(gen, (n, n)))  # raises on mismatch
            assert rep.ok  # generic matrices are strongly regular


def test_strong_regularity_on_nilradical_components():
    rng = SeededRng(404)
    n = 4
    for i in (1, 2, 3, 4):
        x = ad(sample_K(rng.derive(i), n), sample_in(nilradical_n(i, n), rng.derive(50 + i)))
        expected = i in (1, n)
        assert is_n_strongly_regular(x).ok == expected


def test_sn_membership_examples():
    assert sn_membership(np.zeros((3, 3)))
    assert not sn_membership(np.diag([0.0, 0.0, 1.0]))
    rng = SeededRng(55)
    for i in (1, 2, 3, 4):
        x = ad(sample_K(rng.derive(i), 4), sample_in(nilradical_n(i, 4), rng.derive(90 + i)))
        assert sn_membership(x)


def test_random_xi_plants_the_advertised_count():
    rng = SeededRng(71)
    for t, (n, l) in enumerate(((3, 0), (4, 2), (5, 4), (6, 3))):
        e = random_xi(rng.derive(t), n, l)
        assert e.l == l
        assert coincidence_count(xi_build(e)).l == l
        gaps = np.abs(np.subtract.outer(e.h, e.h))
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= 0.5


def test_random_xi_gives_up_after_the_resample_limit():
    # with eig_match = 1 no diagonal gap clears xi_build's distinctness test
    with pytest.raises(XiInvariantError, match=r"100 .*l=1 .*n=3 .*eig_match=1"):
        random_xi(SeededRng(0), 3, 1, Tolerances(eig_match=1.0))


def test_verify_roundtrips_validates_each_planted_point_once(monkeypatch):
    import gzcut.canonical as canonical

    # the loop validates its candidates by stacks: count the points, not the calls
    built = []
    real = canonical._xi_stack
    monkeypatch.setattr(
        canonical, "_xi_stack", lambda h, *rest: built.append(len(h)) or real(h, *rest)
    )
    rep = verify_roundtrips(4, 2, 6, SeededRng(3))
    assert rep.mismatches == rep.failures == 0
    assert built == [6]


def test_verify_roundtrips_with_zero_trials_returns_an_empty_report():
    # the membership test of an empty stack takes a boolean mask of no specs
    for n in (2, 3, 5):
        for l in range(n):
            rep = verify_roundtrips(n, l, 0, SeededRng(0))
            borel = () if l == n - 1 else None
            assert rep == RoundTripReport(l, 0, 0, 0, 0.0, 1e-8, 0, borel)
