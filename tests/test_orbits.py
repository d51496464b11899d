import numpy as np
import pytest
from numpy.testing import assert_allclose

from gzcut import (
    OrbitIndex,
    SeededRng,
    Tolerances,
    ad,
    all_orbit_indices,
    coincidence_count,
    contains,
    estimate_dim,
    nilradical_n,
    numerical_rank,
    parabolic_p,
    sample_K,
    sample_in,
    tangent_dim,
    theta,
    verify_containment,
)
from oracles import cgauss

# frozen on first run of the stage layout with seed 42, n = 3; guards the
# draw protocol
GOLDEN_BLOCK = np.array(
    [
        [0.3286805730169198 + 0.2689035771641243j, -0.20740694628869016 + 0.44773944021764356j],
        [-0.7356261927188342 - 0.22398358922089392j, 0.6855426251653816 + 0.22179034745069418j],
    ]
)
GOLDEN_SCALAR = -0.9697130928807342 + 0.9542639482118915j


def test_seeded_rng_reproducibility():
    # a handle is a value: one stage and round draws alike every time, a row
    # does not depend on the other rows drawn, and every key changes the draws
    rng = SeededRng(7, 3)
    for draw in ("complex_normal", "uniform"):
        a = getattr(rng, draw)(2, 1, [0, 2, 5], (2, 2))
        assert a.shape == (3, 2, 2)
        assert_allclose(a, getattr(SeededRng(7, 3), draw)(2, 1, [0, 2, 5], (2, 2)), atol=0)
        assert_allclose(a[1:], getattr(rng, draw)(2, 1, [2, 5], (2, 2)), atol=0)
        keys = ((SeededRng(7, 4), 2, 1), (SeededRng(8, 3), 2, 1), (rng, 3, 1), (rng, 2, 0))
        for other, stage, rnd in keys:
            b = getattr(other, draw)(stage, rnd, [0, 2, 5], (2, 2))
            assert np.abs(a - b).min() > 0
    assert SeededRng(7, 1).derive(2) == SeededRng(7, 3)
    assert hash(SeededRng(7, 1)) == hash(SeededRng(7, 1))


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1,), "seed must be >= 0, got -1"),
        ((1, -3), "stream must be >= 0, got -3"),
        ((1.5,), "seed must be an int, got 1.5"),
        ((True,), "seed must be an int, got True"),
        ((1, False), "stream must be an int, got False"),
        (("3",), "seed must be an int, got '3'"),
    ],
)
def test_seeded_rng_names_a_bad_field(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SeededRng(*args)


def test_sample_K_golden_value():
    k = sample_K(SeededRng(42), 3)
    assert_allclose(k.block, GOLDEN_BLOCK, atol=1e-15)
    assert k.scalar == pytest.approx(GOLDEN_SCALAR, abs=1e-15)


def test_sample_K_shape_and_conditioning():
    for t in range(20):
        k = sample_K(SeededRng(0, t), 4)
        m = k.as_matrix()
        assert numerical_rank(m) == 4
        assert_allclose(theta(m), m, atol=0)  # block diagonal is fixed
        assert np.linalg.svd(k.block, compute_uv=False)[-1] > 1e-3
        assert 1.0 <= abs(k.scalar) <= 2.0


def test_sample_in_respects_the_subalgebra():
    rng = SeededRng(5)
    nil = nilradical_n(4, 4)
    x = sample_in(nil, rng)
    assert_allclose(np.tril(x), 0, atol=0)  # strictly upper pattern
    p = parabolic_p(OrbitIndex(1, 3), 4)
    for t in range(5):
        assert contains(p, sample_in(p, rng.derive(1 + t))).ok


def test_ad_identity_and_inverse():
    from gzcut import KElement

    rng = SeededRng(21)
    x = cgauss(np.random.default_rng(2), (3, 3))
    k_id = KElement(np.eye(2), 1.0, 3)
    assert_allclose(ad(k_id, x), x, atol=0)
    k = sample_K(rng, 3)
    k_inv = KElement(np.linalg.inv(k.block), 1 / k.scalar, 3)
    assert_allclose(ad(k, ad(k_inv, x)), x, atol=1e-10)
    assert_allclose(k.as_matrix() @ k_inv.as_matrix(), np.eye(3), atol=1e-12)


def test_ad_by_a_singular_element_raises_the_stacked_failure():
    from gzcut import EigensolverError, KElement

    k = KElement(np.zeros((2, 2)), 1.0, 3)
    with pytest.raises(EigensolverError, match="^conjugating element is singular on\n"):
        ad(k, np.eye(3))


def test_ad_preserves_coincidence_count():
    rng = SeededRng(33)
    for t in range(10):
        x = cgauss(np.random.default_rng(100 + t), (4, 4))
        k = sample_K(rng.derive(t), 4)
        assert coincidence_count(ad(k, x)).l == coincidence_count(x).l


def test_containment_closed_orbit_shares_everything():
    # for (n, n) the bound is n - 1: every sampled conjugate must share its
    # entire cutoff spectrum
    rep = verify_containment(OrbitIndex(3, 3), 3, 150, SeededRng(17), Tolerances(eig_match=1e-6))
    assert rep.violations == 0 and rep.failures == 0
    assert rep.min_observed_l == 2


def test_containment_open_orbit_bound_is_vacuous():
    rep = verify_containment(OrbitIndex(1, 3), 3, 50, SeededRng(18), Tolerances(eig_match=1e-6))
    assert rep.violations == 0


def test_containment_intermediate_orbit():
    rep = verify_containment(OrbitIndex(1, 2), 3, 300, SeededRng(19), Tolerances(eig_match=1e-6))
    assert rep.violations == 0
    assert rep.min_observed_l >= 1
    assert rep.worst_residual < 1e-6


def test_containment_reports_are_deterministic():
    a = verify_containment(OrbitIndex(2, 3), 4, 50, SeededRng(3, 10))
    b = verify_containment(OrbitIndex(2, 3), 4, 50, SeededRng(3, 10))
    assert a == b


def test_tangent_dim_Y_generic_values():
    # n = 3: saturation dimensions are 7, 8, 9 for orbit lengths 0, 1, 2
    rng = SeededRng(45)
    idx = OrbitIndex(1, 2)
    x = sample_in(parabolic_p(idx, 3), rng)
    assert tangent_dim(parabolic_p(idx, 3), x) == 8
    for i in (1, 2, 3):
        xi = sample_in(parabolic_p(OrbitIndex(i, i), 3), rng.derive(i))
        assert tangent_dim(parabolic_p(OrbitIndex(i, i), 3), xi) == 7


def test_tangent_dim_degenerate_at_zero():
    p = parabolic_p(OrbitIndex(1, 2), 3)
    assert tangent_dim(p, np.zeros((3, 3))) == p.dim
    assert tangent_dim(nilradical_n(3, 3), np.zeros((3, 3))) == 3


def test_tangent_dim_requires_membership():
    with pytest.raises(ValueError):
        tangent_dim(parabolic_p(OrbitIndex(3, 3), 3), np.tril(np.ones((3, 3)), -1))


def test_tangent_dim_nil_generic_values():
    rng = SeededRng(61)
    assert tangent_dim(nilradical_n(3, 3), sample_in(nilradical_n(3, 3), rng)) == 4
    assert tangent_dim(nilradical_n(2, 2), sample_in(nilradical_n(2, 2), rng.derive(1))) == 1


@pytest.mark.parametrize("n", (3, 4))
def test_estimate_dim_matches_formulas(n):
    rng = SeededRng(77)
    for ordinal, idx in enumerate(all_orbit_indices(n)):
        est = estimate_dim(parabolic_p(idx, n), 3, rng.derive(100 * ordinal))
        assert est == n * n - n + 1 + idx.length
    for i in range(1, n + 1):
        est = estimate_dim(nilradical_n(i, n), 3, rng.derive(10_000 + i))
        assert est == n * n - 2 * n + 1


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_sum_rule_closed_orbit_saturation_vs_nilradical(n):
    # dim of the closed-orbit saturation minus the diagonal rank equals the
    # nilradical saturation dimension
    assert (n * n - n + 1) - n == n * n - 2 * n + 1
    rng = SeededRng(88)
    got_y = estimate_dim(parabolic_p(OrbitIndex(n, n), n), 3, rng)
    got_nil = estimate_dim(nilradical_n(n, n), 3, rng.derive(50))
    assert got_y - n == got_nil
