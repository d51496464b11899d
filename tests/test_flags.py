import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gzcut import (
    OrbitIndex,
    SeededRng,
    SubalgebraSpec,
    Tolerances,
    all_orbit_indices,
    borel_b,
    cayley,
    contains,
    cutoff_parabolic,
    eigenvalues,
    fixed_point_subalgebra,
    is_theta_stable,
    nilradical_n,
    numerical_rank,
    parabolic_p,
    project_cutoff,
    sample_in,
    stabilizer,
    theta,
    v_matrix,
)
from gzcut.cli import main
from gzcut.flags import _carries, _inside, _residual_stack
from oracles import (
    cgauss,
    column_span_equal,
    exact_rank,
    levi_blocks,
    lstsq_membership_residual,
    span_contains,
    span_equal,
    stack_rows,
)


def e(k, n):
    v = np.zeros(n)
    v[k - 1] = 1.0
    return v


def test_orbit_index_validation_and_counts():
    with pytest.raises(ValueError):
        OrbitIndex(2, 1)
    with pytest.raises(ValueError):
        OrbitIndex(0, 1)
    assert OrbitIndex(1, 3).length == 2
    assert len(all_orbit_indices(2)) == 3
    assert sorted((i.i, i.j) for i in all_orbit_indices(2)) == [(1, 1), (1, 2), (2, 2)]
    assert len(all_orbit_indices(4)) == 10  # 4 closed + C(4,2) others


def test_standard_flag():
    s = stabilizer(np.eye(3), (1, 2, 3))
    assert_allclose(s.frame.real, np.eye(3), atol=0)
    assert (s.mask == np.triu(np.ones((3, 3), dtype=bool))).all()
    assert stabilizer(np.eye(1), (1,)).frame[0, 0] == 1


def test_partial_flag_validation():
    with pytest.raises(ValueError):
        stabilizer(np.eye(3), (1, 2))  # steps must end at n
    with pytest.raises(ValueError):
        stabilizer(np.eye(3), (2, 1, 3))  # steps must increase
    with pytest.raises(ValueError):
        stabilizer(np.ones((2, 2)), (1, 2))  # singular basis


def test_flag_F_examples():
    # the catalog full flag is the column prefixes of its Borel's frame
    f = borel_b(OrbitIndex(3, 3), 3).frame
    assert_allclose(f.real, np.eye(3), atol=0)

    f = borel_b(OrbitIndex(1, 1), 2).frame
    assert_allclose(f.real.T, [e(2, 2), e(1, 2)], atol=0)

    f = borel_b(OrbitIndex(1, 2), 3).frame
    assert_allclose(f.real.T, [e(1, 3) + e(3, 3), e(1, 3), e(2, 3)], atol=0)


def test_stabilizer_of_standard_flag_is_upper_triangular():
    s = stabilizer(np.eye(4), range(1, 5))
    assert s.dim == 10
    uppers = [np.triu(np.random.default_rng(i).normal(size=(4, 4))) for i in range(3)]
    for u in uppers:
        assert contains(s, u).ok
    assert not contains(s, np.tril(np.ones((4, 4)), -1)).ok


def test_stabilizer_of_one_step_flag_is_everything():
    s = stabilizer(np.eye(3), (3,))
    assert s.dim == 9


def test_stabilizer_of_block_partial_flag():
    # chain e_1 < {e_2..e_4} < e_5..: upper triangles plus the inner block
    i, j, n = 2, 4, 5
    steps = tuple(range(1, i)) + tuple(range(j, n + 1))
    r = stabilizer(np.eye(n), steps)
    expected_dim = sum(s1 * s2 for a, s1 in enumerate([1, 3, 1]) for b, s2 in enumerate([1, 3, 1]) if a <= b)
    assert r.dim == expected_dim
    # generated by the uppers and the negative simple roots inside the block
    for s in range(i, j):
        low = np.zeros((n, n))
        low[s, s - 1] = 1.0
        assert contains(r, low).ok
    assert not contains(r, np.eye(n)[:, ::-1]).ok


def test_subalgebra_spec_is_a_read_only_frame_and_mask():
    frame = np.eye(3, dtype=complex)[:, [0, 2, 1]]
    s = stabilizer(frame, (2, 3))
    assert s.n == 3 and s.dim == len(s.basis) == 7
    for arr in (s.frame, s.mask, s.inverse):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert frame.flags.writeable  # the frame is a copy
    assert_allclose(s.frame @ s.inverse, np.eye(3), atol=0)
    # the basis lists B E_rs B^-1 over the mask in row-major order
    expected = [
        np.outer(s.frame[:, r], s.inverse[c, :]) for r in range(3) for c in range(3) if s.mask[r, c]
    ]
    assert all(np.array_equal(a, b) for a, b in zip(s.basis, expected))


@pytest.mark.parametrize("n", [3, 6])
def test_catalog_constructors_share_one_read_only_spec_per_argument(n):
    idx = OrbitIndex(2, n)
    p = parabolic_p(idx, n)
    assert parabolic_p(idx, n) is p
    assert borel_b(idx, n) is borel_b(idx, n)
    assert nilradical_n(2, n) is nilradical_n(2, n)
    assert cutoff_parabolic(idx, n) is cutoff_parabolic(idx, n)
    assert fixed_point_subalgebra(n) is fixed_point_subalgebra(n)
    before = [b.copy() for b in p.basis]
    for arr in (p.basis[0], p.frame, p.inverse):
        with pytest.raises(ValueError):
            arr[0, 0] = 7.0
    with pytest.raises(ValueError):
        p.basis[0] += 1.0
    # nothing a caller tried reached the shared spec
    assert parabolic_p(idx, n) is p
    assert all(np.array_equal(a, b) for a, b in zip(parabolic_p(idx, n).basis, before))


def test_subalgebra_spec_rejects_singular_frames_and_misshapen_masks():
    mask = np.ones((3, 3), dtype=bool)
    for frame in (np.ones((3, 3)), np.diag([1.0, 1.0, 0.0]), [[1.0, 1.0], [1.0, 1.0 + 1e-15]]):
        with pytest.raises(ValueError):
            SubalgebraSpec(frame, mask[: len(frame), : len(frame)])
    with pytest.raises(ValueError):
        SubalgebraSpec(np.eye(3), np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        SubalgebraSpec(np.eye(3), np.ones(9, dtype=bool))


def _catalog_specs(n):
    indices = all_orbit_indices(n)
    specs = [parabolic_p(idx, n) for idx in indices] + [borel_b(idx, n) for idx in indices]
    specs += [cutoff_parabolic(idx, n) for idx in indices]
    specs += [nilradical_n(i, n) for i in range(1, n + 1)]
    return specs + [fixed_point_subalgebra(n)]


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_masked_membership_against_least_squares_oracle(n):
    # members and points perturbed by 1e-12 .. 1; a permutation frame gives
    # the orthogonal distance, the e_i + e_n column of borel_b(i < j) an
    # oblique one that is never smaller, so masking never accepts a point
    # the least-squares test rejects
    gen = np.random.default_rng(n)
    for k, s in enumerate(_catalog_specs(n)):
        permutation = np.isin(s.frame, (0, 1)).all() and (s.frame.sum(axis=0) == 1).all()
        for t in range(2):
            x = sample_in(s, SeededRng(n, 2 * k + t))
            for eps in [0.0] + [10.0**-k for k in range(12, -1, -1)]:
                y = x + eps * cgauss(gen, x.shape)
                ok, res = contains(s, y)
                oracle = lstsq_membership_residual(s.basis, y)
                if permutation:
                    assert abs(res - oracle) <= 1e-15
                    assert ok == (oracle <= 1e-8)
                else:
                    # slack for the oracle's own rounding on members
                    assert res >= oracle - 1e-14
                    assert not ok or oracle <= 1e-8
                if eps == 0.0:
                    assert ok


def test_cayley_matrix():
    u = cayley(1, 2)
    assert_allclose(u.real, [[1, -1], [1, 1]], atol=0)
    assert np.linalg.det(u) == pytest.approx(2)
    u = cayley(2, 3)
    assert_allclose(u.real, [[1, 0, 0], [0, 1, -1], [0, 1, 1]], atol=0)
    assert_allclose(u @ e(1, 3), e(1, 3), atol=0)
    assert_allclose(u @ e(2, 3), e(2, 3) + e(3, 3), atol=0)
    with pytest.raises(ValueError):
        cayley(2, 2)


def test_v_matrix_examples():
    assert_allclose(v_matrix(OrbitIndex(3, 3), 3).real, np.eye(3), atol=0)
    assert_allclose(v_matrix(OrbitIndex(1, 1), 2).real, [[0, 1], [1, 0]], atol=0)
    v = v_matrix(OrbitIndex(1, 2), 3)
    assert_allclose(v @ e(1, 3), e(1, 3) + e(3, 3), atol=0)
    assert_allclose(v @ e(2, 3), e(1, 3) - e(3, 3), atol=0)
    assert_allclose(v @ e(3, 3), e(2, 3), atol=0)


@pytest.mark.parametrize("n", range(1, 7))
def test_v_carries_standard_flag_exactly(n):
    # subspace equalities checked with the exact rational rank oracle
    for idx in all_orbit_indices(n):
        v = v_matrix(idx, n).real.astype(int)
        f = borel_b(idx, n).frame.real.astype(int)
        for k in range(1, n + 1):
            a, b = v[:, :k], f[:, :k]
            stacked = np.hstack([a, b])
            assert exact_rank(a) == exact_rank(b) == exact_rank(stacked) == k


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_ad_v_of_uppers_equals_borel(n):
    for idx in all_orbit_indices(n):
        v = v_matrix(idx, n)
        vinv = np.linalg.inv(v)
        uppers = [
            np.outer(np.eye(n)[:, r], np.eye(n)[s, :])
            for r in range(n)
            for s in range(r, n)
        ]
        conj = [v @ u @ vinv for u in uppers]
        assert span_equal(conj, borel_b(idx, n).basis)


def test_parabolic_examples():
    # (i, i) gives back the Borel
    for idx in (OrbitIndex(1, 1), OrbitIndex(2, 2)):
        assert span_equal(parabolic_p(idx, 3).basis, borel_b(idx, 3).basis)
    # n = 2: the non-closed orbit parabolic is everything
    assert parabolic_p(OrbitIndex(1, 2), 2).dim == 4
    # free-entry count for (1, 2) in dimension 3
    assert parabolic_p(OrbitIndex(1, 2), 3).dim == 7


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_parabolic_is_conjugated_standard_parabolic(n):
    for idx in all_orbit_indices(n):
        i, j = idx.i, idx.j
        steps = tuple(range(1, i)) + tuple(range(j, n + 1))
        r = stabilizer(np.eye(n), steps)
        v = v_matrix(idx, n)
        vinv = np.linalg.inv(v)
        conj = [v @ b @ vinv for b in r.basis]
        assert span_equal(conj, parabolic_p(idx, n).basis)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_catalog_dimensions(n):
    for idx in all_orbit_indices(n):
        assert borel_b(idx, n).dim == n * (n + 1) // 2
        # the catalog partial flag's steps: 1, ..., i-1, then j, ..., n
        sizes = np.diff((0, *range(1, idx.i), *range(idx.j, n + 1)))
        expected = sum(
            int(sizes[a] * sizes[b]) for a in range(len(sizes)) for b in range(a, len(sizes))
        )
        assert parabolic_p(idx, n).dim == expected
    for i in range(1, n + 1):
        assert nilradical_n(i, n).dim == n * (n - 1) // 2


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_borel_contained_in_parabolic(n):
    for idx in all_orbit_indices(n):
        assert span_contains(parabolic_p(idx, n).basis, borel_b(idx, n).basis)


def test_borel_stabilizes_its_flag():
    for idx in all_orbit_indices(4):
        b = borel_b(idx, 4)
        for elt in b.basis:
            for k in range(1, 5):
                v = b.frame[:, :k]
                assert numerical_rank(np.hstack([v, elt @ v])) == v.shape[1]


def test_closed_orbit_borel_1_is_conjugate_to_lowers():
    # reversing the first n-1 coordinates carries the lower triangulars onto
    # the stabilizer of the catalog flag (e_n < e_1 < ... < e_{n-1})
    n = 4
    rev = np.zeros((n, n))
    rev[n - 1, n - 1] = 1.0
    for k in range(n - 1):
        rev[k, n - 2 - k] = 1.0
    lowers = [
        np.outer(np.eye(n)[:, r], np.eye(n)[s, :]) for r in range(n) for s in range(r + 1)
    ]
    conj = [rev @ low @ np.linalg.inv(rev) for low in lowers]
    assert span_equal(conj, borel_b(OrbitIndex(1, 1), n).basis)


def test_nilradical_patterns():
    n = 4
    nil = nilradical_n(n, n)
    strict_uppers = [
        np.outer(np.eye(n)[:, r], np.eye(n)[s, :]) for r in range(n) for s in range(r + 1, n)
    ]
    assert span_equal(nil.basis, strict_uppers)
    # i = 1: steps of the catalog flag (e_n < e_1 < ... < e_{n-1}) drop by one
    # under every basis element
    nil1 = nilradical_n(1, n)
    frame = np.eye(n)[:, [n - 1, *range(n - 1)]]
    for elt in nil1.basis:
        for k in range(1, n):
            image = elt @ frame[:, : k + 1]
            prev = frame[:, :k]
            assert numerical_rank(np.hstack([prev, image])) == numerical_rank(prev)


def test_nilradical_samples_are_nilpotent_with_cutoff():
    rng = SeededRng(8)
    for i in (1, 2, 4):
        x = sample_in(nilradical_n(i, 4), rng.derive(i))
        assert_allclose(eigenvalues(x), 0, atol=1e-8)
        assert_allclose(eigenvalues(x[:3, :3]), 0, atol=1e-8)


def test_theta_examples():
    assert_allclose(theta(np.diag([1, 2, 3])).real, np.diag([1, 2, 3]), atol=0)
    m = np.zeros((3, 3))
    m[0, 2] = 1.0
    assert_allclose(theta(m).real, -m, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_theta_is_an_involution(n, seed):
    m = cgauss(np.random.default_rng(seed), (n, n))
    assert_allclose(theta(theta(m)), m, atol=0)


def test_theta_of_a_stack_checks_what_one_matrix_is_checked_for():
    xs = cgauss(np.random.default_rng(3), (4, 3, 3))
    assert np.array_equal(theta(xs), [theta(x) for x in xs])
    assert theta(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    for shape in ((2, 1, 3), (2, 3, 1), (2, 0, 0)):
        want = re.escape(f"expected a square matrix, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            theta(np.ones(shape))
    for bad in (np.nan, np.inf):
        xs[2, 0, 1] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            theta(xs)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_catalog_parabolics_are_theta_stable(n):
    for idx in all_orbit_indices(n):
        assert is_theta_stable(parabolic_p(idx, n))


def test_theta_stability_of_fixed_points_and_eigenline():
    assert is_theta_stable(fixed_point_subalgebra(4))
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = True
    assert is_theta_stable(SubalgebraSpec(np.eye(3), mask))


def test_contains_examples():
    b = borel_b(OrbitIndex(3, 3), 3)
    ok, res = contains(b, b.basis[0])
    assert ok and res == 0
    low = np.zeros((3, 3))
    low[2, 0] = 1.0
    assert not contains(b, low).ok
    # conjugation consistency
    v = v_matrix(OrbitIndex(1, 2), 3)
    upper = np.triu(cgauss(np.random.default_rng(4), (3, 3)))
    assert contains(borel_b(OrbitIndex(1, 2), 3), v @ upper @ np.linalg.inv(v)).ok


def test_contains_scales_huge_entries():
    # the norms would overflow without the power-of-two scaling; the suite
    # turns any RuntimeWarning into an error
    p = parabolic_p(OrbitIndex(3, 3), 3)
    y = np.triu(cgauss(np.random.default_rng(6), (3, 3)))
    inside = contains(p, 2.0**600 * y)
    assert inside.ok and np.isfinite(inside.residual)
    outside = contains(p, 2.0**600 * (y + np.tril(np.ones((3, 3)), -1)))
    assert not outside.ok and np.isfinite(outside.residual)
    everywhere = contains(p, np.full((3, 3), 1e200 + 0j))
    assert not everywhere.ok and np.isfinite(everywhere.residual)
    # where the unscaled formula is finite, the scaling leaves its bits alone
    m = 2.0**100 * (y + np.tril(np.ones((3, 3)), -1))
    off = p.inverse @ m @ p.frame
    off[p.mask] = 0.0
    unscaled = np.linalg.norm(p.frame @ off @ p.inverse) / (1.0 + np.linalg.norm(m))
    assert contains(p, m).residual == unscaled


@pytest.mark.parametrize("n", (2, 3, 4))
def test_bracket_closure_of_catalog_subalgebras(n):
    for s in _catalog_specs(n):
        brackets = [
            u @ v - v @ u for a, u in enumerate(s.basis) for v in s.basis[a + 1 :]
        ]
        if not brackets:
            continue
        stacked = np.vstack([stack_rows(s.basis), stack_rows(brackets)])
        assert numerical_rank(stacked) == s.dim


@pytest.mark.parametrize("n", (3, 4, 5))
def test_cutoff_projection_is_the_predicted_parabolic(n):
    for idx in all_orbit_indices(n):
        p = parabolic_p(idx, n)
        predicted = cutoff_parabolic(idx, n)
        assert span_equal(project_cutoff(p), predicted.basis)
        sizes = levi_blocks(predicted.mask)
        l = idx.length
        expected = sorted([l] * (l > 0) + [1] * (n - 1 - l), reverse=True)
        assert sizes == expected


def test_column_span_equal():
    a = np.eye(3)[:, :2]
    b = np.array([[1, 1], [1, -1], [0, 0]], dtype=float)
    assert column_span_equal(a, b)
    assert not column_span_equal(a, np.eye(3)[:, 1:])


def _exact_relations(idx, n):
    """The catalog relations of orbit idx by exact rational ranks, with the
    closed-orbit one (the parabolic is the Borel) under "borel_is_parabolic".
    span(a) lies in span(b) when stacking a under b keeps b's rank."""
    b, p, v = borel_b(idx, n), parabolic_p(idx, n), v_matrix(idx, n)

    def rank(*bases):
        return exact_rank(stack_rows([m for basis in bases for m in basis]))

    p_rank, pb_rank = rank(p.basis), rank(p.basis, b.basis)
    out = {
        "v_carries_standard_flag": all(
            exact_rank(v[:, :k])
            == exact_rank(b.frame[:, :k])
            == exact_rank(np.hstack([v[:, :k], b.frame[:, :k]]))
            == k
            for k in range(1, n + 1)
        ),
        "borel_in_parabolic": p_rank == pb_rank,
        "theta_stable": p_rank == rank(p.basis, theta(p.basis)),
        "borel_is_parabolic": p_rank == pb_rank == rank(b.basis),
    }
    if n >= 2:
        c, projected = cutoff_parabolic(idx, n).basis, project_cutoff(p)
        out["cutoff_projection_matches"] = rank(c) == rank(c, projected) == rank(projected)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_catalog_read_off_agrees_with_exact_ranks(n, tmp_path):
    # every relation the `catalog` report decides, at every index, and its
    # status, which adds the closed-orbit relation at i = j
    out = tmp_path / "report.json"
    assert main(["catalog", "--n", str(n), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    orbits = report["results"]["orbits"]
    assert [o["idx"] for o in orbits] == [[idx.i, idx.j] for idx in all_orbit_indices(n)]
    for idx, entry in zip(all_orbit_indices(n), orbits):
        want = _exact_relations(idx, n)
        closed = want.pop("borel_is_parabolic")
        got = {k: entry[k] for k in want}
        assert got == want and all(want.values()), idx
        # every verdict of the entry is one of the relations checked
        assert {k for k, v in entry.items() if isinstance(v, bool)} == set(want)
        if idx.i == idx.j:
            same_dim = entry["dim_borel"] == entry["dim_parabolic"]
            assert (entry["borel_in_parabolic"] and same_dim) == closed is True


def test_read_off_and_rank_route_reject_the_cross_pairs():
    # at n = 5 the Borel of one index lies in the parabolic of another on 55
    # of the 210 cross pairs: there the residual is exactly 0, and elsewhere
    # it is at least 1/3, on both sides of the membership cap
    n, tol = 5, Tolerances()
    outside = 0
    for a in all_orbit_indices(n):
        for c in all_orbit_indices(n):
            if a == c:
                continue
            ba, pc = borel_b(a, n), parabolic_p(c, n)
            residual = _residual_stack([pc] * ba.dim, ba.basis).max()
            assert _inside(pc, ba.basis, tol) == span_contains(pc.basis, ba.basis)
            assert residual == 0.0 if residual <= tol.membership else residual >= 1 / 3
            outside += residual > tol.membership
    assert outside == 155


def test_read_off_and_rank_route_reject_a_theta_unstable_spec_and_a_wrong_carrier():
    tol = Tolerances()
    frame = np.eye(3)
    frame[2, 0] = 1.0
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 0] = True
    s = SubalgebraSpec(frame, mask)
    assert not is_theta_stable(s, tol) and not span_contains(s.basis, theta(s.basis))
    assert_allclose(_residual_stack([s], theta(s.basis)), [2 * np.sqrt(2) - 2])
    # swapping the first two columns of a carrier breaks its first flag step
    idx, n = OrbitIndex(2, 4), 5
    b = borel_b(idx, n)
    v = v_matrix(idx, n)[:, [1, 0, 2, 3, 4]]
    assert not _carries(b, v, tol)
    assert not all(column_span_equal(v[:, :k], b.frame[:, :k]) for k in range(1, n + 1))
    assert_allclose(_residual_stack([b], (v @ b.inverse)[None]), [np.sqrt(2) / 4])
    # an empty mask spans the zero subalgebra, which theta keeps
    empty = SubalgebraSpec(np.eye(3), np.zeros((3, 3), dtype=bool))
    assert empty.basis.shape == (0, 3, 3) and is_theta_stable(empty, tol)
