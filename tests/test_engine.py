"""The stacked trial loops against the serial loops they replaced.

verify_containment, verify_roundtrips, verify_nilradical and estimate_dim run
every trial of a loop on one (T, n, n) stack per kernel, and draw each
stage's randomness as one block per redraw round, trial t on row t.  Their
reports must equal, float for float, those of the serial loops in
tests/oracles.py, which build the same stream layout from numpy and run the
one-trial functions one trial at a time.  A trial's draws must not depend on
the loop's trial count, and a trial whose solve fails must cost only itself.
"""

import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gzcut.canonical
import gzcut.flags
import gzcut.linalg
import gzcut.orbits
import gzcut.spectra
from gzcut import (
    EigensolverError,
    OrbitIndex,
    SeededRng,
    Tolerances,
    XiInvariantError,
    ad,
    canonical_form,
    coincidence_count,
    eigenvalues,
    all_orbit_indices,
    estimate_dim,
    match_spectra,
    nilradical_n,
    parabolic_p,
    random_xi,
    sample_K,
    sample_in,
    verify_containment,
    verify_nilradical,
    verify_roundtrips,
    xi_build,
)
from gzcut.cli import main
from oracles import (
    brute_match,
    cgauss,
    lsa_assignment,
    serial_conjugated_sample,
    serial_containment_loops,
    serial_estimate_dim,
    serial_round_trip_point,
    serial_sample_K,
    serial_verify_containment,
    serial_verify_nilradical,
    serial_verify_roundtrips,
)

SEEDS = (0, 7, 11)
TRIAL_COUNTS = (1, 5, 14)


def _compare_containment(n, seed, trials, tol):
    """The containment loops of one `verify` report, stacked against serial,
    on the streams the command line gives them."""
    for k, idx in enumerate(all_orbit_indices(n)):
        rng = SeededRng(seed, k * trials)
        assert verify_containment(idx, n, trials, rng, tol) == serial_verify_containment(
            idx, n, trials, rng, tol
        ), (n, seed, trials, idx)


def _roundtrip_rng(n, seed, trials, l):
    """The command line's stream for the round-trip loop of count l."""
    return SeededRng(seed, (len(all_orbit_indices(n)) + l) * trials)


def _compare_loops(n, seed, trials, tol):
    """Every loop of one `verify` report, stacked against serial; returns the
    round-trip reports."""
    _compare_containment(n, seed, trials, tol)
    reports = []
    for l in range(n):
        rng = _roundtrip_rng(n, seed, trials, l)
        rep = verify_roundtrips(n, l, trials, rng, tol)
        assert rep == serial_verify_roundtrips(n, l, trials, rng, tol), (n, seed, trials, l)
        reports.append(rep)
    return reports


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_loops_equal_the_serial_loops(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for seed in SEEDS:
            for trials in TRIAL_COUNTS:
                _compare_loops(n, seed, trials, Tolerances())


# planting and reduction share one gap floor of 1e3 matching radii: at 3e-4
# and 1e-3 every planted point round-trips; at 0.1 no diagonal clears the
# floor of 100, so both routes give up on every round-trip loop, while the
# containment loops, which never plant, still compare
@pytest.mark.parametrize("eig_match", (3e-4, 1e-3, 0.1))
def test_stacked_loops_equal_the_serial_loops_at_loose_tolerances(eig_match):
    tol = Tolerances(eig_match=eig_match)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in (3, 5, 6):
            if eig_match < 0.1:
                assert not any(r.failures for r in _compare_loops(n, 3, 14, tol))
                continue
            _compare_containment(n, 3, 14, tol)
            for l in range(n):
                for loop in (verify_roundtrips, serial_verify_roundtrips):
                    with pytest.raises(XiInvariantError):
                        loop(n, l, 14, _roundtrip_rng(n, 3, 14, l), tol)


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_nilradical_loop_equals_the_serial_loop(n):
    # the streams of `sn`: component i starts on stream (i - 1) * T
    tol = Tolerances()
    for seed in (0, 5):
        for trials in (1, 7):
            for i in range(1, n + 1):
                rng = SeededRng(seed, (i - 1) * trials)
                assert verify_nilradical(i, n, trials, rng, tol) == serial_verify_nilradical(
                    i, n, trials, rng, tol
                ), (n, seed, trials, i)


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_tangent_ranks_equal_the_serial_estimate(n):
    # the streams of `dims`: parabolic k, then nilradical i, each on R streams
    tol = Tolerances()
    spaces = [parabolic_p(idx, n) for idx in all_orbit_indices(n)]
    spaces += [nilradical_n(i, n) for i in range(1, n + 1)]
    for seed, repeats in ((0, 0), (0, 1), (0, 5), (3, 2)):
        for k, s in enumerate(spaces):
            rng = SeededRng(seed, k * repeats)
            assert estimate_dim(s, repeats, rng, tol) == serial_estimate_dim(
                s, repeats, rng, tol
            ), (n, seed, repeats, k)


def test_stacked_random_xi_redraws_only_the_rejected_trials(monkeypatch):
    # round r draws, in trial order, exactly the trials whose round r - 1
    # candidate missed the diagonal gap or failed validation; each validation
    # makes one stacked eigenvalue solve, as the cutoffs diag(h) need none
    rounds, solves = [], [0]
    real_draw, real_check = gzcut.canonical._draw_xi, gzcut.canonical._xi_stack
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        solves[0] += 1
        return real_eigvals(a)

    def draw(rng, rnd, rows, n, l):
        *parts, wide = real_draw(rng, rnd, rows, n, l)
        rows = np.asarray(rows)
        rounds.append((rnd, rows.tolist(), rows[~wide].tolist(), rows[wide].tolist(), []))
        return *parts, wide

    def check(h, *rest):
        before = solves[0]
        mats, rejected = real_check(h, *rest)
        assert solves[0] - before == 1
        _, _, _, validated, invalid = rounds[-1]
        invalid += [validated[i] for i, e in rejected.items() if isinstance(e, XiInvariantError)]
        return mats, rejected

    monkeypatch.setattr(gzcut.canonical, "_draw_xi", draw)
    monkeypatch.setattr(gzcut.canonical, "_xi_stack", check)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    # at 1e-7 only the 0.5 gap rejects; at 1e-3 validation also rejects the
    # candidates whose gap lies in (0.5, 1], at or below xi_build's floor.
    # With one diagonal per row, about a third of the candidates at n = 7
    # miss the gap; with all of them, none of these 14 trials does
    every = gzcut.canonical._XI_CANDIDATES
    cases = ((7, 1, 1e-7, True, False), (7, 1, 1e-3, True, True), (7, every, 1e-3, False, True))
    for n, candidates, eig_match, gap_misses, invalid in cases:
        monkeypatch.setattr(gzcut.canonical, "_XI_CANDIDATES", candidates)
        rounds.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            verify_roundtrips(n, 0, 14, SeededRng(3, 100), Tolerances(eig_match=eig_match))
        assert [r[0] for r in rounds] == list(range(len(rounds)))
        assert rounds[0][1] == list(range(14))
        for prev, cur in zip(rounds, rounds[1:]):
            assert cur[1] == sorted(prev[2] + prev[4])
        assert not rounds[-1][2] and not rounds[-1][4]
        assert any(r[2] for r in rounds) == gap_misses and any(r[4] for r in rounds) == invalid


def _stage_draws(stage, rng, trials, errors):
    """The per-trial outputs of one sampling stage run on a loop of trials."""
    if stage == "sample_in":
        return (gzcut.orbits._sample_in_stack(parabolic_p(OrbitIndex(2, 4), 5), rng, trials),)
    if stage.startswith("random_xi"):
        tol = Tolerances(eig_match=1e-3 if stage == "random_xi validation redraw" else 1e-7)
        return (gzcut.canonical._random_xi_stack([rng], trials, 8, [3], tol, errors),)
    return gzcut.orbits._sample_K_stack([rng], trials, 4, errors)


@pytest.mark.parametrize(
    "stage",
    ("sample_K", "forced sample_K redraw", "sample_in", "random_xi", "random_xi validation redraw"),
)
def test_a_trial_draws_the_same_whatever_the_trial_count(monkeypatch, stage):
    rng, short, long = SeededRng(12, 34), 9, 23
    if stage == "forced sample_K redraw":
        # about a third of the round-0 blocks miss this floor
        monkeypatch.setattr(gzcut.orbits, "_MIN_BLOCK_SV", 0.3)
        first = rng.complex_normal(gzcut.orbits._K_BLOCK, 0, range(short), (3, 3))
        assert (np.linalg.svd(first, compute_uv=False)[:, -1] <= 0.3).any()
    if stage == "random_xi":
        # with one diagonal per row, about half the round-0 candidates at
        # n = 8 miss the diagonal gap
        monkeypatch.setattr(gzcut.canonical, "_XI_CANDIDATES", 1)
        assert not gzcut.canonical._draw_xi(rng, 0, range(short), 8, 3)[-1].all()
    if stage == "random_xi validation redraw":
        # at 1e-3 xi_build's gap floor is 1, so it rejects some round-0
        # candidates that clear the 0.5 gap
        h, y, z, w, wide = gzcut.canonical._draw_xi(rng, 0, range(short), 8, 3)
        planted = np.full(wide.sum(), 3)
        rejected = gzcut.canonical._xi_stack(
            h[wide], y[wide], z[wide], w[wide], planted, Tolerances(eig_match=1e-3)
        )[1]
        assert any(isinstance(e, XiInvariantError) for e in rejected.values())
    errors_short, errors_long = {}, {}
    got_short = _stage_draws(stage, rng, short, errors_short)
    got_long = _stage_draws(stage, rng, long, errors_long)
    for a, b in zip(got_short, got_long):
        assert np.array_equal(a, b[:short])
    assert not errors_short and not errors_long


def test_the_one_trial_functions_are_trial_0_of_a_loop():
    rng, n, tol, errors = SeededRng(40, 2), 6, Tolerances(), {}
    blocks, scalars = gzcut.orbits._sample_K_stack([rng], 9, n, errors)
    g = sample_K(rng, n)
    assert np.array_equal(g.block, blocks[0]) and g.scalar == scalars[0]
    p = parabolic_p(OrbitIndex(2, 4), n)
    assert np.array_equal(sample_in(p, rng), gzcut.orbits._sample_in_stack(p, rng, 9)[0])
    for l in range(n):
        planted = gzcut.canonical._random_xi_stack([rng], 9, n, [l], tol, errors)
        assert np.array_equal(xi_build(random_xi(rng, n, l, tol)), planted[0])
    l, worst = gzcut.orbits._containment_stack([p], n, [rng], 9, tol, errors)
    assert gzcut.orbits.containment_trial(p, n, rng, tol) == (l[0], worst[0])
    assert not errors


def test_the_trace_check_fails_only_the_drifting_matrix(monkeypatch):
    gen = np.random.default_rng(4)
    mats = cgauss(gen, (5, 4, 4))
    real = np.linalg.eigvals

    def eigvals(a):
        vals = real(a)
        if vals.ndim == 2 and len(vals) == 5:
            vals[3, 0] += 1e-6  # a silently degraded solve of matrix 3
        return vals

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    errors = {}
    gzcut.linalg._eigvals_stack(mats, errors)
    assert list(errors) == [3] and "drifted from the trace" in str(errors[3])
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: real(a) + 1e-6)
    with pytest.raises(EigensolverError, match="drifted from the trace"):
        eigenvalues(mats[0])


def test_a_failed_eigvals_solve_is_reported_as_a_failure_not_as_drift(monkeypatch):
    # the identity that stands in for the failed matrix has trace 3, not 10
    poison = np.diag([5.0, 2.0, 3.0]).astype(complex)
    gen = np.random.default_rng(6)
    mats = np.concatenate([cgauss(gen, (2, 3, 3)), poison[None]])
    real = np.linalg.eigvals

    def eigvals(a):
        if any(np.array_equal(m, poison) for m in a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    errors = {}
    gzcut.linalg._eigvals_stack(mats, errors)
    assert list(errors) == [2] and "eigenvalue iteration failed on" in str(errors[2])
    with pytest.raises(EigensolverError, match="iteration failed"):
        eigenvalues(poison)


def test_a_failed_containment_trial_reports_its_solve_failure(monkeypatch):
    n, idx = 4, all_orbit_indices(4)[3]
    r = SeededRng(21, 7)
    poison = ad(sample_K(r, n), sample_in(parabolic_p(idx, n), r))
    real = np.linalg.eigvals

    def eigvals(a):
        if any(np.array_equal(m, poison) for m in a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    with pytest.raises(EigensolverError, match="^eigenvalue iteration failed on"):
        gzcut.orbits.containment_trial(parabolic_p(idx, n), n, SeededRng(21, 7), Tolerances())


@pytest.mark.parametrize("cut_fails", (True, False))
def test_a_trial_whose_cutoff_and_full_solves_both_fail_reports_the_cutoff(
    monkeypatch, cut_fails
):
    # one side of trial 2 raises in LAPACK and the other drifts from its trace
    bad, gen = 2, np.random.default_rng(8)
    mats = cgauss(gen, (4, 4, 4))
    real = np.linalg.eigvals

    def eigvals(a):
        cut = a.shape[-1] == 3
        hit = [np.array_equal(m, mats[bad, :-1, :-1] if cut else mats[bad]) for m in a]
        if cut == cut_fails and any(hit):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        vals = real(a)
        if cut != cut_fails:
            vals[hit, 0] += 1e-3
        return vals

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    errors = {}
    gzcut.spectra._coincidence_stack(mats, Tolerances(), errors)
    want = "iteration failed" if cut_fails else "drifted from the trace"
    cutoff_text = np.array2string(mats[bad, :-1, :-1], precision=6)
    assert list(errors) == [bad]
    assert want in str(errors[bad]) and str(errors[bad]).endswith("\n" + cutoff_text)
    # coincidence_count solves the cutoff first and raises the same failure
    with pytest.raises(EigensolverError) as info:
        coincidence_count(mats[bad])
    assert str(info.value) == str(errors[bad])


def test_a_failed_stacked_solve_costs_only_its_own_trial(monkeypatch):
    n, idx, trials, rng = 4, all_orbit_indices(4)[3], 6, SeededRng(21, 5)
    clean = verify_containment(idx, n, trials, rng)
    # the conjugated sample of trial 2, whose eigenvalues are made to fail
    poison = serial_conjugated_sample(parabolic_p(idx, n), n, rng, 2)
    real = np.linalg.eigvals
    stacks = []

    def eigvals(a):
        a = np.asarray(a)
        stacks.append(a.shape)
        if any(np.array_equal(m, poison) for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    rep = verify_containment(idx, n, trials, rng)
    assert (trials, n, n) in stacks  # the stack was solved in one call first
    assert rep.failures == 1 and clean.failures == 0 and rep.violations == 0
    # the other five trials count as they do one at a time
    assert rep == serial_verify_containment(idx, n, trials, rng, Tolerances())


@pytest.mark.parametrize("n", range(2, 9))
def test_one_containment_stack_equals_the_per_index_loops(n):
    # the streams of `verify`: index k starts on stream k*T
    tol, trials = Tolerances(), 14
    idxs = all_orbit_indices(n)
    for seed in SEEDS:
        rngs = [SeededRng(seed, k * trials) for k in range(len(idxs))]
        got = gzcut.orbits._containment_loops(idxs, n, trials, rngs, tol)
        # the reports are dataclasses: every field, worst_residual too, is equal
        assert got == serial_containment_loops(idxs, n, trials, rngs, tol), (n, seed)


def test_a_failed_trial_in_the_containment_stack_lands_on_its_own_index(monkeypatch):
    n, trials, bad, tol = 4, 6, 3, Tolerances()
    idxs = all_orbit_indices(n)
    rngs = [SeededRng(21, k * trials) for k in range(len(idxs))]
    clean = gzcut.orbits._containment_loops(idxs, n, trials, rngs, tol)
    # the conjugated sample of trial 2 of index `bad`, whose eigenvalues are made to fail
    poison = serial_conjugated_sample(parabolic_p(idxs[bad], n), n, rngs[bad], 2)
    real = np.linalg.eigvals
    stacks = []

    def eigvals(a):
        a = np.asarray(a)
        stacks.append(a.shape)
        if any(np.array_equal(m, poison) for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    got = gzcut.orbits._containment_loops(idxs, n, trials, rngs, tol)
    assert (len(idxs) * trials, n, n) in stacks  # every index's trials in one call first
    assert [rep.failures for rep in got] == [int(k == bad) for k in range(len(idxs))]
    assert [rep.failures for rep in clean] == [0] * len(idxs)
    assert got[:bad] + got[bad + 1 :] == clean[:bad] + clean[bad + 1 :]
    assert got[bad] == serial_verify_containment(idxs[bad], n, trials, rngs[bad], tol)


def test_a_failed_eig_in_one_round_trip_costs_only_that_trial(monkeypatch):
    n, l, trials, rng, tol = 5, 2, 8, SeededRng(13, 40), Tolerances()
    # the cutoff of trial 3's conjugated planted point, whose eigendecomposition fails
    poison = serial_round_trip_point(n, l, rng, 3, tol)[:-1, :-1]
    real = np.linalg.eig

    def eig(a):
        a = np.asarray(a)
        if any(np.array_equal(m, poison) for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    with warnings.catch_warnings():
        # the failed trial's stand-in values must not warn
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_roundtrips(n, l, trials, rng, tol)
    assert rep.failures == 1
    assert rep == serial_verify_roundtrips(n, l, trials, rng, tol)


def test_a_stray_shared_slot_fails_only_its_own_trial():
    # at this radius slot 1 of the middle matrix is shared, but neither of its
    # border entries (0.02) vanishes
    tol = Tolerances(eig_match=5e-4)
    good = ([[0, 0, 0], [0, 10, 1], [1, 1, 5]], [[0, 0, 1], [0, 10, 1], [1, 1, 5]])
    bad = [[0, 0, 0.02], [0, 3, 1], [0.02, 1, 5]]
    errors = {}
    with warnings.catch_warnings():
        # the middle cutoff's gap of 3 lies in the conditioning band (0.5, 5]
        warnings.simplefilter("ignore", RuntimeWarning)
        stack = np.array([good[0], bad, good[1]], dtype=complex)
        _, upper, counts, idx, images, _ = gzcut.canonical._canonical_stack(stack, tol, errors)
        with pytest.raises(XiInvariantError, match="slot 1 is marked shared"):
            canonical_form(bad, tol)
    assert list(errors) == [1] and isinstance(errors[1], XiInvariantError)
    for t, x in zip((0, 2), good):
        one = canonical_form(x, tol)
        marks = tuple("U" if u else "L" for u in upper[t, : counts[t]])
        assert (OrbitIndex(*idx[t]), marks, counts[t]) == (one.idx, one.pattern.marks, one.l)
        assert np.array_equal(images[t], one.image)


def test_the_canonical_stage_inverts_once_and_tests_membership_by_one_stack(monkeypatch):
    n, trials, tol = 5, 9, Tolerances()
    rng = _roundtrip_rng(n, 3, trials, 2)
    stack = np.array([serial_round_trip_point(n, 2, rng, t, tol) for t in range(trials)])
    # a first call builds the catalog parabolics, each inverting its frame once
    gzcut.canonical._canonical_stack(stack, tol, {})
    calls = []
    real_inv, real_contains = np.linalg.inv, gzcut.flags.contains

    def inv(a):
        calls.append("inv")
        return real_inv(a)

    def contains(*args, **kwargs):
        calls.append("contains")
        return real_contains(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", inv)
    for module in (gzcut.flags, gzcut.canonical):
        if hasattr(module, "contains"):
            monkeypatch.setattr(module, "contains", contains)
    errors = {}
    stage = gzcut.canonical._canonical_stack(stack, tol, errors)
    assert calls == ["inv"]
    _, _, counts, _, _, residuals = stage
    assert not errors and (counts == 2).all() and (residuals < 1e-10).all()


def test_verify_reduces_all_its_round_trips_in_one_stack(monkeypatch, capsys):
    n, trials, seed, tol = 5, 6, 4, Tolerances()
    # the cutoff of trial 3 of the l = 2 loop, whose eigendecomposition fails
    poison = serial_round_trip_point(n, 2, _roundtrip_rng(n, seed, trials, 2), 3, tol)[:-1, :-1]
    real_eig, real_stack = np.linalg.eig, gzcut.canonical._canonical_stack
    stacks = []

    def eig(a):
        a = np.asarray(a)
        if any(np.array_equal(m, poison) for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eig(a)

    def canonical_stack(mats, *rest):
        stacks.append(len(mats))
        return real_stack(mats, *rest)

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(gzcut.canonical, "_canonical_stack", canonical_stack)
    argv = ["verify", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    assert main(argv) == 0
    assert stacks == [n * trials]
    got = json.loads(capsys.readouterr().out)["results"]["roundtrips"]
    assert [entry["failures"] for entry in got] == [0, 0, 1, 0, 0]
    for l, entry in enumerate(got):
        want = asdict(serial_verify_roundtrips(n, l, trials, _roundtrip_rng(n, seed, trials, l), tol))
        if l < n - 1:
            del want["borel_indices"]
        else:
            want["borel_indices"] = list(want["borel_indices"])
        assert entry == want, l


@pytest.mark.parametrize("floor", (1e-3, 0.3, 0.6, 0.9))
def test_the_cholesky_floor_test_keeps_the_singular_value_decisions(monkeypatch, floor):
    # a block clears the floor exactly when B^H B - floor^2 I is positive
    # definite; the serial oracle decides by the smallest singular value
    monkeypatch.setattr(gzcut.orbits, "_MIN_BLOCK_SV", floor)
    trials, redrawn = 8, 0
    for n in range(2, 9):
        rng, errors = SeededRng(n, 7), {}
        blocks, scalars = gzcut.orbits._sample_K_stack([rng], trials, n, errors)
        first = rng.complex_normal(gzcut.orbits._K_BLOCK, 0, range(trials), (n - 1, n - 1))
        for t in range(trials):
            try:
                g = serial_sample_K(rng, n, t)
            except EigensolverError as exc:
                assert str(errors[t]) == str(exc), (n, t)
                continue
            assert t not in errors, (n, t)
            assert np.array_equal(g.block, blocks[t]) and g.scalar == scalars[t], (n, t)
            redrawn += not np.array_equal(blocks[t], first[t])
    # every floor but the default one makes some trial draw again
    assert (redrawn > 0) == (floor > 1e-3)


def test_the_cholesky_floor_test_formats_no_message(monkeypatch):
    # a block under the floor is drawn again; only its position is read, so
    # no failure message may be formatted for it
    formatted = []
    array2string = np.array2string

    def counting(*args, **kwargs):
        formatted.append(1)
        return array2string(*args, **kwargs)

    monkeypatch.setattr(gzcut.orbits, "_MIN_BLOCK_SV", 0.9)
    monkeypatch.setattr(np, "array2string", counting)
    redrawn = 0
    for n in range(2, 9):
        rng, errors = SeededRng(n, 7), {}
        blocks, _ = gzcut.orbits._sample_K_stack([rng], 8, n, errors)
        first = rng.complex_normal(gzcut.orbits._K_BLOCK, 0, range(8), (n - 1, n - 1))
        redrawn += sum(not np.array_equal(blocks[t], first[t]) for t in range(8) if t not in errors)
    assert redrawn > 0 and not formatted


def test_an_infinite_floor_fails_every_trial_without_a_warning(monkeypatch):
    monkeypatch.setattr(gzcut.orbits, "_MIN_BLOCK_SV", np.inf)
    errors = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gzcut.orbits._sample_K_stack([SeededRng(8), SeededRng(8, 3)], 3, 4, errors)
    assert sorted(errors) == list(range(6))
    assert {str(e) for e in errors.values()} == {"conditioning resample limit exceeded"}


def test_sample_K_past_its_resample_limit_fails_only_that_round_trip(monkeypatch):
    monkeypatch.setattr(gzcut.orbits, "_MIN_BLOCK_SV", np.inf)
    rep = verify_roundtrips(4, 2, 3, SeededRng(8))
    assert rep.failures == 3 and rep.mismatches == 0
    assert rep == serial_verify_roundtrips(4, 2, 3, SeededRng(8), Tolerances())
    # at 1e-4 every planted cutoff lies in the reduction's warning band, but
    # a trial that failed before the reduction must not warn
    tol = Tolerances(eig_match=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_roundtrips(4, 2, 3, SeededRng(8), tol)
    assert rep == serial_verify_roundtrips(4, 2, 3, SeededRng(8), tol)
    with pytest.raises(EigensolverError, match="resample limit"):
        sample_K(SeededRng(8), 4)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda r: verify_containment(OrbitIndex(1, 3), 3, -1, r), "trials", id="c-t"),
        pytest.param(lambda r: verify_containment(OrbitIndex(1, 1), 1, 2, r), "n", id="c-n"),
        pytest.param(lambda r: verify_roundtrips(3, 1, -2, r), "trials", id="r-t"),
        pytest.param(lambda r: verify_roundtrips(3, 5, 2, r), "l", id="r-l-high"),
        pytest.param(lambda r: verify_roundtrips(3, -1, 2, r), "l", id="r-l-low"),
        pytest.param(lambda r: verify_roundtrips(1, 0, 2, r), "n", id="r-n"),
        pytest.param(lambda r: verify_nilradical(1, 1, 2, r), "n", id="nil-n"),
        pytest.param(lambda r: verify_nilradical(4, 3, 2, r), "i", id="nil-i"),
        pytest.param(lambda r: verify_nilradical(1, 3, -1, r), "trials", id="nil-t"),
        pytest.param(lambda r: random_xi(r, 1, 0), "n", id="xi-n"),
        pytest.param(lambda r: estimate_dim(nilradical_n(1, 3), -1, r), "repeats", id="dim-r"),
    ],
)
def test_library_loops_name_a_bad_argument(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(SeededRng(0))


def _spectra_pairs():
    """Random, clustered and repeated-eigenvalue spectra of sizes (m - 1, m),
    all-equal clusters and an empty side."""
    gen = np.random.default_rng(17)
    for m in range(2, 9):
        for _ in range(15):
            a = cgauss(gen, m - 1)
            yield a, cgauss(gen, m)  # random: almost never admissible
            b = cgauss(gen, m)
            b[: m - 1] = a + 1e-9 * cgauss(gen, m - 1)
            yield a, b  # every cutoff value has one close partner
            c = cgauss(gen, None)
            yield c + 1e-8 * cgauss(gen, m - 1), c + 1e-8 * cgauss(gen, m)  # one tight cluster
            a = np.repeat(cgauss(gen, (m + 1) // 2), 2)[: m - 1]
            yield a, np.concatenate([a[:1], np.resize(a, m - 1)])  # exactly repeated values
        yield np.full(m - 1, 0.5 - 1j), np.full(m, 0.5 - 1j)  # all equal: l = m - 1
    yield np.zeros(0), cgauss(gen, 3)
    yield cgauss(gen, 3), np.zeros(0)


def _tied_pairs(radius):
    """Spectra with two optimal matchings of equal total but different pairs,
    at a distance d = 2^k <= 1 within the radius, so every residual is exact."""
    d = 0.0 if radius == 0 else 2.0 ** min(0.0, np.floor(np.log2(radius)) - 1)
    for c in (0.0, 1.0, 1j, 3.0 + 2.0j):
        yield np.array([c - d, c + d]), np.array([c])  # one full value, two partners
        yield np.array([c]), np.array([c - d, c + d, c + 8.0])  # one cutoff value, two partners
        # 2 x 2, all four pairs tied
        yield np.array([c - d, c + d]), np.array([c + 1j * d, c - 1j * d, c + 8.0])


def _count_and_total(report):
    return report.l, sum(report.residuals)


# 1e308 is the largest radius Tolerances takes: like the infinite radius
# v_membership can reach, it admits every pair
@pytest.mark.parametrize("radius", (0.0, 1e-12, 1e-7, 1e-1, 1e308))
def test_matching_fast_path_equals_the_assignment(monkeypatch, radius):
    # off exact ties the optimum is unique, so the reports must be equal; on
    # a tie the two solvers may pick different pairs of the same count and
    # total, which the exhaustive search confirms
    tol = Tolerances(eig_match=radius)
    pairs, tied = list(_spectra_pairs()), list(_tied_pairs(radius))
    fast = [match_spectra(a, b, tol) for a, b in pairs]
    fast_tied = [_count_and_total(match_spectra(a, b, tol)) for a, b in tied]
    monkeypatch.setattr(gzcut.spectra, "_assignment", lsa_assignment)
    assert fast == [match_spectra(a, b, tol) for a, b in pairs]
    assert fast_tied == [_count_and_total(match_spectra(a, b, tol)) for a, b in tied]
    assert fast_tied == [brute_match(a, b, radius) for a, b in tied]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.integers(0, 3), min_size=14, max_size=14),
    st.floats(0.05, 2.0),
)
def test_stacked_matching_equals_one_pair_at_a_time(m, picks, radius):
    # values on a coarse lattice, so rows mix ambiguous and plain matchings
    lattice = np.array([0.0, 0.1, 1.0, 1.05])
    a = lattice[np.resize(picks, (3, m))] + 0j
    b = lattice[np.resize(picks[::-1], (3, m + 1))] + 1j * 0.01
    matched, cost = gzcut.spectra._match_stack(a, b, radius)
    for t in range(3):
        rows, cols, residuals = lsa_assignment(a[t], b[t], radius)
        assert matched[t].sum() == len(rows)
        assert sorted(cost[t][matched[t]].tolist()) == sorted(residuals)


def _match_rows(gen, radius):
    """One (p, q) value pair per kind: no value with two admissible partners,
    a value of a with two partners in b, a value of b with two partners in a,
    one cluster inside the radius, and exactly repeated values."""
    p = int(gen.integers(2, 6))
    q = p + int(gen.integers(0, 2))
    lattice = np.arange(q) * 10.0 + 0j

    def near(v):
        return v + radius * 0.4 * cgauss(gen, np.shape(v))

    plain = (near(lattice[:p]), lattice)
    a_side = lattice[:p].copy()
    b_side = lattice.copy()
    b_side[1] = near(b_side[0])  # a[0] has two partners, a[1] none
    two_partners = (a_side, b_side)
    a_side = near(lattice[:p])
    a_side[1] = near(lattice[0])  # b[0] has two partners, b[1] none
    two_in_a = (a_side, lattice)
    cluster = (near(np.full(p, 3.0 + 0j)), near(np.full(q, 3.0 + 0j)))
    ties = np.repeat(lattice[: (q + 1) // 2], 2)[:q]
    tied = (ties[:p].copy(), ties)
    return [plain, two_partners, two_in_a, cluster, tied]


@pytest.mark.parametrize("seed", range(6))
def test_match_stack_rows_equal_brute_force(seed):
    # each (T, p, q) stack mixes plain and ambiguous rows in random order, so
    # a row's ambiguity test must look at that row alone.  Besides the rows
    # at the radius they were drawn for: exact ties, an all-equal cluster (a
    # zero 8 x 8 matrix shares 7 eigenvalues), an empty side, and the radii
    # 0 and inf (v_membership's derated radius can overflow to inf)
    gen, scale = np.random.default_rng(seed), 1e-3
    rows = []
    for _ in range(3):
        rows += _match_rows(gen, scale)
    rows += [(np.zeros(7), np.zeros(8)), (np.zeros(0), cgauss(gen, 4))]
    for radius in (scale, 0.0, np.inf):
        by_shape = {}
        for pair in rows + list(_tied_pairs(radius)):
            by_shape.setdefault((len(pair[0]), len(pair[1])), []).append(pair)
        for pairs in by_shape.values():
            order = gen.permutation(len(pairs))
            a = np.array([pairs[i][0] for i in order], dtype=complex)
            b = np.array([pairs[i][1] for i in order], dtype=complex)
            matched, cost = gzcut.spectra._match_stack(a, b, radius)
            for t in range(len(a)):
                count, total = brute_match(a[t], b[t], radius)
                lsa_rows, _, lsa_residuals = lsa_assignment(a[t], b[t], radius)
                assert len(lsa_rows) == count
                assert sum(lsa_residuals) == pytest.approx(total, abs=1e-12)
                assert matched[t].sum() == count
                assert matched[t].sum(0).max(initial=0) <= 1 and matched[t].sum(1).max(initial=0) <= 1
                assert cost[t][matched[t]].sum() == pytest.approx(total, abs=1e-12)
