"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines.
All randomness is seeded, so the suite is deterministic end to end.
"""

import functools
import json
import time

import numpy as np
import pytest

from gzcut import (
    SeededRng,
    Tolerances,
    ad,
    all_orbit_indices,
    borel_b,
    coincidence_count,
    cutoff_parabolic,
    estimate_dim,
    gz_gradients,
    is_theta_stable,
    nilradical_n,
    parabolic_p,
    phi_n,
    power_sum_count,
    project_cutoff,
    random_xi,
    sample_K,
    v_matrix,
    verify_nilradical,
    verify_roundtrips,
    xi_build,
)
from gzcut.canonical import _strong_regularity_stack
from gzcut.cli import main as cli_main
from gzcut.orbits import _conjugated_samples
from oracles import cgauss, exact_rank, gz_function, levi_blocks, span_contains, span_equal

SEED = 20260809


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_containment():
    # 500 seeded trials per orbit index, n = 2..6, coincidence radius 1e-6:
    # the count never drops below n - 1 - (j - i)
    tol = Tolerances(eig_match=1e-6)
    trials = 500
    start = time.perf_counter()
    violations = failures = total = 0
    from gzcut import verify_containment

    stream = 0
    for n in range(2, 7):
        for idx in all_orbit_indices(n):
            rep = verify_containment(idx, n, trials, SeededRng(SEED, stream), tol)
            stream += trials
            violations += rep.violations
            failures += rep.failures
            total += trials
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "containment",
        violations == 0 and elapsed < 120.0,
        f"{total} trials, {violations} violations, {failures} solver failures, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_dimension_formulas():
    tol = Tolerances()
    repeats = 5
    bad = []
    stream = 0
    for n in (3, 4, 5):
        for idx in all_orbit_indices(n):
            got = estimate_dim(parabolic_p(idx, n), repeats, SeededRng(SEED, stream), tol)
            stream += repeats
            want = n * n - n + 1 + idx.length
            if got != want:
                bad.append((n, (idx.i, idx.j), got, want))
        for i in range(1, n + 1):
            got = estimate_dim(nilradical_n(i, n), repeats, SeededRng(SEED, stream), tol)
            stream += repeats
            want = n * n - 2 * n + 1
            if got != want:
                bad.append((n, i, got, want))
    _verdict(2, "dimension formulas", not bad, f"mismatches: {bad if bad else 'none'}")


def test_criterion_3_canonical_round_trips():
    # 200 planted round trips per (n, l): the reduction recovers the planted
    # count, lands in the parabolic of orbit length n-1-l with residual at
    # most membership (1e-8), and for l = n-1 the recovered Borel index sweeps
    # all of 1..n
    tol = Tolerances()
    trips = 200
    failures = mismatches = residual_violations = 0
    worst = 0.0
    coverage_failures = []
    stream = 0
    for n in range(3, 7):
        for l in range(n):
            rep = verify_roundtrips(n, l, trips, SeededRng(SEED, stream), tol)
            stream += trips
            assert rep.residual_cap == tol.membership
            failures += rep.failures
            mismatches += rep.mismatches
            residual_violations += rep.residual_violations
            worst = max(worst, rep.max_residual)
            if l == n - 1 and rep.borel_indices != tuple(range(1, n + 1)):
                coverage_failures.append((n, rep.borel_indices))
    ok = failures == 0 and mismatches == 0 and residual_violations == 0 and not coverage_failures
    _verdict(
        3,
        "canonical form",
        ok,
        f"{failures} solver failures, {mismatches} recovery mismatches, "
        f"{residual_violations} residuals > {tol.membership:g} (worst {worst:.2e}), Borel "
        f"coverage failures: {coverage_failures if coverage_failures else 'none'}",
    )


def test_criterion_4_catalog_exactness():
    tol = Tolerances()
    bad = []
    for n in range(1, 9):
        for idx in all_orbit_indices(n):
            v = v_matrix(idx, n).real.astype(int)
            f = borel_b(idx, n).frame.real.astype(int)
            for k in range(1, n + 1):
                a, b = v[:, :k], f[:, :k]
                if not (exact_rank(a) == exact_rank(b) == exact_rank(np.hstack([a, b])) == k):
                    bad.append(("flag", n, (idx.i, idx.j), k))
            p = parabolic_p(idx, n)
            bl = borel_b(idx, n)
            if not span_contains(p.basis, bl.basis, tol):
                bad.append(("borel-in-parabolic", n, (idx.i, idx.j)))
            if idx.i == idx.j and not span_equal(p.basis, bl.basis, tol):
                bad.append(("closed-orbit-parabolic-is-borel", n, (idx.i, idx.j)))
            if not is_theta_stable(p, tol):
                bad.append(("theta", n, (idx.i, idx.j)))
            if n >= 2:
                predicted = cutoff_parabolic(idx, n)
                if not span_equal(project_cutoff(p), predicted.basis, tol):
                    bad.append(("cutoff-projection", n, (idx.i, idx.j)))
                sizes = levi_blocks(predicted.mask)
                l = idx.length
                want = sorted([l] * (l > 0) + [1] * (n - 1 - l), reverse=True)
                if sizes != want:
                    bad.append(("levi-blocks", n, (idx.i, idx.j), sizes, want))
    _verdict(4, "catalog exactness", not bad, f"failures: {bad if bad else 'none'}")


def test_criterion_5_two_path_classification():
    # direct eigensolver counting vs the power-sum -> Newton -> roots ->
    # matching pipeline, 1000 random matrices per dimension
    tol = Tolerances(eig_match=1e-6)
    per_n = 1000
    gen = np.random.default_rng(SEED)
    disagreements = excluded = total = 0
    for n in range(2, 7):
        for _ in range(per_n):
            m = cgauss(gen, (n, n))
            total += 1
            if power_sum_count(phi_n(m), tol) == coincidence_count(m, tol).l:
                continue
            # near-threshold carve-out: both paths must sit close to a radius
            from gzcut import cutoff, eigenvalues

            a = eigenvalues(cutoff(m))
            b = eigenvalues(m)
            dists = np.abs(a[:, None] - b[None, :]).ravel()
            near = np.any((dists >= tol.eig_match / 10) & (dists <= 100 * tol.eig_match))
            if near:
                excluded += 1
                print(f"  two-path exclusion: n={n}, min distance {dists.min():.3e}")
            else:
                disagreements += 1
    ok = disagreements == 0 and excluded <= 0.001 * total
    _verdict(
        5,
        "two-path classification",
        ok,
        f"{total} samples, {disagreements} hard disagreements, {excluded} "
        f"near-threshold exclusions",
    )


# the two count routes, each (x, tol) -> l
ROUTES = {
    "eigensolver": lambda x, tol: coincidence_count(x, tol).l,
    "power sums": lambda x, tol: power_sum_count(phi_n(x), tol),
}


def _tally_misses(misses, key, xs, truths, tol, routes=tuple(ROUTES)):
    """Add to misses[key, route] how many of the matrices xs each count route
    gets wrong against its true count."""
    for x, l in zip(xs, truths):
        for route in routes:
            misses[key, route] = misses.get((key, route), 0) + (ROUTES[route](x, tol) != l)


def _repeated_bordered(gen, n, l):
    """A bordered matrix sharing exactly l >= 2 eigenvalues with its cutoff,
    whose slots 1 and 2 carry the same diagonal value and the same U/L mark:
    that value is a semisimple double eigenvalue of the matrix and of its
    cutoff, and counts twice.  The distinct diagonal values keep gaps of at
    least 0.5 and border moduli lie in [0.5, 1.5), as in random_xi, whose
    xi_build rejects a repeated diagonal."""
    while True:
        h = 2.0 * cgauss(gen, n - 1)
        h[1] = h[0]
        gaps = np.abs(h[1:, None] - h[None, 1:])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= 0.5:
            break
    y, z = (0.5 + gen.random((2, n - 1))) * np.exp(2j * np.pi * gen.random((2, n - 1)))
    upper = gen.random(l) < 0.5
    upper[1] = upper[0]
    for i in range(l):
        if upper[i]:
            z[i] = 0.0
        else:
            y[i] = 0.0
    b = np.diag(np.append(h, cgauss(gen)))
    b[:-1, -1], b[-1, :-1] = y, z
    return b


@functools.cache
def _repeated_family():
    """(n, matrices, true counts) for n = 3..8: 30 _repeated_bordered points
    of each count l = 2..n-1, 630 in all, each conjugated by sample_K on its
    own stream.  Built once for the two tests that score them.  Route 2
    misses 1 of them at eig_match 1e-6, and 12 at the default 1e-7."""
    gen = np.random.default_rng(SEED + 8)
    family, stream = [], 0
    for n in range(3, 9):
        truths = [l for l in range(2, n) for _ in range(30)]
        xs = []
        for l in truths:
            xs.append(ad(sample_K(SeededRng(SEED + 8, stream), n), _repeated_bordered(gen, n, l)))
            stream += 1
        family.append((n, xs, truths))
    return tuple(family)


def test_criterion_5_known_counts():
    # the Gaussian inputs all have l = 0; planted points with l cycling over
    # 0..n-1 and conjugated Borel sweeps, whose generic count is n-1-(j-i),
    # score each route against the truth, with no carve-out.  Planted points
    # with a semisimple double eigenvalue score the eigensolver route here and
    # the power-sum route in the pin below
    tol = Tolerances(eig_match=1e-6)
    planted_per_n, per_borel = 100, 10
    misses, total, stream = {}, 0, 0
    for n in range(2, 9):
        # one stream per planted point, l cycling over 0..n-1
        truths = [t % n for t in range(planted_per_n)]
        xs = []
        for l in truths:
            rng = SeededRng(SEED + 5, stream)
            stream += 1
            xs.append(ad(sample_K(rng, n), xi_build(random_xi(rng, n, l, tol), tol)))
        _tally_misses(misses, "planted", xs, truths, tol)
        # one loop of per_borel samples per catalog Borel
        for idx in all_orbit_indices(n):
            errors = {}
            rng = SeededRng(SEED + 6, stream)
            stream += per_borel
            xs = _conjugated_samples([borel_b(idx, n)], n, [rng], per_borel, errors)
            assert not errors
            _tally_misses(misses, "borel", xs, [n - 1 - idx.length] * per_borel, tol)
        total += planted_per_n + len(all_orbit_indices(n)) * per_borel
    for _, xs, truths in _repeated_family():
        _tally_misses(misses, "repeated", xs, truths, tol, ("eigensolver",))
        total += len(truths)
    wrong = {key: k for key, k in misses.items() if k}
    _verdict(
        5,
        "two-path classification on known counts",
        not wrong,
        f"{total} samples, wrong counts by (family, route): {wrong if wrong else 'none'}",
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: float power traces put a recovered double root past the rematch radius",
)
def test_criterion_5_repeated_eigenvalues():
    # the power-sum route on the planted points with a semisimple double
    # eigenvalue that criterion 5's known counts score on the eigensolver route
    tol = Tolerances(eig_match=1e-6)
    misses, total = {}, 0
    for n, xs, truths in _repeated_family():
        _tally_misses(misses, n, xs, truths, tol, ("power sums",))
        total += len(truths)
    wrong = {key: k for key, k in misses.items() if k}
    _verdict(5, "repeated eigenvalues", not wrong, f"{total} samples, wrong counts by (n, route): {wrong}")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 19: on nilpotent pairs a defective eigenvalue moves by "
    "about (u ||x||)^(1/m), and neither count route takes that root",
)
def test_criterion_5_nilpotent_pairs():
    # every conjugated nilradical sample is a nilpotent pair: true count n - 1
    tol = Tolerances(eig_match=1e-6)
    trials = 10
    misses, stream = {}, 0
    for n in range(3, 7):
        for i in range(1, n + 1):
            errors = {}
            rng = SeededRng(SEED + 7, stream)
            stream += trials
            xs = _conjugated_samples([nilradical_n(i, n)], n, [rng], trials, errors)
            assert not errors
            _tally_misses(misses, n, xs, [n - 1] * trials, tol)
    wrong = {key: k for key, k in misses.items() if k}
    _verdict(5, "nilpotent pairs", not wrong, f"wrong counts by (n, route): {wrong}")


def test_criterion_6_strong_regularity():
    tol = Tolerances()
    # gradient formula vs central finite differences
    gen = np.random.default_rng(SEED + 1)
    fd_bad = 0
    step = 1e-6
    for n in range(2, 7):
        x = cgauss(gen, (n, n))
        labels = [(n - 1, j) for j in range(1, n)] + [(n, j) for j in range(1, n + 1)]
        for (i, j), grad in zip(labels, gz_gradients(x)):
            for _ in range(2):
                d = cgauss(gen, (n, n))
                fd = (gz_function(x + step * d, i, j) - gz_function(x - step * d, i, j)) / (
                    2 * step
                )
                want = np.trace(grad @ d)
                if abs(fd - want) > 1e-5 * (1 + abs(want)):
                    fd_bad += 1
    # the two routes agree sample by sample; each n's matrices are drawn one
    # at a time, then checked by one stacked call
    gen = np.random.default_rng(SEED + 2)
    disagreements = 0
    for n in range(2, 7):
        mats, found = np.array([cgauss(gen, (n, n)) for _ in range(1000)]), {}
        _strong_regularity_stack(mats, tol, found)
        disagreements += len(found)
    # frequency experiment on the nilradical components
    freq_bad = []
    stream = 0
    trials = 300
    for n in (3, 4, 5):
        for i in range(1, n + 1):
            # component i draws on its own stream, trial t on row t of its blocks
            _, hits, disagree = verify_nilradical(i, n, trials, SeededRng(SEED + 3, stream), tol)
            stream += trials
            disagreements += disagree
            freq = hits / trials
            if i in (1, n):
                if freq <= 0.99:
                    freq_bad.append((n, i, freq))
            elif freq >= 0.01:
                freq_bad.append((n, i, freq))
    ok = fd_bad == 0 and disagreements == 0 and not freq_bad
    _verdict(
        6,
        "strong regularity",
        ok,
        f"{fd_bad} finite-difference misfits, {disagreements} route "
        f"disagreements, frequency failures: {freq_bad if freq_bad else 'none'}",
    )


def test_criterion_7_nilpotent_pair_sampling():
    tol = Tolerances()
    trials = 300
    bad = []
    stream = 0
    for n in range(2, 7):
        for i in range(1, n + 1):
            passed, _, _ = verify_nilradical(i, n, trials, SeededRng(SEED + 4, stream), tol)
            stream += trials
            if passed != trials:
                bad.append((n, i, passed))
    _verdict(
        7,
        "nilpotent pair sampling",
        not bad,
        f"300 samples per component, n = 2..6; shortfalls: {bad if bad else 'none'}",
    )


def test_criterion_8_deterministic_reports(tmp_path):
    args = ["verify", "--n", "3", "--trials", "60", "--seed", str(SEED)]
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    rerun = tmp_path / "rerun.json"
    assert cli_main(args + ["--workers", "1", "--output", str(serial)]) == 0
    assert cli_main(args + ["--workers", "4", "--output", str(parallel)]) == 0
    assert cli_main(args + ["--workers", "1", "--output", str(rerun)]) == 0
    same = serial.read_bytes() == parallel.read_bytes() == rerun.read_bytes()
    status = json.loads(serial.read_text())["status"]
    _verdict(
        8,
        "deterministic reports",
        same and status == "pass",
        f"byte-identical: {same}, status: {status}",
    )
