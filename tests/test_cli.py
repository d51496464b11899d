import functools
import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import gzcut
from gzcut import (
    MethodDisagreement,
    SeededRng,
    all_orbit_indices,
    estimate_dim,
    is_n_strongly_regular,
    nilradical_n,
    parabolic_p,
    verify_containment,
    verify_roundtrips,
)
from gzcut.cli import _TOL_FLAGS, build_parser, main, read_matrix_file, write_matrix_file
from oracles import failing_kernel, serial_conjugated_sample

BORDERED = {"n": 3, "entries": [[1, 0, 0], [0, 2, 1], [0, 1, 3]]}


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def matrix_file(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_matrix_file_round_trip(tmp_path):
    m = np.array([[1 + 2j, 0], [3, -1j]])
    path = tmp_path / "rt.json"
    write_matrix_file(str(path), m)
    back = read_matrix_file(str(path))
    assert np.array_equal(back, m)


def test_coincidence_zero_matrix(tmp_path):
    path = matrix_file(tmp_path, {"n": 3, "entries": [[0] * 3] * 3})
    code, report = run(tmp_path, "coincidence", "--input", path)
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["l"] == 2


def test_coincidence_bordered_example(tmp_path):
    path = matrix_file(tmp_path, BORDERED)
    code, report = run(tmp_path, "coincidence", "--input", path)
    assert code == 0 and report["results"]["l"] == 1


def test_coincidence_rejects_1x1(tmp_path):
    path = matrix_file(tmp_path, {"n": 1, "entries": [[7]]})
    code, _ = run(tmp_path, "coincidence", "--input", path)
    assert code == 2


def test_malformed_file_is_an_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(tmp_path, "coincidence", "--input", str(path))
    assert code == 2
    for payload in (
        '{"n": 2, "entries": [[1, 2]]}',
        '{"n": 2, "entries": 5}',
        '{"n": 2, "entries": [1, 2]}',
        '{"n": 2, "entries": [[1, 2], [3, [1, "x"]]]}',
        '{"n": 1, "entries": [[1%s]]}' % ("0" * 400),
        # JSON booleans are not numbers, although Python's bool is an int
        '{"n": 2, "entries": [[true, false], [false, true]]}',
        '{"n": 2, "entries": [[1, [true, 0]], [0, 1]]}',
        '{"n": true, "entries": [[1]]}',
    ):
        path.write_text(payload)
        code, _ = run(tmp_path, "coincidence", "--input", str(path))
        assert code == 2, payload
    path = matrix_file(tmp_path, BORDERED)
    # each flag on a subcommand that takes it; an infinite rank cutoff would
    # make every rank 0
    for argv in (
        ("coincidence", "--input", path, "--tol-eig"),
        ("dims", "--n", "3", "--repeats", "1", "--tol-rank"),
        ("canonical", "--input", path, "--tol-membership"),
    ):
        for bad in ("-1", "nan", "inf"):
            code, report = run(tmp_path, *argv, bad)
            assert code == 2 and report is None, (argv, bad)


def _readme_tolerance_flags():
    """The README's table of the --tol-* flags each subcommand takes."""
    readme = Path(__file__).parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    start = lines.index("| subcommand | tolerance flags |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        commands, flags = (cell.strip() for cell in line.strip("|").split("|"))
        for command in commands.split(", "):
            taken = [] if flags == "none" else flags.split(", ")
            table[command.strip("`")] = [flag.strip("`") for flag in taken]
    return table


def test_each_subcommand_takes_only_the_tolerance_flags_its_verdicts_read(tmp_path, capsys):
    subs = build_parser()._subparsers._group_actions[0].choices
    table = _readme_tolerance_flags()
    assert sorted(table) == sorted(subs)
    for command, sub in subs.items():
        flags = [o for a in sub._actions for o in a.option_strings if o.startswith("--tol-")]
        assert flags == table[command], command
    assert sum(map(len, table.values())) == 8
    # a flag the subcommand does not take is a usage error, and no report
    path = matrix_file(tmp_path, BORDERED)
    argvs = {
        "coincidence": ["--input", path],
        "canonical": ["--input", path],
        "verify": ["--n", "3", "--trials", "2"],
        "dims": ["--n", "3", "--repeats", "1"],
        "catalog": ["--n", "3"],
        "sn": ["--n", "3", "--trials", "2"],
    }
    for command, taken in table.items():
        for flag in sorted(set(_TOL_FLAGS.values()) - set(taken)):
            code, report = run(tmp_path, command, *argvs[command], flag, "1e-6")
            assert code == 2 and report is None, (command, flag)
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_internal_invariant_failure_is_a_numerical_failure(tmp_path, capsys):
    # well formed, but the reduction trips an XiInvariantError inside xi_pattern
    path = matrix_file(tmp_path, {"n": 3, "entries": [[0, 0, 1e-4], [0, 5, 1], [1e-4, 1, 10]]})
    code, report = run(tmp_path, "canonical", "--input", path)
    assert code == 3 and report is None
    err = capsys.readouterr().err
    assert "XiInvariantError" in err and "input error" not in err


def test_canonical_command(tmp_path):
    path = matrix_file(tmp_path, BORDERED)
    code, report = run(tmp_path, "canonical", "--input", path)
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["idx"] == [2, 3]
    assert report["results"]["l"] == 1
    assert report["results"]["residual"] < 1e-8


def test_canonical_degenerate_cutoff_is_na(tmp_path):
    path = matrix_file(tmp_path, {"n": 3, "entries": [[1, 0, 0], [0, 1, 0], [0, 0, 5]]})
    code, report = run(tmp_path, "canonical", "--input", path)
    assert code == 4
    assert report["status"] == "n/a"


def test_verify_small(tmp_path):
    code, report = run(tmp_path, "verify", "--n", "2", "--trials", "30", "--seed", "7")
    assert code == 0
    assert report["status"] == "pass"
    assert all(c["violations"] == 0 for c in report["results"]["containment"])
    rt = report["results"]["roundtrips"]
    assert [r["mismatches"] for r in rt] == [0, 0]
    assert rt[-1]["borel_indices"] == [1, 2]


def test_verify_zero_trials_is_na(tmp_path):
    code, report = run(tmp_path, "verify", "--n", "3", "--trials", "0")
    assert code == 4 and report["status"] == "n/a"


def test_verify_that_completes_no_trial_of_a_loop_is_na(tmp_path, monkeypatch):
    # every eigenvalue solve fails; only the identities standing in for the
    # failed matrices solve
    failing_kernel(monkeypatch, "eigvals")
    code, report = run(tmp_path, "verify", "--n", "4", "--trials", "3")
    loops = report["results"]["containment"] + report["results"]["roundtrips"]
    assert all(r["failures"] == r["trials"] == 3 for r in loops)
    assert code == 4 and report["status"] == "n/a"


def test_verify_judges_round_trip_residuals_by_the_membership_cap(tmp_path):
    # at a cap of 0 every round trip whose parabolic is not all of gl_n fails
    code, report = run(tmp_path, "verify", "--n", "4", "--trials", "5", "--tol-membership", "0")
    assert code == 1 and report["status"] == "fail"
    for rt in report["results"]["roundtrips"]:
        assert rt["residual_cap"] == 0.0 and rt["mismatches"] == rt["failures"] == 0
        assert rt["residual_violations"] == (5 if rt["l"] >= 1 else 0), rt
    code, report = run(tmp_path, "verify", "--n", "4", "--trials", "5")
    assert code == 0 and {rt["residual_cap"] for rt in report["results"]["roundtrips"]} == {1e-8}


def test_verify_range_check(tmp_path):
    code, _ = run(tmp_path, "verify", "--n", "9", "--trials", "5")
    assert code == 2


def test_negative_seeds_and_counts_are_input_errors(tmp_path, capsys):
    for argv in (
        ("verify", "--n", "3", "--trials", "2", "--seed", "-1"),
        ("dims", "--n", "3", "--repeats", "1", "--seed", "-1"),
        ("sn", "--n", "3", "--trials", "2", "--seed", "-1"),
        ("verify", "--n", "3", "--trials", "-1"),
        ("dims", "--n", "3", "--repeats", "-1"),
        ("sn", "--n", "3", "--trials", "-1"),
    ):
        code, report = run(tmp_path, *argv)
        assert code == 2 and report is None, argv
        assert "must be nonnegative" in capsys.readouterr().err


def test_verify_with_a_loose_match_tolerance_exits_as_a_numerical_failure():
    # random_xi can never plant a point at eig_match = 1; it used to redraw forever
    env = {**os.environ, "PYTHONPATH": str(Path(gzcut.__file__).parents[1])}
    argv = [sys.executable, "-m", "gzcut.cli", "verify", "--n", "3", "--trials", "2", "--tol-eig", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "XiInvariantError" in proc.stderr and "eig_match=1" in proc.stderr


def test_verify_at_loose_match_tolerances_round_trips_or_gives_up(tmp_path, capsys):
    # planting and reduction share one gap floor of 1e3 matching radii: at
    # 1e-3 every planted point round-trips; at 1e-2 no planted diagonal at
    # n = 4 clears the floor of 10
    argv = ["verify", "--n", "4", "--trials", "40", "--seed", "9", "--tol-eig"]
    with warnings.catch_warnings():
        # most planted gaps lie in the conditioning band (1, 10]
        warnings.simplefilter("ignore", RuntimeWarning)
        code, report = run(tmp_path, *argv, "1e-3")
    assert code == 0 and report["status"] == "pass"
    assert all(r["failures"] == 0 for r in report["results"]["roundtrips"])
    (tmp_path / "report.json").unlink()
    code, report = run(tmp_path, *argv, "1e-2")
    assert code == 3 and report is None
    assert "XiInvariantError" in capsys.readouterr().err


def test_verify_at_n_2_keeps_its_marks_when_the_radius_nears_the_border_moduli(tmp_path):
    # n = 2 has no diagonal gap to floor; a round trip rescales the border
    # entries, and a U/L mark read by comparing them stays right where a
    # nonzero entry shrinks to the matching radius
    for tol in ("0.5", "1"):
        code, report = run(tmp_path, "verify", "--n", "2", "--trials", "14", "--tol-eig", tol)
        assert code == 0 and report["status"] == "pass", tol


@pytest.mark.parametrize("n, trials, seed", ((4, 40, 9), (6, 30, 4)))
def test_near_degenerate_cutoffs_warn_at_most_once_per_round_trip_loop(tmp_path, n, trials, seed):
    # one reduction per planted count l, each warning once for all its trials
    argv = ["verify", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    with pytest.warns(RuntimeWarning, match="nearly degenerate") as record:
        code, _ = run(tmp_path, *argv, "--tol-eig", "1e-4")
    assert code == 0 and 1 <= len(record) <= n
    assert all("nearly degenerate" in str(w.message) for w in record)


def test_verify_serial_and_parallel_reports_are_byte_identical(tmp_path):
    a = tmp_path / "serial.json"
    b = tmp_path / "parallel.json"
    args = ["verify", "--n", "3", "--trials", "40", "--seed", "11"]
    assert main(args + ["--workers", "1", "--output", str(a)]) == 0
    assert main(args + ["--workers", "4", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_report_does_not_depend_on_what_ran_before_it(tmp_path):
    # the catalog specs and the parser are cached per process: a report must
    # not see anything an earlier report, a usage error or --help in the same
    # process left behind
    argv = ["verify", "--n", "6", "--trials", "14", "--seed", "11"]
    env = {**os.environ, "PYTHONPATH": str(Path(gzcut.__file__).parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-m", "gzcut.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert fresh.returncode == 0 and fresh.stdout
    for other in (
        ["catalog", "--n", "6"],
        ["dims", "--n", "6", "--repeats", "3"],
        ["sn", "--n", "4", "--trials", "40"],
    ):
        assert main(other + ["--output", str(tmp_path / "other.json")]) == 0, other
    reports = []
    for k in range(2):
        out = tmp_path / f"verify{k}.json"
        assert main(argv + ["--output", str(out)]) == 0
        reports.append(out.read_bytes())
        assert main(["verify", "--n", "six", "--trials", "14"]) == 2
        assert main(["verify", "--help"]) == 0
    assert reports == [fresh.stdout, fresh.stdout]


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    builds = []
    real_build = gzcut.cli.build_parser

    def build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(gzcut.cli, "build_parser", build)
    # an empty cache, as in a fresh process, whatever earlier tests built
    monkeypatch.setattr(gzcut.cli, "_parser", functools.cache(gzcut.cli._parser.__wrapped__))
    out = ["--output", str(tmp_path / "report.json")]
    argvs = (["catalog", "--n", "2"], ["catalog"], ["catalog", "--help"], ["catalog", "--n", "3"])
    codes = [main(argv + out) for argv in argvs]
    assert codes == [0, 2, 0, 0] and builds == [1]


@pytest.mark.parametrize("n", (6, 8))
def test_verify_plants_in_one_round_and_tests_the_floor_without_an_svd(tmp_path, monkeypatch, n):
    # the containment stack solves its matrices and their cutoffs, the
    # planting validates its round and the reduction finds the shared slots:
    # 4 stacked eigvals calls, and one more for a rare second planting round
    calls = dict.fromkeys(("eigvals", "svd"), 0)
    for name in calls:

        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for seed in range(10):
        calls.update(eigvals=0, svd=0)
        code, _ = run(tmp_path, "verify", "--n", str(n), "--trials", "14", "--seed", str(seed))
        assert code == 0 and calls["eigvals"] <= 5 and calls["svd"] == 0, (seed, calls)


def test_verify_entries_are_the_library_reports(tmp_path):
    # catalog index k starts on stream k*T; count l continues after the 6 indices
    code, report = run(tmp_path, "verify", "--n", "3", "--trials", "20", "--seed", "5")
    assert code == 0
    res = report["results"]
    for k, idx in enumerate(all_orbit_indices(3)):
        want = asdict(verify_containment(idx, 3, 20, SeededRng(5, k * 20)))
        assert res["containment"][k] == {**want, "idx": [idx.i, idx.j], "bound": 2 - idx.length}
    for l in range(3):
        want = asdict(verify_roundtrips(3, l, 20, SeededRng(5, (6 + l) * 20)))
        want = {key: v for key, v in want.items() if v is not None}
        assert res["roundtrips"][l] == json.loads(json.dumps(want))


def test_dims_entries_are_the_library_estimates_on_the_stream_layout(tmp_path, monkeypatch):
    # catalog index k starts on stream k*R; nilradical i continues with no gap
    n, repeats, seed = 3, 2, 4
    streams = []

    def recording(s, r, rng, tol):
        streams.append(rng.stream)
        return estimate_dim(s, r, rng, tol)

    monkeypatch.setattr(gzcut.cli, "estimate_dim", recording)
    code, report = run(tmp_path, "dims", "--n", str(n), "--repeats", str(repeats), "--seed", str(seed))
    assert code == 0
    indices = all_orbit_indices(n)
    assert streams == [k * repeats for k in range(len(indices) + n)]
    res = report["results"]
    for k, idx in enumerate(indices):
        want = estimate_dim(parabolic_p(idx, n), repeats, SeededRng(seed, k * repeats))
        assert res["saturations"][k]["estimated"] == want
    for i in range(1, n + 1):
        stream = (len(indices) + i - 1) * repeats
        want = estimate_dim(nilradical_n(i, n), repeats, SeededRng(seed, stream))
        assert res["nilradicals"][i - 1]["estimated"] == want


def test_dims_n2(tmp_path):
    code, report = run(tmp_path, "dims", "--n", "2", "--repeats", "3", "--seed", "1")
    assert code == 0 and report["status"] == "pass"
    est = {tuple(s["idx"]): s["estimated"] for s in report["results"]["saturations"]}
    assert est == {(1, 1): 3, (1, 2): 4, (2, 2): 3}
    assert [s["estimated"] for s in report["results"]["nilradicals"]] == [1, 1]


def test_dims_zero_repeats_is_na(tmp_path):
    code, report = run(tmp_path, "dims", "--n", "3", "--repeats", "0")
    assert code == 4 and report["status"] == "n/a"


def test_catalog_counts(tmp_path):
    code, report = run(tmp_path, "catalog", "--n", "2")
    assert code == 0 and report["status"] == "pass"
    assert report["results"]["count"] == 3
    code, report = run(tmp_path, "catalog", "--n", "4")
    assert report["results"]["count"] == 10
    assert all(o["theta_stable"] for o in report["results"]["orbits"])
    assert all(o["borel_in_parabolic"] for o in report["results"]["orbits"])


def test_catalog_makes_no_svd(tmp_path, monkeypatch):
    # every relation is a membership read-off: with every SVD failing, the
    # report keeps its exit code and its bytes
    argv = ["catalog", "--n", "8", "--output", str(tmp_path / "report.json")]
    assert main(argv) == 0
    clean = (tmp_path / "report.json").read_bytes()
    failing_kernel(monkeypatch, "svd")
    assert main(argv) == 0
    assert (tmp_path / "report.json").read_bytes() == clean


def test_sn_command(tmp_path):
    code, report = run(tmp_path, "sn", "--n", "3", "--trials", "25", "--seed", "5")
    assert code == 0 and report["status"] == "pass"
    comps = {c["i"]: c for c in report["results"]["components"]}
    assert all(c["nilpotent_pairs"] == 25 for c in comps.values())
    assert comps[1]["strongly_regular_fraction"] > 0.9
    assert comps[3]["strongly_regular_fraction"] > 0.9
    assert comps[2]["strongly_regular_fraction"] < 0.1


def test_sn_draws_each_trial_on_the_stream_layout(tmp_path, monkeypatch):
    # component i draws on stream (i-1)*T and trial t takes row t of its blocks
    n, trials, seed = 3, 4, 9
    loops, seen = [], []
    real_loop = gzcut.cli.verify_nilradical
    real_stack = gzcut.canonical._strong_regularity_stack

    def loop(i, n, trials, rng, tol):
        loops.append((i, rng.seed, rng.stream))
        return real_loop(i, n, trials, rng, tol)

    def stack(xs, tol, errors):
        seen.extend(xs)
        return real_stack(xs, tol, errors)

    monkeypatch.setattr(gzcut.cli, "verify_nilradical", loop)
    monkeypatch.setattr(gzcut.canonical, "_strong_regularity_stack", stack)
    code, report = run(tmp_path, "sn", "--n", str(n), "--trials", str(trials), "--seed", str(seed))
    assert code == 0
    assert loops == [(i, seed, (i - 1) * trials) for i in range(1, n + 1)]
    want = []
    for i in range(1, n + 1):
        rng = SeededRng(seed, (i - 1) * trials)
        want += [serial_conjugated_sample(nilradical_n(i, n), n, rng, t) for t in range(trials)]
    assert len(seen) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(seen, want))
    fractions = [c["strongly_regular_fraction"] for c in report["results"]["components"]]
    want_fractions = [
        sum(is_n_strongly_regular(x).ok for x in want[k * trials : (k + 1) * trials]) / trials
        for k in range(n)
    ]
    assert fractions == want_fractions


def test_sn_with_zero_dimensional_centralizers_reports_method_disagreements(tmp_path):
    # at a rank cutoff of 0 rounding noise leaves the centralizers no
    # dimension, while the gradient route still finds full rank
    code, report = run(tmp_path, "sn", "--n", "3", "--trials", "4", "--tol-rank", "0")
    assert code == 1 and report["status"] == "fail"
    got = [
        (c["nilpotent_pairs"], c["strongly_regular_fraction"], c["method_disagreements"])
        for c in report["results"]["components"]
    ]
    assert got == [(4, 0.0, 4)] * 3
    # at n = 2 some centralizers keep their exact dimension, so the verdicts
    # rest on rounding; the report must still come out
    code, report = run(tmp_path, "sn", "--n", "2", "--trials", "4", "--tol-rank", "0")
    assert code in (0, 1) and report is not None
    assert all(c["nilpotent_pairs"] == 4 for c in report["results"]["components"])


def _fake_strong_regularity(monkeypatch, verdict):
    """verify_nilradical with its nilpotent pairs counted, and verdict(i, t)
    for trial t of component i; a verdict that raises MethodDisagreement is
    tallied."""
    real = gzcut.cli.verify_nilradical

    def fake(i, n, trials, rng, tol):
        passed, _, _ = real(i, n, trials, rng, tol)
        strong = failures = 0
        for t in range(trials):
            try:
                strong += bool(verdict(i, t))
            except MethodDisagreement:
                failures += 1
        return passed, strong, failures

    monkeypatch.setattr(gzcut.cli, "verify_nilradical", fake)


@pytest.mark.parametrize(
    "verdict",
    [
        # one of 20 trials on component 1 is not strongly regular: 0.95
        lambda i, t: i in (1, 4) and (i, t) != (1, 7),
        # one of 20 trials on component 2 is: 0.05
        lambda i, t: i in (1, 4) or (i, t) == (2, 0),
        # the fractions swapped
        lambda i, t: i in (2, 3),
    ],
    ids=["component_1_at_0.95", "component_2_at_0.05", "swapped"],
)
def test_sn_fails_unless_strong_regularity_sits_on_the_end_components(tmp_path, monkeypatch, verdict):
    _fake_strong_regularity(monkeypatch, verdict)
    code, report = run(tmp_path, "sn", "--n", "4", "--trials", "20", "--seed", "2")
    assert code == 1 and report["status"] == "fail"
    assert all(c["nilpotent_pairs"] == 20 for c in report["results"]["components"])


def test_sn_method_disagreements_are_tallied_not_failed(tmp_path, monkeypatch):
    def verdict(i, t):
        if (i, t) == (2, 3):
            raise MethodDisagreement("the two routes disagree")
        return i in (1, 3)

    _fake_strong_regularity(monkeypatch, verdict)
    code, report = run(tmp_path, "sn", "--n", "3", "--trials", "10", "--seed", "2")
    assert code == 0 and report["status"] == "pass"
    comps = report["results"]["components"]
    assert [c["method_disagreements"] for c in comps] == [0, 1, 0]
    assert [c["strongly_regular_fraction"] for c in comps] == [1.0, 0.0, 1.0]


def test_sn_zero_trials_is_na(tmp_path):
    code, report = run(tmp_path, "sn", "--n", "3", "--trials", "0")
    assert code == 4 and report["status"] == "n/a"
    assert report["results"] == {}


def test_table_format(tmp_path, capsys):
    path = matrix_file(tmp_path, BORDERED)
    assert main(["coincidence", "--input", path, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: coincidence")
    assert "results.l: 1" in out


@pytest.mark.parametrize("where", ("directory", "missing parent"))
def test_unwritable_output_is_an_input_error(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "absent" / "report.json"
    assert main(["catalog", "--n", "3", "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write report {target}")


def test_unknown_command_is_input_error():
    assert main(["frobnicate"]) == 2
