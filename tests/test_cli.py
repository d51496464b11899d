import json
from dataclasses import asdict

import numpy as np
import pytest

from gzcut import SeededRng, all_orbit_indices, verify_containment, verify_roundtrips
from gzcut.cli import main, read_matrix_file, write_matrix_file

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
    ):
        path.write_text(payload)
        code, _ = run(tmp_path, "coincidence", "--input", str(path))
        assert code == 2, payload
    path = matrix_file(tmp_path, BORDERED)
    for bad in ("-1", "nan"):
        code, _ = run(tmp_path, "coincidence", "--input", path, "--tol-eig", bad)
        assert code == 2


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


def test_verify_range_check(tmp_path):
    code, _ = run(tmp_path, "verify", "--n", "9", "--trials", "5")
    assert code == 2


def test_verify_serial_and_parallel_reports_are_byte_identical(tmp_path):
    a = tmp_path / "serial.json"
    b = tmp_path / "parallel.json"
    args = ["verify", "--n", "3", "--trials", "40", "--seed", "11"]
    assert main(args + ["--workers", "1", "--output", str(a)]) == 0
    assert main(args + ["--workers", "4", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_sn_command(tmp_path):
    code, report = run(tmp_path, "sn", "--n", "3", "--trials", "25", "--seed", "5")
    assert code == 0 and report["status"] == "pass"
    comps = {c["i"]: c for c in report["results"]["components"]}
    assert all(c["nilpotent_pairs"] == 25 for c in comps.values())
    assert comps[1]["strongly_regular_fraction"] > 0.9
    assert comps[3]["strongly_regular_fraction"] > 0.9
    assert comps[2]["strongly_regular_fraction"] < 0.1


def test_table_format(tmp_path, capsys):
    path = matrix_file(tmp_path, BORDERED)
    assert main(["coincidence", "--input", path, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: coincidence")
    assert "results.l: 1" in out


def test_unknown_command_is_input_error():
    assert main(["frobnicate"]) == 2
