"""Command line surface: matrix file I/O, seeded experiments, deterministic reports.

Exit codes: 0 all checks passed, 1 a verified claim failed, 2 input error
(a malformed file or argument), 3 numerical failure (no convergence, two
routes disagreeing, or a broken internal invariant), 4 precondition not met
(report status "n/a").

Reports are JSON objects with sorted keys (or a flat text table), so a fixed
command line plus a fixed seed produces byte-identical output.  `verify` runs
each loop's trials as one stack (see gzcut.orbits); `--workers` is accepted
but has no effect.
Matrix files are JSON: {"n": 3, "entries": [[...], ...]} where each entry is
either a plain number or an [re, im] pair.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 (unused; bench/spans.py patches it)
from dataclasses import asdict, replace

import numpy as np

from .canonical import (
    CutoffNotRegularSemisimple,
    canonical_form,
    is_n_strongly_regular,
    MethodDisagreement,
    sn_membership,
    verify_roundtrips,
)
from .flags import (
    all_orbit_indices,
    borel_b,
    column_span_equal,
    cutoff_flag,
    cutoff_parabolic,
    flag_F,
    nilradical_n,
    parabolic_p,
    is_theta_stable,
    project_cutoff,
    span_contains,
    span_equal,
    standard_flag,
    v_matrix,
)
from .linalg import DEFAULT_TOL, Tolerances
from .orbits import SeededRng, ad, estimate_dim, sample_K, sample_in, verify_containment
from .spectra import coincidence_count

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NA = 4


class InputError(ValueError):
    """Malformed file or out-of-range command parameters."""


def _encode(obj):
    """JSON-friendly deep conversion; complex numbers become [re, im]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_encode(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def read_matrix_file(path: str) -> np.ndarray:
    """Load the JSON matrix format; entries may be numbers or [re, im] pairs."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise InputError("matrix file must be an object with keys 'n' and 'entries'")
    n = data["n"]
    entries = data["entries"]
    # exact type checks: JSON true/false load as bool, a subclass of int
    if type(n) is not int or n < 1 or not isinstance(entries, list) or len(entries) != n:
        raise InputError(f"inconsistent dimension n={n}")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise InputError("entries must form an n x n array")
        vals = []
        for v in row:
            parts = v if isinstance(v, list) and len(v) == 2 else [v]
            if not all(type(p) in (int, float) for p in parts):
                raise InputError(f"bad entry {v!r}: expected number or [re, im]")
            try:
                vals.append(complex(*parts))
            except OverflowError as exc:
                raise InputError(f"bad entry {v!r}: {exc}") from exc
        rows.append(vals)
    m = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    return m


def write_matrix_file(path: str, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=complex)
    payload = {"n": m.shape[0], "entries": _encode(m)}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _tolerances(args) -> Tolerances:
    tol = DEFAULT_TOL
    try:
        if args.tol_eig is not None:
            tol = replace(tol, eig_match=args.tol_eig)
        if args.tol_rank is not None:
            tol = replace(tol, rank_rel=args.tol_rank)
        if args.tol_membership is not None:
            tol = replace(tol, membership=args.tol_membership)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return tol


def _report(command, parameters, results, claim, status):
    return {
        "command": command,
        "parameters": _encode(parameters),
        "results": _encode(results),
        "claim": claim,
        "status": status,
    }


def _render_table(report, out):
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}.", v)
        else:
            out.append(f"{prefix[:-1]}: {obj}")

    out.append(f"command: {report['command']}")
    out.append(f"status: {report['status']}")
    out.append(f"claim: {report['claim']}")
    walk("parameters.", report["parameters"])
    walk("results.", report["results"])


def emit(report, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        _render_table(report, lines)
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_STATUS_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "n/a": EXIT_NA}


# ---------------------------------------------------------------------------
# commands


def cmd_coincidence(args) -> int:
    tol = _tolerances(args)
    m = read_matrix_file(args.input)
    if m.shape[0] < 2:
        raise InputError("no cutoff: the matrix must be at least 2 x 2")
    rep = coincidence_count(m, tol)
    results = {
        "l": rep.l,
        "pairs": [list(p) for p in rep.pairs],
        "residuals": list(rep.residuals),
    }
    report = _report(
        "coincidence",
        {"input": args.input, "n": m.shape[0], "tolerances": asdict(tol)},
        results,
        "the matrix is classified by how many eigenvalues it shares with its "
        "cutoff, counted with multiplicity via one-to-one matching",
        "pass",
    )
    emit(report, args)
    return EXIT_PASS


def cmd_canonical(args) -> int:
    tol = _tolerances(args)
    m = read_matrix_file(args.input)
    if m.shape[0] < 2:
        raise InputError("no cutoff: the matrix must be at least 2 x 2")
    try:
        res = canonical_form(m, tol)
    except CutoffNotRegularSemisimple as exc:
        report = _report(
            "canonical",
            {"input": args.input, "n": m.shape[0], "tolerances": asdict(tol)},
            {"message": str(exc)},
            "a matrix with regular semisimple cutoff is conjugate, inside the "
            "block-diagonal group, into an explicit catalog parabolic",
            "n/a",
        )
        emit(report, args)
        return EXIT_NA
    status = "pass" if res.residual <= tol.membership else "fail"
    results = {
        "l": res.l,
        "idx": [res.idx.i, res.idx.j],
        "pattern": list(res.pattern.marks),
        "conjugator_block": res.k.block,
        "conjugator_scalar": res.k.scalar,
        "image": res.image,
        "residual": res.residual,
    }
    report = _report(
        "canonical",
        {"input": args.input, "n": m.shape[0], "tolerances": asdict(tol)},
        results,
        "a matrix with l coincidences and regular semisimple cutoff is "
        "conjugate into the catalog parabolic indexed (k, k + n - 1 - l)",
        status,
    )
    emit(report, args)
    return _STATUS_EXIT[status]


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    n, trials = args.n, args.trials
    if not 2 <= n <= 8:
        raise InputError(f"n={n} out of the supported range [2, 8]")
    params = {"n": n, "trials": trials, "seed": args.seed, "tolerances": asdict(tol)}
    claim = (
        "conjugates of the catalog parabolic (i, j) keep at least n-1-(j-i) "
        "coincidences, and the canonical reduction recovers every planted "
        "coincidence count inside the predicted parabolic"
    )
    if trials == 0:
        report = _report("verify", params, {}, claim, "n/a")
        emit(report, args)
        return EXIT_NA
    # catalog index k starts on stream k*T; count l continues after the last index
    indices = all_orbit_indices(n)
    containment = []
    for k, idx in enumerate(indices):
        rep = verify_containment(idx, n, trials, SeededRng(args.seed, k * trials), tol)
        containment.append({**asdict(rep), "idx": [idx.i, idx.j], "bound": n - 1 - idx.length})
    roundtrips = []
    for l in range(n):
        stream = (len(indices) + l) * trials
        entry = asdict(verify_roundtrips(n, l, trials, SeededRng(args.seed, stream), tol))
        if l < n - 1:
            del entry["borel_indices"]
        roundtrips.append(entry)
    bad = sum(c["violations"] for c in containment) + sum(
        r["mismatches"] + r["residual_violations"] for r in roundtrips
    )
    status = "pass" if bad == 0 else "fail"
    report = _report(
        "verify",
        params,
        {"containment": containment, "roundtrips": roundtrips},
        claim,
        status,
    )
    emit(report, args)
    return _STATUS_EXIT[status]


def cmd_dims(args) -> int:
    tol = _tolerances(args)
    n, repeats = args.n, args.repeats
    if not 2 <= n <= 8:
        raise InputError(f"n={n} out of the supported range [2, 8]")
    params = {"n": n, "repeats": repeats, "seed": args.seed, "tolerances": asdict(tol)}
    claim = (
        "the conjugation saturation of parabolic (i, j) has dimension "
        "n^2 - n + 1 + (j - i); each nilradical saturation has dimension "
        "n^2 - 2n + 1"
    )
    if repeats == 0:
        report = _report("dims", params, {}, claim, "n/a")
        emit(report, args)
        return EXIT_NA
    saturations = []
    ok = True
    for ordinal, idx in enumerate(all_orbit_indices(n)):
        expected = n * n - n + 1 + idx.length
        got = estimate_dim(
            parabolic_p(idx, n), repeats, SeededRng(args.seed, ordinal * repeats), tol
        )
        ok &= got == expected
        saturations.append(
            {"idx": [idx.i, idx.j], "estimated": got, "expected": expected}
        )
    nilres = []
    base = len(saturations) * repeats
    for i in range(1, n + 1):
        expected = n * n - 2 * n + 1
        got = estimate_dim(
            nilradical_n(i, n), repeats, SeededRng(args.seed, base + i * repeats), tol
        )
        ok &= got == expected
        nilres.append({"i": i, "estimated": got, "expected": expected})
    status = "pass" if ok else "fail"
    report = _report(
        "dims", params, {"saturations": saturations, "nilradicals": nilres}, claim, status
    )
    emit(report, args)
    return _STATUS_EXIT[status]


def cmd_catalog(args) -> int:
    tol = _tolerances(args)
    n = args.n
    if not 1 <= n <= 8:
        raise InputError(f"n={n} out of the supported range [1, 8]")
    params = {"n": n, "tolerances": asdict(tol)}
    entries = []
    ok = True
    std = standard_flag(n)
    for idx in all_orbit_indices(n):
        flag = flag_F(idx, n)
        v = v_matrix(idx, n)
        image_cols = v @ std.basis
        flag_match = all(
            column_span_equal(image_cols[:, :k], flag.basis[:, :k], tol)
            for k in range(1, n + 1)
        )
        b = borel_b(idx, n)
        p = parabolic_p(idx, n)
        b_in_p = span_contains(p.basis, b.basis, tol)
        theta_ok = is_theta_stable(p, tol)
        borel_is_parabolic = idx.i != idx.j or span_equal(b.basis, p.basis, tol)
        entry = {
            "idx": [idx.i, idx.j],
            "orbit_length": idx.length,
            "flag_columns": flag.basis.real.astype(int),
            "v": v.real.astype(int),
            "dim_borel": b.dim,
            "dim_parabolic": p.dim,
            "v_carries_standard_flag": flag_match,
            "borel_in_parabolic": b_in_p,
            "theta_stable": theta_ok,
        }
        if n >= 2:
            cut_pred = cutoff_parabolic(idx, n)
            levi = cutoff_flag(idx, n).steps
            entry["cutoff_levi_blocks"] = sorted(
                np.diff((0,) + levi).tolist(), reverse=True
            )
            entry["cutoff_projection_matches"] = span_equal(
                project_cutoff(p), cut_pred.basis, tol
            )
            ok &= entry["cutoff_projection_matches"]
        ok &= flag_match and b_in_p and theta_ok and borel_is_parabolic
        entries.append(entry)
    status = "pass" if ok else "fail"
    report = _report(
        "catalog",
        params,
        {"orbits": entries, "count": len(entries)},
        "the permutation-and-shear matrices carry the standard flag onto the "
        "catalog flags; each Borel sits inside its parabolic, every catalog "
        "parabolic is stable under the last-coordinate involution, and its "
        "cutoff projection is a parabolic with one block of size j - i",
        status,
    )
    emit(report, args)
    return _STATUS_EXIT[status]


def cmd_sn(args) -> int:
    tol = _tolerances(args)
    n, trials = args.n, args.trials
    if not 2 <= n <= 8:
        raise InputError(f"n={n} out of the supported range [2, 8]")
    params = {"n": n, "trials": trials, "seed": args.seed, "tolerances": asdict(tol)}
    claim = (
        "conjugates of each catalog nilradical are nilpotent together with "
        "their cutoffs; strongly independent trace differentials occur only "
        "on the first and last components"
    )
    if trials == 0:
        report = _report("sn", params, {}, claim, "n/a")
        emit(report, args)
        return EXIT_NA
    components = []
    ok = True
    for i in range(1, n + 1):
        nil = nilradical_n(i, n)
        base = (i - 1) * trials
        passed = 0
        strong = 0
        failures = 0
        for t in range(trials):
            rng = SeededRng(args.seed, base + t)
            x = ad(sample_K(rng, n), sample_in(nil, rng))
            passed += bool(sn_membership(x, tol))
            try:
                strong += bool(is_n_strongly_regular(x, tol).ok)
            except MethodDisagreement:
                failures += 1
        ok &= passed == trials
        components.append(
            {
                "i": i,
                "trials": trials,
                "nilpotent_pairs": passed,
                "strongly_regular_fraction": strong / trials,
                "method_disagreements": failures,
            }
        )
    status = "pass" if ok else "fail"
    report = _report("sn", params, {"components": components}, claim, status)
    emit(report, args)
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# argument parsing


def _nonnegative_int(text: str) -> int:
    """argparse type for seeds and counts; a rejected value exits 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_common(sub, *, seeded=False, sized=False, fileinput=False):
    if fileinput:
        sub.add_argument("--input", required=True, help="matrix file (JSON)")
    if sized:
        sub.add_argument("--n", type=int, required=True, help="matrix dimension")
    if seeded:
        sub.add_argument("--seed", type=_nonnegative_int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--tol-eig", type=float, default=None, dest="tol_eig")
    sub.add_argument("--tol-rank", type=float, default=None, dest="tol_rank")
    sub.add_argument("--tol-membership", type=float, default=None, dest="tol_membership")
    sub.add_argument("--output", default=None, help="write the report here")
    sub.add_argument("--format", choices=("json", "table"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gzcut",
        description="eigenvalue coincidences of a matrix and its cutoff: "
        "classification, catalog, Monte Carlo verification, canonical forms",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("coincidence", help="count shared eigenvalues of a matrix file")
    _add_common(sub, fileinput=True)
    sub.set_defaults(func=cmd_coincidence)

    sub = subs.add_parser("canonical", help="reduce a matrix file to catalog form")
    _add_common(sub, fileinput=True)
    sub.set_defaults(func=cmd_canonical)

    sub = subs.add_parser("verify", help="Monte Carlo containment and round trips")
    _add_common(sub, seeded=True, sized=True)
    sub.add_argument("--trials", type=_nonnegative_int, default=200)
    sub.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("dims", help="tangent-rank dimension estimates")
    _add_common(sub, seeded=True, sized=True)
    sub.add_argument("--repeats", type=_nonnegative_int, default=5)
    sub.set_defaults(func=cmd_dims)

    sub = subs.add_parser("catalog", help="emit the flag and subalgebra catalog")
    _add_common(sub, sized=True)
    sub.set_defaults(func=cmd_catalog)

    sub = subs.add_parser("sn", help="nilpotent-pair sampling and the strong-regularity experiment")
    _add_common(sub, seeded=True, sized=True)
    sub.add_argument("--trials", type=_nonnegative_int, default=300)
    sub.set_defaults(func=cmd_sn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # a solver that did not converge, two routes that disagreed, or a
        # broken internal invariant: the computation failed, not the input
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
