"""Command line surface: matrix file I/O, seeded experiments, deterministic reports.

Exit codes: 0 all checks passed, 1 a verified claim failed, 2 input error
(a malformed file or argument, or a report path that cannot be written),
3 numerical failure (no convergence, two routes disagreeing, or a broken
internal invariant), 4 nothing verified (report status "n/a": a precondition
not met, zero trials, or a `verify` loop that completed no trial).

Reports are JSON objects with sorted keys (or a flat text table), so a fixed
command line plus a fixed seed produces byte-identical output.  The seeded
commands share one stream layout: loop k of a report draws on the handle of
stream k*T, T being its trial or repeat count, and trial t of the loop takes
row t of each of the handle's stage blocks (see gzcut.orbits).  Each loop's
trials run as one stack, and `verify` runs all its containment loops as one
stack and all its round-trip loops as another; `--workers` is accepted but
has no effect.

A status is decided by the claim's own checks.  `sn` passes when every
sampled pair is nilpotent and the strongly regular fraction is above 0.99 on
components 1 and n and below 0.01 on the others; its `method_disagreements`
are tallied but do not decide the status.  `verify` fails on any violation,
mismatch or residual violation; otherwise its `failures` decide only whether
it verified anything: a loop whose every trial failed makes the status n/a.

Matrix files are JSON: {"n": 3, "entries": [[...], ...]} where each entry is
either a plain number or an [re, im] pair.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 (unused; bench/spans.py patches it)
from dataclasses import asdict, replace

import numpy as np

from .canonical import (
    CutoffNotRegularSemisimple,
    _roundtrip_loops,
    canonical_form,
    verify_nilradical,
)
from .flags import (
    _levi_blocks,
    all_orbit_indices,
    borel_b,
    column_span_equal,
    cutoff_parabolic,
    nilradical_n,
    parabolic_p,
    is_theta_stable,
    project_cutoff,
    span_contains,
    span_equal,
    v_matrix,
)
from .linalg import DEFAULT_TOL
from .orbits import SeededRng, _containment_loops, estimate_dim
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


_PARAMS = ("input", "n", "trials", "repeats", "seed")
_TOL_FLAGS = {"eig_match": "--tol-eig", "rank_rel": "--tol-rank", "membership": "--tol-membership"}


def _inputs(args, low: int = 2):
    """The input check every command makes first: the tolerances, then the
    matrix file (at least 2 x 2) or `--n` in [low, 8].

    Returns (tol, m, params); m is None for the sized commands.
    """
    # the --tol-* dests are the Tolerances fields
    given = {k: v for k, v in vars(args).items() if k in vars(DEFAULT_TOL) and v is not None}
    try:
        tol = replace(DEFAULT_TOL, **given)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    params = {k: v for k, v in vars(args).items() if k in _PARAMS}
    m = None
    if "input" in params:
        m = read_matrix_file(args.input)
        if m.shape[0] < 2:
            raise InputError("no cutoff: the matrix must be at least 2 x 2")
        params["n"] = m.shape[0]
    elif not low <= args.n <= 8:
        raise InputError(f"n={args.n} out of the supported range [{low}, 8]")
    params["tolerances"] = asdict(tol)
    return tol, m, params


def _loops(args, trials: int):
    """The stream layout of every seeded report: loop k draws on stream k*T,
    T being the loop's trial count, and its trial t takes row t of each of
    the loop's stage blocks."""
    return (SeededRng(args.seed, k * trials) for k in itertools.count())


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


_STATUS_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "n/a": EXIT_NA}


def _exit(args, params, claim, results, ok) -> int:
    """Write the report and return its status's exit code; ok is None when
    the precondition is not met (status n/a)."""
    status = "n/a" if ok is None else "pass" if ok else "fail"
    report = {
        "command": args.command,
        "parameters": _encode(params),
        "results": _encode(results),
        "claim": claim,
        "status": status,
    }
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        _render_table(report, lines)
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# commands


def cmd_coincidence(args) -> int:
    tol, m, params = _inputs(args)
    rep = coincidence_count(m, tol)
    results = {
        "l": rep.l,
        "pairs": [list(p) for p in rep.pairs],
        "residuals": list(rep.residuals),
    }
    claim = (
        "the matrix is classified by how many eigenvalues it shares with its "
        "cutoff, counted with multiplicity via one-to-one matching"
    )
    return _exit(args, params, claim, results, True)


def cmd_canonical(args) -> int:
    tol, m, params = _inputs(args)
    try:
        res = canonical_form(m, tol)
    except CutoffNotRegularSemisimple as exc:
        claim = (
            "a matrix with regular semisimple cutoff is conjugate, inside the "
            "block-diagonal group, into an explicit catalog parabolic"
        )
        return _exit(args, params, claim, {"message": str(exc)}, None)
    results = {
        "l": res.l,
        "idx": [res.idx.i, res.idx.j],
        "pattern": list(res.pattern.marks),
        "conjugator_block": res.k.block,
        "conjugator_scalar": res.k.scalar,
        "image": res.image,
        "residual": res.residual,
    }
    claim = (
        "a matrix with l coincidences and regular semisimple cutoff is "
        "conjugate into the catalog parabolic indexed (k, k + n - 1 - l)"
    )
    return _exit(args, params, claim, results, res.residual <= tol.membership)


def cmd_verify(args) -> int:
    tol, _, params = _inputs(args)
    n, trials = args.n, args.trials
    claim = (
        "conjugates of the catalog parabolic (i, j) keep at least n-1-(j-i) "
        "coincidences, and the canonical reduction recovers every planted "
        "coincidence count inside the predicted parabolic"
    )
    if trials == 0:
        return _exit(args, params, claim, {}, None)
    # one loop per catalog index, all run as one stack, then one per count l,
    # all run as a second stack
    loops = _loops(args, trials)
    indices = all_orbit_indices(n)
    containment = [
        {**asdict(rep), "idx": [rep.idx.i, rep.idx.j], "bound": n - 1 - rep.idx.length}
        for rep in _containment_loops(indices, n, trials, [next(loops) for _ in indices], tol)
    ]
    roundtrips = []
    for rep in _roundtrip_loops(n, range(n), trials, [next(loops) for _ in range(n)], tol):
        entry = asdict(rep)
        if rep.l < n - 1:
            del entry["borel_indices"]
        roundtrips.append(entry)
    bad = sum(c["violations"] for c in containment) + sum(
        r["mismatches"] + r["residual_violations"] for r in roundtrips
    )
    results = {"containment": containment, "roundtrips": roundtrips}
    idle = any(r["failures"] == trials for r in containment + roundtrips)
    return _exit(args, params, claim, results, None if idle and not bad else bad == 0)


def cmd_dims(args) -> int:
    tol, _, params = _inputs(args)
    n, repeats = args.n, args.repeats
    claim = (
        "the conjugation saturation of parabolic (i, j) has dimension "
        "n^2 - n + 1 + (j - i); each nilradical saturation has dimension "
        "n^2 - 2n + 1"
    )
    if repeats == 0:
        return _exit(args, params, claim, {}, None)
    # one loop per catalog index, then one per nilradical component i
    loops = _loops(args, repeats)
    saturations = []
    ok = True
    for idx in all_orbit_indices(n):
        expected = n * n - n + 1 + idx.length
        got = estimate_dim(parabolic_p(idx, n), repeats, next(loops), tol)
        ok &= got == expected
        saturations.append({"idx": [idx.i, idx.j], "estimated": got, "expected": expected})
    nilradicals = []
    for i in range(1, n + 1):
        expected = n * n - 2 * n + 1
        got = estimate_dim(nilradical_n(i, n), repeats, next(loops), tol)
        ok &= got == expected
        nilradicals.append({"i": i, "estimated": got, "expected": expected})
    results = {"saturations": saturations, "nilradicals": nilradicals}
    return _exit(args, params, claim, results, ok)


def cmd_catalog(args) -> int:
    tol, _, params = _inputs(args, low=1)
    n = args.n
    entries = []
    ok = True
    for idx in all_orbit_indices(n):
        b = borel_b(idx, n)
        p = parabolic_p(idx, n)
        v = v_matrix(idx, n)
        flag_match = all(
            column_span_equal(v[:, :k], b.frame[:, :k], tol) for k in range(1, n + 1)
        )
        b_in_p = span_contains(p.basis, b.basis, tol)
        theta_ok = is_theta_stable(p, tol)
        borel_is_parabolic = idx.i != idx.j or span_equal(b.basis, p.basis, tol)
        entry = {
            "idx": [idx.i, idx.j],
            "orbit_length": idx.length,
            "flag_columns": b.frame.real.astype(int),
            "v": v.real.astype(int),
            "dim_borel": b.dim,
            "dim_parabolic": p.dim,
            "v_carries_standard_flag": flag_match,
            "borel_in_parabolic": b_in_p,
            "theta_stable": theta_ok,
        }
        if n >= 2:
            cut_pred = cutoff_parabolic(idx, n)
            entry["cutoff_levi_blocks"] = sorted(_levi_blocks(cut_pred.mask), reverse=True)
            entry["cutoff_projection_matches"] = span_equal(
                project_cutoff(p), cut_pred.basis, tol
            )
            ok &= entry["cutoff_projection_matches"]
        ok &= flag_match and b_in_p and theta_ok and borel_is_parabolic
        entries.append(entry)
    claim = (
        "the permutation-and-shear matrices carry the standard flag onto the "
        "catalog flags; each Borel sits inside its parabolic, every catalog "
        "parabolic is stable under the last-coordinate involution, and its "
        "cutoff projection is a parabolic with one block of size j - i"
    )
    return _exit(args, params, claim, {"orbits": entries, "count": len(entries)}, ok)


def cmd_sn(args) -> int:
    tol, _, params = _inputs(args)
    n, trials = args.n, args.trials
    claim = (
        "conjugates of each catalog nilradical are nilpotent together with "
        "their cutoffs; strongly independent trace differentials occur only "
        "on the first and last components"
    )
    if trials == 0:
        return _exit(args, params, claim, {}, None)
    # one loop per nilradical component i
    components = []
    ok = True
    for i, rng in zip(range(1, n + 1), _loops(args, trials)):
        passed, strong, failures = verify_nilradical(i, n, trials, rng, tol)
        fraction = strong / trials
        ok &= passed == trials and (fraction > 0.99 if i in (1, n) else fraction < 0.01)
        components.append(
            {
                "i": i,
                "trials": trials,
                "nilpotent_pairs": passed,
                "strongly_regular_fraction": fraction,
                "method_disagreements": failures,
            }
        )
    return _exit(args, params, claim, {"components": components}, ok)


# ---------------------------------------------------------------------------
# argument parsing


def _nonnegative_int(text: str) -> int:
    """argparse type for seeds and counts; a rejected value exits 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_common(sub, tols, *, seeded=False, sized=False, fileinput=False):
    """The shared flags, and the --tol-* flag of each Tolerances field in
    tols: the fields the subcommand's verdicts read, and no other."""
    if fileinput:
        sub.add_argument("--input", required=True, help="matrix file (JSON)")
    if sized:
        sub.add_argument("--n", type=int, required=True, help="matrix dimension")
    if seeded:
        sub.add_argument("--seed", type=_nonnegative_int, default=0, help="RNG seed (default 0)")
    for field in tols:
        sub.add_argument(_TOL_FLAGS[field], type=float, dest=field)
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
    _add_common(sub, ("eig_match",), fileinput=True)
    sub.set_defaults(func=cmd_coincidence)

    sub = subs.add_parser("canonical", help="reduce a matrix file to catalog form")
    _add_common(sub, ("eig_match", "membership"), fileinput=True)
    sub.set_defaults(func=cmd_canonical)

    sub = subs.add_parser("verify", help="Monte Carlo containment and round trips")
    _add_common(sub, ("eig_match", "membership"), seeded=True, sized=True)
    sub.add_argument("--trials", type=_nonnegative_int, default=200)
    sub.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("dims", help="tangent-rank dimension estimates")
    _add_common(sub, ("rank_rel",), seeded=True, sized=True)
    sub.add_argument("--repeats", type=_nonnegative_int, default=5)
    sub.set_defaults(func=cmd_dims)

    sub = subs.add_parser("catalog", help="emit the flag and subalgebra catalog")
    _add_common(sub, ("rank_rel",), sized=True)
    sub.set_defaults(func=cmd_catalog)

    sub = subs.add_parser("sn", help="nilpotent-pair sampling and the strong-regularity experiment")
    _add_common(sub, ("eig_match", "rank_rel"), seeded=True, sized=True)
    sub.add_argument("--trials", type=_nonnegative_int, default=300)
    sub.set_defaults(func=cmd_sn)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
