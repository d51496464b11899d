"""A committed corpus of expected CLI reports, so "no report changed" is one command.

    python tests/golden.py --write   # run every command and record the corpus
    python tests/golden.py --check   # rerun every command and compare with it

Each entry of tests/golden/reports.json records a command line, its exit
code, the sha256 of its stdout and the report's float-free projection: the
report with every float replaced by null, so every int, bool and str leaf
and every list length stays.  `results.message` is left out, as its text
embeds measured floats.  A run that prints no report records the first line
of its stderr instead.  The header records the Python, numpy and BLAS
versions the corpus was written with.

`--check` compares exit codes, full stdout bytes and those stderr lines, and
exits 1 on any difference.  Float bits may move with the BLAS build, so the
tier-1 test (tests/test_golden.py) compares exit codes and projections only.

Commands run in-process from the repository root, so a report's input path
reads as it does in the corpus.  gzcut's conditioning and convergence
warnings (RuntimeWarning) are silenced, so stderr holds the CLI's own
messages; other warnings keep the caller's filters, so a deprecation fails
the tier-1 test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "reports.json"
DATA = sorted(p.name for p in (ROOT / "tests" / "data").glob("*.json"))


def commands() -> list:
    """The corpus's command lines, in corpus order."""
    out = []
    for seed in (0, 11):
        for n in range(2, 9):
            out.append(["verify", "--n", str(n), "--trials", "30", "--seed", str(seed)])
    for tol in ("1e-4", "1e-3", "0.5"):
        for n in (3, 5):
            out.append(["verify", "--n", str(n), "--trials", "14", "--tol-eig", tol])
    out.append(["verify", "--n", "3", "--trials", "3", "--tol-membership", "0"])
    out.append(["verify", "--n", "4", "--trials", "0"])
    for n in (3, 5, 8):
        out.append(["catalog", "--n", str(n)])
        out.append(["dims", "--n", str(n), "--repeats", "3"])
    for n in (1, 2, 4, 6, 7):
        out.append(["catalog", "--n", str(n)])
    out.append(["catalog", "--n", "4", "--format", "table"])
    # sn at n >= 7 is left out: its method_disagreements sit on the rank
    # cutoff and may move with the BLAS build
    for n in (3, 5):
        out.append(["sn", "--n", str(n), "--trials", "40"])
    for name in DATA:
        for command in ("coincidence", "canonical"):
            out.append([command, "--input", f"tests/data/{name}"])
    return out


def projection(obj, path=""):
    """The float-free part of a parsed report: the same tree with every float
    leaf replaced by None, so it keeps every int, bool and str leaf and every
    list length; results.message is left out."""
    if isinstance(obj, dict):
        return {
            key: projection(value, f"{path}.{key}" if path else key)
            for key, value in obj.items()
            if f"{path}.{key}" != "results.message"
        }
    if isinstance(obj, list):
        return [projection(value, path) for value in obj]
    return obj if isinstance(obj, (int, str)) else None  # bool is an int


@contextlib.contextmanager
def _at_root():
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(here)


def run(argv) -> tuple:
    """One in-process CLI run: (exit code, stdout bytes, stderr text)."""
    from gzcut.cli import main

    out, err = io.StringIO(), io.StringIO()
    with _at_root(), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue().encode(), err.getvalue()


def entry(argv) -> dict:
    """The corpus entry of one command line."""
    code, stdout, stderr = run(argv)
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "projection": None if report is None else projection(report),
        "stderr": stderr.splitlines()[0] if report is None and stderr else None,
    }


def header() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def load() -> dict:
    return json.loads(CORPUS.read_text())


def _check() -> int:
    corpus = load()
    now = header()
    if corpus["header"] != now:
        print(f"corpus written with {corpus['header']}, checking with {now}")
    differ = 0
    for want in corpus["entries"]:
        got = entry(want["argv"])
        diffs = [key for key in ("exit", "stdout_sha256", "stderr") if got[key] != want[key]]
        if diffs:
            differ += 1
            print(f"DIFFERS ({', '.join(diffs)}): {' '.join(want['argv'])}")
    print(f"{len(corpus['entries']) - differ} of {len(corpus['entries'])} commands unchanged")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the corpus")
    mode.add_argument("--check", action="store_true", help="compare with the corpus")
    args = parser.parse_args(argv)
    if args.check:
        return _check()
    entries = [json.dumps(entry(a), sort_keys=True) for a in commands()]
    CORPUS.parent.mkdir(exist_ok=True)
    # one line per entry, so a changed report is one changed line
    text = ",\n".join(entries)
    CORPUS.write_text(f'{{"header": {json.dumps(header(), sort_keys=True)},\n"entries": [\n{text}\n]}}\n')
    print(f"wrote {len(entries)} entries to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    # the checkout's own package, not an installed one
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
