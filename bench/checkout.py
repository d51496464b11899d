"""Where the benchmark finds gzcut and writes results; stdlib only.

Imported first by every benchmark entry point, so BLAS is pinned to one
thread before numpy loads and gzcut is always imported from this checkout's
`src/`, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"


class MissingSource(RuntimeError):
    """The checkout holds no gzcut sources to benchmark."""


def import_gzcut():
    """Import gzcut and gzcut.cli from `src/` of this checkout."""
    if not (SRC / "gzcut" / "__init__.py").is_file():
        raise MissingSource(f"no gzcut package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gzcut
    import gzcut.cli

    if Path(gzcut.__file__).resolve().parent != SRC / "gzcut":
        raise MissingSource(f"gzcut was imported from {gzcut.__file__}, not {SRC}")
    return gzcut


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
