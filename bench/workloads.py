"""The benchmark workloads: seeded inputs, one batch of gzcut calls, checks.

Inputs are made here with numpy only, before any gzcut call, so gzcut receives
nothing but already generated inputs: argv lists for `verify` and complex
matrices for `twopath`.  A batch is fully determined by
(workload seed, batch index).

Every batch function returns a `BatchResult`: the operations it attempted, the
operations that failed their output check, and what the check saw.  A known
defect keeps its count: nothing is filtered out or re-seeded away.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

VERIFY_N = 6
VERIFY_TRIALS = 14  # per-trial work is ~5/6 of a serial report at this size
VERIFY_WORKERS = (1, 2)

TWOPATH_SIZES = tuple(range(3, 9))
# inputs of each size in every batch, by class: 240 matrices, 12 of them (1 in
# 20) with a repeated eigenvalue.  Every batch has the same make-up, so batch
# times differ only by the random matrices, not by how many slow inputs a
# batch happened to draw.
TWOPATH_PER_SIZE = {"generic": 10, "planted": 28, "repeated": 2}

# the operations every output check of a report reads
_VERIFY_COUNTS = ("failures", "violations", "mismatches", "residual_violations")


@dataclass
class BatchResult:
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)


def batch_seed(seed: int, batch: int, tag: int) -> np.random.SeedSequence:
    """Per-batch entropy; `tag` keeps the three workloads' streams apart."""
    return np.random.SeedSequence([seed, batch, tag])


def _cli_seed(seed: int, batch: int, tag: int) -> int:
    return int(batch_seed(seed, batch, tag).generate_state(1)[0])


def _run_cli(argv):
    """One in-process CLI report: (exit code, report bytes)."""
    # gzcut names are looked up per call, so a traced run sees its wrappers
    from gzcut.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode()


def digest(obj) -> str:
    """Stable fingerprint of a batch's inputs."""
    h = hashlib.sha256()
    if isinstance(obj, list) and obj and isinstance(obj[0], TwopathInput):
        for item in obj:
            h.update(f"{item.kind}:{item.l}:".encode())
            h.update(np.ascontiguousarray(item.x).tobytes())
    else:
        h.update(json.dumps(obj).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# verify: a pair of CLI reports, --workers 1 and --workers 2


def verify_inputs(seed: int, batch: int):
    s = _cli_seed(seed, batch, 1)
    base = ["verify", "--n", str(VERIFY_N), "--trials", str(VERIFY_TRIALS), "--seed", str(s)]
    return [base + ["--workers", str(w)] for w in VERIFY_WORKERS]


def _report(text):
    """The parsed report, or None when the CLI printed none."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def verify_batch(inputs) -> BatchResult:
    """One operation is one trial (containment or round trip), over both reports."""
    outputs = [_run_cli(argv) for argv in inputs]
    # every orbit index gets T containment trials and every count l T round trips
    trials = (VERIFY_N * (VERIFY_N + 1) // 2 + VERIFY_N) * VERIFY_TRIALS
    attempted = failed = 0
    notes = {"reports_identical": outputs[0][1] == outputs[1][1], "bad_reports": 0}
    for rc, text in outputs:
        attempted += trials
        report = _report(text)
        if report is None:
            notes["bad_reports"] += 1
            failed += trials
            continue
        entries = report["results"]["containment"] + report["results"]["roundtrips"]
        bad = sum(e.get(k, 0) for e in entries for k in _VERIFY_COUNTS)
        if rc != 0 or report["status"] != "pass" or sum(e["trials"] for e in entries) != trials:
            notes["bad_reports"] += 1
            bad = max(bad, 1)
        failed += min(bad, trials)
    if not notes["reports_identical"]:
        failed = attempted
    return BatchResult(attempted, failed, notes)


# ---------------------------------------------------------------------------
# twopath: K matrices, each classified by both spectral routes


@dataclass(frozen=True, eq=False)
class TwopathInput:
    kind: str  # "generic", "planted" or "repeated"
    l: int  # ground-truth coincidence count
    x: np.ndarray


def _cnormal(gen, shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def _block_diagonal_element(gen, n):
    """Gaussian (n-1) block with a smallest-singular-value floor, plus a scalar."""
    while True:
        block = _cnormal(gen, (n - 1, n - 1))
        if np.linalg.svd(block, compute_uv=False)[-1] > 1e-3:
            break
    k = np.zeros((n, n), dtype=complex)
    k[:-1, :-1] = block
    k[-1, -1] = np.exp(2j * np.pi * gen.uniform()) * (1.0 + gen.uniform())
    return k


def _border(gen):
    return (0.5 + gen.uniform()) * np.exp(2j * np.pi * gen.uniform())


def _planted(gen, n, l, repeated=False):
    """Conjugated bordered-diagonal matrix sharing exactly l eigenvalues.

    Slot i < l is shared (one border entry is zero), the rest are not.  With
    `repeated`, slots 1 and 2 carry the same diagonal value and the same mark,
    so that value is a semisimple double eigenvalue of both the matrix and its
    cutoff and counts twice.
    """
    while True:
        h = 2.0 * _cnormal(gen, n - 1)
        if repeated:
            h[1] = h[0]
        gaps = np.abs(h[:, None] - h[None, :])
        np.fill_diagonal(gaps, np.inf)
        if repeated:
            gaps[0, 1] = gaps[1, 0] = np.inf
        if gaps.min() >= 0.5:
            break
    y = np.array([_border(gen) for _ in range(n - 1)])
    z = np.array([_border(gen) for _ in range(n - 1)])
    marks = gen.uniform(size=l) < 0.5
    if repeated:
        marks[1] = marks[0]
    for i in range(l):
        if marks[i]:
            z[i] = 0.0  # U slot
        else:
            y[i] = 0.0  # L slot
    b = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(b[:-1, :-1], h)
    b[:-1, -1] = y
    b[-1, :-1] = z
    b[-1, -1] = _cnormal(gen, None)
    k = _block_diagonal_element(gen, n)
    return k @ b @ np.linalg.inv(k)


def twopath_inputs(seed: int, batch: int):
    """TWOPATH_PER_SIZE matrices of each class for every size, in random
    order.  Planted inputs cycle through every count l < n."""
    gen = np.random.default_rng(batch_seed(seed, batch, 2))
    out = []
    for n in TWOPATH_SIZES:
        out += [TwopathInput("generic", 0, _cnormal(gen, (n, n)))
                for _ in range(TWOPATH_PER_SIZE["generic"])]
        for t in range(TWOPATH_PER_SIZE["planted"]):
            out.append(TwopathInput("planted", t % n, _planted(gen, n, t % n)))
        for _ in range(TWOPATH_PER_SIZE["repeated"]):
            l = int(gen.integers(2, n))
            out.append(TwopathInput("repeated", l, _planted(gen, n, l, repeated=True)))
    order = gen.permutation(len(out))
    return [out[i] for i in order]


def classify_two_ways(x):
    """(route-1 count, whether the power-sum route confirms exactly that count)."""
    from gzcut import coincidence_count, phi_n, v_membership

    n = x.shape[0]
    l = coincidence_count(x).l
    img = phi_n(x)
    confirmed = v_membership(img, l) and (l == n - 1 or not v_membership(img, l + 1))
    return l, confirmed


def twopath_batch(inputs) -> BatchResult:
    """One operation is one matrix.  On generic and planted inputs the known
    count must be recovered and both routes must agree; on repeated-eigenvalue
    inputs a disagreement is counted, not failed."""
    failed = disagreements = repeated_missed = 0
    notes = {}
    for item in inputs:
        try:
            l, confirmed = classify_two_ways(item.x)
        except Exception as exc:  # any raise fails the operation; counted by type
            key = f"exception.{type(exc).__name__}"
            notes[key] = notes.get(key, 0) + 1
            failed += 1
            continue
        disagreements += not confirmed
        if item.kind == "repeated":
            repeated_missed += l != item.l
        elif l != item.l or not confirmed:
            failed += 1
    notes.update(route_disagreements=disagreements, repeated_l_missed=repeated_missed)
    return BatchResult(len(inputs), failed, notes)


WORKLOADS = {
    "verify": (verify_inputs, verify_batch),
    "twopath": (twopath_inputs, twopath_batch),
}
