"""Self-test of the benchmark harness: one batch of each workload.

    python3 -m pytest bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the deterministic counts repeat exactly for a seed, and that another seed
changes the inputs but not the metric names.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED, OTHER_SEED = 11, 12
# per-layer metrics derived from clock readings; every other one is a count
# or a ratio of counts and must repeat exactly
TIMED = ("self_ms", "self_share", "kernel_share", "report_ms", "parallelism", "overhead")


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace, attempt=0):
    """(final JSON line, results file) of a one-batch run; `attempt` makes a
    second, independent run with the same arguments."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--batches", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, saved


def counts(result):
    out = {k: m["value"] for k, m in result["metrics"].items() if not any(t in k for t in TIMED)}
    out.update(attempted=result["attempted"], failed=result["failed"])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_name_is_emitted_with_its_unit(workload, trace, section):
    result, saved = run(workload, SEED, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    env = saved["env"]
    for key in ("git_sha", "python", "numpy", "scipy", "blas", "nproc", "blas_threads", "seed", "batches"):
        assert key in env
    if trace == 0:
        assert "tail_percentile" in env
        for name in ("batch_ms_p50", "batch_ms_tail", "fail_ratio"):
            assert saved["metrics"][name]["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_account_for_the_wall_time(workload):
    result, saved = run(workload, SEED, 1)
    details = saved["details"]
    assert details["self_ms_total"] == pytest.approx(details["traced_wall_ms"], rel=1e-9)
    shares = [m["value"] for k, m in result["metrics"].items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    first, first_saved = run(workload, SEED, 1)
    second, second_saved = run(workload, SEED, 1, attempt=1)
    assert counts(first) == counts(second)
    assert first_saved["details"]["inputs_digest"] == second_saved["details"]["inputs_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_inputs_not_names(workload):
    first, first_saved = run(workload, SEED, 1)
    other, other_saved = run(workload, OTHER_SEED, 1)
    assert list(first["metrics"]) == list(other["metrics"])
    assert first_saved["details"]["inputs_digest"] != other_saved["details"]["inputs_digest"]
