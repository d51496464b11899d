"""One cold start, run in a fresh interpreter: time to import gzcut and
gzcut.cli plus the first batch of a workload.  Input generation is not timed.

    python3 bench/cold.py <workload> <seed>

Prints one JSON line: {"setup_s": ..., "attempted": ..., "failed": ...}.
"""

import json
import sys
import time

from checkout import import_gzcut


def main(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import_gzcut()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    make_inputs, run_batch = WORKLOADS[workload]
    inputs = make_inputs(seed, 0)
    t2 = time.perf_counter()
    res = run_batch(inputs)
    t3 = time.perf_counter()
    out = {"setup_s": (t1 - t0) + (t3 - t2), "attempted": res.attempted, "failed": res.failed}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
