"""Spans around gzcut's layers, recorded from outside the package.

`Tracer.install()` replaces every binding of each listed function across the
`gzcut.*` namespaces (so calls bound by `from .x import f` are caught too),
the numpy/scipy kernels gzcut calls, and the thread pool in `gzcut.cli`, so
that tasks run in pool threads get the submitting span as their parent.
Spans are kept in memory as
    [id, parent id, thread id, name, start ns, end ns, info, exception]
and written out as JSON lines once the run ends.

Self time is attributed by a sweep over span boundaries: at every instant the
innermost open span of each running thread is charged an equal share of the
elapsed time.  A thread counts as waiting, not running, while its innermost
span has a child open in another thread (the CLI's report loop while the pool
works).  The self times of all spans therefore add up to the traced wall time
exactly, with several threads as with one.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TRACED = {
    "linalg": ("eigenvalues", "aberth_roots", "numerical_rank", "as_cmatrix"),
    "spectra": ("coincidence_count", "match_spectra", "phi_n", "newton_to_charpoly", "v_membership"),
    "flags": ("stabilizer", "parabolic_p", "contains"),
    "orbits": ("sample_K", "sample_in", "ad", "containment_trial"),
    "canonical": ("canonical_form", "reduce_to_xi", "xi_build", "random_xi"),
    "cli": ("main",),
}
KERNELS = {
    "eigvals": ("numpy.linalg", "eigvals"),
    "eig": ("numpy.linalg", "eig"),
    "svd": ("numpy.linalg", "svd"),
    "inv": ("numpy.linalg", "inv"),
    "lstsq": ("numpy.linalg", "lstsq"),
    "polyval": ("numpy", "polyval"),
    "linear_sum_assignment": ("scipy.optimize", "linear_sum_assignment"),
}
MODULES = tuple(TRACED) + ("kernel", "harness")

_ID, _PARENT, _TID, _NAME, _T0, _T1, _INFO, _EXC = range(8)


def _bound(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _spectrum(s):
    return s.as_array() if hasattr(s, "as_array") else np.asarray(s, dtype=complex).ravel()


def _info_aberth(sig, args, kwargs):
    return _bound(sig, args, kwargs)["max_iter"]


def _info_parabolic(sig, args, kwargs):
    a = _bound(sig, args, kwargs)
    return [a["idx"].i, a["idx"].j, a["n"]]


def _info_main(sig, args, kwargs):
    argv = list(_bound(sig, args, kwargs)["argv"] or [])
    workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
    return [argv[0] if argv else None, workers]


def _info_match(sig, args, kwargs):
    """Whether some eigenvalue has two or more admissible partners."""
    a = _bound(sig, args, kwargs)
    x, y = _spectrum(a["s1"]), _spectrum(a["s2"])
    if x.size == 0 or y.size == 0:
        return False
    admissible = np.abs(x[:, None] - y[None, :]) <= a["tol"].eig_match
    return bool(admissible.sum(axis=1).max() >= 2 or admissible.sum(axis=0).max() >= 2)


# span info is derived from the call's arguments after the call returns, in a
# span of its own that is charged to the harness
_DESCRIBE = {
    "linalg.aberth_roots": _info_aberth,
    "flags.parabolic_p": _info_parabolic,
    "cli.main": _info_main,
    "spectra.match_spectra": _info_match,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- recording ---------------------------------------------------------

    def span(self, name, fn):
        """`fn` wrapped so each call records one span named `name`."""
        describe = _DESCRIBE.get(name)
        sig = inspect.signature(fn) if describe else None
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, get_ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            info = exc = None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = type(e).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                if describe is not None:
                    info = describe(sig, args, kwargs)
                    spans.append([next(ids), parent, get_ident(), "harness.bookkeeping", t1, clock(), None, None])
                spans.append([sid, parent, get_ident(), name, t0, t1, info, exc])

        return traced

    @contextlib.contextmanager
    def batch(self):
        """Record one batch as a harness span enclosing everything it calls."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append([sid, None, threading.get_ident(), "harness.batch", t0, t1, None, None])

    def batch_ns(self):
        """Summed wall time of the recorded batches."""
        return sum(s[_T1] - s[_T0] for s in self.spans if s[_NAME] == "harness.batch")

    def executor_class(self):
        """ThreadPoolExecutor whose tasks start with the submitter's span as parent."""
        tracer = self

        class TracingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def task():
                    local = tracer._stack()
                    local.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        local.pop()

                return super().submit(task)

        return TracingExecutor

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_in_gzcut(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname == "gzcut" or modname.startswith("gzcut."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def install(self):
        for module, names in TRACED.items():
            mod = sys.modules["gzcut." + module]
            for fname in names:
                original = getattr(mod, fname)
                self._rebind_in_gzcut(original, self.span(f"{module}.{fname}", original))
        for kname, (modname, attr) in KERNELS.items():
            owner = sys.modules[modname]
            original = getattr(owner, attr)
            wrapped = self.span(f"kernel.{kname}", original)
            self._set(owner, attr, wrapped)
            self._rebind_in_gzcut(original, wrapped)
        self._set(sys.modules["gzcut.cli"], "ThreadPoolExecutor", self.executor_class())

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, self_ns):
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s[_T0]):
                rec = dict(zip(("id", "parent", "thread", "name", "start_ns", "end_ns", "info", "exc"), s))
                rec["self_ns"] = self_ns.get(s[_ID], 0.0)
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# analysis


def attribute_self_time(spans):
    """Self time per span id, in ns, by the sweep described in the module doc."""
    tid_of = {s[_ID]: s[_TID] for s in spans}
    # at equal times spans close before others open (a zero-length span only
    # after it opened), parents open first and close last
    events = []
    for s in spans:
        events.append((s[_T0], 1, s[_ID], s))
        events.append((s[_T1], 0 if s[_T1] > s[_T0] else 2, -s[_ID], s))
    events.sort(key=lambda e: e[:3])
    stacks = defaultdict(list)
    cross_open = Counter()
    self_ns = defaultdict(float)
    now = None
    for t, kind, _, s in events:
        if now is not None and t > now:
            running = [st[-1] for st in stacks.values() if st and not cross_open[st[-1]]]
            for sid in running:
                self_ns[sid] += (t - now) / len(running)
        now = t
        sid, parent, tid = s[_ID], s[_PARENT], s[_TID]
        cross = parent is not None and tid_of.get(parent, tid) != tid
        if kind == 1:
            stacks[tid].append(sid)
            if cross:
                cross_open[parent] += 1
        else:
            stacks[tid].remove(sid)
            if cross:
                cross_open[parent] -= 1
    return self_ns


def _module(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, self_ns, overhead, route_disagreements):
    """Every per-layer metric, by name: (value, unit)."""
    by_name = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s[_NAME]].append(s)
        by_id[s[_ID]] = s
    children = defaultdict(list)
    for s in spans:
        if s[_PARENT] is not None:
            children[s[_PARENT]].append(s)

    def self_ms(name):
        return sum(self_ns.get(s[_ID], 0.0) for s in by_name[name]) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for module, names in TRACED.items():
        for fname in names:
            name = f"{module}.{fname}"
            out[f"{name}.calls"] = (len(by_name[name]), "count")
            out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for kname in KERNELS:
        name = f"kernel.{kname}"
        out[f"{name}.calls"] = (len(by_name[name]), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")

    total = sum(self_ns.values())
    module_ns = Counter()
    for s in spans:
        module_ns[_module(s[_NAME])] += self_ns.get(s[_ID], 0.0)
    for module in MODULES:
        out[f"{module}.self_share"] = (ratio(module_ns[module], total), "ratio")

    aberth = by_name["linalg.aberth_roots"]
    iters = {s[_ID]: sum(c[_NAME] == "kernel.polyval" for c in children[s[_ID]]) / 2 for s in aberth}
    out["linalg.aberth_roots.iters_per_call"] = (ratio(sum(iters.values()), len(aberth)), "iters/call")
    out["linalg.aberth_roots.maxed_calls"] = (
        sum(iters[s[_ID]] >= s[_INFO] for s in aberth),
        "count",
    )

    matches = by_name["spectra.match_spectra"]
    out["spectra.match_spectra.ambiguous_share"] = (
        ratio(sum(bool(s[_INFO]) for s in matches), len(matches)),
        "ratio",
    )
    out["spectra.route_disagreements"] = (route_disagreements, "count")

    keys = {tuple(s[_INFO]) for s in by_name["flags.parabolic_p"]}
    out["flags.parabolic_p.calls_per_key"] = (
        ratio(len(by_name["flags.parabolic_p"]), len(keys)),
        "calls/key",
    )

    draws = by_name["orbits.sample_K"]
    out["orbits.sample_K.draws_per_accept"] = (
        ratio(
            sum(c[_NAME] == "kernel.svd" for s in draws for c in children[s[_ID]]),
            sum(s[_EXC] is None for s in draws),
        ),
        "draws/accept",
    )

    # kernel time inside containment trials over the trials' inclusive time
    trial_of = {}

    def trial_ancestor(s):
        chain = []
        while s is not None and s[_ID] not in trial_of:
            if s[_NAME] == "orbits.containment_trial":
                trial_of[s[_ID]] = s[_ID]
                break
            chain.append(s[_ID])
            s = by_id.get(s[_PARENT])
        found = trial_of.get(s[_ID]) if s is not None else None
        for sid in chain:
            trial_of[sid] = found
        return found

    inside = kernel_inside = 0.0
    for s in spans:
        if trial_ancestor(s) is not None:
            inside += self_ns.get(s[_ID], 0.0)
            if s[_NAME].startswith("kernel."):
                kernel_inside += self_ns.get(s[_ID], 0.0)
    out["orbits.containment_trial.kernel_share"] = (ratio(kernel_inside, inside), "ratio")

    xi = by_name["canonical.random_xi"]
    out["canonical.random_xi.builds_per_accept"] = (
        ratio(
            sum(c[_NAME] == "canonical.xi_build" for s in xi for c in children[s[_ID]]),
            sum(s[_EXC] is None for s in xi),
        ),
        "builds/accept",
    )

    reports = {1: [], 2: []}
    for s in by_name["cli.main"]:
        command, workers = s[_INFO]
        if command == "verify" and workers in reports:
            reports[workers].append(s)
    for workers, rows in reports.items():
        wall = [(s[_T1] - s[_T0]) / 1e6 for s in rows]
        out[f"cli.report_ms.workers{workers}"] = (ratio(sum(wall), len(wall)), "ms")
    pool_ids = {s[_ID] for s in reports[2]}
    in_pool = sum(
        s[_T1] - s[_T0]
        for s in spans
        if s[_PARENT] in pool_ids and s[_TID] != by_id[s[_PARENT]][_TID]
    )
    out["cli.workers2.parallelism"] = (
        ratio(in_pool, sum(s[_T1] - s[_T0] for s in reports[2])),
        "ratio",
    )
    out["trace.overhead"] = (overhead, "ratio")
    return out
