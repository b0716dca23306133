"""Span tracer that wraps cuspforge's public functions from outside.

Each traced function is replaced by a wrapper wherever a cuspforge module
looks it up (its own module, every module that imported it by name, and
the package namespace); methods are replaced on their class.  Nothing in
``src/`` changes.  Spans (name, start, end, parent) are kept in memory in
one list per thread, with a per-thread parent stack, and summarised once
at the end.  A span's self time is its duration minus the durations of
its child spans on the same thread; spans in pool threads have no parent,
so the caller's wait on the pool stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, attribute) of every traced function; "Class.method" for methods.
TRACED = (
    ("hn", "standardize"),
    ("hn", "validate"),
    ("invariants", "semigroup_of"),
    ("invariants", "alexander_polynomial"),
    ("invariants", "cusp_record"),
    ("invariants", "hn_to_multiplicity"),
    ("invariants", "multiplicity_to_standard_hn"),
    ("invariants", "compute_M_I"),
    ("divisor", "resolution_graph"),
    ("divisor", "discriminant"),
    ("divisor", "is_negative_definite"),
    ("divisor", "WeightedTree.adjacency"),
    ("families", "enumerate_curves"),
    ("families", "generate"),
    ("families", "expected_reduced_multiplicities"),
    ("verify", "full_audit"),
    ("verify", "check_hn_equations"),
    ("cli", "run"),
)

# Work counts taken from a traced function's result: counter name -> (span, size).
COUNTS = {
    "invariants.conductor_sum": ("invariants.cusp_record", lambda rec: rec.I - rec.M),
    "divisor.resolution_vertices": ("divisor.resolution_graph", lambda res: len(res.tree)),
    "verify.checks": ("verify.full_audit", lambda report: len(report.checks)),
}


class Tracer:
    """Records spans of wrapped calls; ``install`` patches cuspforge in place."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple[list, dict]] = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack, local.counts
        except AttributeError:
            local.spans, local.stack, local.counts = [], [], {}
            with self._lock:
                self._threads.append((local.spans, local.counts))
            return local.spans, local.stack, local.counts

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        counters = [(counter, size) for counter, (span, size) in COUNTS.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, counts = self._state()
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            for counter, size in counters:
                counts[counter] = counts.get(counter, 0) + size(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function at each place cuspforge looks it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cuspforge" or n.startswith("cuspforge.")]
        for module_name, attr in TRACED:
            home = sys.modules[f"cuspforge.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per-function calls and self time (ns), work counts and span total."""
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        counts: dict[str, int] = {}
        total = 0
        with self._lock:
            threads = list(self._threads)
        for spans, thread_counts in threads:
            child_ns = [0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for (name, start, end, _), inner in zip(spans, child_ns):
                calls[name] = calls.get(name, 0) + 1
                self_ns[name] = self_ns.get(name, 0) + (end - start - inner)
            for key, value in thread_counts.items():
                counts[key] = counts.get(key, 0) + value
            total += len(spans)
        return {"calls": calls, "self_ns": self_ns, "counts": counts, "spans": total}


def span_names() -> list[str]:
    return [f"{module}.{attr}" for module, attr in TRACED]


def merge(summaries) -> dict:
    """Add up summaries from several traced processes."""
    out: dict = {"calls": {}, "self_ns": {}, "counts": {}, "spans": 0}
    for s in summaries:
        for key in ("calls", "self_ns", "counts"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["spans"] += s["spans"]
    return out
