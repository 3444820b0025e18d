"""Per-layer tracing from outside the program.

`Tracer.patch()` replaces each target function of plovkit with a
wrapper that records a span (operation id, parent span, name, start,
end).  Every module binding that holds the target object is replaced, so
copies made by `from .exact import det_exact` are traced too, and an
`lru_cache` object is wrapped as a whole, so its cache keeps working.  A
target that no longer exists is skipped and reports zero calls.

Spans stay in memory as flat arrays and are written out once, at the end.
A span's self time is its duration minus the durations of its child
spans; spans of one operation nest inside the operation's root span, so
their self times add up to the root span's duration exactly.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

ROOT = "op"


def _dimension(args, kwargs, result):
    return getattr(args[0], "dimension", 0) if args else 0


def _out_rows(args, kwargs, result):
    return getattr(result, "dimension", 0)


def _points(args, kwargs, result):
    return len(args[0]) if args else 0


def _sum_nodes(args, kwargs, result):
    # discrete_sum evaluates its argument at deg + 1 consecutive nodes
    return len(getattr(args[0], "coeffs", ())) if args else 0


# (module, function, {counter name: count from (args, kwargs, result)})
TARGETS = [
    ("cli", "main", {}),
    ("cli", "parse_input", {}),
    ("cli", "emit", {}),
    ("plov", "analyze", {}),
    ("plov", "growth_exponent", {}),
    ("plov", "max_block_compound2", {}),
    ("jordan", "jordan_profile", {}),
    ("jordan", "unipotent_block_profile", {"jordan.unipotent_block_profile.dim_sum": _dimension}),
    ("cyclotomic", "quasi_unipotency", {}),
    ("cyclotomic", "unipotent_power", {}),
    ("cyclotomic", "is_unipotent", {}),
    ("exact", "mat_mul", {}),
    ("exact", "rank_exact", {}),
    ("exact", "det_exact", {}),
    ("exact", "lagrange_interpolate", {"exact.interp_nodes": _points}),
    ("exact", "mat_pow", {}),
    ("exact", "char_poly", {}),
    ("exact", "det_poly", {}),
    ("exact", "discrete_sum", {"exact.interp_nodes": _sum_nodes}),
    ("exact", "compound_matrix", {"exact.compound_matrix.out_rows": _out_rows}),
    ("powersum", "power_sum_det", {}),
    ("powersum", "power_sum_matrix", {}),
    ("powersum", "power_sum_brute", {}),
    ("powersum", "ensure_spd", {}),
    ("cohomology", "plov_via_model", {}),
    ("cohomology", "intersection_poly", {}),
    ("cohomology", "nilpotent_chain", {}),
    ("cohomology", "vanishing_scan", {}),
    ("cohomology", "pullback2", {}),
    ("cohomology", "wedge_coefficient", {}),
]


class Tracer:
    """Span recorder for one process; spans are kept in parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1
        self._root_id = self._name_id(ROOT)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.op.append(self._op_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        name_id = self._name_id(name)
        counts = counts or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for counter, count in counts.items():
                self.counters[counter] += count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; spans opened inside belong to it."""
        self._op_id = op_id
        idx = self._open(self._root_id)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def patch(self, package: str = "plovkit", targets=TARGETS) -> list[str]:
        """Wrap every binding of each target in the package's loaded
        modules; returns the names of the targets that were found."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        found = []
        for module_name, fn_name, counts in targets:
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            traced = self.wrap(f"{module_name}.{fn_name}", original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
            found.append(f"{module_name}.{fn_name}")
        return found

    def self_ns(self) -> array:
        """Self time of every span: duration minus its children's."""
        out = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {calls, total_s, self_s}} over all recorded spans."""
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        for idx, self_time in enumerate(self.self_ns()):
            name = self.names[self.name[idx]]
            calls[name] += 1
            total[name] += self.end[idx] - self.start[idx]
            own[name] += self_time
        return {
            name: {
                "calls": calls[name],
                "total_s": total[name] / 1e9,
                "self_s": own[name] / 1e9,
            }
            for name in calls
        }

    def write(self, path: str) -> None:
        """One tab-separated line per span: op, index, parent, name,
        start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"{self.op[idx]}\t{idx}\t{self.parent[idx]}\t"
                    f"{self.names[self.name[idx]]}\t{self.start[idx]}\t{self.end[idx]}\n"
                )
