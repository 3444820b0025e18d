"""Tests of the benchmark's tracer and answer checks.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import ROOT, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, InputStream, run_op  # noqa: E402


def drop_plovkit():
    for name in [n for n in sys.modules if n == "plovkit" or n.startswith("plovkit.")]:
        del sys.modules[name]


class TracedRun(unittest.TestCase):
    """A few traced operations of each workload on fresh modules."""

    def setUp(self):
        self.modules = worker.fresh_import()
        self.tracer = Tracer()
        self.found = self.tracer.patch()
        self.tmp = tempfile.TemporaryDirectory()
        self.op_id = 0
        self.op_ns = {}  # operation id -> the time run_op measured

    def tearDown(self):
        drop_plovkit()
        self.tmp.cleanup()

    def run_ops(self, name, count):
        workload = WORKLOADS[name]
        stream = InputStream(workload, 7, self.tmp.name)
        ops = stream.warmup()[:count]
        for op in ops:
            ok, dt = run_op(workload, self.modules, op, self.tracer.operation(self.op_id))
            self.assertTrue(ok, f"{name} operation {self.op_id} failed")
            self.op_ns[self.op_id] = dt * 1e9
            self.op_id += 1
        return len(ops)

    def test_self_times_sum_to_operation_time(self):
        ops = sum(self.run_ops(name, 2) for name in ("analyze", "screen", "powersum"))
        t = self.tracer
        own = t.self_ns()
        per_op = defaultdict(int)
        root = {}
        for idx in range(len(t.start)):
            per_op[t.op[idx]] += own[idx]
            if t.names[t.name[idx]] == ROOT:
                root[t.op[idx]] = t.end[idx] - t.start[idx]
        self.assertEqual(len(root), ops)
        self.assertGreater(len(t.start), 3 * ops)
        for op_id, wall in root.items():
            self.assertEqual(per_op[op_id], wall)
            # the root span wraps exactly the call that run_op times
            self.assertAlmostEqual(per_op[op_id], self.op_ns[op_id], delta=50_000)
        for value in own:
            self.assertGreaterEqual(value, 0)

    def test_every_binding_is_wrapped(self):
        self.assertEqual(len(self.found), len(TARGETS))
        exact = sys.modules["plovkit.exact"]
        for module in ("plov", "powersum", "cyclotomic"):
            copy = getattr(sys.modules[f"plovkit.{module}"], "det_exact", None)
            if copy is not None:
                self.assertIs(copy, exact.det_exact)
        self.assertTrue(hasattr(exact.det_exact, "__wrapped__"))

    def test_verdict_cache_still_serves_repeats(self):
        m = self.modules.RatMatrix.from_rows([[1, 1], [0, 1]])
        cyclotomic = sys.modules["plovkit.cyclotomic"]
        first = cyclotomic.quasi_unipotency(m)
        again = cyclotomic.quasi_unipotency(m)
        self.assertIs(first, again)
        summary = self.tracer.summary()
        self.assertEqual(summary["cyclotomic.quasi_unipotency"]["calls"], 2)
        self.assertEqual(summary["exact.char_poly"]["calls"], 1)


class MissingTargets(unittest.TestCase):
    def test_missing_target_is_skipped_and_reads_zero(self):
        worker.fresh_import()
        try:
            found = Tracer().patch(targets=[("exact", "no_such_function", {})])
        finally:
            drop_plovkit()
        self.assertEqual(found, [])
        fake = {"trace": {}, "counters": {}, "busy_s": 2.0, "raw_busy_s": 2.0}
        metrics = run.per_layer(fake, {"busy_s": 1.0})
        self.assertEqual(metrics["exact.lagrange_interpolate.calls"], (0, "count"))
        self.assertEqual(metrics["cyclotomic.verdict_reuse_ratio"], (0.0, "ratio"))
        self.assertEqual(metrics["trace.overhead_ratio"], (2.0, "ratio"))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_no_repeats(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in WORKLOADS.values():
                a = InputStream(workload, 3, tmp)
                b = InputStream(workload, 3, tmp)
                warm = a.warmup()
                rounds = [a.round(i) for i in range(2)]
                b.warmup()
                self.assertEqual([op["matrix"] for op in rounds[0]],
                                 [op["matrix"] for op in b.round(0)])
                seen = [str(op["matrix"]) for op in warm + rounds[0] + rounds[1]]
                self.assertEqual(len(seen), len(set(seen)), workload.name)


if __name__ == "__main__":
    unittest.main()
