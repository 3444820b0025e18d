"""Interleaved timing of one workload's operations in two source trees,
in one process.

    python3 tools/interleave.py --parent DIR --change DIR --workload model \\
        [--seed 1] [--rounds 1] [--repeats 5]

Each tree is the root of a plovkit checkout.  Its `src/plovkit` is copied
into a temporary directory as the package `plovkit_parent` or
`plovkit_change` (plovkit imports itself only relatively), so both trees
run in this one interpreter.  The operations are those of the change
tree's `perfbench/workloads.py`, which is imported and never written:
the workload's warm-up, run once in each tree, then ``--rounds`` rounds
of the seed.  Each operation runs in both trees, the tree that goes
first alternating from operation to operation and from pass to pass,
and the whole list of operations is run ``--repeats`` times, so the
repeats of one operation are a pass over all the others apart.  Before every call the verdict
cache of `quasi_unipotency` is cleared.

For each tree it keeps the least time of every operation and prints the
sum, ops/s, p50 and p90 of these least times (p50 and p90 as in
`perfbench/run.py`), with the ratios change / parent.  Every answer is
checked by the workload's own check.

The speed of a machine drifts between processes; here both trees share
one, so this sizes a change.  A claimed gain is measured with
`tools/pairs.py`, on whole benchmark runs.  Stdlib only.  Exit 0 when
every answer was right, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import types
from pathlib import Path

TREES = ("parent", "change")


def load_workloads(tree: Path) -> types.ModuleType:
    """The tree's `perfbench/workloads.py`, imported under its own name."""
    spec = importlib.util.spec_from_file_location(
        "interleave_workloads", tree / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_copy(tree: Path, name: str, into: Path) -> types.SimpleNamespace:
    """The tree's `src/plovkit`, copied into ``into`` as package ``name``
    and imported, as the namespace that `workloads.run_op` takes."""
    shutil.copytree(tree / "src" / "plovkit", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = importlib.import_module(f"{name}.cli")
    return types.SimpleNamespace(
        cli=cli,
        cyclotomic=sys.modules[f"{name}.cyclotomic"],
        RatMatrix=sys.modules[f"{name}.exact"].RatMatrix,
    )


def summarize(times: list[float]) -> dict:
    return {
        "sum_s": sum(times),
        "ops_per_s": len(times) / sum(times),
        "p50_ms": statistics.median(times) * 1e3,
        "p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def interleave(trees: dict[str, Path], work: types.ModuleType, workload: str,
               seed: int, rounds: int, repeats: int) -> tuple[dict[str, dict], int]:
    """(summary by tree, wrong answers) for the operations of ``rounds``
    rounds of ``workload`` of the module ``work``, each run ``repeats``
    times in both trees."""
    spec = work.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        modules = {t: import_copy(trees[t], f"plovkit_{t}", tmp) for t in TREES}
        stream = work.InputStream(spec, seed, str(tmp))
        ops = [op for r in range(rounds) for op in stream.round(r)]
        wrong = 0
        for op in stream.warmup():
            for t in TREES:
                wrong += not work.run_op(spec, modules[t], op)[0]
        best = {t: [float("inf")] * len(ops) for t in TREES}
        for r in range(repeats):
            for i, op in enumerate(ops):
                for t in TREES if (i + r) % 2 == 0 else TREES[::-1]:
                    clear = getattr(modules[t].cyclotomic.quasi_unipotency,
                                    "cache_clear", None)
                    if clear:
                        clear()
                    ok, dt = work.run_op(spec, modules[t], op)
                    wrong += not ok
                    best[t][i] = min(best[t][i], dt)
    return {t: summarize(best[t]) for t in TREES}, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "plovkit").is_dir():
            ap.error(f"{tree} has no src/plovkit")
    if not (trees["change"] / "perfbench" / "workloads.py").is_file():
        ap.error(f"{trees['change']} has no perfbench/workloads.py")
    if args.rounds < 1 or args.repeats < 1:
        ap.error("--rounds and --repeats must be at least 1")
    work = load_workloads(trees["change"])
    if args.workload not in work.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(sorted(work.WORKLOADS))}")
    summary, wrong = interleave(trees, work, args.workload, args.seed, args.rounds,
                                args.repeats)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} round(s), "
          f"least of {args.repeats}: parent, change, change/parent")
    for name in summary["parent"]:
        p, c = summary["parent"][name], summary["change"][name]
        print(f"  {name:10s} {p:12.6g} {c:12.6g} {c / p:8.3f}")
    if wrong:
        print(f"{wrong} wrong answer(s)", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
