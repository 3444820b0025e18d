"""Alternating pairs of benchmark runs in two source trees.

    python3 tools/pairs.py --parent DIR --change DIR --label NAME \\
        --workload model:10 --workload analyze:3 --seed 3301 \\
        [--claim model] [--what TEXT] [--out-dir DIR]

Each tree is the root of a plovkit checkout with its own `perfbench/`;
`perfbench/run.py` runs there as a black box, one workload and seed at a
time (`--trace 0`), for the `run_seconds` of the change tree's
`BENCHMARK.json`.  A workload given as NAME:N runs N pairs, pair i with
seed `--seed` + i.  Before every run the `__pycache__` directories of
the tree about to run are removed, so each run compiles its own source,
and the tree that goes first alternates from pair to pair, so a drift in
the machine's speed does not favour either tree.

For each workload and metric it prints the median of each tree, the
interquartile range of the parent's runs, the ratio of the medians and
how many pairs the change won, by the direction that the change tree's
`BENCHMARK.json` gives.  All raw runs go to `BENCH_<label>.json` in
`--out-dir` (made if missing; the working directory by default), in the
core schema that `tests/test_bench_files.py` pins, with the summary of
each series beside its runs and, under `trees`, the commit each tree had
checked out (`git rev-parse HEAD`, marked `-dirty` when the working tree
differs from it), or null for a tree that is not the root of a git
checkout.  The file is rewritten after every run, so
an interrupted series keeps the runs made so far.

Stdlib only.  Exit 0 when every run gave correct answers, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"


def clear_pycache(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: int | float) -> dict:
    """One `perfbench/run.py` run in ``tree``: its exit code and the last
    stdout line's counts and metric values."""
    clear_pycache(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = {}
    return {
        "exit": proc.returncode,
        "correct": bool(doc.get("correct", False)),
        "attempted": int(doc.get("attempted", 0)),
        "failed": int(doc.get("failed", 0)),
        "metrics": {k: v["value"] for k, v in doc.get("metrics", {}).items()},
    }


def tree_commit(tree: Path) -> str | None:
    """The HEAD commit of ``tree`` when it is the root of a git checkout,
    marked ``-dirty`` when `git status --porcelain` lists any change or
    untracked file (what ran is then not that commit), else None (a copy
    made by `git archive`, or a folder inside another checkout)."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != tree.resolve():
        return None
    status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return lines[1] + ("-dirty" if status.returncode or status.stdout else "")


def benchmark(tree: Path) -> tuple[dict[str, str], int | float]:
    """'higher' or 'lower' for each end-to-end metric of the benchmark,
    and the seconds of one run."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, spec["run_seconds"]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both medians, the parent's IQR, the ratio of the
    medians (change / parent) and the pairs the change won."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if set(p) == set(TREES)]
    out = {}
    for name, direction in better.items():
        both = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent = [p["parent"][name] for p in both]
        change = [p["change"][name] for p in both]
        sign = 1 if direction == "higher" else -1
        mp, mc = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": mp,
            "change_median": mc,
            "parent_iqr": iqr(parent),
            "ratio": mc / mp if mp else None,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(both),
            "better": direction,
        }
    return out


def print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: metric, parent median, change median, parent IQR, "
          "change/parent, wins")
    for name, s in summary.items():
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        print(f"  {name:16s} {s['parent_median']:12.4g} {s['change_median']:12.4g} "
              f"{s['parent_iqr']:10.3g} {ratio:>7s} {s['wins']:3d}/{s['pairs']}")


def parse_workload(text: str) -> tuple[str, int]:
    name, _, count = text.partition(":")
    if not name or not count.isdigit() or int(count) < 1:
        raise ValueError(f"--workload {text!r} is not NAME:PAIRS")
    return name, int(count)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", action="append", required=True,
                    help="NAME:PAIRS; repeat for more workloads")
    ap.add_argument("--seed", type=int, required=True, help="the seed of pair 0")
    ap.add_argument("--claim", action="append", default=[],
                    help="a workload whose series backs a claimed gain")
    ap.add_argument("--what", default="", help="what the two trees are")
    ap.add_argument("--machine", default=f"{platform.system()} {platform.machine()}")
    ap.add_argument("--out-dir", type=Path, default=Path.cwd())
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} has no perfbench/run.py")
    better, seconds = benchmark(trees["change"])
    try:
        plan = [parse_workload(w) for w in args.workload]
    except ValueError as exc:
        ap.error(str(exc))
    doc = {
        "label": args.label,
        "what": args.what or (
            f"{trees['parent'].name} (parent) against {trees['change'].name} (change); "
            "__pycache__ cleared before each run, the first tree alternating by pair"
        ),
        "host": {
            "python": platform.python_version(),
            "machine": args.machine,
            "cpus": os.cpu_count() or 1,
        },
        "command": COMMAND.format(seconds=seconds),
        "trees": {name: tree_commit(path) for name, path in trees.items()},
        "series": [],
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.label}.json"
    ok = True
    for workload, pairs in plan:
        series = {
            "workload": workload,
            "seconds": seconds,
            "seeds": f"{args.seed}-{args.seed + pairs - 1}",
            "purpose": "claim" if workload in args.claim else "no-regression check",
            "runs": [],
        }
        doc["series"].append(series)
        for pair in range(pairs):
            seed = args.seed + pair
            order = TREES if pair % 2 == 0 else TREES[::-1]
            for name in order:
                run = run_once(trees[name], workload, seed, seconds)
                ok &= run["exit"] == 0 and run["correct"]
                series["runs"].append({"pair": pair, "seed": seed, "tree": name, **run})
                series["summary"] = summarize(series["runs"], better)
                out.write_text(json.dumps(doc, indent=1) + "\n")
                ops = run["metrics"].get("ops_per_s")
                print(f"{workload} pair {pair} seed {seed} {name}: exit {run['exit']}, "
                      f"ops_per_s {ops}", file=sys.stderr, flush=True)
        print_summary(workload, series["summary"])
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
