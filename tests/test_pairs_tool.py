"""`tools/pairs.py`, the alternating pair driver: its order of runs, its
summary and the `BENCH_*.json` it writes, with `perfbench/run.py`
replaced by a fake or a stub so that nothing is timed."""

import ast
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests import test_bench_files

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)


def fake_tree(path):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (path / "src" / "__pycache__").mkdir(parents=True)
    return path


def test_pairs_alternate_the_first_tree_and_write_the_core_schema(tmp_path, monkeypatch):
    parent, change = fake_tree(tmp_path / "a"), fake_tree(tmp_path / "b")
    calls = []

    def fake_run(tree, workload, seed, seconds):
        name = "parent" if tree == parent else "change"
        calls.append((workload, seed, name, seconds))
        speed = 100 + seed + (50 if name == "change" else 0)
        metrics = {"ops_per_s": speed, "latency_p50_ms": 1000 / speed, "ops_ok_ratio": 1.0}
        return {"exit": 0, "correct": True, "attempted": 10, "failed": 0,
                "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    code = pairs.main([
        "--parent", str(parent), "--change", str(change), "--label", "t",
        "--workload", "model:3", "--workload", "screen:2",
        "--seed", "7", "--claim", "model",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    # the run length is BENCHMARK.json's run_seconds, the same for both trees
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert calls == [
        (w, s, tree, seconds) for w, s, tree in [
            ("model", 7, "parent"), ("model", 7, "change"),
            ("model", 8, "change"), ("model", 8, "parent"),
            ("model", 9, "parent"), ("model", 9, "change"),
            ("screen", 7, "parent"), ("screen", 7, "change"),
            ("screen", 8, "change"), ("screen", 8, "parent"),
        ]
    ]
    out = tmp_path / "BENCH_t.json"
    test_bench_files.test_bench_file_has_the_core_schema(out)
    doc = json.loads(out.read_text())
    assert doc["command"].endswith(f"--seconds {seconds} --trace 0")
    # neither fake tree is a git checkout
    assert doc["trees"] == {"parent": None, "change": None}
    assert [(s["workload"], s["seeds"], s["purpose"]) for s in doc["series"]] == [
        ("model", "7-9", "claim"), ("screen", "7-8", "no-regression check"),
    ]
    ops = doc["series"][0]["summary"]["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"], ops["wins"]) == (108, 158, 3)
    p50 = doc["series"][0]["summary"]["latency_p50_ms"]
    assert (p50["better"], p50["wins"]) == ("lower", 3)
    assert doc["series"][0]["summary"]["ops_ok_ratio"]["wins"] == 0


def test_a_workload_without_a_pair_count_is_refused(tmp_path, capsys):
    parent, change = fake_tree(tmp_path / "a"), fake_tree(tmp_path / "b")
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                    "--workload", "model", "--seed", "1", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "'model' is not NAME:PAIRS" in capsys.readouterr().err


def test_a_missing_out_dir_is_made_before_the_first_run(tmp_path, monkeypatch):
    parent, change = fake_tree(tmp_path / "a"), fake_tree(tmp_path / "b")
    out_dir = tmp_path / "new" / "dir"
    ran = []

    def fake_run(tree, workload, seed, seconds):
        ran.append(tree)
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": 1.0}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    code = pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                       "--workload", "model:2", "--seed", "1", "--out-dir", str(out_dir)])
    assert code == 0
    assert len(ran) == 4
    doc = json.loads((out_dir / "BENCH_t.json").read_text())
    assert len(doc["series"][0]["runs"]) == 4


# prints a progress line and then, last, one JSON line in run.py's format,
# with values that echo its arguments
STUB_RUN = """\
import argparse, json
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
print("model     ops_per_s   1 1/s")
print(json.dumps({"correct": True, "attempted": 12, "failed": 0, "metrics": {
    "ops_per_s": {"value": float(a.seed) + 0.5, "unit": "1/s"},
    "setup_s": {"value": float(a.seconds), "unit": "s"},
    "ops_ok_ratio": {"value": 1.0, "unit": "1"},
}}))
"""


def test_run_once_reads_the_last_line_of_run_py(tmp_path):
    tree = fake_tree(tmp_path / "t")
    (tree / "perfbench" / "run.py").write_text(STUB_RUN)
    run = pairs.run_once(tree, "model", 41, 30)
    assert run == {
        "exit": 0, "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"ops_per_s": 41.5, "setup_s": 30.0, "ops_ok_ratio": 1.0},
    }
    # the tree's caches are cleared before it runs
    assert not (tree / "src" / "__pycache__").exists()


def test_run_once_without_a_json_line_is_an_incorrect_run(tmp_path):
    tree = fake_tree(tmp_path / "t")
    (tree / "perfbench" / "run.py").write_text("import sys\nprint('boom')\nsys.exit(3)\n")
    run = pairs.run_once(tree, "model", 1, 30)
    assert run == {"exit": 3, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def test_summary_takes_the_parent_iqr_and_counts_ties_for_neither():
    runs = [
        {"pair": i, "tree": tree, "metrics": {"ops_per_s": value}}
        for i, (p, c) in enumerate([(10, 12), (11, 11), (13, 12), (14, 15)])
        for tree, value in (("parent", p), ("change", c))
    ]
    s = pairs.summarize(runs, {"ops_per_s": "higher"})["ops_per_s"]
    assert (s["parent_median"], s["change_median"], s["wins"], s["pairs"]) == (
        12, 12, 2, 4,
    )
    assert s["parent_iqr"] == 3.5  # quartiles 10.25 and 13.75 of 10, 11, 13, 14


def test_clear_pycache_removes_every_cache(tmp_path):
    tree = fake_tree(tmp_path / "t")
    (tree / "perfbench" / "__pycache__").mkdir()
    pairs.clear_pycache(tree)
    assert list(tree.rglob("__pycache__")) == []
    assert (tree / "perfbench" / "run.py").is_file()


def test_pairs_imports_only_the_standard_library():
    tree = ast.parse((ROOT / "tools" / "pairs.py").read_text())
    names = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    assert names and all(n.split(".")[0] in sys.stdlib_module_names for n in names)


def committed_checkout(tree):
    """Make ``tree`` a git checkout with all of its files committed; its HEAD."""
    git = ["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "tree"], check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_trees_records_the_commit_of_a_git_checkout_and_null_otherwise(tmp_path, monkeypatch):
    parent, change = fake_tree(tmp_path / "a"), fake_tree(tmp_path / "b")
    # a folder inside a checkout is not a checkout of its own
    inner = fake_tree(change / "inner")
    head = committed_checkout(change)
    assert (pairs.tree_commit(change), pairs.tree_commit(inner)) == (head, None)

    def fake_run(tree, workload, seed, seconds):
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": 1.0}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", str(parent), "--change", str(change), "--label", "g",
                       "--workload", "model:1", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_g.json").read_text())
    assert doc["trees"] == {"parent": None, "change": head}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_checkout_with_uncommitted_changes_is_recorded_as_dirty(tmp_path, monkeypatch):
    # an edited tracked file, or a new untracked one, means the runs were
    # not made on HEAD: the commit is recorded with a -dirty mark
    parent, change = fake_tree(tmp_path / "a"), fake_tree(tmp_path / "b")
    head = committed_checkout(change)
    assert pairs.tree_commit(change) == head
    (change / "perfbench" / "run.py").write_text("# edited\n")
    assert pairs.tree_commit(change) == f"{head}-dirty"
    subprocess.run(["git", "-C", str(change), "checkout", "-q", "--", "."], check=True)
    assert pairs.tree_commit(change) == head
    (change / "new.py").write_text("")
    assert pairs.tree_commit(change) == f"{head}-dirty"

    def fake_run(tree, workload, seed, seconds):
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": 1.0}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", str(parent), "--change", str(change), "--label", "d",
                       "--workload", "model:1", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_d.json").read_text())
    assert doc["trees"] == {"parent": None, "change": f"{head}-dirty"}
