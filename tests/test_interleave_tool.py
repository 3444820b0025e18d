"""`tools/interleave.py`, in-process timing of two trees side by side: a
one-round `screen` run on two copies of this tree, and the exit code of
a run whose change tree gives a wrong verdict."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def copy_tree(path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "plovkit", path / "src" / "plovkit", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", path / "perfbench", ignore=ignore)
    return path


def interleave(parent, change, *extra):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"),
         "--parent", str(parent), "--change", str(change),
         "--workload", "screen", "--rounds", "1", "--repeats", "1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_one_screen_round_in_two_copies_prints_both_trees_and_ratios(tmp_path):
    parent, change = copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b")
    proc = interleave(parent, change)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("screen, seed 1, 1 round(s), least of 1")
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[1:]}
    assert list(rows) == ["sum_s", "ops_per_s", "p50_ms", "p90_ms"]
    for p, c, ratio in rows.values():
        assert p > 0 and c > 0 and abs(ratio - c / p) < 1e-3


def test_a_wrong_verdict_in_either_tree_exits_1(tmp_path):
    parent, change = copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b")
    cyclotomic = change / "src" / "plovkit" / "cyclotomic.py"
    cyclotomic.write_text(
        cyclotomic.read_text()
        + "\n_real = quasi_unipotency\n"
        "quasi_unipotency = lambda m: QuasiUnipotencyVerdict(\n"
        "    not _real(m).is_quasi_unipotent)\n"
        "quasi_unipotency.cache_clear = _real.cache_clear\n"
    )
    proc = interleave(parent, change)
    assert proc.returncode == 1
    assert "wrong answer" in proc.stderr
    # the verdicts are checked in the parent tree too
    assert interleave(change, parent).returncode == 1
