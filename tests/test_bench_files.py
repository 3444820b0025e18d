"""The `BENCH_*.json` files at the root of the repository share one core
schema, so one reader can compare any two of them.

Each file names its host and command and holds a list of series; each
series holds the raw runs of one workload in two source trees, and each
run records its pair, seed, tree, exit status and metrics.  Extra keys are allowed: a file may
carry measurements of its own beside the core.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))

TOP = {"label": str, "what": str, "host": dict, "command": str, "series": list}
HOST = {"python": str, "machine": str, "cpus": int}
SERIES = {
    "workload": str,
    "seconds": (int, float),
    "seeds": str,
    "purpose": str,
    "runs": list,
}
RUN = {
    "pair": int,
    "seed": int,
    "tree": str,
    "exit": int,
    "correct": bool,
    "attempted": int,
    "failed": int,
    "metrics": dict,
}


def assert_fields(record, fields, where):
    assert isinstance(record, dict), where
    for key, kind in fields.items():
        assert key in record, f"{where}: no {key!r}"
        assert isinstance(record[key], kind), f"{where}: {key!r} is {record[key]!r}"


def test_there_are_bench_files():
    assert len(FILES) >= 2


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_has_the_core_schema(path):
    doc = json.loads(path.read_text())
    assert_fields(doc, TOP, path.name)
    assert_fields(doc["host"], HOST, f"{path.name} host")
    assert doc["series"], path.name
    # the commit of each tree, when the file records it
    assert all(v is None or isinstance(v, str) for v in doc.get("trees", {}).values())
    for i, series in enumerate(doc["series"]):
        where = f"{path.name} series {i}"
        assert_fields(series, SERIES, where)
        # a series compares two trees, each run in both
        assert len({run.get("tree") for run in series["runs"]}) == 2, where
        for j, run in enumerate(series["runs"]):
            assert_fields(run, RUN, f"{where} run {j}")
            assert run["metrics"], f"{where} run {j}"
            assert all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in run["metrics"].values()
            ), f"{where} run {j}"
