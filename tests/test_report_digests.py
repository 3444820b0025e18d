"""Pinned report bytes for a fixed, seeded set of CLI invocations.

Each case runs `plovkit.cli.main` in-process on an input drawn with
`plovkit.randgen` from one seeded generator, and compares the SHA-256 of
its stdout and its exit code with `tests/data/report_digests.json`.  A
change that is meant to keep every report byte-identical must leave all
of them passing.

When a report is meant to change, regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py

and say in the change description which cases moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from plovkit import randgen
from plovkit.cli import enc_matrix, main

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
SEED = 20261018
PSEUDO_ORDERS = (1, 2, 3, 4, 6)


def _cases() -> list[tuple[str, object, list[str]]]:
    """(case id, input matrix, argv without --input) for every case."""
    rng = random.Random(SEED)
    cases = []
    for i in range(16):
        genus = 1 + i % 5
        m, _ = randgen.random_pseudo_analytic(
            rng, genus, conjugated=True, allow_orders=PSEUDO_ORDERS
        )
        argv = ["analyze"]
        if i >= 14:
            argv += ["--degrees", "1,2"]
        cases.append((f"analyze-{i:02d}-g{genus}", m, argv))
    for i in range(8):
        dim = 2 + i % 5
        m = randgen.random_quasi_unipotent(rng, dim)
        degrees = ",".join(str(r) for r in range(1, dim + 1))
        cases.append((f"growth-{i:02d}-d{dim}", m, ["growth", "--degrees", degrees]))
    for i in range(5):
        dim = 1 + i
        m, _ = randgen.random_unipotent(rng, dim)
        cases.append((f"powersum-identity-{i:02d}-d{dim}", m, ["powersum"]))
        cases.append(
            (
                f"powersum-random-{i:02d}-d{dim}",
                m,
                ["powersum", "--h", "random", "--seed", str(i)],
            )
        )
    for i in range(2):
        m = randgen.random_quasi_unipotent(rng, 3 + i)
        cases.append(
            (
                f"powersum-quasi-{i:02d}-d{3 + i}",
                m,
                ["powersum", "--h", "random", "--seed", str(i), "--samples", "4"],
            )
        )
    for i in range(4):
        genus = 2 + i % 3
        m, _ = randgen.random_paired_unipotent(rng, genus)
        cases.append((f"model-standard-{i:02d}-g{genus}", m, ["model"]))
        cases.append(
            (
                f"model-random-{i:02d}-g{genus}",
                m,
                ["model", "--form", "random", "--seed", str(i)],
            )
        )
    # g = 5 and 6, where the intersection polynomial needs the most work;
    # fixed shapes, since random draws there often have a long chain and a
    # vanishing scan of many seconds
    for i, half_sizes in enumerate(([3, 1, 1], [2, 1, 1, 1, 1]), start=4):
        genus = sum(half_sizes)
        m = randgen.paired_unipotent(half_sizes)
        cases.append((f"model-standard-{i:02d}-g{genus}", m, ["model"]))
        cases.append(
            (
                f"model-random-{i:02d}-g{genus}",
                m,
                ["model", "--form", "random", "--seed", str(i)],
            )
        )
    # the scan-heavy shape of the model benchmark: 7,678 scanned products
    m = randgen.paired_unipotent([4, 1])
    cases.append(("model-standard-06-g5", m, ["model"]))
    # the dimensions the powersum benchmark reaches: conjugated inputs of
    # dimension 6-8 and the single block [8]
    for i, dim in enumerate((6, 7, 8), start=5):
        m, _ = randgen.random_unipotent(rng, dim)
        argv = ["powersum"]
        if dim % 2 == 0:
            argv += ["--h", "random", "--seed", str(i)]
        cases.append((f"powersum-conj-{i:02d}-d{dim}", m, argv))
    block = randgen.unipotent_from_sizes([8])
    cases.append(("powersum-block-08-d8", block, ["powersum"]))
    return cases


CASES = _cases()


def run_case(case_id: str, matrix, argv: list[str], workdir: Path) -> dict:
    """Run one case in-process; returns its stdout digest and exit code."""
    path = workdir / f"{case_id}.json"
    path.write_text(json.dumps({"name": case_id, "matrix": enc_matrix(matrix)}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--input", str(path)])
    return {
        "argv": argv,
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "exit": code,
    }


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_every_case():
    assert sorted(_recorded()) == sorted(case_id for case_id, _, _ in CASES)


def test_reports_match_recorded_digests(tmp_path):
    recorded = _recorded()
    mismatched = []
    for case_id, matrix, argv in CASES:
        if run_case(case_id, matrix, argv, tmp_path) != recorded[case_id]:
            mismatched.append(case_id)
    assert mismatched == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            case_id: run_case(case_id, matrix, argv, Path(tmp))
            for case_id, matrix, argv in CASES
        }
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
