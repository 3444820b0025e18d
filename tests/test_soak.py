"""A long-running process does not grow memory without bound.

600 seeded in-process `analyze` and `powersum` runs through `cli.main`,
each on a fresh matrix, so the bounded caches fill and then churn.  The
traced heap, read after a full collection, must stay flat from op 200
to op 600.  Inputs are drawn and written before tracing starts, and the
matrices are small, because tracing slows every allocation.
"""

import contextlib
import gc
import io
import json
import random
import tracemalloc

from plovkit import randgen
from plovkit.cli import main

WARM_UP = 200
OPS = 600
BOUND = 64 * 1024  # bytes of traced heap allowed to appear after the warm-up


def write_jobs(tmp_path, rng):
    jobs = []
    for i in range(OPS):
        if i % 2:
            genus = rng.randint(1, 2)
            m, _ = randgen.random_pseudo_analytic(rng, genus, conjugated=True)
            argv = ["analyze"]
        else:
            m, _ = randgen.random_unipotent(rng, rng.randint(1, 3))
            argv = ["powersum", "--samples", "2"]
        path = tmp_path / f"input{i}.json"
        rows = [[str(x) for x in row] for row in m.entries]
        path.write_text(json.dumps({"matrix": rows}))
        jobs.append([*argv, "--input", str(path)])
    return jobs


def test_memory_levels_off_over_many_ops(tmp_path):
    jobs = write_jobs(tmp_path, random.Random(2024))
    tracemalloc.start()
    try:
        for i, argv in enumerate(jobs, start=1):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert main(argv) == 0, argv
            if i in (WARM_UP, OPS):
                gc.collect()
                if i == WARM_UP:
                    start = tracemalloc.get_traced_memory()[0]
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert growth < BOUND, f"{growth} bytes appeared over ops {WARM_UP + 1}..{OPS}"
