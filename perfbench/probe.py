"""Reference-point probe: times each large reference input once.

    python3 perfbench/probe.py [--only NAME ...]

Run from the root of a plovkit checkout.  Not gated and not part of the
benchmark's workloads: it times the points named in ROADMAP.md once each,
through the same public calls, plus the `model` shapes too slow for the
`model` workload.  Each point draws its inputs from the fixed stream
`probe:<name>`.  Every answer is still checked.  Prints one JSON line
per point and exits 1 if any answer was wrong.  The full probe takes
about two minutes on a 2-core x86 container (Python 3.11).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def cli(plovkit, argv, matrix):
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = str(Path(tmp) / "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"matrix": matrix}, fh)
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = plovkit.cli.main([*argv, "--input", path])
        dt = perf_counter() - t0
    report = json.loads(out.getvalue()) if code == 0 else None
    return dt, report


def analyze_24(plovkit, rng):
    # drawn like plovkit.randgen.random_pseudo_analytic(rng, 12,
    # conjugated=True): half sizes by its partition law, a random shear
    half_sizes = W.composition(rng, 12)
    s, s_inv = W.random_shear(rng, 24)
    m = W.mat_mul(W.mat_mul(s, W.pseudo_analytic_blocks(rng, half_sizes)), s_inv)
    dt, report = cli(plovkit, ["analyze"], m)
    ok = report is not None and W.check_analyze(report, {"half_sizes": half_sizes})
    return dt, ok, {"half_sizes": half_sizes}


def power_sum(sizes):
    def point(plovkit, rng):
        from plovkit.exact import RatMatrix
        from plovkit.powersum import power_sum_det

        k = sum(sizes)
        m = W.block_diag([W.jordan_block(1, s) for s in sizes])
        a = RatMatrix.from_rows(m)
        t0 = perf_counter()
        result = power_sum_det(a, RatMatrix.identity(k))
        dt = perf_counter() - t0
        ok = result.degree == sum(s * s for s in sizes)
        if len(sizes) == 1:
            ok = ok and result.leading_coeff == W.single_block_leading_coeff(k)
        return dt, ok, {}
    return point


def scan_337(plovkit, rng):
    from plovkit.cohomology import TwoForm, vanishing_scan
    from plovkit.exact import RatMatrix

    sizes = [3, 3, 1]
    m = W.block_diag([W.jordan_block(1, s) for s in sizes] * 2)
    t0 = perf_counter()
    report = vanishing_scan(RatMatrix.from_rows(m), TwoForm.standard(7))
    dt = perf_counter() - t0
    return dt, not report.violations, {"scanned": len(report.scanned)}


def model(sizes):
    def point(plovkit, rng):
        m, label = W.paired_unipotent(rng, sizes)
        dt, report = cli(plovkit, ["model", "--form", "standard"], m)
        ok = report is not None and W.check_model(report, label)
        scanned = report["model"]["vanishing_scan"]["scanned"] if report else []
        return dt, ok, {"scanned": len(scanned)}
    return point


POINTS = {
    "analyze_dim24": analyze_24,
    "power_sum_det_8": power_sum([8]),
    "power_sum_det_4_3_1": power_sum([4, 3, 1]),
    "power_sum_det_3_1_1_1_1_1": power_sum([3, 1, 1, 1, 1, 1]),
    "vanishing_scan_3_3_1": scan_337,
    "model_5": model((5,)),
    "model_3_3": model((3, 3)),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", nargs="+", choices=sorted(POINTS))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "plovkit" / "__init__.py").is_file():
        print("probe.py: no src/plovkit here; run from a plovkit checkout", file=sys.stderr)
        return 2
    import plovkit.cli

    all_ok = True
    for name in args.only or POINTS:
        rng = random.Random(f"probe:{name}")
        dt, ok, info = POINTS[name](plovkit, rng)
        all_ok &= ok
        print(json.dumps({"point": name, "seconds": round(dt, 4), "correct": ok, **info}),
              flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
