"""plovkit benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a plovkit checkout; the program is imported from
its `src/` tree.  NAME is one of analyze, powersum, model, screen, or
`all` to run each of them in turn.  Each workload run happens in a fresh
interpreter (`worker.py`), one at a time, closed loop with one client.

--trace 0 measures for S seconds of operation time and prints the
end-to-end metrics.  --trace 1 makes a traced pass over a fixed number
of rounds, writes its spans to `.perfbench-out/`, repeats the same
rounds untraced in another fresh interpreter for the tracing overhead,
and prints the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
1 when any operation gave a wrong answer or failed, 2 when there is no
plovkit source tree to measure, 3 when a worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# one workload's workers together end within this, or the run fails
WORKLOAD_TIMEOUT_S = 170
SPANS_DIR = ".perfbench-out"

# BENCHMARK.json names every metric; a per-layer name is a span name and
# a field (calls, total_s, self_s), a tracer counter, or a ratio below
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
SPAN_FIELDS = ("calls", "total_s", "self_s")


class WorkerFailed(Exception):
    pass


def run_worker(deadline, workload, seed, seconds, rounds=None, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} did not finish within {WORKLOAD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(r):
    lat = r["latencies_s"]
    ops = r["attempted"]
    return {
        "ops_per_s": (ops / r["busy_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ops_ok_ratio": ((ops - r["failed"]) / ops, "ratio"),
        "setup_s": (statistics.median(r["setup_s"]), "s"),
        "peak_rss_mb": (r["maxrss_kb"] / 1024, "MB"),
    }


def per_layer(traced, plain):
    spans = traced["trace"]
    # span times are wall times; scale them like the run's operation times
    scale = traced["busy_s"] / traced["raw_busy_s"]
    verdicts = spans.get("cyclotomic.quasi_unipotency", {}).get("calls", 0)
    char_polys = spans.get("exact.char_poly", {}).get("calls", 0)
    ratios = {
        "cyclotomic.verdict_reuse_ratio": verdicts / char_polys if char_polys else 0.0,
        "trace.overhead_ratio": traced["busy_s"] / plain["busy_s"],
    }
    out = {}
    for metric in PER_LAYER:
        name = metric["name"]
        span, _, field = name.rpartition(".")
        if name in ratios:
            value = ratios[name]
        elif field in SPAN_FIELDS:
            value = spans.get(span, {}).get(field, 0)
            if field != "calls":
                value *= scale
        else:
            value = traced["counters"].get(name, 0)
        out[name] = (value, metric["unit"])
    return out


def run_workload(name, seed, seconds, trace):
    """Returns (attempted, failed, {metric: (value, unit)})."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    if not trace:
        r = run_worker(deadline, name, seed, seconds)
        runs = [r]
        metrics = end_to_end(r)
    else:
        rounds = WORKLOADS[name].trace_rounds
        out_dir = ROOT / SPANS_DIR
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"spans-{name}-seed{seed}.tsv")
        traced = run_worker(deadline, name, seed, seconds, rounds, spans=spans)
        plain = run_worker(deadline, name, seed, seconds, rounds)
        runs = [traced, plain]
        metrics = per_layer(traced, plain)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] + (not r["warmup_ok"]) for r in runs)
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "plovkit" / "__init__.py").is_file():
        print("run.py: no src/plovkit here; run from the root of a plovkit checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 3
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in m.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
            if len(names) > 1:
                print(f"{name:9s} {metric:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
