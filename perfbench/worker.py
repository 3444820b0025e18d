"""One workload run in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--rounds R] [--spans FILE]

Set-up is importing plovkit and running the warm-up operations; it is
repeated `SETUP_REPEATS` times on freshly imported modules (so caches
start empty each time), and the last import serves the timed rounds.
Without --rounds, the workload's `rss_rounds` rounds run first, and
then whole rounds while the next one is expected to end within S seconds
of operation time (at most the workload's `max_rounds`).  The peak RSS
is read after `rss_rounds` rounds, so it covers the same operations
however fast the program is.  With --spans the public functions are
wrapped by `tracing.Tracer` after set-up and the spans are written to
FILE.  Reported times are scaled to the reference host speed
(`hostspeed`); the `raw_` fields keep wall times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostSpeed, scale_now  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, InputStream, run_op  # noqa: E402

SETUP_REPEATS = 5


def fresh_import():
    """Drop every plovkit module and import the package again."""
    for name in [n for n in sys.modules if n == "plovkit" or n.startswith("plovkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("plovkit.cli")
    return types.SimpleNamespace(
        cli=cli,
        cyclotomic=sys.modules["plovkit.cyclotomic"],
        RatMatrix=sys.modules["plovkit.exact"].RatMatrix,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stream = InputStream(workload, args.seed, str(workdir))
        warm = stream.warmup()
        setup_s = []
        raw_setup_s = []
        warm_ok = True
        for _ in range(SETUP_REPEATS):
            scale = scale_now()
            t0 = perf_counter()
            modules = fresh_import()
            for op in warm:
                warm_ok &= run_op(workload, modules, op)[0]
            raw_setup_s.append(perf_counter() - t0)
            setup_s.append(raw_setup_s[-1] * scale)

        tracer = Tracer() if args.spans else None
        if tracer:
            tracer.patch()

        speed = HostSpeed()
        raw = []  # (operation time elapsed before it, its wall time)
        failed = 0
        busy = 0.0
        rounds = 0
        maxrss_kb = None
        while True:
            if rounds == workload.rss_rounds:
                maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.rounds is not None:
                if rounds == args.rounds:
                    break
            elif rounds == workload.max_rounds or (
                    rounds >= workload.rss_rounds and busy + busy / rounds > args.seconds):
                break
            for op in stream.round(rounds):
                speed.sample(busy)
                scope = tracer.operation(len(raw)) if tracer else None
                ok, dt = run_op(workload, modules, op, scope)
                raw.append((busy, dt))
                busy += dt
                failed += not ok
            rounds += 1
        speed.sample(busy)
        latencies = [dt * speed.scale(at) for at, dt in raw]

        result = {
            "workload": workload.name,
            "seed": args.seed,
            "rounds": rounds,
            "attempted": len(latencies),
            "failed": failed,
            "warmup_ok": warm_ok,
            "busy_s": sum(latencies),
            "latencies_s": latencies,
            "setup_s": setup_s,
            "raw_busy_s": busy,
            "raw_setup_s": raw_setup_s,
            "maxrss_kb": maxrss_kb,
        }
        if tracer:
            result["trace"] = tracer.summary()
            result["counters"] = dict(tracer.counters)
            tracer.write(args.spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
