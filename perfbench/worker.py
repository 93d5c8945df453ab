"""Run one workload in a fresh single-threaded process.

Started by `run.py`.  The worker imports the engine, loads and checks
the workload's specs, prints a ready line, then calls the public API
in a closed loop (one client: each call starts when the previous one
has returned) for whole passes until the time is up.  It checks every
output and prints one JSON line with the raw samples.

With --trace 1 an untimed pass comes first; then half the remaining
time runs untraced and half under the tracer, so the run also yields
the tracing overhead.
"""

import argparse
import gc
import json
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import invforms.euler  # noqa: F401  the public API the workloads call
    import invforms.report  # noqa: F401
    from invforms.linalg import BACKEND

    calls = workloads.load(args.workload, args.seed)
    refs = workloads.references()
    _emit({"ready": True})
    if args.setup_only:
        return 0

    min_passes = workloads.MIN_PASSES[args.workload]
    if args.trace:
        deadline = time.perf_counter() + args.seconds
        # an untimed first pass, so that neither side of the overhead
        # ratio pays the first pass's extra cost (a third on homology)
        warm = measure(calls, refs, 0, 1)
        plain = measure(calls, refs, (deadline - time.perf_counter()) / 2, 1)
        with Tracer() as tracer:
            traced = measure(calls, refs, deadline - time.perf_counter(), 1, tracer)
        phases = (warm, plain, traced)
        result = {
            "untraced_walls": plain["walls"],
            "walls": traced["walls"],
            "layers": traced["layers"],
            "attempted": sum(p["attempted"] for p in phases),
            "failures": [f for p in phases for f in p["failures"]],
        }
    else:
        result = measure(calls, refs, args.seconds, min_passes)
    result["calls_per_pass"] = len(calls)
    result["backend"] = BACKEND
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _emit(result)
    return 0


def measure(calls, refs, seconds, min_passes, tracer=None):
    """Whole passes until the next would overrun `seconds` (at least
    `min_passes`); returns per-pass walls, per-call latencies, failures."""
    walls, latencies, layers, failures = [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if tracer is not None:
            tracer.take()
        wall, lat, outs = run_pass(calls)
        if tracer is not None:
            layers.append(tracer.take())
        walls.append(wall)
        latencies.extend(lat)
        attempted += len(calls)
        for call, out in zip(calls, outs):
            if isinstance(out, _Raised):
                failures.append([call.key, out.text])
                continue
            problems = workloads.check(call, out, refs)
            if problems:
                failures.append([call.key, "; ".join(problems)])
        if len(walls) >= min_passes and time.perf_counter() + wall > deadline:
            break
    return {
        "walls": walls,
        "latencies": latencies,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
    }


def run_pass(calls):
    outs, lat = [], []
    clock = time.perf_counter
    start = clock()
    for call in calls:
        t0 = clock()
        try:
            out = call.run()
        except Exception:  # counted as a failed call, the pass goes on
            out = _Raised(traceback.format_exc())
        lat.append(clock() - t0)
        outs.append(out)
    return clock() - start, lat, outs


class _Raised:
    def __init__(self, text):
        self.text = text


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
