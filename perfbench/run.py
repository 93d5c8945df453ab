"""Pipeline benchmark of the invforms engine.

    python3 perfbench/run.py --workload corpus [--seed 0] [--seconds 40] [--trace 0|1]
    python3 perfbench/run.py --compare OLD.json NEW.json

Each run starts fresh worker processes from the source tree in `src/`.
Several start only to time set-up (interpreter start, engine import,
loading and validating the workload's specs); one then measures the
workload.  The run prints the environment stamp, every metric with its
unit and sample count, and as its last line one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
It exits 1 when any call raised or gave a wrong output.

--out FILE also writes the result with its stamp; --compare prints two
such results side by side, and refuses when their backend or Python
version differ.  See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 20
RUN_LIMIT_S = 170  # every run ends within this, passes included


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "invforms" / "report.py").is_file():
        print(f"engine source not found under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    setup = [_start_worker(args, setup_only=True)[1] for _ in range(SETUP_SAMPLES)]
    result, ready_s = _start_worker(args, setup_only=False, started=started)
    if result is None or None in setup:
        return 1
    setup.append(ready_s)

    stamp = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "backend": result["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
    }
    if args.trace:
        metrics = _layer_metrics(result)
    else:
        metrics = _end_to_end_metrics(result, setup)
    attempted, failed = result["attempted"], len(result["failures"])

    print(f"# perfbench workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(stamp, sort_keys=True))
    for name, m in metrics.items():
        detail = f"  ({m['detail']})" if "detail" in m else ""
        print(f"{args.workload:9} {name:36} {m['value']:14.6g} {m['unit']:6} n={m['samples']}{detail}")
    print(f"{args.workload:9} {'fail_ratio':36} {failed / attempted:14.6g} {'ratio':6} n={attempted}")
    for (key, why), times in Counter(map(tuple, result["failures"])).items():
        print(f"FAIL {key} ({times}x): {why}", file=sys.stderr)

    if args.out:
        doc = {
            "stamp": stamp,
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _start_worker(args, setup_only, started=None):
    """Start a worker and wait for it to end.

    Returns (its result, seconds until it was ready); (None, None) when
    it failed or ran out of time.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if not ready:
            proc.wait(timeout=10)
            print(f"worker exited with code {proc.returncode} before it was ready", file=sys.stderr)
            return None, None
        remaining = RUN_LIMIT_S - (time.perf_counter() - (started or t0))
        out, _ = proc.communicate(timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        print("worker ran out of time", file=sys.stderr)
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return None, None
    return (json.loads(out) if out.strip() else None), ready_s


def _metric(value, unit, samples, detail=None):
    m = {"value": value, "unit": unit, "samples": samples}
    if detail:
        m["detail"] = detail
    return m


def _end_to_end_metrics(result, setup):
    walls, lat, k = result["walls"], result["latencies"], result["calls_per_pass"]
    # The host's speed drifts by up to half over seconds to minutes, and
    # only ever slows a call down.  So each time is the fastest of its
    # repeats, as with timeit: that is what repeats from run to run.
    # Medians of all samples moved with the drift by more than the bounds.
    best = sorted(min(lat[j::k]) for j in range(k))
    tail = statistics.quantiles(best, n=10, method="inclusive")[-1] if k > 1 else best[0]
    return {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "wall_s": _metric(min(walls), "s", len(walls), "fastest pass"),
        "call_ms_p50": _metric(statistics.median(best) * 1000, "ms", len(lat),
                               "median over calls of each call's fastest time"),
        "call_ms_tail": _metric(tail * 1000, "ms", len(lat),
                                "p90 over calls of each call's fastest time"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB", 1),
    }


def _layer_metrics(result):
    passes = result["layers"]
    metrics = {}
    for name, unit, get in LAYER_METRICS:
        values = [get(layer) for layer in passes]
        value = statistics.median(values) if unit == "s" else statistics.median_low(values)
        metrics[name] = _metric(value, unit, len(values))
    overhead = statistics.median(result["walls"]) / statistics.median(result["untraced_walls"]) - 1
    metrics["trace.overhead_frac"] = _metric(
        overhead, "ratio", len(result["walls"]) + len(result["untraced_walls"]),
        "median traced pass / median untraced pass - 1",
    )
    return metrics


def _git_commit():
    if not (ROOT / ".git").exists():  # a plain source tree
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def compare(old_path, new_path):
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (old_path, new_path))
    for key in ("backend", "python"):
        if old["stamp"][key] != new["stamp"][key]:
            print(
                f"refusing to compare: {key} {old['stamp'][key]} vs {new['stamp'][key]}",
                file=sys.stderr,
            )
            return 2
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"# {old['workload']}: {old['stamp']['commit']} -> {new['stamp']['commit']}")
    for name, m in new["metrics"].items():
        before = old["metrics"].get(name)
        if before is None:
            continue
        change = f"{m['value'] / before['value'] - 1:+.1%}" if before["value"] else "n/a"
        print(f"{name:36} {before['value']:14.6g} {m['value']:14.6g} {m['unit']:6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
