"""One benchmark process: set up a workload, print READY, run its share of the loop.

``bench/run.py`` starts the workers one after another and times each from
launch to its READY line (the set-up time). Worker ``i`` of ``n`` then runs
ops for ``--seconds`` (its share of the run), taking ops i, i + n, i + 2n,
... so that no two ops of a run share an input. It checks each output
untimed and prints one JSON line of raw measurements.

With ``--trace 1`` the share is split: half untraced, then half with every
layer wrapped (see ``tracing.py``); the difference of the two median op
times is the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _loop(wl, seconds, min_ops, first, stride, tracer):
    """Closed loop, one op after another; returns per-op times and failure counts."""
    times, failed, messages, units = [], 0, [], 0
    begin = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - begin < seconds:
        with tracer.paused():
            inp = wl.inputs(first + stride * len(times))
        start = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:  # a failing op is counted, and the loop goes on
            times.append(time.perf_counter() - start)
            failed += 1
            messages.append(traceback.format_exc(limit=3))
            continue
        times.append(time.perf_counter() - start)
        with tracer.paused():
            problems = wl.check(inp, out)
        units += wl.work_units(out)
        if problems:
            failed += 1
            messages.extend(problems[:3])
    return {"times": times, "failed": failed, "messages": messages[:20], "units": units}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC_DIR))
    start = time.perf_counter()
    import ttlnet
    import_s = time.perf_counter() - start
    if Path(ttlnet.__file__).resolve().parent != (SRC_DIR / "ttlnet").resolve():
        print(f"ttlnet imported from {ttlnet.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    if args.trace:
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed)
    wl.warmup()
    result = {
        "import_s": import_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        tracer.require(wl.setup_spans, "set-up")
        result["parse_topology_s"] = tracer.self_s("network.parse_topology")
        tracer.uninstall()
    print("READY", flush=True)

    result["input_digest"] = hashlib.sha256(
        json.dumps(wl.describe(), sort_keys=True).encode()
    ).hexdigest()
    min_ops = math.ceil(wl.min_ops / args.workers)
    if not args.trace:
        phases = [_loop(wl, args.seconds, min_ops, args.worker, args.workers, tracer)]
    else:
        half = math.ceil(min_ops / 2)
        plain = _loop(wl, args.seconds / 2, half, args.worker, args.workers, tracer)
        tracer.reset()
        tracer.install()
        first = args.worker + args.workers * len(plain["times"])
        traced = _loop(wl, args.seconds / 2, half, first, args.workers, tracer)
        tracer.uninstall()
        tracer.require(wl.required_spans, "the timed ops")
        phases = [plain, traced]
        result["tracer"] = {"stats": tracer.stats, "counters": tracer.counters}
    result["phases"] = phases
    result["state"] = wl.state()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
