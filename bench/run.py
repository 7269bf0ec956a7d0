"""ttlnet benchmark entry point.

    python3 bench/run.py --workload {map-large,single-cache,sim-network} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/ttlnet``. The run starts
WORKERS worker processes one after another. Each is timed from launch to its
READY line (interpreter start, ``import ttlnet``, input generation,
``parse_topology`` and one untimed warm-up op): ``setup_s`` is the median of
these set-ups. Each worker then runs 1/WORKERS of the ``--seconds`` closed
loop, so the op samples spread over the whole run rather than one stretch
of it. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the details (environment, samples, error ratio, exact
counts, failure messages).
"""

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("map-large", "single-cache", "sim-network")
WORKERS = 3
# Every worker must have ended this long after the start.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _run_worker(cmd, env, deadline):
    """Run one worker; return (seconds from launch to READY, its result object)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    fd = proc.stdout.fileno()
    buf = b""
    ready_at = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError("worker exceeded the deadline")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            if ready_at is None and b"READY\n" in buf:
                ready_at = time.perf_counter()
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_at is None:
        raise WorkerError(f"worker exited with code {code}")
    return ready_at - start, json.loads(buf.decode().splitlines()[-1])


def _src_lines():
    return {
        path.name: len(path.read_text().splitlines())
        for path in sorted((ROOT / "src" / "ttlnet").glob("*.py"))
    }


def _run_failures(workload, seed, states):
    """Run-level oracle over the states every worker handed back."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed).finish(states)


def _layers(results, workload):
    """Per-layer metrics: traced spans and counters summed over workers, per op."""
    from tracing import SPANS

    stats, counters = {}, {}
    for res in results:
        for span, (calls, self_s, _) in res["tracer"]["stats"].items():
            entry = stats.setdefault(span, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, value in res["tracer"]["counters"].items():
            if name.endswith(("max_dim", "max_states")):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    plain = [t for res in results for t in res["phases"][0]["times"]]
    traced = [t for res in results for t in res["phases"][1]["times"]]
    ops = len(traced)
    out = {
        "setup.import_s": statistics.median(res["import_s"] for res in results),
        "network.parse_topology.self_s":
            statistics.median(res["parse_topology_s"] for res in results),
    }
    for span in SPANS:
        if span == "network.parse_topology":
            continue  # parsed during set-up, reported above
        name = "processes.MapSampler.init_s" if span == "processes.MapSampler.init" \
            else f"{span}.self_s"
        out[name] = stats.get(span, [0, 0.0])[1] / ops
    for span in ("kron.steady_state", "processes.validate_map", "cache_ops.output"):
        out[f"{span}.calls"] = stats.get(span, [0, 0.0])[0] / ops
    for name in ("kron.steady_state.nnz", "cache_ops.output.states", "cache_ops.output.nnz",
                 "renewal.mc_results", "sim.node_visits"):
        out[name] = counters.get(name, 0) / ops
    for name in ("kron.steady_state.max_dim", "network.analyze.max_states"):
        out[name] = counters.get(name, 0)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    units = sum(res["phases"][0]["units"] for res in results)
    out["sim.events_per_s"] = (
        units / len(plain) / statistics.median(plain) if workload == "sim-network" else 0.0
    )
    return out, statistics.median(plain), statistics.median(traced)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ttlnet" / "__init__.py").is_file():
        print(f"no ttlnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through _run_worker's cleanup so no worker outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    load_at_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(nproc) for var in THREAD_VARS})
    deadline = time.monotonic() + DEADLINE_S
    setup, results = [], []
    try:
        for worker in range(WORKERS):
            cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds / WORKERS), "--trace", str(args.trace),
                   "--worker", str(worker), "--workers", str(WORKERS)]
            seconds, res = _run_worker(cmd, env, deadline)
            setup.append(seconds)
            results.append(res)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    phases = [phase for res in results for phase in res["phases"]]
    attempted = sum(len(phase["times"]) for phase in phases)
    run_failures = _run_failures(args.workload, args.seed, [res["state"] for res in results])
    failed = attempted if run_failures else sum(phase["failed"] for phase in phases)
    timed = [t for res in results for t in res["phases"][0]["times"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": nproc,
            "loadavg_at_start": load_at_start,
            "python": platform.python_version(),
            "numpy": results[0]["versions"]["numpy"],
            "scipy": results[0]["versions"]["scipy"],
            "thread_caps": {var: env[var] for var in THREAD_VARS},
            "input_digest": results[0]["input_digest"],
        },
        "setup_samples_s": setup,
        "import_s": [res["import_s"] for res in results],
        "op_samples": len(timed),
        "op_p90_s": statistics.quantiles(timed, n=10, method="inclusive")[-1],
        "error_ratio": failed / attempted,
        "work_units_per_op": sum(res["phases"][0]["units"] for res in results) / len(timed),
        "peak_rss_mb": [res["peak_rss_mb"] for res in results],
        "src_lines": _src_lines(),
        "failures": [m for phase in phases for m in phase["messages"]][:20] + run_failures[:20],
    }
    if args.trace:
        values, detail["untraced_op_p50_s"], detail["traced_op_p50_s"] = \
            _layers(results, args.workload)
        values["src.lines"] = sum(detail["src_lines"].values())
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(timed),
            "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
