"""The single-cache benchmark oracle still rejects a Monte Carlo value 10 SE off.

`bench/test_bench.py` checks this on the (MinSigmaR, erlang, erlang) query,
whose transform the renewal engine computes exactly (stderr 0), so that
test's `stderr > 0` precondition fails. Every renewal route is exact now and
none can be switched to Monte Carlo, so here the query's exact transform is
replaced by a synthesized `MonteCarloValue` with a positive standard error:
the oracle accepts it on the exact value and rejects it 10 SE off.
"""

import importlib.util
from pathlib import Path

from ttlnet.renewal import MonteCarloValue

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_monte_carlo_value_ten_se_off_fails():
    workloads = _load_workloads()
    wl = workloads.SingleCache(7)
    q = wl.inputs(0)[workloads.COMBOS.index(("MinSigmaR", "erlang", "erlang"))]
    out = wl.run_query(q)
    exact = out["transform"]
    assert exact.stderr == 0.0
    se = 1e-3 * exact.value
    good = dict(out, transform=MonteCarloValue(exact.value, se))
    assert wl.check_query(q, good) == []
    bad = dict(out, transform=MonteCarloValue(exact.value + 10 * se, se))
    assert wl.check_query(q, bad)
