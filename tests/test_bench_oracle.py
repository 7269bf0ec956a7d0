"""The single-cache benchmark oracle still rejects a Monte Carlo value 10 SE off.

`bench/test_bench.py` checks this on the (MinSigmaR, erlang, erlang) query,
whose transform the renewal engine now computes exactly (stderr 0), so that
test's `stderr > 0` precondition fails. Here the exact phase-type route is
switched off by setting `DEFAULT_BUDGET` to 0 in `ttlnet.renewal`, which
sends the same query to Monte Carlo, and the oracle is checked on it.
"""

import importlib.util
from pathlib import Path

import ttlnet.renewal

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_monte_carlo_value_ten_se_off_fails(monkeypatch):
    monkeypatch.setattr(ttlnet.renewal, "DEFAULT_BUDGET", 0)
    workloads = _load_workloads()
    wl = workloads.SingleCache(7)
    q = wl.inputs(0)[workloads.COMBOS.index(("MinSigmaR", "erlang", "erlang"))]
    out = wl.run_query(q)
    tr = out["transform"]
    assert tr.stderr > 0
    assert wl.check_query(q, out) == []
    bad = dict(out, transform=tr._replace(value=tr.value + 10 * tr.stderr))
    assert wl.check_query(q, bad)
