"""Self-tests of the benchmark: the oracles catch wrong results, hooks fail loudly.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from ttlnet import network  # noqa: E402
from ttlnet.network import AnalysisResult  # noqa: E402


def _perturb_metric(result, node, field, factor):
    metrics = dict(result.metrics)
    value = getattr(metrics[node], field)
    metrics[node] = dataclasses.replace(metrics[node], **{field: value * factor})
    return dataclasses.replace(result, metrics=metrics)


def _reference_results(point):
    """map-large results rebuilt from the stored reference, without analyzing."""
    docs = workloads.map_large_docs(workloads.DEFAULT_SEED, point)
    ref = json.loads(workloads.REFERENCE_PATH.read_text())["points"][str(point)]
    out = {}
    for key, doc in docs.items():
        sink = doc["nodes"][-1]["id"]
        out[key] = AnalysisResult.from_dict(
            {"object": "obj", "nodes": ref[key], "origin_miss_rate": ref[key][sink]["miss_rate"]}
        )
    return (point, docs, None), out


class TestMapLargeOracle:
    def test_reference_result_passes(self):
        wl = workloads.MapLarge(workloads.DEFAULT_SEED)
        inp, out = _reference_results(1)
        assert wl.check(inp, out) == []

    @pytest.mark.parametrize(
        "key,node,field",
        [("tree", "T", "miss_rate"), ("tree", "L2", "occupancy"),
         ("line", "N6", "hit_probability"), ("line", "N3", "expected_inter_miss")],
    )
    def test_perturbed_result_fails(self, key, node, field):
        wl = workloads.MapLarge(workloads.DEFAULT_SEED)
        inp, out = _reference_results(1)
        out[key] = _perturb_metric(out[key], node, field, 1.0 + 1e-7)
        assert wl.check(inp, out)

    def test_flow_identity_catches_wrong_inflow_on_fresh_analysis(self):
        doc = workloads.sim_network_doc(3)
        result = network.analyze(network.parse_topology(doc))
        assert workloads.check_flows(doc, result) == []
        assert workloads.check_renewal_leaves(doc, result) == []
        bad = _perturb_metric(result, "M1", "input_rate", 1.0 + 1e-6)
        assert workloads.check_flows(doc, bad)


class TestSingleCacheOracle:
    @pytest.fixture(scope="class")
    def runs(self):
        wl = workloads.SingleCache(7)
        picked = {}
        for combo in [("R", "exp", "erlang"), ("R", "exp", "det"),
                      ("Sigma", "erlang", "erlang"), ("MinSigmaR", "erlang", "erlang")]:
            q = wl.inputs(0)[workloads.COMBOS.index(combo)]
            picked[combo] = (q, wl.run_query(q))
        return wl, picked

    def test_correct_results_pass(self, runs):
        wl, picked = runs
        for q, out in picked.values():
            assert wl.check_query(q, out) == []

    def test_exact_path_perturbation_fails(self, runs):
        wl, picked = runs
        q, out = picked[("R", "exp", "erlang")]
        tau = out["tau"]
        bad = dict(out, tau=tau._replace(value=tau.value * (1.0 + 1e-7)))
        assert wl.check_query(q, bad)
        assert wl.check([q], [bad])

    def test_table1_perturbation_fails(self, runs):
        wl, picked = runs
        q, out = picked[("R", "exp", "det")]
        bad = dict(out, occupancy=out["occupancy"] * (1.0 + 1e-10))
        assert wl.check_query(q, bad)

    def test_monte_carlo_value_ten_se_off_fails(self, runs):
        wl, picked = runs
        q, out = picked[("MinSigmaR", "erlang", "erlang")]
        tr = out["transform"]
        assert tr.stderr > 0
        bad = dict(out, transform=tr._replace(value=tr.value + 10 * tr.stderr))
        assert wl.check_query(q, bad)

    def test_series_value_off_by_five_percent_fails(self, runs):
        wl, picked = runs
        q, out = picked[("Sigma", "erlang", "erlang")]
        tr = out["transform"]
        bad = dict(out, transform=tr._replace(value=tr.value * 0.95))
        assert wl.check_query(q, bad)


class TestSimNetworkOracle:
    @pytest.fixture(scope="class")
    def ran(self):
        wl = workloads.SimNetwork(11)
        for k in range(3):
            cfg = wl.inputs(k)
            assert wl.check(cfg, wl.run(cfg)) == []
        return wl

    def test_pooled_estimates_agree(self, ran):
        assert ran.finish([ran.state()]) == []

    def test_wrong_analytic_value_is_flagged(self, ran):
        wrong = _perturb_metric(ran.analytic, "T2", "occupancy", 1.1)
        original, ran.analytic = ran.analytic, wrong
        try:
            assert ran.finish([ran.state()])
        finally:
            ran.analytic = original

    def test_count_identity_catches_a_lost_request(self, ran):
        est = ran.estimates[0]
        nodes = dict(est.nodes)
        nodes["T1"] = dataclasses.replace(nodes["T1"], requests=nodes["T1"].requests - 1)
        assert workloads.check_counts(ran.doc, dataclasses.replace(est, nodes=nodes))

    def test_false_alarm_probability_is_small(self):
        assert 1e-3 < workloads.SimNetwork.FALSE_ALARM_PER_RUN < 2e-3
        assert math.isclose(workloads.SimNetwork.FALSE_ALARM_PER_RUN,
                            24 * math.erfc(4 / math.sqrt(2)))


class TestTracing:
    def test_missing_name_raises(self, monkeypatch):
        monkeypatch.setattr(
            tracing, "TARGETS", tracing.TARGETS + [("ttlnet.kron", "no_such_name", "x", None)]
        )
        tracer = tracing.Tracer()
        with pytest.raises(tracing.HookError, match="no_such_name"):
            tracer.install()
        assert tracer._patches == []

    def test_silent_span_raises(self):
        tracer = tracing.Tracer()
        with pytest.raises(tracing.HookError, match="sim.simulate"):
            tracer.require(["sim.simulate"], "the timed ops")

    def test_spans_nest_and_uninstall_restores(self):
        from ttlnet import kron
        original = network.analyze
        doc = workloads.sim_network_doc(0)
        topo = network.parse_topology(doc)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert network.analyze is not original
            network.analyze(topo)
        finally:
            tracer.uninstall()
        assert network.analyze is original
        assert not hasattr(kron.steady_state, "__wrapped__")
        calls, self_s, total_s = tracer.stats["network.analyze"]
        assert calls == 1 and 0 < self_s < total_s
        assert tracer.calls("kron.steady_state") > 0
        assert tracer.counters["network.analyze.max_states"] == 864
        with tracer.paused():
            assert not tracer.active
        assert tracer.active


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-network", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
