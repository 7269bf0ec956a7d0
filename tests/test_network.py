"""Topology parsing, dimension accounting, and feedforward analysis."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import ttlnet
from topologies import erlang_tree, mmpp_line
from ttlnet import (
    BudgetExceededError,
    TopologyError,
    analyze,
    fundamental_rate,
    parse_topology,
    state_space_size,
    superpose,
)
from ttlnet.network import Approximation

LINE2 = {
    "nodes": [
        {"id": "C1", "policy": "Sigma", "ttl": {"exp": 1.0}},
        {"id": "C2", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["C1"]},
    ],
    "arrivals": {"C1": {"poisson": 1.0}},
}

TREE3 = {
    "nodes": [
        {"id": "C1", "policy": "Sigma", "ttl": {"exp": 1.0}},
        {"id": "C2", "policy": "Sigma", "ttl": {"exp": 1.0}},
        {"id": "C3", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["C1", "C2"]},
    ],
    "arrivals": {"C1": {"poisson": 1.0}, "C2": {"poisson": 1.0}},
}

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# analyze's metrics for each document, computed by the assembled analysis
# (every output MAP and superposition built, the given-input system sorted
# from Q''s triplets) before sinks were solved on their Kronecker factors
REFERENCE = json.loads(
    (FIXTURES / "analyze_reference.json").read_text()
)


class TestParsing:
    def test_line_document(self):
        topo = parse_topology(json.dumps(LINE2))
        assert topo.node_order == ["C1", "C2"]
        assert topo.leaves == ["C1"]
        assert topo.sinks == ["C2"]
        assert len(topo.objects) == 1

    def test_tree_document(self):
        topo = parse_topology(TREE3)
        assert topo.leaves == ["C1", "C2"]
        assert topo.parents_of("C1") == ["C3"]

    @staticmethod
    def _zero_weight_doc(extra_nodes=(), arrivals=None):
        """Leaf A splits [1, 0] into B and C, so C gets no requests from A."""
        return {
            "nodes": [
                {"id": "A", "policy": "R", "ttl": {"exp": 1.0}, "split": [1.0, 0.0]},
                {"id": "B", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["A"]},
                *extra_nodes,
            ],
            "arrivals": {"A": {"poisson": 1.0}, **(arrivals or {})},
        }

    def test_node_without_requests_refused(self):
        doc = self._zero_weight_doc([
            {"id": "C", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["A"]},
        ])
        with pytest.raises(TopologyError, match=r"^\$\.nodes\[2\]: node 'C' receives no requests"):
            parse_topology(doc)

    def test_no_requests_propagate_up(self):
        # D's only child is C, which gets nothing from A: C is named first
        doc = self._zero_weight_doc([
            {"id": "D", "policy": "R", "ttl": {"exp": 2.0}, "children": ["C"]},
            {"id": "C", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["A"]},
        ])
        with pytest.raises(TopologyError, match=r"^\$\.nodes\[3\]: node 'C'"):
            parse_topology(doc)

    def test_join_with_a_requested_child_is_valid(self):
        doc = self._zero_weight_doc(
            [
                {"id": "E", "policy": "R", "ttl": {"exp": 1.0}},
                {"id": "C", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["A", "E"]},
            ],
            arrivals={"E": {"poisson": 2.0}},
        )
        result = analyze(parse_topology(doc))
        # C's input is E's miss stream alone
        assert result.metrics["C"].input_rate == pytest.approx(result.metrics["E"].miss_rate)

    def test_split_not_stochastic(self):
        doc = {
            "nodes": [
                {"id": "a", "policy": "R", "ttl": {"exp": 1.0}, "split": [0.5, 0.6]},
                {"id": "b", "policy": "R", "ttl": {"exp": 1.0}, "children": ["a"]},
                {"id": "c", "policy": "R", "ttl": {"exp": 1.0}, "children": ["a"]},
            ],
            "arrivals": {"a": {"poisson": 1.0}},
        }
        with pytest.raises(TopologyError, match="split not stochastic"):
            parse_topology(doc)

    def test_cycle_detected(self):
        doc = {
            "nodes": [
                {"id": "a", "policy": "R", "ttl": {"exp": 1.0}, "children": ["b"]},
                {"id": "b", "policy": "R", "ttl": {"exp": 1.0}, "children": ["a"]},
            ],
            "arrivals": {},
        }
        with pytest.raises(TopologyError, match="cyclic"):
            parse_topology(doc)

    def test_dangling_child(self):
        doc = {
            "nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 1.0}, "children": ["zz"]}],
            "arrivals": {},
        }
        with pytest.raises(TopologyError, match="dangling"):
            parse_topology(doc)

    def test_schema_violation_is_path_qualified(self):
        doc = {"nodes": [{"id": "a", "policy": "LRU", "ttl": {"exp": 1.0}}], "arrivals": {}}
        with pytest.raises(TopologyError, match=r"\$\.nodes\[0\]"):
            parse_topology(doc)

    def test_parse_and_analyze_skip_jsonschema(self):
        # a fresh interpreter: this one has loaded jsonschema for other tests
        src = str(Path(ttlnet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, ttlnet; from pathlib import Path; "
            "ttlnet.analyze(ttlnet.parse_topology(Path(sys.argv[1]).read_text())); "
            "print('jsonschema' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(CONFIGS / "tree3.json")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_min_policy_requires_second_ttl(self):
        doc = {
            "nodes": [{"id": "a", "policy": "MinSigmaR", "ttl": {"exp": 1.0}}],
            "arrivals": {"a": {"poisson": 1.0}},
        }
        with pytest.raises(TopologyError, match="ttl_r"):
            parse_topology(doc)

    def test_missing_arrivals_for_leaf(self):
        doc = {
            "nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 1.0}}],
            "arrivals": {},
        }
        with pytest.raises(TopologyError, match="no arrival process"):
            parse_topology(doc)

    def test_multi_parent_requires_split(self):
        doc = {
            "nodes": [
                {"id": "a", "policy": "R", "ttl": {"exp": 1.0}},
                {"id": "p1", "policy": "R", "ttl": {"exp": 1.0}, "children": ["a"]},
                {"id": "p2", "policy": "R", "ttl": {"exp": 1.0}, "children": ["a"]},
            ],
            "arrivals": {"a": {"poisson": 1.0}},
        }
        with pytest.raises(TopologyError, match="split"):
            parse_topology(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(
                {"nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 1.0}}],
                 "arrivals": {"a": {"map": {"d0": [[-1.0]], "d1": [[2.0]]}}}},
                "$.arrivals.a: invalid MAP: row 0 of d0+d1 sums to 1, not 0",
                id="invalid-leaf-map",
            ),
            pytest.param(
                {**LINE2, "objects": [{"id": "cold", "arrivals": {
                    "C1": {"mmpp": {"q": [[-1.0, 1.0], [1.0, -1.0]], "rates": [0.0, 0.0]}}}}]},
                "object 'cold', leaf 'C1': invalid MAP: d0 is singular",
                id="invalid-override-map",
            ),
            pytest.param(
                {**LINE2, "arrivals": {"C1": {"poisson": 1.0}, "C2": {"poisson": 1.0}}},
                "$.arrivals.C2: 'C2' is not a leaf (non-leaf input is determined by its children)",
                id="arrival-on-non-leaf",
            ),
            pytest.param(
                {**LINE2, "objects": [{"id": "cold", "arrivals": {"C2": {"poisson": 1.0}}}]},
                "object 'cold' overrides non-leaf 'C2'",
                id="override-of-non-leaf",
            ),
            pytest.param(
                {"nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 1.0}},
                           {"id": "a", "policy": "R", "ttl": {"exp": 2.0}}],
                 "arrivals": {"a": {"poisson": 1.0}}},
                "$.nodes[1].id: duplicate node id 'a'",
                id="duplicate-node-id",
            ),
            pytest.param(
                {**LINE2, "objects": ["x", {"id": "x"}]},
                "$.objects[1]: duplicate object id 'x'",
                id="duplicate-object-id",
            ),
            pytest.param(
                {"nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 1.0}},
                           {"id": "b", "policy": "R", "ttl": {"exp": 1.0},
                            "children": ["a", "a"]}],
                 "arrivals": {"a": {"poisson": 1.0}}},
                "$.nodes[1].children: repeated child id",
                id="repeated-child",
            ),
            pytest.param(
                {"nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 1.0}, "split": [0.5, 0.5]},
                           {"id": "b", "policy": "R", "ttl": {"exp": 1.0}, "children": ["a"]}],
                 "arrivals": {"a": {"poisson": 1.0}}},
                "$.nodes[0].split: length 2 does not match out-degree 1",
                id="split-length",
            ),
            pytest.param(
                {"nodes": [{"id": "a", "policy": "Sigma", "ttl": {"exp": 1.0},
                            "ttl_r": {"exp": 1.0}}],
                 "arrivals": {"a": {"poisson": 1.0}}},
                "$.nodes[0].ttl_r: only MinSigmaR nodes take a second TTL",
                id="ttl-r-on-non-min",
            ),
        ],
    )
    def test_rejection_message(self, doc, message):
        with pytest.raises(TopologyError) as info:
            parse_topology(doc)
        assert str(info.value) == message

    def test_invalid_ph_ttl_rejected_at_parse(self):
        doc = {
            "nodes": [
                {"id": "a", "policy": "R", "ttl": {"exp": 1.0}},
                {"id": "b", "policy": "Sigma", "ttl": {"ph": {"s": [[1.0]], "pi": [1.0]}},
                 "children": ["a"]},
            ],
            "arrivals": {"a": {"poisson": 1.0}},
        }
        with pytest.raises(TopologyError) as info:
            parse_topology(doc)
        assert str(info.value) == "$.nodes[1].ttl: subintensity diagonal must be strictly negative"

    def test_objects_with_overrides(self):
        doc = dict(LINE2)
        doc["objects"] = ["hot", {"id": "cold", "arrivals": {"C1": {"poisson": 0.1}}}]
        topo = parse_topology(doc)
        assert [o.id for o in topo.objects] == ["hot", "cold"]
        assert topo.arrival_for(topo.objects[1], "C1").d1.to_dense()[0, 0] == 0.1
        assert topo.arrival_for(topo.objects[0], "C1").d1.to_dense()[0, 0] == 1.0


class TestDimensions:
    def test_single_node(self):
        doc = {
            "nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 2.0}}],
            "arrivals": {"a": {"poisson": 1.0}},
        }
        dims = state_space_size(parse_topology(doc))
        assert dims == {"a": {"input": 1, "output": 2}}

    def test_height_two_tree_root_is_eight(self):
        dims = state_space_size(parse_topology(TREE3))
        assert dims["C3"] == {"input": 4, "output": 8}

    def test_height_three_binary_tree(self):
        nodes = [
            {"id": f"l{i}", "policy": "Sigma", "ttl": {"exp": 1.0}} for i in range(4)
        ]
        nodes += [
            {"id": "m0", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["l0", "l1"]},
            {"id": "m1", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["l2", "l3"]},
            {"id": "root", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["m0", "m1"]},
        ]
        doc = {
            "nodes": nodes,
            "arrivals": {f"l{i}": {"poisson": 1.0} for i in range(4)},
        }
        dims = state_space_size(parse_topology(doc))
        assert dims["l0"] == {"input": 1, "output": 2}
        assert dims["m0"] == {"input": 4, "output": 8}
        assert dims["root"] == {"input": 64, "output": 128}

    def test_min_policy_dimension(self):
        doc = {
            "nodes": [
                {
                    "id": "a",
                    "policy": "MinSigmaR",
                    "ttl": {"erlang": {"stages": 2, "rate": 1.0}},
                    "ttl_r": {"erlang": {"stages": 3, "rate": 1.0}},
                }
            ],
            "arrivals": {"a": {"mmpp": {"q": [[-1.0, 1.0], [1.0, -1.0]], "rates": [1.0, 2.0]}}},
        }
        dims = state_space_size(parse_topology(doc))
        assert dims["a"] == {"input": 2, "output": 2 * (6 + 1)}


class TestAnalyze:
    def test_line_metrics(self):
        res = analyze(parse_topology(LINE2))
        assert_allclose(res.metrics["C1"].hit_probability, 0.5, rtol=1e-12)
        assert res.dimensions["C2"] == {"input": 2, "output": 4}
        # the second cache sees the hypoexponential miss stream, not Poisson
        assert res.metrics["C2"].miss_rate < res.metrics["C1"].miss_rate
        assert_allclose(res.origin_miss_rate, res.metrics["C2"].miss_rate, rtol=0)

    def test_tree_root_dimensions_and_rates(self):
        res = analyze(parse_topology(TREE3))
        assert res.dimensions["C3"]["output"] == 8
        assert_allclose(
            res.metrics["C3"].input_rate,
            res.metrics["C1"].miss_rate + res.metrics["C2"].miss_rate,
            rtol=1e-9,
        )

    def test_budget_refusal_names_offender(self):
        with pytest.raises(BudgetExceededError) as err:
            analyze(parse_topology(TREE3), budget=4)
        assert err.value.node_id == "C3"
        assert err.value.dimension == 8

    def test_analyzed_dimensions_match_prediction(self):
        topo = parse_topology(TREE3)
        res = analyze(topo)
        assert res.dimensions == state_space_size(topo)

    def test_monotone_miss_rate_along_line(self):
        doc = {
            "nodes": [
                {"id": "c1", "policy": "R", "ttl": {"exp": 0.7}},
                {"id": "c2", "policy": "Sigma", "ttl": {"erlang": {"stages": 2, "rate": 2.0}}, "children": ["c1"]},
                {"id": "c3", "policy": "MinSigmaR", "ttl": {"exp": 1.0}, "ttl_r": {"exp": 2.0}, "children": ["c2"]},
            ],
            "arrivals": {"c1": {"poisson": 1.3}},
        }
        res = analyze(parse_topology(doc))
        rates = [res.metrics[n].miss_rate for n in ("c1", "c2", "c3")]
        assert rates[0] >= rates[1] >= rates[2]

    def test_split_conserves_rates(self):
        doc = {
            "nodes": [
                {"id": "leaf", "policy": "Sigma", "ttl": {"exp": 1.0}, "split": [0.3, 0.7]},
                {"id": "p1", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["leaf"]},
                {"id": "p2", "policy": "Sigma", "ttl": {"exp": 2.0}, "children": ["leaf"]},
            ],
            "arrivals": {"leaf": {"poisson": 2.0}},
        }
        res = analyze(parse_topology(doc))
        assert_allclose(
            res.metrics["p1"].input_rate + res.metrics["p2"].input_rate,
            res.metrics["leaf"].miss_rate,
            rtol=1e-9,
        )
        assert_allclose(res.metrics["p1"].input_rate / res.metrics["p2"].input_rate,
                        0.3 / 0.7, rtol=1e-9)

    def test_deterministic_ttl_goes_through_erlang_surrogate(self):
        doc = {
            "nodes": [{"id": "a", "policy": "Sigma", "ttl": {"det": 1.0}}],
            "arrivals": {"a": {"poisson": 1.0}},
        }
        topo = parse_topology(doc)
        dims = state_space_size(topo)
        assert dims["a"]["output"] == 21  # 20-stage surrogate plus the absorbing layer
        res = analyze(topo)
        # exact value is 0.5; the surrogate is close but not exact
        assert abs(res.metrics["a"].hit_probability - 0.5) < 0.02

    def test_result_round_trips_through_json(self):
        from ttlnet import AnalysisResult

        res = analyze(parse_topology(TREE3))
        payload = json.loads(json.dumps(res.to_dict()))
        back = AnalysisResult.from_dict(payload)
        assert back.object_id == res.object_id
        assert back.metrics == res.metrics
        assert back.dimensions == res.dimensions


def _forbid_lu(monkeypatch):
    def no_lu(*args, **kwargs):
        raise AssertionError("sparse LU called")

    monkeypatch.setattr(spla, "splu", no_lu)


class TestSolverPaths:
    """analyze runs no sparse LU, and the LU fallback gives the same numbers."""

    @pytest.mark.parametrize(
        "doc",
        [pytest.param(None, id="tree3"), pytest.param(erlang_tree(5), id="erlang5-tree")],
    )
    def test_analyze_without_lu(self, monkeypatch, doc):
        _forbid_lu(monkeypatch)  # parse_topology validates the leaf MAPs too
        res = analyze(parse_topology(doc or (CONFIGS / "tree3.json").read_text()))
        if doc is not None:
            assert res.dimensions["T"]["output"] == 10368

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(None, id="tree3"),
            pytest.param(erlang_tree(3), id="erlang3-tree"),
            pytest.param(erlang_tree(3, ttl_speed=30.0), id="erlang3-fast-ttl-tree"),
        ],
    )
    def test_lu_fallback_agrees(self, monkeypatch, doc):
        topo = parse_topology(doc or (CONFIGS / "tree3.json").read_text())
        with monkeypatch.context() as patch:
            _forbid_lu(patch)
            krylov = analyze(topo)
        factorizations = []
        real = ttlnet.kron._lu_solve

        def spy(q):
            factorizations.append(q.rows)
            return real(q)

        # every node takes the LU route (dense up to kron._DENSE_MAX states,
        # sparse above): small nodes and large ones too
        monkeypatch.setattr(ttlnet.kron, "_gth", lambda q: None)
        monkeypatch.setattr(ttlnet.kron, "_given_input_solve", lambda *args: None)
        monkeypatch.setattr(ttlnet.kron, "_lu_solve", spy)
        lu = analyze(topo)
        assert len(factorizations) == len(topo.nodes)
        for nid, metrics in krylov.metrics.items():
            want = lu.metrics[nid].to_dict()
            for name, value in metrics.to_dict().items():
                assert_allclose(value, want[name], rtol=1e-9, err_msg=f"{nid}.{name}")


class TestGivenInputSolve:
    """Output chains above the GTH bound are solved from their input vectors."""

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(erlang_tree(5), id="erlang5-tree"),
            pytest.param(erlang_tree(4), id="map-large-tree"),
            pytest.param(mmpp_line(), id="map-large-line"),
        ],
    )
    def test_no_bordered_solve(self, monkeypatch, doc):
        def refuse(*args):
            raise AssertionError("sparse LU called")

        monkeypatch.setattr(ttlnet.kron, "_lu_solve", refuse)
        res = analyze(parse_topology(doc))
        assert max(d["output"] for d in res.dimensions.values()) > ttlnet.kron._GTH_MAX

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(LINE2, id="line2"),
            pytest.param(TREE3, id="tree3"),
            pytest.param(erlang_tree(3), id="erlang3-tree"),
            pytest.param(erlang_tree(4), id="map-large-tree"),
            pytest.param(mmpp_line(), id="map-large-line"),
        ],
    )
    def test_agrees_with_bordered_solve(self, monkeypatch, doc):
        topo = parse_topology(doc)
        given = analyze(topo)
        monkeypatch.setattr(ttlnet.kron, "_given_input_solve", lambda *args: None)
        bordered = analyze(topo)
        for nid, metrics in given.metrics.items():
            want = bordered.metrics[nid].to_dict()
            for name, value in metrics.to_dict().items():
                assert_allclose(value, want[name], rtol=1e-12, err_msg=f"{nid}.{name}")

    def test_rare_hits_keep_relative_accuracy(self, monkeypatch):
        # Slow leaf TTLs make the M1 and M2 hits rare (3.5e-5 and 1.6e-5). The
        # reference is the hit flow of each output chain's GTH vector, which is
        # accurate entry by entry; 1 - miss is 4e-12 and 1.1e-11 off it.
        res, chains = _analyze_recording_maps(monkeypatch, erlang_tree(6, ttl_speed=0.01))
        for nid in ("M1", "M2"):
            got = res.metrics[nid]
            parts, out = chains[nid]
            rates = ttlnet.kron.kron_sum_vector([m.d1.row_sums() for m in parts])
            p = ttlnet.kron._gth(out.map.generator.to_dense()).reshape(-1, rates.size)
            want = p[1:].sum(axis=0) @ rates / (p.sum(axis=0) @ rates)
            assert want < 1e-4
            assert_allclose(got.hit_probability, want, rtol=1e-12, err_msg=nid)

    def test_without_input_vector(self, monkeypatch):
        # metrics_from_maps finds the input vector of the 98-state M1 and M2
        # chains itself, and solves them from it as analyze does
        res, chains = _analyze_recording_maps(monkeypatch, erlang_tree(6, ttl_speed=0.01))
        solved = []
        real = ttlnet.kron._given_input_solve

        def spy(*args):
            solved.append(real(*args))
            return solved[-1]

        def refuse(*args):
            raise AssertionError("sparse LU called")

        monkeypatch.setattr(ttlnet.kron, "_given_input_solve", spy)
        monkeypatch.setattr(ttlnet.kron, "_lu_solve", refuse)
        for nid in ("M1", "M2"):
            parts, out = chains[nid]
            assert out.order == 98 > ttlnet.kron._GTH_MAX
            solved.clear()
            got = ttlnet.metrics_from_maps(parts, out)
            assert len(solved) == 1 and solved[0] is not None
            want = res.metrics[nid].to_dict()
            for name, value in got.to_dict().items():
                assert_allclose(value, want[name], rtol=1e-12, err_msg=f"{nid}.{name}")

    def test_k12_tree_without_lu(self, monkeypatch):
        _forbid_lu(monkeypatch)
        res = analyze(parse_topology(erlang_tree(12)), budget=250_000)
        assert res.dimensions["T"]["output"] == 228_488


def _analyze_recording_maps(monkeypatch, doc) -> tuple:
    """analyze's result and, by node, the (inputs, cache output) that it
    passed to metrics_from_maps: a tuple of a node's independent input
    MAPs, and its chain."""
    calls = []
    real = ttlnet.network.metrics_from_maps

    def spy(input_map, out, p_in=None):
        calls.append((input_map, out))
        return real(input_map, out, p_in)

    with monkeypatch.context() as patch:
        patch.setattr(ttlnet.network, "metrics_from_maps", spy)
        topo = parse_topology(doc)
        res = analyze(topo)
    return res, dict(zip(topo.topological_order(), calls))


class TestFactoredSinks:
    """Each chain is solved on its Kronecker factors, no join assembles its
    input superposition, and a sink assembles nothing: not its output MAP
    either."""

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_values_match_assembled_analysis(self, name):
        case = REFERENCE[name]
        res = analyze(parse_topology(case["document"]))
        for nid, values in case["nodes"].items():
            got = res.metrics[nid].to_dict()
            for metric, value in values.items():
                assert_allclose(got[metric], value, rtol=1e-12, err_msg=f"{nid}.{metric}")
        assert_allclose(res.origin_miss_rate, case["origin_miss_rate"], rtol=1e-12)

    def test_every_config_has_reference_values(self):
        documents = [case["document"] for case in REFERENCE.values()]
        for path in sorted(CONFIGS.glob("*.json")):
            assert json.loads(path.read_text()) in documents, path.name

    @pytest.mark.parametrize("name", ["tree", "sim-network"])
    def test_joins_call_no_superpose(self, monkeypatch, name):
        calls = []
        real = ttlnet.processes.superpose
        monkeypatch.setattr(ttlnet.processes, "superpose", lambda maps: calls.append(1) or real(maps))
        topo = parse_topology(erlang_tree(4) if name == "tree" else _sim_network_doc())
        assert any(topo.parents_of(nid) and len(node.children) > 1
                   for nid, node in topo.nodes.items())
        analyze(topo)
        assert calls == []

    def test_sink_join_assembles_nothing_of_its_size(self, monkeypatch):
        rows = []
        init = ttlnet.RateMatrix.__init__

        def spy(self, *args, **kwargs):
            rows.append(args[0] if args else kwargs["rows"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(ttlnet.RateMatrix, "__init__", spy)
        res = analyze(parse_topology(erlang_tree(5)))
        assert res.dimensions["T"] == {"input": 5184, "output": 10368}
        assert rows and max(rows) < 5184


class TestSplitMergeRoundTrip:
    def test_round_trip_preserves_rate(self, rng):
        from conftest import random_map
        from ttlnet import ProbabilityVector, split

        for _ in range(10):
            m = random_map(rng, 3)
            p = ProbabilityVector(rng.dirichlet(np.ones(3) * 2.0))
            merged = superpose(split(m, p))
            assert_allclose(fundamental_rate(merged), fundamental_rate(m), rtol=1e-9)


# ROADMAP Baseline: src feeds a and b through a split, and both feed top
RECONVERGENT = {
    "nodes": [
        {"id": "src", "policy": "R", "ttl": {"erlang": {"stages": 4, "rate": 4.0}},
         "split": [0.5, 0.5]},
        {"id": "a", "policy": "Sigma", "ttl": {"erlang": {"stages": 2, "rate": 6.0}},
         "children": ["src"]},
        {"id": "b", "policy": "Sigma", "ttl": {"exp": 5.0}, "children": ["src"]},
        {"id": "top", "policy": "Sigma", "ttl": {"erlang": {"stages": 3, "rate": 1.0}},
         "children": ["a", "b"]},
    ],
    "arrivals": {"src": {"poisson": 3.0}},
}


def _sim_network_doc():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sim_network_doc(0)


def _reconvergent(topo):
    return [(a.node, a.reaches) for a in topo.approximations if a.reason == "reconvergent"]


class TestReconvergentJoins:
    def test_baseline_topology_flagged(self):
        assert parse_topology(RECONVERGENT).approximations == (
            Approximation("top", "reconvergent", ("top",)),
        )

    def test_nodes_above_the_join_named(self):
        # the streams meet two levels above the split, and root sits above the join
        doc = json.loads(json.dumps(RECONVERGENT))
        doc["nodes"][1]["children"] = ["a2"]
        doc["nodes"][3]["children"] = ["a", "b", "leaf"]
        doc["nodes"] += [
            {"id": "a2", "policy": "R", "ttl": {"exp": 2.0}, "children": ["src"]},
            {"id": "leaf", "policy": "R", "ttl": {"exp": 2.0}, "split": [0.5, 0.5]},
            {"id": "root", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["top"]},
            {"id": "side", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["leaf"]},
        ]
        doc["arrivals"]["leaf"] = {"poisson": 1.0}
        assert _reconvergent(parse_topology(doc)) == [("top", ("top", "root"))]

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_configs_not_flagged(self, name):
        # no config approximates: no reconvergent join and no det TTL
        assert parse_topology((CONFIGS / name).read_text()).approximations == ()

    def test_split_topologies_not_flagged(self):
        # a split whose parents never meet again, and the sim-network workload
        diamond = {
            "nodes": [
                {"id": "src", "policy": "Sigma", "ttl": {"exp": 1.0}, "split": [0.3, 0.7]},
                {"id": "p1", "policy": "R", "ttl": {"exp": 1.0}, "children": ["src"]},
                {"id": "p2", "policy": "Sigma", "ttl": {"exp": 2.0}, "children": ["src"]},
            ],
            "arrivals": {"src": {"poisson": 2.0}},
        }
        assert _reconvergent(parse_topology(diamond)) == []
        assert _reconvergent(parse_topology(_sim_network_doc())) == []


class TestApproximations:
    def test_det_line(self):
        from test_cli import TestDeterministicTtlWarning

        topo = parse_topology(TestDeterministicTtlWarning.LINE)
        assert topo.approximations == (
            Approximation("a", "det_ttl_erlang_k", ("a", "b"), (("ttl", 20),)),
        )

    def test_min_node_names_both_det_ttls(self):
        doc = {
            "nodes": [
                {"id": "a", "policy": "R", "ttl": {"exp": 1.0}},
                {"id": "m", "policy": "MinSigmaR", "ttl": {"det": {"value": 2.0, "stages": 5}},
                 "ttl_r": {"det": 0.5}, "children": ["a"]},
            ],
            "arrivals": {"a": {"poisson": 3.0}},
        }
        assert parse_topology(doc).approximations == (
            Approximation("m", "det_ttl_erlang_k", ("m",), (("ttl", 5), ("ttl_r", 20))),
        )

    def test_det_node_below_a_reconvergent_join(self):
        # the det split node reaches both branches, the join and everything above it
        doc = json.loads(json.dumps(RECONVERGENT))
        doc["nodes"][0]["ttl"] = {"det": {"value": 0.5, "stages": 3}}
        doc["nodes"].append(
            {"id": "root", "policy": "R", "ttl": {"exp": 1.0}, "children": ["top"]}
        )
        assert parse_topology(doc).approximations == (
            Approximation("top", "reconvergent", ("top", "root")),
            Approximation("src", "det_ttl_erlang_k", ("src", "a", "b", "top", "root"),
                          (("ttl", 3),)),
        )

    def test_fixture_names_both_reasons(self):
        topo = parse_topology((FIXTURES / "approximations.json").read_text())
        reach = ("src", "a", "b", "top", "root")
        assert topo.approximations == (
            Approximation("top", "reconvergent", ("top", "root")),
            Approximation("src", "det_ttl_erlang_k", reach, (("ttl", 3),)),
            Approximation("b", "det_ttl_erlang_k", ("b", "top", "root"),
                          (("ttl", 2), ("ttl_r", 2))),
            Approximation("root", "det_ttl_erlang_k", ("root",), (("ttl_r", 2),)),
        )
        # every entry's reach runs in topological order
        order = topo.topological_order()
        for entry in topo.approximations:
            assert list(entry.reaches) == [nid for nid in order if nid in entry.reaches]
