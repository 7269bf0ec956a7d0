"""Command-line surface: exit codes, formats, determinism."""

import csv
import json
import re
import warnings
from pathlib import Path

import jsonschema
import pytest

from ttlnet.cli import (
    ANALYZE_CSV_COLUMNS,
    SIMULATE_CSV_COLUMNS,
    TABLE1_CSV_COLUMNS,
    main,
)

ROOT = Path(__file__).resolve().parents[1]

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


@pytest.fixture
def line_config(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE2))
    return str(path)


@pytest.fixture
def tree_config(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(TREE3))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pretty_cells(text, columns):
    """The cells of a `--format pretty` table, after checking its header, its
    rule and that every cell starts under its column's name."""
    header, rule, *body = text.splitlines()
    assert header.split() == columns
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    assert [m.start() for m in re.finditer(r"-+", rule)] == starts
    for line in body:
        assert [m.start() for m in re.finditer(r"\S+", line)] == starts
    return [line.split() for line in body]


def pretty(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


class TestAnalyzeCommand:
    def test_json_output_and_exit_zero(self, line_config, capsys):
        code, out, _ = run(["analyze", "--config", line_config, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "analyze"
        nodes = doc["results"][0]["nodes"]
        assert abs(nodes["C1"]["hit_probability"] - 0.5) < 1e-12

    def test_json_equals_library_analysis(self, line_config, capsys):
        from ttlnet import analyze, parse_topology

        _, out, _ = run(["analyze", "--config", line_config], capsys)
        doc = json.loads(out)
        direct = analyze(parse_topology(LINE2)).to_dict()
        assert doc["results"][0] == json.loads(json.dumps(direct))

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(["analyze", "--config", "/does/not/exist.json"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_budget_exceeded_exit_three(self, tree_config, capsys):
        code, _, err = run(["analyze", "--config", tree_config, "--budget", "4"], capsys)
        assert code == 3
        message = json.loads(err)["error"]["message"]
        assert "C3" in message and "8" in message

    def test_csv_has_documented_columns(self, line_config, capsys):
        code, out, _ = run(["analyze", "--config", line_config, "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("object,node,hit_probability,miss_probability,occupancy")

    def test_out_file(self, line_config, tmp_path, capsys):
        target = tmp_path / "res.json"
        code, out, _ = run(
            ["analyze", "--config", line_config, "--out", str(target)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["command"] == "analyze"

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": [], "arrivals": {}}))
        code, _, err = run(["analyze", "--config", str(bad)], capsys)
        assert code == 2

    def test_node_without_requests_exit_two(self, tmp_path, capsys):
        # A sends all its misses to B, none to C
        bad = tmp_path / "zero-weight.json"
        bad.write_text(json.dumps({
            "nodes": [
                {"id": "A", "policy": "R", "ttl": {"exp": 1.0}, "split": [1.0, 0.0]},
                {"id": "B", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["A"]},
                {"id": "C", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["A"]},
            ],
            "arrivals": {"A": {"poisson": 1.0}},
        }))
        code, out, err = run(["analyze", "--config", str(bad)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "TopologyError"
        assert error["message"].startswith("$.nodes[2]: node 'C' receives no requests")


    @pytest.mark.parametrize(
        "path, arrival, ttl",
        [
            ("$.arrivals.C1",
             {"map": {"d0": [[-1.0, 1.0], [0.0]], "d1": [[0.0, 0.0], [1.0, -1.0]]}},
             {"exp": 1.0}),
            ("$.arrivals.C1", {"mmpp": {"q": [[-1.0, 1.0], [1.0]], "rates": [1.0, 2.0]}},
             {"exp": 1.0}),
            ("$.nodes[0].ttl", {"poisson": 1.0},
             {"ph": {"s": [[-2.0, 1.0], [-1.0]], "pi": [0.5, 0.5]}}),
        ],
        ids=["map.d0", "mmpp.q", "ph.s"],
    )
    def test_ragged_matrix_exit_two(self, tmp_path, capsys, path, arrival, ttl):
        bad = tmp_path / "ragged.json"
        bad.write_text(json.dumps({
            "nodes": [{"id": "C1", "policy": "Sigma", "ttl": ttl}],
            "arrivals": {"C1": arrival},
        }))
        code, _, err = run(["analyze", "--config", str(bad)], capsys)
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "TopologyError"
        assert error["message"].startswith(f"{path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"nodes": [{"id": "A", "policy": "R", "ttl": {"exp": 1.0}}],'
             ' "arrivals": {"A": {"poisson": NaN}}}',
             "$.arrivals.A.poisson: nan is not a finite number"),
            ('{"nodes": [{"id": "A", "policy": "R", "ttl": {"exp": 1.0}}],'
             ' "arrivals": {"A": {"mmpp": {"q": [[-1.0, 1.0], [1.0, -1.0]],'
             ' "rates": [1.0, Infinity]}}}}',
             "$.arrivals.A.mmpp.rates[1]: inf is not a finite number"),
            ('{"nodes": [{"id": "A", "policy": "R", "ttl": {"exp": NaN}}],'
             ' "arrivals": {"A": {"poisson": 1.0}}}',
             "$.nodes[0].ttl.exp: nan is not a finite number"),
        ],
        ids=["poisson-nan", "mmpp-infinity", "ttl-nan"],
    )
    def test_non_finite_number_exit_two(self, tmp_path, capsys, text, message):
        # Python's json reads NaN and Infinity; the parser refuses them by path
        bad = tmp_path / "non-finite.json"
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            code, out, err = run(["analyze", "--config", str(bad)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "TopologyError", "message": message}

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["nodes"][0].update(policy="LRU"),
            lambda doc: doc["nodes"][0].update(ttl={"det": {"value": -1}}),  # a oneOf branch
            lambda doc: doc.update(comment="unknown top-level key"),
        ],
        ids=["policy", "det oneOf", "unknown key"],
    )
    def test_schema_violation_exit_two(self, tmp_path, capsys, edit):
        doc = json.loads(json.dumps(LINE2))
        edit(doc)
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["analyze", "--config", str(bad)], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "TopologyError"
        assert error["message"].startswith("$")
        assert "Traceback" not in err


class TestSimulateCommand:
    def test_deterministic_given_seed(self, line_config, capsys):
        args = ["simulate", "--config", line_config, "--events", "5000", "--seed", "42"]
        code1, out1, _ = run(args, capsys)
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_scientific_notation_events(self, line_config, capsys):
        code, out, _ = run(
            ["simulate", "--config", line_config, "--events", "1e4", "--seed", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["estimate"]["events"] == 10_000

    def test_zero_events_exit_two(self, line_config, capsys):
        code, _, err = run(
            ["simulate", "--config", line_config, "--events", "0"], capsys
        )
        assert code == 2
        assert "event_cap must exceed warmup" in json.loads(err)["error"]["message"]

    def test_negative_warmup_exit_two(self, line_config, capsys):
        code, out, err = run(
            ["simulate", "--config", line_config, "--events", "2000", "--warmup", "-5"], capsys
        )
        assert code == 2
        assert out == ""
        assert "warmup must be nonnegative" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--events", "nan"], "event_cap must be a whole number of events, not nan"),
            (["--events", "2000", "--warmup", "nan"], "warmup must be a whole number of events, not nan"),
            (["--events", "2000", "--warmup", "0.9"], "warmup must be a whole number of events, not 0.9"),
        ],
    )
    def test_non_integral_counts_exit_two(self, line_config, capsys, flags, message):
        # nan used to end in a ValueError traceback, and 0.9 to become 0
        code, out, err = run(["simulate", "--config", line_config, *flags], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == {"type": "ValidationError", "message": message}

    @pytest.mark.parametrize("extra,counted", [([], 1800), (["--warmup", "0"], 2000)])
    def test_warmup_default_and_zero(self, line_config, capsys, extra, counted):
        code, out, _ = run(
            ["simulate", "--config", line_config, "--events", "2000", *extra], capsys
        )
        assert code == 0
        assert json.loads(out)["estimate"]["counted_events"] == counted

    def test_compare_flag(self, line_config, tmp_path, capsys):
        analysis = tmp_path / "analysis.json"
        code, _, _ = run(
            ["analyze", "--config", line_config, "--out", str(analysis)], capsys
        )
        assert code == 0
        code, out, _ = run(
            [
                "simulate", "--config", line_config, "--events", "50000",
                "--seed", "7", "--against", str(analysis),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["comparison"]["flagged_count"] == 0

    def test_against_without_the_object_exit_two(self, line_config, tmp_path, capsys):
        analysis = tmp_path / "analysis.json"
        run(["analyze", "--config", line_config, "--out", str(analysis)], capsys)
        doc = json.loads(analysis.read_text())
        doc["results"][0]["object"] = "other"
        analysis.write_text(json.dumps(doc))
        code, out, err = run(
            ["simulate", "--config", line_config, "--events", "2000", "--against", str(analysis)],
            capsys,
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValidationError",
            "message": f"no analysis for object 'obj' in {analysis}",
        }

    def test_csv_has_documented_columns(self, line_config, capsys):
        args = ["simulate", "--config", line_config, "--events", "5000", "--seed", "3"]
        code, out, _ = run([*args, "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == ",".join(SIMULATE_CSV_COLUMNS)
        _, doc, _ = run(args, capsys)
        nodes = json.loads(doc)["estimate"]["nodes"]
        rows = list(csv.DictReader(out.splitlines()))
        assert [(r["object"], r["node"]) for r in rows] == [("obj", "C1"), ("obj", "C2")]
        for row in rows:
            assert {c: float(row[c]) for c in SIMULATE_CSV_COLUMNS[2:]} == nodes[row["node"]]


class TestTable1Command:
    def test_reference_values(self, capsys):
        code, out, _ = run(
            ["table1", "--lambda", "1", "--mu", "1", "--nu", "1", "--omega", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = {r["model"]: r for r in json.loads(out)["rows"]}
        assert abs(rows["M-M-R"]["transform_closed"] - 0.25) < 1e-15
        assert abs(rows["M-M-R"]["expected_stopped_sum_closed"] - 2.0) < 1e-15
        assert abs(rows["M-D-R"]["occupancy_closed"] - (1 - 2.718281828459045**-1)) < 1e-12
        assert abs(rows["M-M-min"]["transform_closed"] - 1 / 3) < 1e-15
        assert all(r["max_rel_err"] <= 1e-12 for r in rows.values())

    def test_rate_lists_expand_grid(self, capsys):
        code, out, _ = run(
            ["table1", "--lambda", "1", "2", "--mu", "1", "--omega", "0.5", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["rows"]) == 4 * 4  # four models, four combos

    def test_nonpositive_rates_exit_two(self, capsys):
        code, _, err = run(["table1", "--lambda", "-1"], capsys)
        assert code == 2

    def test_negative_omega_exit_two(self, capsys):
        code, out, err = run(["table1", "--omega", "-1"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValidationError",
            "message": "--omega values must be nonnegative",
        }

    def test_csv_cells_are_plain_decimal(self, capsys):
        code, out, _ = run(
            ["table1", "--lambda", "1", "--mu", "1", "--format", "csv"], capsys
        )
        assert code == 0
        assert "np.float" not in out and "(" not in out.splitlines()[1]

    def test_rare_miss_grid_agrees(self, capsys):
        # cells where misses are rare (P(X > T) down to 3e-15) or the transform
        # small; every engine value within 1e-12 of Table 1
        code, out, err = run(
            ["table1", "--lambda", "0.5", "2", "10", "--mu", "0.3", "0.3333333333333333", "4",
             "--nu", "1", "3", "--omega", "0", "1e-6", "1.5", "--format", "csv"],
            capsys,
        )
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 4 * 3 * 3 * 2 * 3
        assert max(float(r["max_rel_err"]) for r in rows) <= 1e-12


class TestPrettyFormat:
    def test_analyze(self, line_config, capsys):
        code, out, _ = run(["analyze", "--config", line_config, "--format", "pretty"], capsys)
        assert code == 0
        _, doc, _ = run(["analyze", "--config", line_config], capsys)
        result = json.loads(doc)["results"][0]
        want = [
            [pretty(v) for v in (
                "obj", nid, *result["nodes"][nid].values(), *result["dimensions"][nid].values()
            )]
            for nid in ("C1", "C2")
        ]
        assert pretty_cells(out, ANALYZE_CSV_COLUMNS) == want
        assert want[1][:4] == ["obj", "C2", "0.25", "0.75"]

    def test_simulate_with_comparison(self, line_config, tmp_path, capsys):
        analysis = tmp_path / "analysis.json"
        run(["analyze", "--config", line_config, "--out", str(analysis)], capsys)
        args = ["simulate", "--config", line_config, "--events", "5000", "--against", str(analysis)]
        code, out, _ = run([*args, "--format", "pretty"], capsys)
        assert code == 0
        _, doc, _ = run(args, capsys)
        doc = json.loads(doc)
        estimate, comparison = out.split("\n\n")
        nodes = doc["estimate"]["nodes"]
        assert pretty_cells(estimate, SIMULATE_CSV_COLUMNS) == [
            ["obj", nid, *map(pretty, nodes[nid].values())] for nid in ("C1", "C2")
        ]
        columns = ["node", "metric", "analytic", "empirical", "stderr", "z_score", "flagged"]
        assert pretty_cells(comparison, columns) == [
            [pretty(row[c]) for c in columns] for row in doc["comparison"]["rows"]
        ]

    def test_table1_default(self, capsys):
        code, out, _ = run(["table1"], capsys)
        assert code == 0
        _, doc, _ = run(["table1", "--format", "json"], capsys)
        assert pretty_cells(out, TABLE1_CSV_COLUMNS) == [
            [pretty(row[c]) for c in TABLE1_CSV_COLUMNS] for row in json.loads(doc)["rows"]
        ]


class TestOutputSchemas:
    def test_analyze_json_validates_against_shipped_schema(self, line_config, capsys):
        schema = json.loads((ROOT / "docs/analyze-output.schema.json").read_text())
        _, out, _ = run(["analyze", "--config", line_config], capsys)
        jsonschema.validate(json.loads(out), schema)

    def test_simulate_json_validates_against_shipped_schema(self, line_config, capsys):
        schema = json.loads((ROOT / "docs/simulate-output.schema.json").read_text())
        _, out, _ = run(
            ["simulate", "--config", line_config, "--events", "2000", "--seed", "3"],
            capsys,
        )
        jsonschema.validate(json.loads(out), schema)

    def test_topology_examples_validate(self):
        from ttlnet.network import TOPOLOGY_SCHEMA

        for doc in (LINE2, TREE3):
            jsonschema.validate(doc, TOPOLOGY_SCHEMA)

    def test_shipped_topology_schema_is_valid(self):
        from ttlnet.network import TOPOLOGY_SCHEMA

        shipped = json.loads((ROOT / "src/ttlnet/topology.schema.json").read_text())
        jsonschema.validators.validator_for(shipped).check_schema(shipped)
        assert shipped == TOPOLOGY_SCHEMA


class TestReconvergentWarning:
    def test_one_stderr_line_per_join(self, tmp_path, capsys):
        from test_network import RECONVERGENT
        from ttlnet import analyze, parse_topology

        path = tmp_path / "reconvergent.json"
        path.write_text(json.dumps(RECONVERGENT))
        code, out, err = run(["analyze", "--config", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["results"][0] == json.loads(
            json.dumps(analyze(parse_topology(RECONVERGENT)).to_dict())
        )
        (line,) = err.splitlines()
        assert "reconvergent join 'top'" in line

    def test_tree_writes_nothing_to_stderr(self, tree_config, capsys):
        code, _, err = run(["analyze", "--config", tree_config, "--format", "csv"], capsys)
        assert code == 0 and err == ""


class TestDeterministicTtlWarning:
    # Poisson(3) requests, a det-1.0 R cache `a`, an exp(2) R cache `b` above it
    LINE = {
        "nodes": [
            {"id": "a", "policy": "R", "ttl": {"det": 1.0}},
            {"id": "b", "policy": "R", "ttl": {"exp": 2.0}, "children": ["a"]},
        ],
        "arrivals": {"a": {"poisson": 3.0}},
    }

    def test_one_stderr_line_naming_the_node(self, tmp_path, capsys):
        from ttlnet import analyze, parse_topology

        path = tmp_path / "det-line.json"
        path.write_text(json.dumps(self.LINE))
        code, out, err = run(["analyze", "--config", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["results"][0] == json.loads(
            json.dumps(analyze(parse_topology(self.LINE)).to_dict())
        )
        (line,) = err.splitlines()
        assert line.startswith("warning: node 'a': ")
        assert "Erlang-20" in line and line.endswith("not exact: 'a', 'b'")

    def test_min_policy_names_both_ttls(self, tmp_path, capsys):
        doc = json.loads(json.dumps(self.LINE))
        doc["nodes"][1].update(
            policy="MinSigmaR", ttl={"det": {"value": 2.0, "stages": 5}}, ttl_r={"det": 0.5}
        )
        path = tmp_path / "det-min.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["analyze", "--config", str(path), "--format", "csv"], capsys)
        assert code == 0
        first, second = err.splitlines()
        assert first.startswith("warning: node 'a': ")
        assert second.startswith("warning: node 'b': ")
        assert "ttl by Erlang-5 and ttl_r by Erlang-20" in second


class TestApproximationWarnings:
    def test_fixture_stderr_matches_recording(self, capsys):
        # a reconvergent join above a det split node, and MinSigmaR nodes with
        # det TTLs; approximations.stderr is the warning contract, byte for byte
        fixtures = ROOT / "tests" / "fixtures"
        code, _, err = run(["analyze", "--config", str(fixtures / "approximations.json")], capsys)
        assert code == 0
        assert err == (fixtures / "approximations.stderr").read_text()
