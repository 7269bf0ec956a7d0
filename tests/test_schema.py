"""The topology schema check against jsonschema, on a corpus of mutated documents.

`network._schema_error` checks documents against `topology.schema.json`
without jsonschema. Each document of the corpus is a valid topology with
one mutation: a key or list element deleted, a value replaced by a value of
another type or sign, or an unknown key added. Between them the base
documents reach every subschema of the shipped schema, so a keyword added
to it that the walker does not implement fails here.
"""

import copy
import json
import random
from pathlib import Path

import pytest
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from topologies import erlang_tree, mmpp_line
from ttlnet.network import TOPOLOGY_SCHEMA, _schema_error

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# every TTL and arrival kind, both forms of det and of an object entry
RICH = {
    "nodes": [
        {"id": "a", "policy": "MinSigmaR", "ttl": {"det": 1.5},
         "ttl_r": {"ph": {"s": [[-2.0, 1.0], [0.0, -3.0]], "pi": [0.5, 0.5]}},
         "split": [0.4, 0.6]},
        {"id": "b", "policy": "R", "ttl": {"det": {"value": 0.5, "stages": 4}}},
        {"id": "c", "policy": "Sigma", "ttl": {"erlang": {"stages": 2, "rate": 3.0}},
         "children": ["a", "b"]},
        {"id": "d", "policy": "R", "ttl": {"exp": 2.0}, "children": ["a"]},
    ],
    "arrivals": {
        "a": {"map": {"d0": [[-2.0, 1.0], [0.5, -1.0]], "d1": [[1.0, 0.0], [0.0, 0.5]]}},
        "b": {"mmpp": {"q": [[-0.5, 0.5], [1.0, -1.0]], "rates": [4.0, 0.5]}},
    },
    "objects": [
        "x",
        {"id": "y", "arrivals": {"a": {"poisson": 2.0}, "b": {"poisson": 0.5}}},
        {"id": "z"},
    ],
}

BASES = [
    *(json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))),
    erlang_tree(2),
    mmpp_line(),
    RICH,
]
# values of every JSON type, and the numbers the type and bound rules separate
REPLACEMENTS = [True, False, None, 1.0, 0, 0.0, -1, -2.5, 3, 0.5, "", "x", [], {}, [1.0], {"exp": 1.0}]
UNKNOWN_KEYS = ["extra", "exp", "id", "value", "stages", "children", "a b", "it's"]
CORPUS_SIZE = 6_000


def _locations(value, at=()):
    """The key paths of every member below `value`, in document order."""
    members = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, member in members:
        yield at + (key,)
        yield from _locations(member, at + (key,))


def _mutate(doc, rng):
    doc = copy.deepcopy(doc)
    places = list(_locations(doc))
    *parent_keys, key = rng.choice(places)
    parent = doc
    for k in parent_keys:
        parent = parent[k]
    action = rng.randrange(3)
    if action == 0:
        del parent[key]
    elif action == 1:
        parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    else:
        target = parent[key] if isinstance(parent[key], dict) else parent
        if not isinstance(target, dict):
            target = doc
        target[rng.choice(UNKNOWN_KEYS)] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20261018)
    return [_mutate(rng.choice(BASES), rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def reference():
    cls = validator_for(TOPOLOGY_SCHEMA)
    cls.check_schema(TOPOLOGY_SCHEMA)
    return cls(TOPOLOGY_SCHEMA)


def _is_ancestor_or_self(path: str, of: str) -> bool:
    return of == path or (of.startswith(path) and of[len(path)] in ".[")


def test_bases_are_valid(reference):
    for doc in BASES:
        assert _schema_error(doc, TOPOLOGY_SCHEMA) is None
        assert reference.is_valid(doc)


def test_same_documents_accepted(corpus, reference):
    accepted = [_schema_error(doc, TOPOLOGY_SCHEMA) is None for doc in corpus]
    assert accepted == [reference.is_valid(doc) for doc in corpus]
    # both outcomes are well represented
    assert 0.1 < sum(accepted) / len(corpus) < 0.9


def test_rejection_path_is_best_match_or_its_ancestor(corpus, reference):
    rejected = 0
    for doc in corpus:
        error = _schema_error(doc, TOPOLOGY_SCHEMA)
        if error is None:
            continue
        rejected += 1
        want = best_match(reference.iter_errors(doc)).json_path
        assert _is_ancestor_or_self(error[0], want), (error, want, doc)
    assert rejected > 1_000


@pytest.mark.parametrize(
    "value, path, message",
    [
        ({"nodes": [], "arrivals": {}}, "$.nodes", "[] should be non-empty"),
        ({"nodes": [{"id": "a", "policy": "LRU", "ttl": {"exp": 1.0}}], "arrivals": {}},
         "$.nodes[0].policy", "'LRU' is not one of ['R', 'Sigma', 'MinSigmaR']"),
        ({"nodes": [{"id": "a", "policy": "R", "ttl": {"exp": True}}], "arrivals": {}},
         "$.nodes[0].ttl.exp", "True is not of type 'number'"),
        ({"nodes": [{"id": "a", "policy": "R", "ttl": {"det": {"value": -1}}}], "arrivals": {}},
         "$.nodes[0].ttl.det", "{'value': -1} is not valid under any of the given schemas"),
        ({"nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 0}}], "arrivals": {}},
         "$.nodes[0].ttl.exp", "0 is less than or equal to the minimum of 0"),
        ({"nodes": [{"id": "a", "policy": "R"}], "arrivals": {}},
         "$.nodes[0]", "'ttl' is a required property"),
        ({"nodes": [{"id": "a", "policy": "R", "ttl": {}}], "arrivals": {}},
         "$.nodes[0].ttl", "{} should be non-empty"),
        ({"nodes": [{"id": "a", "policy": "R", "ttl": {"exp": 1.0}}], "arrivals": {"a b": {}}},
         "$.arrivals['a b']", "{} should be non-empty"),
        ({"nodes": [], "arrivals": {}, "x": 1, "y": 2},
         "$", "Additional properties are not allowed ('x', 'y' were unexpected)"),
    ],
    ids=["minItems", "enum", "bool", "oneOf", "exclusiveMinimum", "required",
         "minProperties", "quoted key", "additionalProperties"],
)
def test_messages_and_paths(value, path, message):
    assert _schema_error(value, TOPOLOGY_SCHEMA) == (path, message)


def test_integral_float_is_an_integer():
    ttl = {"erlang": {"stages": 2.0, "rate": 1.0}}
    assert _schema_error(ttl, TOPOLOGY_SCHEMA["$defs"]["ttl"]) is None
    ttl["erlang"]["stages"] = 2.5
    assert _schema_error(ttl, TOPOLOGY_SCHEMA["$defs"]["ttl"])[0] == "$.erlang.stages"


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "pattern": "^a"},
        {"type": "object", "properties": {"id": {"type": "string", "maxLength": 3}}},
        {"$ref": "other.json#/$defs/ttl"},
    ],
    ids=["pattern", "nested maxLength", "external $ref"],
)
def test_unimplemented_keyword_raises(schema):
    with pytest.raises(NotImplementedError):
        _schema_error({"id": "abc"} if "properties" in schema else "abc", schema)
