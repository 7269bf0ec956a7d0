"""Feedforward cache topologies: JSON ingestion and iterative exact analysis.

A topology is a DAG of cache nodes. Edges point from a node to its parents:
each node lists the `children` whose miss streams feed it, leaves receive
exogenous arrival processes, and every request that misses at a sink node
is served by the origin (which always holds the object). Analysis walks
the DAG in topological order, composing three rules per node: superpose the
children's miss MAPs (never assembled), apply the policy's input-output
operator, and split the result when the node feeds several parents.

`parse_topology` is the only place where a topology document becomes
engine objects. It checks the document against `topology.schema.json`,
which ships with the package, with the package's own walker
(`_schema_error`, no jsonschema), and builds each leaf's arrival MAP and
each TTL's renewal law and phase-type form once, validated. `analyze`,
`state_space_size` and the simulator use those objects as they are. It also
decides which of `analyze`'s numbers are not exact: `Topology.approximations`.
"""

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from numbers import Number
from pathlib import Path

import numpy as np

from .cache_ops import DEFAULT_BUDGET, output_min, output_r, output_sigma
from .errors import BudgetExceededError, TopologyError, ValidationError
from .kron import ProbabilityVector, RateMatrix, dense_kron
from .metrics import CacheMetrics, metrics_from_maps
from .processes import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    erlang_approximation,
    mmpp_map,
    poisson_map,
    require_valid,
)
from .renewal import Deterministic, Erlang, Exponential, RenewalSpec

__all__ = [
    "TtlSpec",
    "CacheNode",
    "Approximation",
    "ObjectSpec",
    "Topology",
    "AnalysisResult",
    "TOPOLOGY_SCHEMA",
    "parse_topology",
    "analyze",
    "state_space_size",
    "DEFAULT_BUDGET",
]

DEFAULT_DET_STAGES = 20


@dataclass(frozen=True)
class TtlSpec:
    """TTL distribution of one cache node, built once when the document is
    parsed.

    `law` is the renewal law of an "exp", "erlang" or "det" spec
    (`Exponential`, `Erlang`, `Deterministic`), which the simulator draws
    from, and None for an explicit "ph" spec (subintensity and initial
    vector). `ph` is the phase-type form the MAP path uses: the law itself,
    or for "det" an Erlang with the spec's `stages` phases (20 unless
    given), so a det TTL is the one that is not exact there.
    """

    law: RenewalSpec | None
    ph: PhaseTypeDistribution

    @classmethod
    def from_payload(cls, payload, where: str) -> "TtlSpec":
        try:
            if "exp" in payload:
                rate = float(payload["exp"])
                return cls(Exponential(rate), PhaseTypeDistribution.exponential(rate))
            if "erlang" in payload:
                spec = payload["erlang"]
                stages, rate = int(spec["stages"]), float(spec["rate"])
                return cls(Erlang(stages, rate), PhaseTypeDistribution.erlang(stages, rate))
            if "det" in payload:
                spec = payload["det"]
                if not isinstance(spec, dict):
                    spec = {"value": spec}
                value = float(spec["value"])
                stages = int(spec.get("stages", DEFAULT_DET_STAGES))
                return cls(Deterministic(value), erlang_approximation(value, stages))
            if "ph" in payload:
                spec = payload["ph"]
                s = RateMatrix.from_dense(spec["s"])
                return cls(None, PhaseTypeDistribution(s, ProbabilityVector(spec["pi"])))
        except ValidationError as exc:
            raise TopologyError(f"{where}: {exc}") from exc
        raise TopologyError(f"{where}: unknown TTL spec {payload!r}")


def _arrival_map(payload, where: str) -> MarkovArrivalProcess:
    """The validated MAP of a schema-checked arrival spec: poisson, mmpp, or map."""
    try:
        if "poisson" in payload:
            m = poisson_map(float(payload["poisson"]))
        elif "mmpp" in payload:
            m = mmpp_map(payload["mmpp"]["q"], payload["mmpp"]["rates"])
        else:
            d0, d1 = payload["map"]["d0"], payload["map"]["d1"]
            m = MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))
        return require_valid(m)
    except ValidationError as exc:
        raise TopologyError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class CacheNode:
    id: str
    policy: str
    ttl: TtlSpec
    ttl_r: TtlSpec | None = None
    children: tuple[str, ...] = ()
    split: ProbabilityVector | None = None


@dataclass(frozen=True)
class Approximation:
    """A node whose numbers `analyze` does not compute exactly, and why.

    `reason` is "reconvergent" for a join whose children's sub-DAGs share a
    node (correlated streams superposed as independent), or "det_ttl_erlang_k"
    for deterministic TTLs that the MAP path replaces by Erlangs, each named
    in `erlang` with its order, as in (("ttl", 5), ("ttl_r", 20)). `reaches`
    is the node and every node above it, in topological order.
    """

    node: str
    reason: str
    reaches: tuple[str, ...]
    erlang: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class ObjectSpec:
    id: str
    arrivals: dict = field(default_factory=dict)  # leaf id -> MarkovArrivalProcess


@dataclass(frozen=True)
class Topology:
    nodes: dict  # id -> CacheNode, in declaration order
    arrivals: dict  # leaf id -> MarkovArrivalProcess
    objects: tuple[ObjectSpec, ...]
    # the reconvergent joins, then the det-TTL nodes, each in topological order
    approximations: tuple[Approximation, ...] = ()

    @property
    def node_order(self) -> list[str]:
        return list(self.nodes)

    @property
    def leaves(self) -> list[str]:
        return [n.id for n in self.nodes.values() if not n.children]

    def parents_of(self, node_id: str) -> list[str]:
        return [n.id for n in self.nodes.values() if node_id in n.children]

    @property
    def sinks(self) -> list[str]:
        return [nid for nid in self.nodes if not self.parents_of(nid)]

    def topological_order(self) -> list[str]:
        """Children before parents; raises on cycles."""
        pending = {nid: len(node.children) for nid, node in self.nodes.items()}
        order: list[str] = []
        ready = [nid for nid in self.nodes if pending[nid] == 0]
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for pid in self.parents_of(nid):
                pending[pid] -= 1
                if pending[pid] == 0:
                    ready.append(pid)
        if len(order) != len(self.nodes):
            stuck = sorted(set(self.nodes) - set(order))
            raise TopologyError(f"graph is cyclic; nodes on a cycle: {stuck}")
        return order

    def arrival_for(self, obj: ObjectSpec, leaf_id: str) -> MarkovArrivalProcess:
        return obj.arrivals.get(leaf_id, self.arrivals[leaf_id])

    def object_by_id(self, object_id: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise TopologyError(f"unknown object id {object_id!r}")


TOPOLOGY_SCHEMA = json.loads(
    Path(__file__).with_name("topology.schema.json").read_text(encoding="utf-8")
)

# JSON Schema (draft 2020-12) type tests: a bool is not a number, 1.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
# every keyword of `topology.schema.json`; `$schema` and `$defs` constrain nothing
_KEYWORDS = frozenset({
    "$schema", "$defs", "$ref", "type", "enum", "required", "properties",
    "additionalProperties", "items", "minItems", "minLength", "minProperties",
    "maxProperties", "minimum", "exclusiveMinimum", "oneOf",
})
# (kind, keyword, message when the bound is above 1) of the lower size bounds
_MIN_SIZES = (
    (dict, "minProperties", "does not have enough properties"),
    (list, "minItems", "is too short"),
    (str, "minLength", "is too short"),
)


def _member(path: str, key) -> str:
    """The JSONPath of member `key` of the value at `path`, as jsonschema writes
    it: `.key` for an ASCII letter followed by ASCII letters, digits and
    underscores, else `['key']`."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    if key.isascii() and key[:1].isalpha() and key.replace("_", "").isalnum():
        return f"{path}.{key}"
    return "{}['{}']".format(path, key.replace("\\", "\\\\").replace("'", "\\'"))


def _schema_error(value, schema: dict, path: str = "$") -> tuple[str, str] | None:
    """The first violation of `schema` by `value` as (JSONPath, message), or None.

    Implements the keywords of `topology.schema.json` with jsonschema's
    semantics and messages; `$ref` resolves into the topology schema's
    `$defs`. The value's own keywords are checked before its members, the
    members in document order. Raises NotImplementedError on any other
    keyword, so that no constraint of the schema goes unchecked. A NaN or
    infinite number, which Python's json reads but JSON does not have, is
    refused wherever it stands.
    """
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"unsupported schema keywords: {sorted(unknown)}")
    if "type" in schema and not _TYPES[schema["type"]](value):
        return path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    known, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        extras = sorted(key for key in value if key not in known)
        if extra is False and extras:
            names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
            return path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        if len(value) > schema.get("maxProperties", len(value)):
            return path, f"{value!r} has too many properties"
    for kind, keyword, short in _MIN_SIZES:
        if isinstance(value, kind) and len(value) < schema.get(keyword, 0):
            return path, f"{value!r} " + ("should be non-empty" if schema[keyword] == 1 else short)
    if _TYPES["number"](value):
        if isinstance(value, float) and not math.isfinite(value):
            return path, f"{value!r} is not a finite number"
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        bound = schema.get("exclusiveMinimum")
        if bound is not None and value <= bound:
            return path, f"{value!r} is less than or equal to the minimum of {bound!r}"
    members = []
    if isinstance(value, dict):
        members = [(key, known.get(key, extra)) for key in value]
    elif isinstance(value, list):
        members = [(i, schema.get("items")) for i in range(len(value))]
    for key, subschema in members:
        if isinstance(subschema, dict):
            error = _schema_error(value[key], subschema, _member(path, key))
            if error:
                return error
    if "oneOf" in schema:
        valid = sum(_schema_error(value, branch, path) is None for branch in schema["oneOf"])
        if valid != 1:
            verdict = "valid under each of" if valid else "not valid under any of"
            return path, f"{value!r} is {verdict} the given schemas"
    if "$ref" in schema:
        prefix, _, name = schema["$ref"].rpartition("/")
        if prefix != "#/$defs":
            raise NotImplementedError(f"unsupported $ref {schema['$ref']!r}")
        return _schema_error(value, TOPOLOGY_SCHEMA["$defs"][name], path)
    return None


def parse_topology(document) -> Topology:
    """Validate and load a topology document (JSON text or parsed dict).

    Raises TopologyError with a path-qualified message on a violation of
    `TOPOLOGY_SCHEMA` (the first one `_schema_error` finds), duplicate or
    dangling node ids, cycles, non-stochastic split vectors, nodes that
    split weights of 0 leave with no requests, arrival processes that do
    not cover the leaves, or invalid arrival MAPs and phase-type TTLs.
    One pass after the cycle check builds `Topology.approximations`.
    """
    if isinstance(document, (str, bytes)):
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"not valid JSON: {exc}") from exc
    else:
        payload = document
    error = _schema_error(payload, TOPOLOGY_SCHEMA)
    if error is not None:
        raise TopologyError("{}: {}".format(*error))

    nodes: dict[str, CacheNode] = {}
    for i, spec in enumerate(payload["nodes"]):
        where = f"$.nodes[{i}]"
        nid = spec["id"]
        if nid in nodes:
            raise TopologyError(f"{where}.id: duplicate node id {nid!r}")
        policy = spec["policy"]
        ttl = TtlSpec.from_payload(spec["ttl"], f"{where}.ttl")
        ttl_r = None
        if policy == "MinSigmaR":
            if "ttl_r" not in spec:
                raise TopologyError(f"{where}: policy MinSigmaR requires ttl_r")
            ttl_r = TtlSpec.from_payload(spec["ttl_r"], f"{where}.ttl_r")
        elif "ttl_r" in spec:
            raise TopologyError(f"{where}.ttl_r: only MinSigmaR nodes take a second TTL")
        split = None
        if "split" in spec:
            try:
                split = ProbabilityVector(spec["split"])
            except ValidationError as exc:
                raise TopologyError(f"{where}.split: split not stochastic ({exc})") from exc
        nodes[nid] = CacheNode(
            id=nid,
            policy=policy,
            ttl=ttl,
            ttl_r=ttl_r,
            children=tuple(spec.get("children", ())),
            split=split,
        )

    for i, node in enumerate(nodes.values()):
        for child in node.children:
            if child not in nodes:
                raise TopologyError(
                    f"$.nodes[{i}].children: dangling child id {child!r}"
                )
        if len(set(node.children)) != len(node.children):
            raise TopologyError(f"$.nodes[{i}].children: repeated child id")

    overrides: dict[str, dict] = {}  # object id -> leaf id -> arrival spec
    for j, entry in enumerate(payload.get("objects") or ["obj"]):
        oid = entry if isinstance(entry, str) else entry["id"]
        if oid in overrides:
            raise TopologyError(f"$.objects[{j}]: duplicate object id {oid!r}")
        overrides[oid] = {} if isinstance(entry, str) else entry.get("arrivals", {})

    graph = Topology(nodes=nodes, arrivals={}, objects=())  # the structure checks read only nodes
    order = graph.topological_order()  # raises on cycles
    below: dict[str, set] = {}  # node -> its sub-DAG: the node and every node below it
    joins, dets = [], []  # (node, reason, Erlang orders of its det TTLs)
    for nid in order:
        subdags = [below[child] for child in nodes[nid].children]
        below[nid] = set().union(*subdags, {nid})
        if sum(map(len, subdags)) >= len(below[nid]):  # two children's sub-DAGs overlap
            joins.append((nid, "reconvergent", ()))
        ttls = (("ttl", nodes[nid].ttl), ("ttl_r", nodes[nid].ttl_r))
        erlang = tuple(
            (name, ttl.ph.order) for name, ttl in ttls
            if ttl is not None and isinstance(ttl.law, Deterministic)
        )
        if erlang:
            dets.append((nid, "det_ttl_erlang_k", erlang))
    approximations = tuple(
        Approximation(source, reason, tuple(nid for nid in order if source in below[nid]), erlang)
        for source, reason, erlang in joins + dets
    )

    leaves = set(graph.leaves)
    for leaf in leaves:
        if leaf not in payload["arrivals"]:
            raise TopologyError(f"$.arrivals: leaf {leaf!r} has no arrival process")
    for key in payload["arrivals"]:
        if key not in leaves:
            raise TopologyError(
                f"$.arrivals.{key}: {key!r} is not a leaf (non-leaf input is"
                " determined by its children)"
            )
    for oid, specs in overrides.items():
        for key in specs:
            if key not in leaves:
                raise TopologyError(f"object {oid!r} overrides non-leaf {key!r}")
    for i, node in enumerate(nodes.values()):
        n_parents = len(graph.parents_of(node.id))
        if n_parents > 1 and node.split is None:
            raise TopologyError(
                f"$.nodes[{i}]: node {node.id!r} feeds {n_parents} parents and"
                " must declare a split vector"
            )
        if node.split is not None and len(node.split) != max(n_parents, 1):
            raise TopologyError(
                f"$.nodes[{i}].split: length {len(node.split)} does not match"
                f" out-degree {n_parents}"
            )
    # a node with no requests has a singular d0: refuse it here, not in analyze()
    index = {nid: i for i, nid in enumerate(nodes)}
    requested = set(leaves)
    for nid in order:
        if nid in requested:
            continue
        for child in nodes[nid].children:
            split = nodes[child].split
            weight = 1.0 if split is None else split[graph.parents_of(child).index(nid)]
            if child in requested and weight > 0.0:
                requested.add(nid)
                break
        else:
            raise TopologyError(
                f"$.nodes[{index[nid]}]: node {nid!r} receives no requests: every"
                " child routes it split weight 0 or receives none itself"
            )
    # the arrival MAPs are built and validated here, so analyze() cannot fail late
    arrivals = {
        leaf: _arrival_map(spec, f"$.arrivals.{leaf}")
        for leaf, spec in payload["arrivals"].items()
    }
    objects = tuple(
        ObjectSpec(oid, {
            leaf: _arrival_map(spec, f"object {oid!r}, leaf {leaf!r}")
            for leaf, spec in specs.items()
        })
        for oid, specs in overrides.items()
    )
    return Topology(nodes=nodes, arrivals=arrivals, objects=objects, approximations=approximations)


def state_space_size(topo: Topology, object_id: str | None = None) -> dict:
    """Exact per-node input/output dimensions, without building matrices.

    Recurrence: a leaf's input dimension is its arrival MAP order; a join's
    input dimension is the product of its children's output dimensions
    (splitting preserves dimension); a node's output dimension multiplies
    its input dimension by (transient TTL phases + 1), with the two TTLs'
    phase counts multiplied first for min-policy nodes. These products grow
    exponentially with depth, which is why analyze() enforces a budget.
    """
    obj = topo.objects[0] if object_id is None else topo.object_by_id(object_id)
    dims: dict[str, dict[str, int]] = {}
    for nid in topo.topological_order():
        node = topo.nodes[nid]
        if not node.children:
            in_dim = topo.arrival_for(obj, nid).order
        else:
            in_dim = 1
            for child in node.children:
                in_dim *= dims[child]["output"]
        phases = node.ttl.ph.order
        if node.policy == "MinSigmaR":
            phases *= node.ttl_r.ph.order
        dims[nid] = {"input": in_dim, "output": in_dim * (phases + 1)}
    return {nid: dims[nid] for nid in topo.node_order}


@dataclass(frozen=True)
class AnalysisResult:
    """Exact metrics for one object across all nodes of a topology."""

    object_id: str
    metrics: dict  # node id -> CacheMetrics
    dimensions: dict  # node id -> {"input": int, "output": int}
    origin_miss_rate: float

    def to_dict(self) -> dict:
        return {
            "object": self.object_id,
            "nodes": {nid: m.to_dict() for nid, m in self.metrics.items()},
            "dimensions": {nid: dict(d) for nid, d in self.dimensions.items()},
            "origin_miss_rate": self.origin_miss_rate,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisResult":
        metrics = {
            nid: CacheMetrics(**values) for nid, values in payload["nodes"].items()
        }
        return cls(
            object_id=payload["object"],
            metrics=metrics,
            dimensions={
                nid: {k: int(v) for k, v in d.items()}
                for nid, d in payload.get("dimensions", {}).items()
            },
            origin_miss_rate=float(payload["origin_miss_rate"]),
        )


_OUTPUT_OPS = {"Sigma": output_sigma, "R": output_r, "MinSigmaR": output_min}


def analyze(
    topo: Topology,
    object_id: str | None = None,
    budget: int = DEFAULT_BUDGET,
) -> AnalysisResult:
    """Exact feedforward analysis of one object.

    Walks the DAG children-first, one step per node: the node's inputs (a
    leaf's arrival MAP, or its children's miss MAPs or split parts) feed
    `output_sigma`, `output_r` or `output_min` as a tuple of independent
    MAPs, whose superposition is never assembled; `metrics_from_maps` reads
    the node's metrics from the chain's stationary vector; and a node
    feeding several parents is split by its declared vector. Each node's
    input vector is known before its own solve: a leaf's is its arrival
    MAP's stationary vector, which the metrics find themselves; a split
    keeps d0 + d1, so a part has its node's output vector; and a join's
    inputs are independent, so it has the Kronecker product of its
    children's output vectors. Each output chain above `kron._GTH_MAX`
    states is solved from it on its Kronecker factors. Only a node's
    parents assemble its miss MAP, so a sink assembles nothing. Refuses,
    with the offending node and exact dimension, before building anything
    larger than `budget` states.
    """
    if budget <= 0:
        raise ValidationError("budget must be positive")
    obj = topo.objects[0] if object_id is None else topo.object_by_id(object_id)
    order = topo.topological_order()
    dims = state_space_size(topo, obj.id)
    for nid in order:
        if dims[nid]["input"] > budget:
            raise BudgetExceededError(nid, dims[nid]["input"], budget, "input")
        if dims[nid]["output"] > budget:
            raise BudgetExceededError(nid, dims[nid]["output"], budget, "output")

    from .processes import split as split_map

    contributions: dict[tuple[str, str], MarkovArrivalProcess] = {}
    metrics: dict[str, CacheMetrics] = {}
    for nid in order:
        node = topo.nodes[nid]
        if not node.children:
            parts, p_in = (topo.arrival_for(obj, nid),), None
        else:
            parts = tuple(contributions[(child, nid)] for child in node.children)
            p_in = reduce(dense_kron, [metrics[child].stationary for child in node.children])
        ttls = (node.ttl.ph,) if node.ttl_r is None else (node.ttl.ph, node.ttl_r.ph)
        out = _OUTPUT_OPS[node.policy](parts, *ttls)
        realized = len(out.out_states), out.order
        if realized != (dims[nid]["input"], dims[nid]["output"]):
            raise RuntimeError(
                f"dimension accounting mismatch at node {nid!r}: realized"
                f" {realized[0]}->{realized[1]}, predicted {dims[nid]}"
            )
        metrics[nid] = metrics_from_maps(parts, out, p_in)
        parents = topo.parents_of(nid)
        if len(parents) == 1 and node.split is None:
            contributions[(nid, parents[0])] = out.map
        elif parents:
            for pid, part in zip(parents, split_map(out.map, node.split)):
                contributions[(nid, pid)] = part
    origin_rate = sum(metrics[nid].miss_rate for nid in topo.sinks)
    return AnalysisResult(
        object_id=obj.id,
        metrics={nid: metrics[nid] for nid in topo.node_order},
        dimensions=dims,
        origin_miss_rate=origin_rate,
    )
