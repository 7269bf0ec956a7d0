"""Feedforward cache topologies: JSON ingestion and iterative exact analysis.

A topology is a DAG of cache nodes. Edges point from a node to its parents:
each node lists the `children` whose miss streams feed it, leaves receive
exogenous arrival processes, and every request that misses at a sink node
is served by the origin (which always holds the object). Analysis walks
the DAG in topological order, composing three rules per node: superpose the
children's miss MAPs, apply the policy's input-output operator, and split
the result when the node feeds several parents.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .cache_ops import output_min, output_r, output_sigma
from .errors import BudgetExceededError, TopologyError, ValidationError
from .kron import ProbabilityVector, RateMatrix
from .metrics import CacheMetrics, metrics_from_maps
from .processes import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    erlang_approximation,
    mmpp_map,
    poisson_map,
    require_valid,
)

__all__ = [
    "TtlSpec",
    "ArrivalSpec",
    "CacheNode",
    "ObjectSpec",
    "Topology",
    "AnalysisResult",
    "TOPOLOGY_SCHEMA",
    "parse_topology",
    "analyze",
    "state_space_size",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 100_000
DEFAULT_DET_STAGES = 20


@dataclass(frozen=True)
class TtlSpec:
    """TTL distribution of one cache node.

    Kinds: "exp" (rate), "erlang" (stages, rate), "det" (value; represented
    exactly by the simulator and the renewal engine, approximated by an
    Erlang with `stages` phases on the MAP path), "ph" (explicit
    subintensity + initial vector).
    """

    kind: str
    rate: float | None = None
    value: float | None = None
    stages: int | None = None
    s: tuple | None = None
    pi: tuple | None = None

    @property
    def transient_order(self) -> int:
        """Number of transient phases of the PH form used on the MAP path."""
        if self.kind == "exp":
            return 1
        if self.kind == "erlang":
            return self.stages
        if self.kind == "det":
            return self.stages or DEFAULT_DET_STAGES
        return len(self.pi)

    @property
    def mean(self) -> float:
        if self.kind == "exp":
            return 1.0 / self.rate
        if self.kind == "erlang":
            return self.stages / self.rate
        if self.kind == "det":
            return self.value
        from .processes import ph_mean

        return ph_mean(self.to_ph())

    def to_ph(self) -> PhaseTypeDistribution:
        if self.kind == "exp":
            return PhaseTypeDistribution.exponential(self.rate)
        if self.kind == "erlang":
            return PhaseTypeDistribution.erlang(self.stages, self.rate)
        if self.kind == "det":
            return erlang_approximation(self.value, self.stages or DEFAULT_DET_STAGES)
        return PhaseTypeDistribution(
            RateMatrix.from_dense(self.s), ProbabilityVector(list(self.pi))
        )

    @property
    def exact_on_map_path(self) -> bool:
        return self.kind != "det"

    @classmethod
    def from_payload(cls, payload, where: str) -> "TtlSpec":
        if "exp" in payload:
            return cls("exp", rate=float(payload["exp"]))
        if "erlang" in payload:
            spec = payload["erlang"]
            return cls("erlang", stages=int(spec["stages"]), rate=float(spec["rate"]))
        if "det" in payload:
            spec = payload["det"]
            if isinstance(spec, dict):
                return cls(
                    "det",
                    value=float(spec["value"]),
                    stages=int(spec.get("stages", DEFAULT_DET_STAGES)),
                )
            return cls("det", value=float(spec))
        if "ph" in payload:
            spec = payload["ph"]
            s = tuple(tuple(float(v) for v in row) for row in spec["s"])
            pi = tuple(float(v) for v in spec["pi"])
            return cls("ph", s=s, pi=pi)
        raise TopologyError(f"{where}: unknown TTL spec {payload!r}")


@dataclass(frozen=True)
class ArrivalSpec:
    """Exogenous request process at a leaf: poisson, mmpp, or explicit MAP."""

    kind: str
    rate: float | None = None
    q: tuple | None = None
    rates: tuple | None = None
    d0: tuple | None = None
    d1: tuple | None = None

    @property
    def order(self) -> int:
        if self.kind == "poisson":
            return 1
        if self.kind == "mmpp":
            return len(self.rates)
        return len(self.d0)

    def to_map(self) -> MarkovArrivalProcess:
        if self.kind == "poisson":
            return poisson_map(self.rate)
        if self.kind == "mmpp":
            return mmpp_map([list(r) for r in self.q], list(self.rates))
        return MarkovArrivalProcess(
            RateMatrix.from_dense(self.d0), RateMatrix.from_dense(self.d1)
        )

    @classmethod
    def from_payload(cls, payload, where: str) -> "ArrivalSpec":
        if "poisson" in payload:
            return cls("poisson", rate=float(payload["poisson"]))
        if "mmpp" in payload:
            spec = payload["mmpp"]
            q = tuple(tuple(float(v) for v in row) for row in spec["q"])
            return cls("mmpp", q=q, rates=tuple(float(v) for v in spec["rates"]))
        if "map" in payload:
            spec = payload["map"]
            d0 = tuple(tuple(float(v) for v in row) for row in spec["d0"])
            d1 = tuple(tuple(float(v) for v in row) for row in spec["d1"])
            return cls("map", d0=d0, d1=d1)
        raise TopologyError(f"{where}: unknown arrival spec {payload!r}")


@dataclass(frozen=True)
class CacheNode:
    id: str
    policy: str
    ttl: TtlSpec
    ttl_r: TtlSpec | None = None
    children: tuple[str, ...] = ()
    split: ProbabilityVector | None = None


@dataclass(frozen=True)
class ObjectSpec:
    id: str
    arrivals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Topology:
    nodes: dict  # id -> CacheNode, in declaration order
    arrivals: dict  # leaf id -> ArrivalSpec
    objects: tuple[ObjectSpec, ...]

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

    def arrival_for(self, obj: ObjectSpec, leaf_id: str) -> ArrivalSpec:
        return obj.arrivals.get(leaf_id, self.arrivals[leaf_id])

    def object_by_id(self, object_id: str) -> ObjectSpec:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise TopologyError(f"unknown object id {object_id!r}")


TOPOLOGY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["nodes", "arrivals"],
    "additionalProperties": False,
    "properties": {
        "nodes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "policy", "ttl"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "policy": {"enum": ["R", "Sigma", "MinSigmaR"]},
                    "ttl": {"$ref": "#/$defs/ttl"},
                    "ttl_r": {"$ref": "#/$defs/ttl"},
                    "children": {"type": "array", "items": {"type": "string"}},
                    "split": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "number"},
                    },
                },
            },
        },
        "arrivals": {
            "type": "object",
            "additionalProperties": {"$ref": "#/$defs/arrival"},
        },
        "objects": {
            "type": "array",
            "items": {
                "oneOf": [
                    {"type": "string", "minLength": 1},
                    {
                        "type": "object",
                        "required": ["id"],
                        "additionalProperties": False,
                        "properties": {
                            "id": {"type": "string", "minLength": 1},
                            "arrivals": {
                                "type": "object",
                                "additionalProperties": {"$ref": "#/$defs/arrival"},
                            },
                        },
                    },
                ]
            },
        },
    },
    "$defs": {
        "matrix": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        },
        "ttl": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "exp": {"type": "number", "exclusiveMinimum": 0},
                "erlang": {
                    "type": "object",
                    "required": ["stages", "rate"],
                    "additionalProperties": False,
                    "properties": {
                        "stages": {"type": "integer", "minimum": 1},
                        "rate": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "det": {
                    "oneOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {
                            "type": "object",
                            "required": ["value"],
                            "additionalProperties": False,
                            "properties": {
                                "value": {"type": "number", "exclusiveMinimum": 0},
                                "stages": {"type": "integer", "minimum": 1},
                            },
                        },
                    ]
                },
                "ph": {
                    "type": "object",
                    "required": ["s", "pi"],
                    "additionalProperties": False,
                    "properties": {
                        "s": {"$ref": "#/$defs/matrix"},
                        "pi": {"type": "array", "items": {"type": "number"}},
                    },
                },
            },
            "additionalProperties": False,
        },
        "arrival": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "poisson": {"type": "number", "exclusiveMinimum": 0},
                "mmpp": {
                    "type": "object",
                    "required": ["q", "rates"],
                    "additionalProperties": False,
                    "properties": {
                        "q": {"$ref": "#/$defs/matrix"},
                        "rates": {"type": "array", "items": {"type": "number"}},
                    },
                },
                "map": {
                    "type": "object",
                    "required": ["d0", "d1"],
                    "additionalProperties": False,
                    "properties": {
                        "d0": {"$ref": "#/$defs/matrix"},
                        "d1": {"$ref": "#/$defs/matrix"},
                    },
                },
            },
            "additionalProperties": False,
        },
    },
}


def parse_topology(document) -> Topology:
    """Validate and load a topology document (JSON text or parsed dict).

    Raises TopologyError with a path-qualified message on schema
    violations, duplicate or dangling node ids, cycles, non-stochastic
    split vectors, or arrival processes that do not cover the leaves.
    """
    if isinstance(document, (str, bytes)):
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"not valid JSON: {exc}") from exc
    else:
        payload = document
    import jsonschema  # deferred: about 80 ms of a cold `import ttlnet`

    try:
        jsonschema.validate(payload, TOPOLOGY_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise TopologyError(f"{exc.json_path}: {exc.message}") from exc

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

    arrivals = {
        leaf: ArrivalSpec.from_payload(spec, f"$.arrivals.{leaf}")
        for leaf, spec in payload["arrivals"].items()
    }

    raw_objects = payload.get("objects") or ["obj"]
    objects = []
    seen = set()
    for j, entry in enumerate(raw_objects):
        if isinstance(entry, str):
            obj = ObjectSpec(entry)
        else:
            overrides = {
                leaf: ArrivalSpec.from_payload(spec, f"$.objects[{j}].arrivals.{leaf}")
                for leaf, spec in entry.get("arrivals", {}).items()
            }
            obj = ObjectSpec(entry["id"], overrides)
        if obj.id in seen:
            raise TopologyError(f"$.objects[{j}]: duplicate object id {obj.id!r}")
        seen.add(obj.id)
        objects.append(obj)

    topo = Topology(nodes=nodes, arrivals=arrivals, objects=tuple(objects))
    topo.topological_order()  # cycle check

    leaves = set(topo.leaves)
    for leaf in leaves:
        if leaf not in arrivals:
            raise TopologyError(f"$.arrivals: leaf {leaf!r} has no arrival process")
    for key in arrivals:
        if key not in leaves:
            raise TopologyError(
                f"$.arrivals.{key}: {key!r} is not a leaf (non-leaf input is"
                " determined by its children)"
            )
    for obj in objects:
        for key in obj.arrivals:
            if key not in leaves:
                raise TopologyError(f"object {obj.id!r} overrides non-leaf {key!r}")
    for i, node in enumerate(nodes.values()):
        n_parents = len(topo.parents_of(node.id))
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
    # validate arrival matrices eagerly so analyze() cannot fail late
    for leaf, spec in arrivals.items():
        try:
            require_valid(spec.to_map())
        except ValidationError as exc:
            raise TopologyError(f"$.arrivals.{leaf}: {exc}") from exc
    for obj in objects:
        for leaf, spec in obj.arrivals.items():
            try:
                require_valid(spec.to_map())
            except ValidationError as exc:
                raise TopologyError(f"object {obj.id!r}, leaf {leaf!r}: {exc}") from exc
    return topo


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
        phases = node.ttl.transient_order
        if node.policy == "MinSigmaR":
            phases *= node.ttl_r.transient_order
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


_OUTPUT_OPS = {"Sigma": output_sigma, "R": output_r}


def analyze(
    topo: Topology,
    object_id: str | None = None,
    budget: int = DEFAULT_BUDGET,
) -> AnalysisResult:
    """Exact feedforward analysis of one object.

    Walks the DAG children-first: leaf arrival MAPs feed the policy
    input-output operator at each node; a node feeding several parents is
    split by its declared vector; a node with several children superposes
    their (split) miss MAPs. Refuses, with the offending node and exact
    dimension, before building anything larger than `budget` states.
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

    from .processes import superpose, split as split_map

    contributions: dict[tuple[str, str], MarkovArrivalProcess] = {}
    metrics: dict[str, CacheMetrics] = {}
    miss_rates: dict[str, float] = {}
    for nid in order:
        node = topo.nodes[nid]
        if not node.children:
            input_map = topo.arrival_for(obj, nid).to_map()
        else:
            parts = [contributions[(child, nid)] for child in node.children]
            input_map = parts[0] if len(parts) == 1 else superpose(parts)
        if node.policy == "MinSigmaR":
            out = output_min(input_map, node.ttl.to_ph(), node.ttl_r.to_ph())
        else:
            out = _OUTPUT_OPS[node.policy](input_map, node.ttl.to_ph())
        if out.order != dims[nid]["output"] or input_map.order != dims[nid]["input"]:
            raise RuntimeError(
                f"dimension accounting mismatch at node {nid!r}: realized"
                f" {input_map.order}->{out.order}, predicted {dims[nid]}"
            )
        node_metrics = metrics_from_maps(input_map, out)
        metrics[nid] = node_metrics
        miss_rates[nid] = node_metrics.miss_rate
        parents = topo.parents_of(nid)
        if len(parents) == 1 and node.split is None:
            contributions[(nid, parents[0])] = out.map
        elif parents:
            parts = split_map(out.map, node.split)
            for pid, part in zip(parents, parts):
                contributions[(nid, pid)] = part
    origin_rate = sum(miss_rates[nid] for nid in topo.sinks)
    return AnalysisResult(
        object_id=obj.id,
        metrics={nid: metrics[nid] for nid in topo.node_order},
        dimensions=dims,
        origin_miss_rate=origin_rate,
    )
