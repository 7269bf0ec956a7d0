"""The three benchmark workloads: input generation, the timed op, and its oracle.

Every input is drawn from ``numpy.random.default_rng([seed, ...])`` so one
seed always gives the same inputs. The seed perturbs rates only; state-space
dimensions and code paths stay fixed. Each workload exposes

* ``warmup()`` (the untimed warm-up op of set-up),
* ``inputs(k)`` (untimed input generation for op k),
* ``run(inp)`` (the timed op),
* ``check(inp, out)`` (untimed oracle; returns a list of failure messages),
* ``state()`` (JSON data a worker hands back for the run-level oracle),
* ``finish(states)`` (run-level oracle over the states of all workers).
"""

import inspect
import json
import math
from pathlib import Path

import numpy as np

from ttlnet import cache_ops, metrics, network, renewal, sim
from ttlnet.kron import RateMatrix
from ttlnet.processes import MarkovArrivalProcess, PhaseTypeDistribution
from ttlnet.renewal import Deterministic, Erlang, Exponential, StoppingPolicy

DEFAULT_SEED = 0
# Stream id of the untimed warm-up op; timed ops use streams 0, 1, 2, ...
WARMUP_STREAM = 2**32 - 1
REFERENCE_PATH = Path(__file__).with_name("reference_map_large.json")

# Exact engine paths must agree to this relative tolerance.
EXACT_REL = 1e-9
# Table 1 closed forms against the renewal engine.
TABLE1_REL = 1e-12
# Monte Carlo values may sit this many standard errors from the exact value.
MC_K_SE = 5.0
# The Sigma convolution series runs on a grid of step E[X]/200; its error is
# first order in the step (about 1e-3 relative on these laws).
SERIES_REL = 1e-2
# The repository's simulator-agreement rule.
SIM_K_SE = 4.0
# Smallest sample count transform_min accepts; used only to warm up.
WARMUP_SAMPLES = 10_000


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _perturb(rng, nominal: float, spread: float = 0.1) -> float:
    return float(nominal * rng.uniform(1.0 - spread, 1.0 + spread))


def _erlang(stages: int, rate: float) -> dict:
    return {"erlang": {"stages": stages, "rate": rate}}


def _dense_stationary(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    a = np.vstack([q.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _arrival_rate(spec: dict) -> float:
    """Fundamental rate of a leaf arrival payload, from dense linear algebra."""
    if "poisson" in spec:
        return float(spec["poisson"])
    q = np.array(spec["mmpp"]["q"], dtype=float)
    return float(_dense_stationary(q) @ np.array(spec["mmpp"]["rates"], dtype=float))


def _renewal_ttl(payload: dict):
    if "exp" in payload:
        return Exponential(payload["exp"])
    if "erlang" in payload:
        return Erlang(payload["erlang"]["stages"], payload["erlang"]["rate"])
    return None


def check_flows(doc: dict, result) -> list:
    """Exact identities every analysis result must satisfy."""
    failures = []
    nodes = {n["id"]: n for n in doc["nodes"]}
    parents = {nid: [p for p in nodes if nid in nodes[p].get("children", ())] for nid in nodes}
    m = result.metrics
    for nid, node in nodes.items():
        got = m[nid]
        if abs(got.hit_probability + got.miss_probability - 1.0) > 1e-12:
            failures.append(f"{nid}: hit + miss != 1")
        if _rel(got.expected_inter_miss * got.miss_rate, 1.0) > EXACT_REL:
            failures.append(f"{nid}: expected_inter_miss != 1/miss_rate")
        if _rel(got.miss_rate, got.input_rate * got.miss_probability) > EXACT_REL:
            failures.append(f"{nid}: miss_rate != input_rate * miss_probability")
        children = node.get("children", ())
        if children:
            flow = 0.0
            for child in children:
                weight = 1.0
                if "split" in nodes[child]:
                    weight = nodes[child]["split"][parents[child].index(nid)]
                flow += m[child].miss_rate * weight
        else:
            flow = _arrival_rate(doc["arrivals"][nid])
        if _rel(got.input_rate, flow) > EXACT_REL:
            failures.append(f"{nid}: input_rate {got.input_rate!r} != inflow {flow!r}")
    sinks = [nid for nid in nodes if not parents[nid]]
    if _rel(result.origin_miss_rate, sum(m[s].miss_rate for s in sinks)) > EXACT_REL:
        failures.append("origin_miss_rate != sum of sink miss rates")
    return failures


def check_renewal_leaves(doc: dict, result) -> list:
    """Poisson leaves under R or Sigma against the renewal engine's exact values."""
    failures = []
    for node in doc["nodes"]:
        nid = node["id"]
        arrival = doc["arrivals"].get(nid)
        ttl = _renewal_ttl(node["ttl"])
        if arrival is None or "poisson" not in arrival or ttl is None:
            continue
        if node["policy"] not in ("R", "Sigma"):
            continue
        x = Exponential(arrival["poisson"])
        policy = StoppingPolicy(node["policy"], ttl=ttl)
        tau = renewal.expected_tau(x, policy)
        if tau.stderr != 0.0:
            failures.append(f"{nid}: renewal engine took a Monte Carlo path")
            continue
        got = result.metrics[nid]
        expect = {
            "miss_probability": 1.0 / tau.value,
            "expected_inter_miss": tau.value * x.mean,
            "occupancy": renewal.occupancy_renewal(x, policy),
        }
        for key, value in expect.items():
            if _rel(getattr(got, key), value) > EXACT_REL:
                failures.append(f"{nid}: {key} {getattr(got, key)!r} != renewal {value!r}")
    return failures


# ---------------------------------------------------------------------------
# map-large


def map_large_docs(seed: int, point: int) -> dict:
    """Topology documents of one sweep point: a 7-node tree and a depth-7 line."""
    rng = _rng(seed, 1, point)
    leaves = [("L1", "R", 4.0, 1.0), ("L2", "Sigma", 3.0, 2.0),
              ("L3", "Sigma", 5.0, 1.5), ("L4", "R", 2.0, 0.8)]
    tree_nodes = [
        {"id": nid, "policy": pol, "ttl": _erlang(4, _perturb(rng, ttl_rate))}
        for nid, pol, ttl_rate, _ in leaves
    ]
    tree_nodes += [
        {"id": "M1", "policy": "MinSigmaR", "ttl": {"exp": _perturb(rng, 1.0)},
         "ttl_r": {"exp": _perturb(rng, 2.0)}, "children": ["L1", "L2"]},
        {"id": "M2", "policy": "R", "ttl": {"exp": _perturb(rng, 1.5)},
         "children": ["L3", "L4"]},
        {"id": "T", "policy": "Sigma", "ttl": {"exp": _perturb(rng, 0.7)},
         "children": ["M1", "M2"]},
    ]
    tree = {
        "nodes": tree_nodes,
        "arrivals": {nid: {"poisson": _perturb(rng, lam)} for nid, _, _, lam in leaves},
    }
    line_nodes = [{"id": "N0", "policy": "R", "ttl": {"exp": _perturb(rng, 1.0)}}]
    for i in range(1, 7):
        line_nodes.append({
            "id": f"N{i}",
            "policy": ("Sigma", "R")[i % 2],
            "ttl": _erlang(2, _perturb(rng, 2.0 + 0.3 * i)),
            "children": [f"N{i - 1}"],
        })
    up, down = _perturb(rng, 0.5), _perturb(rng, 1.0)
    line = {
        "nodes": line_nodes,
        "arrivals": {"N0": {"mmpp": {"q": [[-up, up], [down, -down]],
                                     "rates": [_perturb(rng, 4.0), _perturb(rng, 0.5)]}}},
    }
    return {"tree": tree, "line": line}


class MapLarge:
    """network.analyze of a 5,000-state tree and a 2,916-state line per op."""

    name = "map-large"
    min_ops = 3
    required_spans = ("network.analyze", "kron.steady_state", "cache_ops.output",
                      "metrics.metrics_from_maps")
    setup_spans = ("network.parse_topology",)

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = {}
        if seed == DEFAULT_SEED:
            self.reference = json.loads(REFERENCE_PATH.read_text())["points"]

    def _point(self, point: int):
        docs = map_large_docs(self.seed, point)
        topos = {key: network.parse_topology(doc) for key, doc in docs.items()}
        return point, docs, topos

    def warmup(self):
        self.run(self._point(0))

    def inputs(self, k: int):
        return self._point(k + 1)

    def describe(self):
        return [map_large_docs(self.seed, p) for p in range(8)]

    def run(self, inp):
        _, _, topos = inp
        return {key: network.analyze(topo) for key, topo in topos.items()}

    def check(self, inp, out) -> list:
        point, docs, _ = inp
        failures = []
        for key, doc in docs.items():
            failures += [f"{key}: {msg}" for msg in check_flows(doc, out[key])]
            failures += [f"{key}: {msg}" for msg in check_renewal_leaves(doc, out[key])]
        ref = self.reference.get(str(point))
        if ref is not None:
            for key, nodes in ref.items():
                for nid, values in nodes.items():
                    got = out[key].metrics[nid].to_dict()
                    for metric, value in values.items():
                        if _rel(got[metric], value) > EXACT_REL:
                            failures.append(
                                f"{key}/{nid}: {metric} {got[metric]!r} != reference {value!r}"
                            )
        return failures

    def state(self):
        return None

    def finish(self, states) -> list:
        return []

    def work_units(self, out) -> int:
        return 1


# ---------------------------------------------------------------------------
# single-cache

POLICIES = ("R", "Sigma", "MinSigmaR")
LAWS = ("exp", "erlang", "det")
COMBOS = [(p, x, t) for p in POLICIES for x in LAWS for t in LAWS]
OMEGA = 0.5
# (policy, request law, TTL law) -> Table 1 model name.
TABLE1 = {
    ("R", "exp", "exp"): "M-M-R",
    ("R", "exp", "det"): "M-D-R",
    ("Sigma", "exp", "det"): "M-D-Sigma",
    ("MinSigmaR", "exp", "exp"): "M-M-min",
}


def _law(kind: str, rate: float):
    """A law of mean 1/rate."""
    if kind == "exp":
        return Exponential(rate)
    if kind == "erlang":
        return Erlang(2, 2.0 * rate)
    return Deterministic(1.0 / rate)


def _ph(law):
    if isinstance(law, Exponential):
        return PhaseTypeDistribution.exponential(law.rate)
    if isinstance(law, Erlang):
        return PhaseTypeDistribution.erlang(law.stages, law.rate)
    return None


def _renewal_map(ph: PhaseTypeDistribution) -> MarkovArrivalProcess:
    """Renewal arrivals with PH inter-arrival times as a MAP."""
    n = ph.order
    d1 = [(i, j, float(e * p)) for i, e in enumerate(ph.exit_rates)
          for j, p in enumerate(ph.pi.entries) if e * p != 0.0]
    return MarkovArrivalProcess(ph.s, RateMatrix.from_triplets(n, n, d1))


def _interval_stats(out, omega: float):
    """Transform at omega and second moment of the stationary inter-miss time."""
    d0 = out.map.d0.to_dense()
    d1 = out.map.d1.to_dense()
    p = _dense_stationary(d0 + d1)
    phi = p @ d1
    phi /= phi.sum()
    ones = np.ones(d0.shape[0])
    transform = float(phi @ np.linalg.solve(omega * np.eye(d0.shape[0]) - d0, d1 @ ones))
    y = np.linalg.solve(-d0, ones)
    second = float(2.0 * phi @ np.linalg.solve(-d0, y))
    return transform, second


class SingleCache:
    """One sweep of the 27 renewal queries (plus MAP-engine answers) per op.

    An op is a whole sweep, not one query: the median of single queries is a
    millisecond-scale MAP-engine query whose time doubled for minutes at a
    time on the shared host this was tuned on (a 25-30% run-to-run spread),
    while the sweep, which the Monte Carlo queries dominate, stays steady.
    """

    name = "single-cache"
    min_ops = 3
    required_spans = ("renewal.transform_r", "renewal.transform_sigma",
                      "renewal.transform_min", "renewal.expected_tau",
                      "renewal.occupancy_renewal", "cache_ops.output",
                      "metrics.metrics_from_maps", "kron.steady_state")
    setup_spans = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.mc_samples = inspect.signature(renewal.occupancy_renewal).parameters["samples"].default

    def spec(self, sweep: int, index: int) -> dict:
        policy, xk, tk = COMBOS[index]
        rng = _rng(self.seed, 2, sweep, index)
        lam, mu, nu = (_perturb(rng, r) for r in (1.0, 0.8, 1.5))
        if policy == "R" and xk == tk == "det":
            # An R cache never misses when the deterministic TTL outlasts the
            # request period; keep the TTL shorter.
            mu = 2.0 * lam
        return {"policy": policy, "x": xk, "t": tk, "lam": lam, "mu": mu, "nu": nu}

    def _build(self, sweep: int, index: int, samples=None):
        s = self.spec(sweep, index)
        x = _law(s["x"], s["lam"])
        t = _law(s["t"], s["mu"])
        t_r = _law(s["t"], s["nu"])
        if s["policy"] == "MinSigmaR":
            policy = StoppingPolicy.min_of(t, t_r)
        else:
            policy = StoppingPolicy(s["policy"], ttl=t)
        maps = None
        if _ph(x) is not None and _ph(t) is not None:
            maps = (_renewal_map(_ph(x)), _ph(t), _ph(t_r))
        rngs = [_rng(self.seed, 3, sweep, index, j) for j in range(3)]
        mc = {} if samples is None else {"samples": samples}
        return {"spec": s, "x": x, "t": t, "t_r": t_r, "policy": policy,
                "maps": maps, "rngs": rngs, "mc": mc}

    def warmup(self):
        """One sweep with the smallest Monte Carlo sample count.

        Every code path runs once before timing (the interpreter specializes
        on first use), at a small fraction of a timed sweep's cost.
        """
        self.run([self._build(WARMUP_STREAM, i, samples=WARMUP_SAMPLES)
                  for i in range(len(COMBOS))])

    def inputs(self, k: int):
        return [self._build(k, i) for i in range(len(COMBOS))]

    def describe(self):
        return [self.spec(0, i) for i in range(len(COMBOS))]

    def run(self, sweep):
        return [self.run_query(q) for q in sweep]

    def check(self, sweep, outs) -> list:
        return [msg for q, out in zip(sweep, outs) for msg in self.check_query(q, out)]

    def run_query(self, q):
        x, policy = q["x"], q["policy"]
        rng_tau, rng_occ, rng_tr = q["rngs"]
        mc = q["mc"]
        tau = renewal.expected_tau(x, policy, rng=rng_tau, **mc)
        occupancy = renewal.occupancy_renewal(x, policy, rng=rng_occ, **mc)
        if policy.tag == "R":
            transform = renewal.MonteCarloValue(renewal.transform_r(x, q["t"], OMEGA), 0.0)
        elif policy.tag == "Sigma":
            transform = renewal.MonteCarloValue(renewal.transform_sigma(x, q["t"], OMEGA), 0.0)
        else:
            transform = renewal.transform_min(x, q["t"], q["t_r"], OMEGA, rng=rng_tr, **mc)
        out = {"tau": tau, "occupancy": occupancy, "transform": transform,
               "map_output": None, "map_metrics": None}
        if q["maps"] is not None:
            m, t_ph, t_r_ph = q["maps"]
            if policy.tag == "R":
                cache = cache_ops.output_r(m, t_ph)
            elif policy.tag == "Sigma":
                cache = cache_ops.output_sigma(m, t_ph)
            else:
                cache = cache_ops.output_min(m, t_ph, t_r_ph)
            out["map_output"] = cache
            out["map_metrics"] = metrics.metrics_from_maps(m, cache)
        return out

    def check_query(self, q, out) -> list:
        s, x = q["spec"], q["x"]
        combo = (s["policy"], s["x"], s["t"])
        tau, occ, tr = out["tau"], out["occupancy"], out["transform"]
        values = {
            "hit": 1.0 - 1.0 / tau.value,
            "expected_stopped_sum": tau.value * x.mean,
            "occupancy": occ,
            "transform": tr.value,
        }
        failures = []
        if not (tau.value >= 1.0 and 0.0 < occ <= 1.0 and 0.0 < tr.value <= 1.0
                and all(math.isfinite(v) for v in values.values())):
            failures.append(f"{combo}: value out of range {values!r}")
            return failures
        model = TABLE1.get(combo)
        if model is not None:
            ref = renewal.table1_reference(s["lam"], s["mu"], s["nu"], OMEGA)[model]
            for key in ("transform", "expected_stopped_sum", "occupancy"):
                if _rel(values[key], ref[key]) > TABLE1_REL:
                    failures.append(f"{combo}: {key} {values[key]!r} != Table 1 {ref[key]!r}")
        cm = out["map_metrics"]
        if cm is None:
            return failures
        map_transform, map_second = _interval_stats(out["map_output"], OMEGA)
        exact = {
            "hit": cm.hit_probability,
            "expected_stopped_sum": cm.expected_inter_miss,
            "occupancy": cm.occupancy,
            "transform": map_transform,
        }
        # Standard error of each renewal value; 0 means an exact path.
        se_tau = tau.stderr
        se = {
            "hit": se_tau / tau.value**2,
            "expected_stopped_sum": se_tau * x.mean,
            "transform": tr.stderr,
        }
        all_exp = all(isinstance(v, Exponential) for v in (x, q["t"], q["t_r"]))
        if s["policy"] == "R":
            se["occupancy"] = 0.0
        elif s["policy"] == "Sigma":
            se["occupancy"] = occ * se_tau / tau.value
        elif all_exp:
            se["occupancy"] = 0.0
        else:
            # Ratio estimator mean(O)/mean(S) with 0 <= O <= S: its standard
            # error is at most sqrt(E[S^2] / n) / E[S].
            se["occupancy"] = math.sqrt(map_second / self.mc_samples) / cm.expected_inter_miss
        series = (s["policy"] == "Sigma" and s["x"] == "erlang" and s["t"] != "exp")
        for key, value in values.items():
            if se[key] > 0.0:
                ok = abs(value - exact[key]) <= MC_K_SE * se[key]
            elif key == "transform" and series:
                ok = _rel(value, exact[key]) <= SERIES_REL
            else:
                ok = _rel(value, exact[key]) <= EXACT_REL
            if not ok:
                failures.append(
                    f"{combo}: {key} renewal {value!r} vs MAP {exact[key]!r} (se {se[key]:g})"
                )
        return failures

    def state(self):
        return None

    def finish(self, states) -> list:
        return []

    def work_units(self, out) -> int:
        return len(out)


# ---------------------------------------------------------------------------
# sim-network

SIM_EVENTS = 20_000


def sim_network_doc(seed: int) -> dict:
    """8 nodes, four leaf kinds, one split node (M1) feeding two sinks."""
    rng = _rng(seed, 4)
    w = float(rng.uniform(0.35, 0.65))
    up, down = _perturb(rng, 0.4), _perturb(rng, 0.8)
    return {
        "nodes": [
            {"id": "A", "policy": "R", "ttl": _erlang(2, _perturb(rng, 3.0))},
            {"id": "B", "policy": "Sigma", "ttl": {"exp": _perturb(rng, 1.2)}},
            {"id": "C", "policy": "MinSigmaR", "ttl": {"exp": _perturb(rng, 1.0)},
             "ttl_r": _erlang(2, _perturb(rng, 4.0))},
            {"id": "D", "policy": "Sigma",
             "ttl": {"ph": {"s": [[-_perturb(rng, 2.0), 1.0], [0.0, -_perturb(rng, 1.5)]],
                            "pi": [0.6, 0.4]}}},
            {"id": "M1", "policy": "Sigma", "ttl": {"exp": _perturb(rng, 0.9)},
             "children": ["A", "B"], "split": [w, 1.0 - w]},
            {"id": "M2", "policy": "R", "ttl": {"exp": _perturb(rng, 1.1)},
             "children": ["C", "D"]},
            {"id": "T1", "policy": "Sigma", "ttl": {"exp": _perturb(rng, 0.6)},
             "children": ["M1"]},
            {"id": "T2", "policy": "R", "ttl": {"exp": _perturb(rng, 0.8)},
             "children": ["M1", "M2"]},
        ],
        "arrivals": {
            "A": {"poisson": _perturb(rng, 1.0)},
            "B": {"mmpp": {"q": [[-up, up], [down, -down]],
                           "rates": [_perturb(rng, 2.5), _perturb(rng, 0.5)]}},
            "C": {"poisson": _perturb(rng, 1.5)},
            "D": {"poisson": _perturb(rng, 0.7)},
        },
    }


def pool_estimates(estimates):
    """Average equal-length independent runs; standard errors add in quadrature."""
    n = len(estimates)
    nodes = {}
    for nid in estimates[0].nodes:
        per = [e.nodes[nid] for e in estimates]
        fields = {}
        for name in per[0].__dataclass_fields__:
            vals = [getattr(p, name) for p in per]
            if name in ("requests", "hits", "misses"):
                fields[name] = sum(vals)
            elif name.endswith("_se"):
                fields[name] = math.sqrt(sum(v * v for v in vals)) / n
            else:
                fields[name] = sum(vals) / n
        nodes[nid] = sim.NodeEstimate(**fields)
    first = estimates[0]
    return sim.SimEstimate(
        object_id=first.object_id,
        seed=first.seed,
        events=sum(e.events for e in estimates),
        counted_events=sum(e.counted_events for e in estimates),
        duration=sum(e.duration for e in estimates),
        nodes=nodes,
    )


def _estimate_from_dict(d: dict):
    return sim.SimEstimate(
        object_id=d["object"],
        seed=d["seed"],
        events=d["events"],
        counted_events=d["counted_events"],
        duration=d["duration"],
        nodes={nid: sim.NodeEstimate(**fields) for nid, fields in d["nodes"].items()},
    )


def check_counts(doc: dict, est) -> list:
    """Exact counting identities of one simulation run."""
    failures = []
    nodes = {n["id"]: n for n in doc["nodes"]}
    leaves = [nid for nid, n in nodes.items() if not n.get("children")]
    feeders = {c for n in nodes.values() for c in n.get("children", ())}
    e = est.nodes
    for nid, ne in e.items():
        if ne.hits + ne.misses != ne.requests:
            failures.append(f"{nid}: hits + misses != requests")
    if sum(e[nid].requests for nid in leaves) != est.counted_events:
        failures.append("leaf requests != counted leaf events")
    inner = sum(e[nid].requests for nid in nodes if nid not in leaves)
    if inner != sum(e[nid].misses for nid in feeders):
        failures.append("requests above the leaves != misses forwarded by children")
    return failures


class SimNetwork:
    """One sim.simulate call (plus its compare) with a fixed leaf-event count per op."""

    name = "sim-network"
    min_ops = 100
    required_spans = ("sim.simulate", "sim.compare", "processes.MapSampler.init")
    setup_spans = ("network.parse_topology",)
    # Of the 8 x 4 compare rows, "miss" mirrors "hit", leaving 24 distinct
    # two-sided 4-SE tests: about 24 * 6.3e-5 = 1.5e-3 false alarms per run.
    FALSE_ALARM_PER_RUN = 24 * math.erfc(SIM_K_SE / math.sqrt(2.0))

    def __init__(self, seed: int):
        self.seed = seed
        self.doc = sim_network_doc(seed)
        self.topology = network.parse_topology(self.doc)
        self.analytic = network.analyze(self.topology)
        self.estimates = []

    def _config(self, stream: int):
        sim_seed = int(_rng(self.seed, 5, stream).integers(2**63))
        return sim.SimConfig(topology=self.topology, event_cap=SIM_EVENTS, seed=sim_seed)

    def warmup(self):
        self.run(self._config(WARMUP_STREAM))

    def inputs(self, k: int):
        return self._config(k)

    def describe(self):
        return {"doc": self.doc, "events": SIM_EVENTS,
                "seeds": [self._config(k).seed for k in range(8)]}

    def run(self, cfg):
        est = sim.simulate(cfg)
        return est, sim.compare(self.analytic, est, k_sigma=SIM_K_SE)

    def check(self, cfg, out) -> list:
        est, report = out
        self.estimates.append(est)
        failures = check_counts(self.doc, est)
        if len(report.rows) != 4 * len(self.doc["nodes"]):
            failures.append("compare did not report every node and metric")
        return failures

    def state(self):
        return [est.to_dict() for est in self.estimates]

    def finish(self, states) -> list:
        """Pooled 4-SE agreement with the analytic engine over every op of the run."""
        estimates = [_estimate_from_dict(d) for state in states for d in state]
        if not estimates:
            return ["no simulation ran"]
        pooled = pool_estimates(estimates)
        report = sim.compare(self.analytic, pooled, k_sigma=SIM_K_SE)
        return [
            f"{r.node}/{r.metric}: pooled {r.empirical!r} vs exact {r.analytic!r}"
            f" (z = {r.z_score:.2f})"
            for r in report.flagged
        ]

    def work_units(self, out) -> int:
        return out[0].events


WORKLOADS = {w.name: w for w in (MapLarge, SingleCache, SimNetwork)}
