"""Import guard: `import ttlnet`, parse, analyze, `metrics_from_maps` and
simulate load no scipy module, no jsonschema and no numpy.ma.

    python tests/import_guard.py configs/tree3.json

Imports ttlnet, parses and analyzes the topology, simulates 2e4 leaf
events, and analyzes `LARGE`, whose root chain is above the GTH bound, with
the sparse LU refused, so that its given-input solve must succeed; then it
runs `metrics_from_maps` without an input vector on a cache output chain
above that bound, which must find the vector itself and take the same
route. Then it analyzes the two map-large shapes of `topologies.py`, the
5,000-state tree and the 2,916-state line, whose given-input systems over
2,500 and 1,944 IN states are solved on their Kronecker factors, and runs
`expected_tau`, `occupancy_renewal` and the
transform of one renewal query per route of the `renewal` module's route
table and of R caches over Exponential, Erlang and Deterministic laws, and
E[tau] and the occupancy of Erlang(2) and Deterministic requests under
Sigma TTLs of 250 and 2,000 Erlang phases, above `kron._DENSE_MAX`,
against closed forms and Poisson sums. Then it runs a leaf MAP of 100
states, above the GTH bound and within the dense one: the fundamental rate
of a ring MMPP, the analysis of an R cache over it and 2e4 simulated
events. Then the LU fallback of the stationary solve on the topology,
whose chains are all within the dense bound, and `ph_mean` and
`stationary_interval_moments` of small laws, all by dense LU. After each
step it checks that none of `LAZY` is in `sys.modules`. Then, in the same
process, it runs each route that imports one of them on first use against
the values of the routes that do not or against independent values:
`LARGE` again with scipy's sparse product (`kron._NUMPY_PRODUCT_MAX`
patched to 0), the LU fallback on `LU_LARGE`, whose root chain is above
the dense bound, and `ph_mean` and `stationary_interval_moments` of laws
above it. Exits 0 when all checks pass, else with a message naming the
first failure.
"""

import math
import sys
from pathlib import Path

from topologies import erlang_tree, mmpp_line

LAZY = (
    "jsonschema",
    "numpy.ma",
    "scipy",
    "scipy.sparse",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
    "scipy.special",
)

# one query per route of the renewal route table (requests, policy), and R
# caches over each pair of Exponential, Erlang and Deterministic laws
def _renewal_queries():
    from ttlnet.renewal import Deterministic, Erlang, Exponential, StoppingPolicy, Tabulated

    exp, erlang, det = Exponential(0.8), Erlang(2, 1.6), Deterministic(1.3)
    tab = Tabulated(0.1, [0.5] * 20)
    sigma, min_of = StoppingPolicy.reset_on_miss, StoppingPolicy.min_of
    queries = [
        (Exponential(1.0), sigma(erlang)),  # closed form, Exponential requests
        (Erlang(2, 2.0), sigma(exp)),  # closed form, Exponential TTL
        (Exponential(1.0), min_of(exp, Exponential(1.5))),  # closed form, Exponential Sigma TTL
        (Erlang(2, 2.0), min_of(exp, Erlang(2, 3.0))),  # closed form, Exponential Sigma TTL
        (Erlang(2, 2.0), min_of(exp, tab)),  # closed form, Exponential Sigma TTL
        (Erlang(2, 2.0), sigma(erlang)),  # power series, phase-type laws
        (Exponential(1.0), min_of(erlang, Erlang(2, 3.0))),  # power series, phase-type laws
        (Deterministic(0.9), sigma(erlang)),  # power series
        (tab, min_of(erlang, det)),  # power series
        (Deterministic(0.4), sigma(det)),  # partial sums
        (tab, min_of(tab, Exponential(1.5))),  # partial sums
        (Erlang(2, 2.0), min_of(det, Deterministic(0.67))),  # delay equation
        (Erlang(2, 2.0), sigma(det)),  # alive chain
        (Exponential(1.0), min_of(tab, erlang)),  # alive chain
    ]
    for x in (Exponential(1.0), Erlang(2, 2.0), Deterministic(1.0)):
        for ttl in (exp, erlang, Deterministic(0.5)):
            queries.append((x, StoppingPolicy.reset_on_request(ttl)))
    return queries


def _transform(x, policy, omega):
    from ttlnet.renewal import transform_min, transform_r, transform_sigma

    if policy.tag == "R":
        return transform_r(x, policy.ttl, omega)
    if policy.tag == "Sigma":
        return transform_sigma(x, policy.ttl, omega)
    return transform_min(x, policy.ttl_sigma, policy.ttl_r, omega).value


# two Poisson leaves with Erlang-3 TTLs (4 output states each) under a
# Sigma cache with an Erlang-4 TTL: 16 input and 80 output states
LARGE = {
    "nodes": [
        {"id": "A", "policy": "R", "ttl": {"erlang": {"stages": 3, "rate": 3.0}}},
        {"id": "B", "policy": "Sigma", "ttl": {"erlang": {"stages": 3, "rate": 2.0}}},
        {"id": "T", "policy": "Sigma", "ttl": {"erlang": {"stages": 4, "rate": 2.0}},
         "children": ["A", "B"]},
    ],
    "arrivals": {"A": {"poisson": 1.0}, "B": {"poisson": 2.0}},
}


# LARGE with an Erlang-15 root TTL: 16 input and 256 output states, above
# `kron._DENSE_MAX`
LU_LARGE = {
    **LARGE,
    "nodes": LARGE["nodes"][:2]
    + [{**LARGE["nodes"][2], "ttl": {"erlang": {"stages": 15, "rate": 2.0}}}],
}


def _ring_mmpp(n: int) -> tuple[list, list]:
    """(q, rates) of an MMPP whose phases step around a ring at rate 1, so
    that its stationary vector is uniform, with rates 0.5, 1, ..., 2.5 in
    turn: a mean rate of 1.5 when 5 divides n."""
    q = [[0.0] * n for _ in range(n)]
    for i in range(n):
        q[i][i], q[i][(i + 1) % n] = -1.0, 1.0
    return q, [0.5 * (1 + i % 5) for i in range(n)]


def _require_unloaded(step: str) -> None:
    loaded = [name for name in LAZY if name in sys.modules]
    if loaded:
        sys.exit(f"{step} loaded {', '.join(loaded)}")


def _require_close(what: str, got: float, want: float, rtol: float = 1e-9) -> None:
    if not math.isclose(got, want, rel_tol=rtol):
        sys.exit(f"{what}: {got!r} != {want!r}")


def _poisson_below(mean: float, n: int) -> float:
    """P(N < n) for N ~ Poisson(mean), each term from its logarithm."""
    if mean == 0.0:
        return 1.0
    return math.fsum(math.exp(j * math.log(mean) - mean - math.lgamma(j + 1)) for j in range(n))


def main(config: str) -> None:
    import ttlnet
    from ttlnet import kron
    from ttlnet.renewal import (
        Deterministic,
        Erlang,
        StoppingPolicy,
        expected_tau,
        occupancy_renewal,
    )

    _require_unloaded("import ttlnet")
    topo = ttlnet.parse_topology(Path(config).read_text())
    _require_unloaded("parse_topology")
    result = ttlnet.analyze(topo)
    _require_unloaded("analyze")
    ttlnet.simulate(ttlnet.SimConfig(topology=topo, event_cap=20_000, seed=0))
    _require_unloaded("simulate")

    def refuse(*args):
        sys.exit("the given-input solve failed: the sparse LU ran")

    lu_solve, kron._lu_solve = kron._lu_solve, refuse
    large = ttlnet.analyze(ttlnet.parse_topology(LARGE))
    if large.dimensions["T"]["output"] <= kron._GTH_MAX:
        sys.exit("the large topology has no chain above the GTH bound")
    # a Sigma cache with an Erlang-40 TTL fed by a two-state MMPP: 82 states
    requests = ttlnet.mmpp_map([[-0.5, 0.5], [1.0, -1.0]], [4.0, 0.5])
    out = ttlnet.output_sigma(requests, ttlnet.PhaseTypeDistribution.erlang(40, 8.0))
    if out.order <= kron._GTH_MAX:
        sys.exit("the cache output chain is within the GTH bound")
    ttlnet.metrics_from_maps(requests, out)
    kron._lu_solve = lu_solve
    _require_unloaded("the given-input solve")

    systems = []
    bicgstab = kron._bicgstab

    def record(product, inv_diag, b, x):
        systems.append(b.size)
        return bicgstab(product, inv_diag, b, x)

    kron._bicgstab = record
    for name, doc in [("the map-large tree", erlang_tree(4)), ("the map-large line", mmpp_line())]:
        systems.clear()
        ttlnet.analyze(ttlnet.parse_topology(doc))
        _require_unloaded(name)
        if max(systems) < 1_944:
            sys.exit(f"{name} solved no system of 1,944 states or more")
    kron._bicgstab = bicgstab

    for x, policy in _renewal_queries():
        values = expected_tau(x, policy).value, occupancy_renewal(x, policy), _transform(x, policy, 0.5)
        if not all(math.isfinite(v) for v in values):
            sys.exit(f"renewal query {x!r}, {policy!r} gave {values!r}")
    # R cache, i.i.d. Erlang gap and TTL: a miss ends each gap longer than
    # the TTL, which has probability 1/2
    tau = expected_tau(Erlang(2, 1.0), StoppingPolicy.reset_on_request(Erlang(2, 1.0)))
    _require_close("Erlang R expected_tau", tau.value, 2.0)
    # Sigma cache, deterministic TTL c: 1 + the Erlang(2, 1) renewal
    # function c / 2 - 1 / 4 + exp(-2 c) / 4
    tau = expected_tau(Erlang(2, 1.0), StoppingPolicy.reset_on_miss(Deterministic(1.5)))
    _require_close("Deterministic Sigma expected_tau", tau.value, 1.5 + math.exp(-3.0) / 4)
    # Sigma TTLs of more Erlang phases than the dense bound, by power series
    for ttl in (Erlang(250, 100.0), Erlang(2000, 800.0)):
        policy = StoppingPolicy.reset_on_miss(ttl)
        # Erlang(2, 2) requests: 1 plus the renewal function at the TTL,
        # 2 t / 2 - 1 / 4 + exp(-4 t) / 4; Deterministic(0.5) requests:
        # request k is a hit iff the TTL outlasts k / 2, that is iff fewer
        # than n events of a Poisson(r k / 2) count
        steps = range(int(4 * ttl.mean) + 60)
        references = [
            (Erlang(2, 2.0), 0.75 + ttl.mean + ttl.laplace(4.0) / 4),
            (Deterministic(0.5), math.fsum(_poisson_below(ttl.rate * k / 2, ttl.stages) for k in steps)),
        ]
        for x, want in references:
            what = f"{x!r} under Sigma {ttl!r}"
            _require_close(f"{what}: expected_tau", expected_tau(x, policy).value, want)
            # a Sigma cache holds the object for the whole TTL
            _require_close(f"{what}: occupancy", occupancy_renewal(x, policy), ttl.mean / (want * x.mean))
    _require_unloaded("renewal routes")

    # a 100-state leaf MAP: above the GTH bound, its stationary vector by dense LU
    q, rates = _ring_mmpp(100)
    _require_close("ring MMPP rate", ttlnet.fundamental_rate(ttlnet.mmpp_map(q, rates)), 1.5)
    ring = ttlnet.parse_topology({
        "nodes": [{"id": "A", "policy": "R", "ttl": {"exp": 2.0}}],
        "arrivals": {"A": {"mmpp": {"q": q, "rates": rates}}},
    })
    cache = ttlnet.analyze(ring).metrics["A"]
    _require_close("ring MMPP R cache input rate", cache.input_rate, 1.5)
    ttlnet.simulate(ttlnet.SimConfig(topology=ring, event_cap=20_000, seed=0))
    _require_unloaded("the 100-state ring MMPP")

    # LU fallback, GTH declining on every node and BiCGSTAB stalling on any
    # larger one: every chain of the topology is within the dense bound
    gth, kron._gth = kron._gth, lambda q: None
    kron._bicgstab = lambda a, inv_diag, b, x: (x, 1)
    for nid, metrics in ttlnet.analyze(topo).metrics.items():
        want = result.metrics[nid].to_dict()
        for name, value in metrics.to_dict().items():
            _require_close(f"dense LU fallback {nid}.{name}", value, want[name])
    kron._gth, kron._bicgstab = gth, bicgstab
    _require_unloaded("the dense LU fallback")

    erlang = ttlnet.PhaseTypeDistribution.erlang(3, 2.0)
    _require_close("ph_mean of Erlang(3, 2)", ttlnet.ph_mean(erlang), 1.5)
    moments = ttlnet.stationary_interval_moments(ttlnet.poisson_map(2.0))
    _require_close("Poisson(2) first moment", moments[0], 0.5)
    _require_close("Poisson(2) second moment", moments[1], 0.5)
    _require_unloaded("ph_mean and stationary_interval_moments")

    # above the product bound, BiCGSTAB multiplies with scipy.sparse
    bound, kron._NUMPY_PRODUCT_MAX = kron._NUMPY_PRODUCT_MAX, 0
    for nid, metrics in ttlnet.analyze(ttlnet.parse_topology(LARGE)).metrics.items():
        want = large.metrics[nid].to_dict()
        for name, value in metrics.to_dict().items():
            _require_close(f"scipy product {nid}.{name}", value, want[name])
    if "scipy.sparse" not in sys.modules:
        sys.exit("the scipy product did not run")
    kron._NUMPY_PRODUCT_MAX = bound

    # LU fallback above the dense bound: the sparse LU
    lu_large = ttlnet.parse_topology(LU_LARGE)
    exact = ttlnet.analyze(lu_large)
    if exact.dimensions["T"]["output"] <= kron._DENSE_MAX:
        sys.exit("LU_LARGE has no chain above the dense bound")
    kron._gth = lambda q: None
    kron._bicgstab = lambda a, inv_diag, b, x: (x, 1)
    for nid, metrics in ttlnet.analyze(lu_large).metrics.items():
        want = exact.metrics[nid].to_dict()
        for name, value in metrics.to_dict().items():
            _require_close(f"sparse LU fallback {nid}.{name}", value, want[name])
    kron._gth, kron._bicgstab = gth, bicgstab
    if "scipy.sparse.linalg" not in sys.modules:
        sys.exit("the sparse LU fallback did not run")

    # laws above the dense bound: sparse LU; an Erlang(250, 250) renewal
    # process has inter-event moments 1 and 251 / 250
    erlang = ttlnet.PhaseTypeDistribution.erlang(250, 250.0)
    _require_close("ph_mean of Erlang(250, 250)", ttlnet.ph_mean(erlang), 1.0)
    d1 = ttlnet.RateMatrix.from_triplets(250, 250, [(249, 0, 250.0)])
    moments = ttlnet.stationary_interval_moments(ttlnet.MarkovArrivalProcess(erlang.s, d1))
    _require_close("Erlang(250, 250) first moment", moments[0], 1.0)
    _require_close("Erlang(250, 250) second moment", moments[1], 251 / 250)

if __name__ == "__main__":
    main(sys.argv[1])
