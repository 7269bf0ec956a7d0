"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion. Every tolerance below is final; none is calibrated at runtime.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
from conftest import random_map, random_ph
from ttlnet import (
    Deterministic,
    Erlang,
    Exponential,
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    ProbabilityVector,
    RateMatrix,
    StoppingPolicy,
    Tabulated,
    analyze,
    expected_stopped_sum,
    fundamental_rate,
    hit_miss_renewal,
    metrics_from_maps,
    mmpp_map,
    occupancy_renewal,
    output_min,
    output_r,
    output_sigma,
    parse_topology,
    poisson_map,
    split,
    state_space_size,
    stationary_interval_moments,
    superpose,
    table1_reference,
    transform_min,
    transform_r,
    transform_sigma,
    validate_map,
)
from ttlnet.renewal import _weights
from ttlnet.sim import SimConfig, compare, simulate


def report(number: int, label: str) -> None:
    print(f"PASS criterion {number}: {label}")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


FIG2_LINE = {
    "nodes": [
        {"id": "C1", "policy": "Sigma", "ttl": {"exp": 1.0}},
        {"id": "C2", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["C1"]},
    ],
    "arrivals": {"C1": {"poisson": 1.0}},
}

FIG3_TREE = {
    "nodes": [
        {"id": "C1", "policy": "Sigma", "ttl": {"exp": 1.0}},
        {"id": "C2", "policy": "Sigma", "ttl": {"exp": 1.0}},
        {"id": "C3", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["C1", "C2"]},
    ],
    "arrivals": {"C1": {"poisson": 1.0}, "C2": {"poisson": 1.0}},
}


def test_criterion_1_table_closed_forms():
    started = time.perf_counter()
    lams = [0.5, 1.0, 2.0, 3.5, 0.8]
    mus = [1.0, 0.6]
    nus = [1.0, 2.2]
    omegas = [0.0, 1.0]
    combos = list(itertools.product(lams, mus, nus, omegas))[:20]
    assert len(combos) == 20
    for lam, mu, nu, omega in combos:
        ref = table1_reference(lam, mu, nu, omega)
        x = Exponential(lam)
        exp_ttl, det_ttl, r_ttl = Exponential(mu), Deterministic(1.0 / mu), Exponential(nu)
        checks = [
            (transform_r(x, exp_ttl, omega), ref["M-M-R"]["transform"]),
            (transform_sigma(x, exp_ttl, omega), ref["M-M-R"]["transform"]),
            (transform_r(x, det_ttl, omega), ref["M-D-R"]["transform"]),
            (transform_sigma(x, det_ttl, omega), ref["M-D-Sigma"]["transform"]),
            (
                transform_min(x, exp_ttl, r_ttl, omega).value,
                ref["M-M-min"]["transform"],
            ),
            (
                expected_stopped_sum(x, StoppingPolicy.reset_on_request(exp_ttl)),
                ref["M-M-R"]["expected_stopped_sum"],
            ),
            (
                expected_stopped_sum(x, StoppingPolicy.reset_on_request(det_ttl)),
                ref["M-D-R"]["expected_stopped_sum"],
            ),
            (
                expected_stopped_sum(x, StoppingPolicy.reset_on_miss(det_ttl)),
                ref["M-D-Sigma"]["expected_stopped_sum"],
            ),
            (
                expected_stopped_sum(x, StoppingPolicy.min_of(exp_ttl, r_ttl)),
                ref["M-M-min"]["expected_stopped_sum"],
            ),
            (
                occupancy_renewal(x, StoppingPolicy.reset_on_request(exp_ttl)),
                ref["M-M-R"]["occupancy"],
            ),
            (
                occupancy_renewal(x, StoppingPolicy.reset_on_request(det_ttl)),
                ref["M-D-R"]["occupancy"],
            ),
            (
                occupancy_renewal(x, StoppingPolicy.reset_on_miss(det_ttl)),
                ref["M-D-Sigma"]["occupancy"],
            ),
            (
                occupancy_renewal(x, StoppingPolicy.min_of(exp_ttl, r_ttl)),
                ref["M-M-min"]["occupancy"],
            ),
        ]
        for got, want in checks:
            assert rel_err(got, want) <= 1e-12, (lam, mu, nu, omega, got, want)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    report(1, f"closed forms on 20 rate combos to 1e-12 in {elapsed:.3f}s")


def test_criterion_2_bit_exact_fixtures():
    started = time.perf_counter()
    lam, mu, nu = 1.25, 0.75, 2.0

    # single cache, then iterated: both printed matrix pairs, exactly
    first = output_sigma(poisson_map(lam), PhaseTypeDistribution.exponential(mu))
    assert first.map.d0 == RateMatrix.from_dense([[-lam, 0.0], [mu, -mu]])
    assert first.map.d1 == RateMatrix.from_dense([[0.0, lam], [0.0, 0.0]])
    second = output_sigma(first.map, PhaseTypeDistribution.exponential(nu))
    assert second.map.d0 == RateMatrix.from_dense(
        [
            [-lam, 0.0, 0.0, 0.0],
            [mu, -mu, 0.0, 0.0],
            [nu, 0.0, -lam - nu, lam],
            [0.0, nu, mu, -mu - nu],
        ]
    )
    assert second.map.d1 == RateMatrix.from_triplets(4, 4, [(0, 3, lam)])

    # superposition of two on/off miss processes: the printed Kronecker sum
    l1, l2, m1, m2 = 1.0, 2.0, 0.5, 0.25
    parts = [
        MarkovArrivalProcess(
            RateMatrix.from_dense([[-l, 0.0], [m, -m]]),
            RateMatrix.from_dense([[0.0, l], [0.0, 0.0]]),
        )
        for l, m in [(l1, m1), (l2, m2)]
    ]
    joined = superpose(parts)
    first_block = np.array(
        [[-l1, 0, 0, 0], [0, -l1, 0, 0], [m1, 0, -m1, 0], [0, m1, 0, -m1]]
    )
    second_block = np.array(
        [[-l2, 0, 0, 0], [m2, -m2, 0, 0], [0, 0, -l2, 0], [0, 0, m2, -m2]]
    )
    assert np.array_equal(joined.d0.to_dense(), first_block + second_block)
    active = np.zeros((4, 4))
    active[0, 2] = active[1, 3] = l1
    active[0, 1] = active[2, 3] = l2
    assert np.array_equal(joined.d1.to_dense(), active)

    # modulated arrivals with chain TTLs: 6, 6, and 10 states; active arcs
    # only from the OUT layer
    arrivals = mmpp_map([[-0.4, 0.4], [0.9, -0.9]], [1.1, 2.3])
    chain_mu = PhaseTypeDistribution(
        RateMatrix.from_dense([[-0.6, 0.6], [0.0, -1.7]]), ProbabilityVector([1.0, 0.0])
    )
    chain_nu = PhaseTypeDistribution(
        RateMatrix.from_dense([[-0.8, 0.8], [0.0, -1.9]]), ProbabilityVector([1.0, 0.0])
    )
    for out, want_states in [
        (output_sigma(arrivals, chain_mu), 6),
        (output_r(arrivals, chain_nu), 6),
        (output_min(arrivals, chain_mu, chain_nu), 10),
    ]:
        assert out.order == want_states
        assert np.all(out.map.d1.row_idx < arrivals.order)
        assert validate_map(out.map).ok
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s"
    report(2, f"bit-exact constructions verified in {elapsed:.3f}s")


def test_criterion_3_cross_engine_consistency():
    started = time.perf_counter()
    grid = [
        (0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.4, 1.5), (3.0, 2.5, 0.3),
        (0.7, 0.7, 2.0), (1.5, 3.0, 0.8), (0.9, 1.8, 1.2), (2.5, 0.6, 0.5),
        (1.2, 1.2, 3.0), (4.0, 1.0, 2.5),
    ]
    for lam, mu, nu in grid:
        m = poisson_map(lam)
        t_mu = PhaseTypeDistribution.exponential(mu)
        t_nu = PhaseTypeDistribution.exponential(nu)
        x = Exponential(lam)
        cases = [
            (output_r(m, t_mu), StoppingPolicy.reset_on_request(Exponential(mu))),
            (output_sigma(m, t_mu), StoppingPolicy.reset_on_miss(Exponential(mu))),
            (
                output_min(m, t_mu, t_nu),
                StoppingPolicy.min_of(Exponential(mu), Exponential(nu)),
            ),
        ]
        for out, policy in cases:
            got = metrics_from_maps(m, out)
            ref = hit_miss_renewal(x, policy)
            occ = occupancy_renewal(x, policy)
            assert abs(got.hit_probability - ref.hit) <= 1e-9
            assert abs(got.miss_probability - ref.miss) <= 1e-9
            assert abs(got.occupancy - occ) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.3f}s"
    report(3, f"MAP and renewal engines agree to 1e-9 on 10-point grid in {elapsed:.2f}s")


def test_criterion_4_oracle_agreement():
    started = time.perf_counter()
    flagged = []
    for name, doc, seed in [("line", FIG2_LINE, 101), ("tree", FIG3_TREE, 202)]:
        topo = parse_topology(doc)
        exact = analyze(topo)
        est = simulate(SimConfig(topology=topo, event_cap=1_000_000, seed=seed))
        rep = compare(exact, est, k_sigma=4.0)
        wanted = [r for r in rep.rows if r.metric in ("hit", "miss", "occupancy")]
        flagged += [(name, r.node, r.metric, r.z_score) for r in wanted if r.flagged]
    assert not flagged, flagged
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    report(4, f"1e6-event simulations match analysis within 4 SE in {elapsed:.1f}s")


def test_criterion_5_memorylessness_collapse():
    started = time.perf_counter()
    rng = np.random.default_rng(5050)
    for _ in range(50):
        m = random_map(rng, 4)
        ttl = PhaseTypeDistribution.exponential(float(rng.uniform(0.2, 3.0)))
        a, b = output_r(m, ttl), output_sigma(m, ttl)
        assert a.map.d0 == b.map.d0 and a.map.d1 == b.map.d1
    for x in (Exponential(1.3), Erlang(2, 2.0), Deterministic(0.9)):
        for mu in (0.5, 1.0, 2.0):
            for omega in (0.0, 0.3, 1.0, 2.4):
                assert (
                    abs(
                        transform_r(x, Exponential(mu), omega)
                        - transform_sigma(x, Exponential(mu), omega)
                    )
                    <= 1e-9
                )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.3f}s"
    report(5, f"exponential-TTL policy collapse exact on 50 random MAPs in {elapsed:.2f}s")


def test_criterion_6_hypoexponential_law():
    lam, mu = 1.0, 1.0
    m = poisson_map(lam)
    out = output_sigma(m, PhaseTypeDistribution.exponential(mu))
    m1, m2 = stationary_interval_moments(out.map, 2)
    want_m1 = 1.0 / lam + 1.0 / mu
    want_m2 = 2.0 * (1.0 / lam**2 + 1.0 / (lam * mu) + 1.0 / mu**2)
    assert rel_err(m1, want_m1) <= 1e-9
    assert rel_err(m2, want_m2) <= 1e-9

    topo = parse_topology(
        {
            "nodes": [{"id": "c", "policy": "Sigma", "ttl": {"exp": mu}}],
            "arrivals": {"c": {"poisson": lam}},
        }
    )
    est = simulate(SimConfig(topology=topo, event_cap=1_000_000, seed=606))
    node = est.nodes["c"]
    assert abs(node.inter_miss_mean - want_m1) <= 3.0 * node.inter_miss_mean_se
    assert abs(node.inter_miss_m2 - want_m2) <= 3.0 * node.inter_miss_m2_se
    report(6, "miss process carries the two-stage interval law, exactly and empirically")


def _random_topology(rng, index: int) -> dict:
    """Small random feedforward DAG: a tree with an optional split diamond."""
    policies = ["R", "Sigma", "MinSigmaR"]

    def ttl():
        if rng.random() < 0.5:
            return {"exp": float(rng.uniform(0.4, 2.0))}
        return {"erlang": {"stages": int(rng.integers(1, 3)), "rate": float(rng.uniform(0.5, 2.0))}}

    def node(nid, children=(), with_split=None):
        pol = policies[int(rng.integers(0, 3))]
        spec = {"id": nid, "policy": pol, "ttl": ttl()}
        if pol == "MinSigmaR":
            spec["ttl_r"] = ttl()
        if children:
            spec["children"] = list(children)
        if with_split is not None:
            spec["split"] = with_split
        return spec

    def arrival():
        if rng.random() < 0.5:
            return {"poisson": float(rng.uniform(0.5, 2.0))}
        a, b = float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5))
        return {
            "mmpp": {
                "q": [[-a, a], [b, -b]],
                "rates": [float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))],
            }
        }

    shape = index % 3
    if shape == 0:  # two-level tree
        n_leaves = int(rng.integers(1, 3))
        leaves = [node(f"l{i}") for i in range(n_leaves)]
        nodes = leaves + [node("root", [f"l{i}" for i in range(n_leaves)])]
        arrivals = {f"l{i}": arrival() for i in range(n_leaves)}
    elif shape == 1:  # three-node line
        nodes = [node("a"), node("b", ["a"]), node("c", ["b"])]
        arrivals = {"a": arrival()}
    else:  # split into two separate sinks
        w = float(rng.uniform(0.2, 0.8))
        nodes = [
            node("src", with_split=[w, 1.0 - w]),
            node("p1", ["src"]),
            node("p2", ["src"]),
        ]
        arrivals = {"src": arrival()}
    return {"nodes": nodes, "arrivals": arrivals}


def _invariant_errors(topo, result) -> dict:
    """The largest violation, over the nodes of `result`, of each flow and
    stationary-vector invariant that `analyze` must keep exactly."""
    obj = topo.object_by_id(result.object_id)
    metrics = result.metrics
    errors = dict.fromkeys(("hit+miss", "inter-miss", "inner rate", "leaf rate", "marginal"), 0.0)

    def record(name, value):
        errors[name] = max(errors[name], value)

    for nid in topo.topological_order():
        node, m = topo.nodes[nid], metrics[nid]
        record("hit+miss", rel_err(m.hit_probability + m.miss_probability, 1.0))
        record("inter-miss", rel_err(m.expected_inter_miss * m.miss_rate, 1.0))
        if node.children:
            inflow = 0.0
            for child in node.children:
                split = topo.nodes[child].split
                weight = 1.0 if split is None else split[topo.parents_of(child).index(nid)]
                inflow += metrics[child].miss_rate * weight
            record("inner rate", rel_err(m.input_rate, inflow))
            p_in = metrics[node.children[0]].stationary
            for child in node.children[1:]:
                p_in = np.kron(p_in, metrics[child].stationary)
        else:
            arrival = topo.arrival_for(obj, nid)
            record("leaf rate", rel_err(m.input_rate, fundamental_rate(arrival)))
            p_in = arrival.stationary.entries
        marginal = m.stationary.reshape(-1, p_in.size).sum(axis=0)
        record("marginal", float(np.max(np.abs(marginal - p_in))))
    return errors


def test_criterion_7_dimension_laws():
    rng = np.random.default_rng(707)
    worst = {}
    for index in range(25):
        topo = parse_topology(_random_topology(rng, index))
        predicted = state_space_size(topo)
        result = analyze(topo, budget=200_000)  # raises on any realized mismatch
        assert result.dimensions == predicted
        for name, error in _invariant_errors(topo, result).items():
            worst[name] = max(worst.get(name, 0.0), error)
    # flows: hit + miss = 1, E[inter-miss] * miss rate = 1, a node's input rate
    # is its children's miss rates times their split weights (a leaf's is its
    # arrival MAP's rate), all relative; the output vector's marginal over the
    # TTL blocks is the input vector, absolute
    for name, error in worst.items():
        assert error <= 1e-12, (name, error)
    tree = parse_topology(FIG3_TREE)
    assert state_space_size(tree)["C3"]["output"] == 8
    assert analyze(tree).dimensions["C3"]["output"] == 8
    report(7, "dimensions, flows and input marginals hold on 25 random DAGs")


def test_criterion_8_change_of_measure():
    rng = np.random.default_rng(808)
    # a phase-type law tilted by e^{-omega x} is the same law at rate + omega:
    # its transform at s is L_{omega + s}(X) / L_omega(X)
    for lam in (0.5, 1.0, 2.5):
        for law in (Exponential(lam), Erlang(3, lam)):
            for omega in (0.0, 0.7, 2.0):
                tilted = dataclasses.replace(law, rate=law.rate + omega)
                for s in (0.0, 0.4, 3.0):
                    want = law.laplace(omega + s) / law.laplace(omega)
                    assert rel_err(tilted.laplace(s), want) <= 1e-14

    # the tilted measure's mass L_omega(X) splits into the hit and miss
    # weights of a request against any TTL
    edges = np.arange(4001) * 0.005
    base_masses = np.diff(Exponential(1.2).cdf(edges))
    tab = Tabulated(0.005, base_masses / base_masses.sum() / 0.005)
    laws = (Exponential(0.8), Erlang(3, 2.2), Deterministic(1.1), tab)
    for spec in laws:
        for ttl in (*laws, Erlang(2, 1.3)):
            hit, miss = _weights(spec, ttl, 0.9)
            assert rel_err(hit + miss, spec.laplace(0.9)) <= 1e-12

    # fixed-horizon identity: E[e^{-w S_t}] equals L^t for t <= 3
    lam, omega, n = 1.4, 0.6, 1_000_000
    x = Exponential(lam)
    lx = x.laplace(omega)
    for t in (1, 2, 3):
        sums = rng.exponential(1.0 / lam, size=(n, t)).sum(axis=1)
        values = np.exp(-omega * sums)
        se = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean() - lx**t) <= 3.0 * se
    report(8, "tilting identities analytic, normalized, and confirmed at fixed horizons")


def test_criterion_9_invariant_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(909)

    # generators compose under Kronecker sums (row sums stay zero)
    from ttlnet import kron_sum

    for _ in range(100):
        a = random_map(rng, 3).generator
        b = random_map(rng, 3).generator
        sums = kron_sum(a, b).row_sums()
        assert np.max(np.abs(sums)) < 1e-9

    # superposition adds fundamental rates
    for _ in range(100):
        parts = [random_map(rng, 2) for _ in range(int(rng.integers(2, 4)))]
        assert (
            abs(
                fundamental_rate(superpose(parts))
                - sum(fundamental_rate(p) for p in parts)
            )
            < 1e-9
        )

    # splitting conserves the total rate and merging restores it
    for _ in range(100):
        m = random_map(rng, 3)
        p = ProbabilityVector(rng.dirichlet(np.ones(int(rng.integers(2, 4)))))
        pieces = split(m, p)
        total = sum(fundamental_rate(piece) for piece in pieces)
        assert abs(total - fundamental_rate(m)) < 1e-9
        assert abs(fundamental_rate(superpose(pieces)) - fundamental_rate(m)) < 1e-9

    # caches only thin the request stream, and Wald's identity holds
    for _ in range(100):
        m = random_map(rng, 2)
        t = random_ph(rng, 2)
        out = output_r(m, t) if rng.random() < 0.5 else output_sigma(m, t)
        got = metrics_from_maps(m, out)
        assert got.miss_rate <= got.input_rate + 1e-12
        e_tau = got.expected_inter_miss * got.input_rate
        assert abs(e_tau - 1.0 / got.miss_probability) < 1e-9 * e_tau

    # transforms live in (0, 1] and decrease in omega
    grid = [0.0, 0.25, 0.7, 1.5, 3.0]
    for _ in range(100):
        lam = float(rng.uniform(0.4, 2.5))
        mu = float(rng.uniform(0.4, 2.5))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            f = lambda w: transform_r(Exponential(lam), Exponential(mu), w)
        elif kind == 1:
            f = lambda w: transform_r(Erlang(2, lam), Deterministic(1.0 / mu), w)
        else:
            f = lambda w: transform_sigma(Exponential(lam), Deterministic(1.0 / mu), w)
        values = [f(w) for w in grid]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(u >= v - 1e-12 for u, v in zip(values, values[1:]))

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.1f}s"
    report(9, f"randomized invariant suite (100 cases each) in {elapsed:.1f}s")
