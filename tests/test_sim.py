"""Discrete-event simulator: statistical acceptance and comparison plumbing."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ttlnet import ValidationError, analyze, parse_topology, sim
from ttlnet.sim import SimConfig, compare, simulate


def single_node(policy="R", ttl=None, ttl_r=None, lam=1.0):
    node = {"id": "c", "policy": policy, "ttl": ttl or {"exp": 1.0}}
    if ttl_r:
        node["ttl_r"] = ttl_r
    return parse_topology({"nodes": [node], "arrivals": {"c": {"poisson": lam}}})


LINE2_DOC = {
    "nodes": [
        {"id": "C1", "policy": "Sigma", "ttl": {"exp": 1.0}},
        {"id": "C2", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["C1"]},
    ],
    "arrivals": {"C1": {"poisson": 1.0}},
}
LINE2 = parse_topology(LINE2_DOC)


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        a = simulate(SimConfig(topology=LINE2, event_cap=20_000, seed=9))
        b = simulate(SimConfig(topology=LINE2, event_cap=20_000, seed=9))
        assert a == b

    def test_different_seed_differs(self):
        a = simulate(SimConfig(topology=LINE2, event_cap=20_000, seed=9))
        b = simulate(SimConfig(topology=LINE2, event_cap=20_000, seed=10))
        assert a != b


class TestSingleNodeTargets:
    def test_exponential_ttl_reset_on_request(self):
        est = simulate(SimConfig(topology=single_node("R"), event_cap=1_000_000, seed=3))
        node = est.nodes["c"]
        assert abs(node.hit_ratio - 0.5) < 3.0 * node.hit_se
        assert abs(node.occupancy - 0.5) < 3.0 * node.occupancy_se

    def test_deterministic_ttl_reset_on_request(self):
        est = simulate(
            SimConfig(topology=single_node("R", ttl={"det": 1.0}), event_cap=1_000_000, seed=4)
        )
        node = est.nodes["c"]
        want = 1.0 - math.exp(-1.0)
        assert abs(node.hit_ratio - want) < 3.0 * node.hit_se

    def test_min_policy_unit_rates(self):
        est = simulate(
            SimConfig(
                topology=single_node("MinSigmaR", ttl={"exp": 1.0}, ttl_r={"exp": 1.0}),
                event_cap=150_000,
                seed=5,
            )
        )
        node = est.nodes["c"]
        assert abs(node.hit_ratio - 1.0 / 3.0) < 3.0 * node.hit_se
        assert abs(node.occupancy - 1.0 / 3.0) < 3.5 * node.occupancy_se

    def test_sigma_inter_miss_mean(self):
        est = simulate(SimConfig(topology=single_node("Sigma"), event_cap=200_000, seed=6))
        node = est.nodes["c"]
        assert abs(node.inter_miss_mean - 2.0) < 3.0 * node.inter_miss_mean_se

    def test_hypoexponential_inter_miss_moments(self):
        lam, mu = 1.0, 1.0
        est = simulate(SimConfig(topology=single_node("Sigma"), event_cap=300_000, seed=7))
        node = est.nodes["c"]
        m2 = 2.0 * (1 / lam**2 + 1 / (lam * mu) + 1 / mu**2)
        assert abs(node.inter_miss_mean - 2.0) < 3.0 * node.inter_miss_mean_se
        assert abs(node.inter_miss_m2 - m2) < 3.0 * node.inter_miss_m2_se

    def test_policy_swap_with_exponential_ttl_is_statistically_invisible(self):
        a = simulate(SimConfig(topology=single_node("R"), event_cap=120_000, seed=8))
        b = simulate(SimConfig(topology=single_node("Sigma"), event_cap=120_000, seed=9))
        na, nb = a.nodes["c"], b.nodes["c"]
        joint = math.hypot(na.hit_se, nb.hit_se)
        assert abs(na.hit_ratio - nb.hit_ratio) < 4.0 * joint


def _scalar_serve(t, sigma, r):
    """Reference rule, one request at a time: present iff before the eviction time."""
    evict = sigma_end = 0.0
    misses, cycles = [], []
    for i, ti in enumerate(t):
        if ti >= evict:
            if misses:
                cycles.append((t[misses[-1]], evict))
            misses.append(i)
            sigma_end = ti + sigma[i]
        evict = min(sigma_end, ti + r[i])
    cycles.append((t[misses[-1]], evict))
    return misses, cycles


PH_TTL = {"ph": {"s": [[-2.0, 1.0], [0.5, -1.5]], "pi": [0.6, 0.4]}}
# Sigma (or R) TTL and, for MinSigmaR, the R TTL, by law: Exponential,
# Deterministic (`Deterministic.sample`) and "ph" (`sample_ph`, no renewal law)
NODE_TTLS = {
    "exp": ({"exp": 0.7}, {"exp": 1.5}),
    "det": ({"det": 1.4}, {"det": 0.6}),
    "ph": (PH_TTL, {"ph": {"s": [[-3.0, 0.0], [0.0, -0.8]], "pi": [0.5, 0.5]}}),
}


def _timers(node, draws, n):
    """The draws `serve` makes for `n` requests, Sigma before R; an absent timer never fires."""
    return [
        np.full(n, np.inf) if ttl is None else sim._draw_ttls(ttl, draws, n)
        for ttl in (node.sigma_ttl, node.r_ttl)
    ]


def _check_pass(policy, ttls, t, cuts, batch, edges, n_batches):
    """Serve `t` in the blocks `cuts` delimits and check misses, draws and tallies
    against the scalar rule; returns the positions that miss."""
    ttl, ttl_r = ttls
    spec = single_node(policy, ttl=ttl, ttl_r=ttl_r if policy == "MinSigmaR" else None)
    node = sim._Node(spec.nodes["c"], n_batches=n_batches)
    # batch edges between two requests, where an evicted copy shows
    edge_t = (t[edges] + t[edges + 1]) / 2
    draws = np.random.default_rng(2)
    sigma, r, misses = [], [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        at_edge = (edges >= lo) & (edges < hi)
        rng_state = draws.bit_generator.state
        block_sigma, block_r = _timers(node, draws, hi - lo)
        sigma.append(block_sigma)
        r.append(block_r)
        drawn = draws.bit_generator.state
        draws.bit_generator.state = rng_state
        served = node.serve(t[lo:hi], batch[lo:hi], edge_t[at_edge], at_edge, draws)
        # the pass consumes exactly the draws of the timers the node holds
        assert draws.bit_generator.state == drawn
        misses.extend((lo + served).tolist())
    want, cycles = _scalar_serve(t, np.concatenate(sigma), np.concatenate(r))
    assert misses == want
    for x, got in zip(edge_t, node.in_cache):
        want_in = sum(max(0.0, min(x, end) - start) for start, end in cycles)
        assert got == pytest.approx(want_in, rel=1e-12)
    # tallies: requests and misses by batch, then each inter-miss gap by the
    # batch of the miss that closes it; warm-up rows (batch -1) count nowhere
    miss_b = batch[want]
    gaps = np.diff(t[want])
    gap_b = miss_b[1:]
    counted = gap_b >= 0
    want_tally = [
        np.bincount(batch[batch >= 0], minlength=n_batches),
        np.bincount(miss_b[miss_b >= 0], minlength=n_batches),
        np.bincount(gap_b[counted], minlength=n_batches),
        np.bincount(gap_b[counted], gaps[counted], minlength=n_batches),
        np.bincount(gap_b[counted], gaps[counted] ** 2, minlength=n_batches),
    ]
    for row, (got, expect) in enumerate(zip(node.tally, want_tally)):
        np.testing.assert_allclose(got, expect, rtol=1e-12, err_msg=f"tally row {row}")
    return want


POLICIES = ["R", "Sigma", "MinSigmaR"]


class TestNodePass:
    """The vectorized per-node pass against the scalar rule, across block boundaries."""

    @pytest.mark.parametrize(
        "policy,ttl_r", [("R", None), ("Sigma", None), ("MinSigmaR", {"exp": 1.5})]
    )
    def test_matches_scalar_rule(self, policy, ttl_r):
        t = np.cumsum(np.random.default_rng(1).exponential(1.0, 3000))
        edges = np.array([10, 900, 2000, 2998])
        batch = np.zeros(t.size, dtype=np.intp)
        _check_pass(policy, ({"exp": 0.7}, ttl_r), t, (0, 1700, t.size), batch, edges, 3)

    @pytest.mark.parametrize("law", sorted(NODE_TTLS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_ttl_law(self, policy, law):
        t = np.cumsum(np.random.default_rng(3).exponential(1.0, 2000))
        edges = np.array([5, 700, 1500, 1998])
        batch = np.minimum(np.arange(t.size) // 700, 2)
        _check_pass(policy, NODE_TTLS[law], t, (0, 900, t.size), batch, edges, 3)

    @pytest.mark.parametrize("law", sorted(NODE_TTLS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_blocks_and_warmup_rows(self, policy, law):
        # empty blocks (n = 0) before the first request, between two blocks
        # and at the end; the first 300 requests are warm-up (batch -1)
        t = np.cumsum(np.random.default_rng(4).exponential(0.8, 1200))
        edges = np.array([299, 650, 1198])
        batch = np.where(np.arange(t.size) < 300, -1, (np.arange(t.size) - 300) // 450)
        cuts = (0, 0, 0, 500, 500, 830, t.size, t.size)
        _check_pass(policy, NODE_TTLS[law], t, cuts, batch, edges, 2)

    @pytest.mark.parametrize("law", sorted(NODE_TTLS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_block_of_hits_on_the_carried_copy(self, policy, law):
        # the second block is a burst within 1e-9 of the first block's last
        # request, so every request of it finds the copy that block left
        gaps = np.random.default_rng(5).exponential(1.0, 1000)
        gaps[600:640] = 2.5e-11
        t = np.cumsum(gaps)
        edges = np.array([100, 620, 800, 998])
        batch = np.minimum(np.arange(t.size) // 400, 2)
        misses = _check_pass(policy, NODE_TTLS[law], t, (0, 600, 640, t.size), batch, edges, 3)
        assert not [i for i in misses if 600 <= i < 640]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_request_at_an_expiry_misses(self, policy):
        # integer times and det TTLs: many requests come exactly at an expiry
        t = np.cumsum(np.random.default_rng(6).integers(1, 4, 900)).astype(float)
        edges = np.array([10, 450, 898])
        batch = np.minimum(np.arange(t.size) // 450, 1)
        ttls = ({"det": 3.0}, {"det": 2.0})
        misses = _check_pass(policy, ttls, t, (0, 333, t.size), batch, edges, 2)
        earlier = t - 1e-9 * np.arange(t.size)  # each tie becomes a hit
        assert misses != _check_pass(policy, ttls, earlier, (0, t.size), batch, edges, 2)


class TestAccounting:
    def test_hit_plus_miss_complementary(self):
        est = simulate(SimConfig(topology=LINE2, event_cap=30_000, seed=11))
        for node in est.nodes.values():
            assert node.hits + node.misses == node.requests
            if node.requests:
                assert node.hit_ratio + node.miss_ratio == pytest.approx(1.0)

    def test_degenerate_run_flags_undefined_se(self):
        est = simulate(SimConfig(topology=LINE2, event_cap=2, warmup=1, seed=1))
        node = est.nodes["C1"]
        assert node.requests == 1
        assert math.isnan(node.hit_se)

    def test_event_cap_must_exceed_warmup(self):
        with pytest.raises(ValidationError, match="event_cap must exceed warmup"):
            simulate(SimConfig(topology=LINE2, event_cap=0, warmup=0))

    def test_default_warmup_is_ten_percent(self):
        cfg = SimConfig(topology=LINE2, event_cap=1000)
        assert cfg.effective_warmup == 100

    def test_default_warmup_is_explicit(self):
        assert SimConfig(topology=LINE2, event_cap=1000).warmup is None
        assert simulate(SimConfig(topology=LINE2, event_cap=2000)).counted_events == 1800

    @pytest.mark.parametrize("warmup", [-1, -5])
    def test_negative_warmup_rejected(self, warmup):
        cfg = SimConfig(topology=LINE2, event_cap=2000, warmup=warmup)
        with pytest.raises(ValidationError, match="warmup must be nonnegative"):
            simulate(cfg)

    def test_zero_warmup_counts_every_event(self):
        est = simulate(SimConfig(topology=LINE2, event_cap=2000, warmup=0))
        assert est.counted_events == 2000


MIXED_DOC = {
    "nodes": [
        {
            "id": "L1",
            "policy": "Sigma",
            "ttl": {"ph": {"s": [[-2.0, 1.0], [0.5, -1.5]], "pi": [0.6, 0.4]}},
            "split": [0.4, 0.6],
        },
        {
            "id": "L2",
            "policy": "MinSigmaR",
            "ttl": {"exp": 0.8},
            "ttl_r": {"erlang": {"stages": 2, "rate": 3.0}},
        },
        {"id": "P1", "policy": "R", "ttl": {"exp": 1.5}, "children": ["L1"]},
        {
            "id": "P2",
            "policy": "Sigma",
            "ttl": {"erlang": {"stages": 2, "rate": 2.5}},
            "children": ["L1", "L2"],
        },
        {"id": "T", "policy": "R", "ttl": {"exp": 0.7}, "children": ["P2"]},
    ],
    "arrivals": {
        "L1": {"mmpp": {"q": [[-0.4, 0.4], [0.9, -0.9]], "rates": [2.5, 0.5]}},
        "L2": {"poisson": 1.3},
    },
}
MIXED = parse_topology(MIXED_DOC)


class TestMixedNetwork:
    """MMPP leaf, PH TTL, MinSigmaR node, a split feeding two parents and a join."""

    @pytest.fixture(scope="class")
    def est(self):
        return simulate(SimConfig(topology=MIXED, event_cap=200_000, seed=25))

    def test_count_identities(self, est):
        n = est.nodes
        for node in n.values():
            assert node.hits + node.misses == node.requests
        assert n["L1"].requests + n["L2"].requests == est.counted_events
        # L1's misses go to P1 or P2, L2's to P2, P2's to T
        assert n["P1"].requests + n["P2"].requests == n["L1"].misses + n["L2"].misses
        assert n["T"].requests == n["P2"].misses

    def test_agrees_with_analysis(self, est):
        report = compare(analyze(MIXED), est, k_sigma=4.0)
        assert report.ok, [dataclasses.asdict(r) for r in report.flagged]


class TestCompare:
    def test_line_agrees_with_analysis(self):
        res = analyze(LINE2)
        est = simulate(SimConfig(topology=LINE2, event_cap=200_000, seed=12))
        report = compare(res, est, k_sigma=4.0)
        assert report.ok, [dataclasses.asdict(r) for r in report.flagged]

    def test_perturbed_analysis_is_flagged(self):
        res = analyze(LINE2)
        est = simulate(SimConfig(topology=LINE2, event_cap=100_000, seed=13))
        bumped = dataclasses.replace(
            res.metrics["C1"],
            hit_probability=res.metrics["C1"].hit_probability + 0.1,
        )
        res_bad = dataclasses.replace(res, metrics={**res.metrics, "C1": bumped})
        report = compare(res_bad, est, k_sigma=4.0)
        assert any(r.node == "C1" and r.metric == "hit" for r in report.flagged)

    def test_zero_sigma_flags_everything(self):
        res = analyze(LINE2)
        est = simulate(SimConfig(topology=LINE2, event_cap=50_000, seed=14))
        report = compare(res, est, k_sigma=0.0)
        # a count ratio can equal the analytic value exactly; only such a row goes unflagged
        assert all(row.flagged == (row.analytic != row.empirical) for row in report.rows)
        assert report.flagged

    def test_mismatched_nodes_rejected(self):
        res = analyze(LINE2)
        other = simulate(SimConfig(topology=single_node(), event_cap=5_000, seed=2))
        with pytest.raises(ValidationError, match="mismatched node sets"):
            compare(res, other)


class TestHarderTopologies:
    def test_split_diamond_matches_analysis(self):
        topo = parse_topology(
            {
                "nodes": [
                    {"id": "src", "policy": "Sigma", "ttl": {"exp": 1.0}, "split": [0.3, 0.7]},
                    {"id": "p1", "policy": "R", "ttl": {"exp": 1.0}, "children": ["src"]},
                    {"id": "p2", "policy": "Sigma", "ttl": {"exp": 2.0}, "children": ["src"]},
                ],
                "arrivals": {"src": {"poisson": 2.0}},
            }
        )
        exact = analyze(topo)
        est = simulate(SimConfig(topology=topo, event_cap=300_000, seed=21))
        report = compare(exact, est, k_sigma=4.0)
        assert report.ok, [r for r in report.flagged]

    def test_mmpp_arrivals_match_analysis(self):
        topo = parse_topology(
            {
                "nodes": [{"id": "c", "policy": "Sigma", "ttl": {"exp": 1.0}}],
                "arrivals": {
                    "c": {"mmpp": {"q": [[-0.5, 0.5], [1.0, -1.0]], "rates": [0.5, 3.0]}}
                },
            }
        )
        exact = analyze(topo)
        est = simulate(SimConfig(topology=topo, event_cap=300_000, seed=22))
        report = compare(exact, est, k_sigma=4.0)
        assert report.ok, [r for r in report.flagged]

    def test_min_policy_erlang_ttls_match_analysis(self):
        topo = parse_topology(
            {
                "nodes": [
                    {
                        "id": "c",
                        "policy": "MinSigmaR",
                        "ttl": {"erlang": {"stages": 2, "rate": 2.0}},
                        "ttl_r": {"exp": 0.8},
                    }
                ],
                "arrivals": {"c": {"poisson": 1.2}},
            }
        )
        exact = analyze(topo)
        est = simulate(SimConfig(topology=topo, event_cap=300_000, seed=23))
        report = compare(exact, est, k_sigma=4.0)
        assert report.ok, [r for r in report.flagged]

    def test_explicit_ph_ttl_matches_analysis(self):
        topo = parse_topology(
            {
                "nodes": [
                    {
                        "id": "c",
                        "policy": "R",
                        "ttl": {"ph": {"s": [[-2.0, 1.0], [0.5, -1.5]], "pi": [0.6, 0.4]}},
                    }
                ],
                "arrivals": {"c": {"poisson": 1.0}},
            }
        )
        exact = analyze(topo)
        est = simulate(SimConfig(topology=topo, event_cap=300_000, seed=24))
        report = compare(exact, est, k_sigma=4.0)
        assert report.ok, [r for r in report.flagged]


class TestStoppingRuleAgreement:
    def test_sigma_stopping_in_isolation_matches_renewal_expectation(self):
        # one Sigma node: mean requests per miss cycle is E[tau] = 1 + lam*E[T]
        est = simulate(
            SimConfig(topology=single_node("Sigma", ttl={"erlang": {"stages": 2, "rate": 2.0}}),
                      event_cap=150_000, seed=15)
        )
        node = est.nodes["c"]
        e_tau = 1.0 / node.miss_ratio
        se = node.miss_se / node.miss_ratio**2
        assert abs(e_tau - 2.0) < 3.0 * se

    def test_erlang_renewal_arrivals_match_monte_carlo_expectation(self):
        # Erlang-2 renewal requests written as an explicit MAP; the renewal
        # engine computes E[tau] for the same stopping rule exactly (stderr 0)
        from ttlnet import Erlang, StoppingPolicy, expected_tau
        import numpy as np

        theta = 2.0
        topo = parse_topology(
            {
                "nodes": [
                    {"id": "c", "policy": "Sigma", "ttl": {"erlang": {"stages": 2, "rate": 1.0}}}
                ],
                "arrivals": {
                    "c": {
                        "map": {
                            "d0": [[-theta, theta], [0.0, -theta]],
                            "d1": [[0.0, 0.0], [theta, 0.0]],
                        }
                    }
                },
            }
        )
        est = simulate(SimConfig(topology=topo, event_cap=200_000, seed=16))
        node = est.nodes["c"]
        sim_tau = 1.0 / node.miss_ratio
        sim_se = node.miss_se / node.miss_ratio**2
        mc = expected_tau(
            Erlang(2, theta),
            StoppingPolicy.reset_on_miss(Erlang(2, 1.0)),
            samples=200_000,
            rng=np.random.default_rng(17),
        )
        assert abs(sim_tau - mc.value) < 3.0 * math.hypot(sim_se, mc.stderr)


# simulate(...).to_dict() for 20,000 events of the sim-network document at
# three seeds, LINE2, MIXED and a network with a general MAP leaf and "ph"
# and "det" TTLs, recorded before each node's pass ran only the timers its
# policy holds. A run is reproducible bit for bit, so these stay exact.
GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "simulate_reference.json").read_text()
)


class TestGoldenRuns:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_estimate_is_bit_identical(self, name):
        case = GOLDEN[name]
        cfg = SimConfig(
            topology=parse_topology(case["document"]), event_cap=case["events"], seed=case["seed"]
        )
        # JSON text is exact for floats (shortest round-trip repr) and NaN-aware
        assert json.dumps(simulate(cfg).to_dict()) == json.dumps(case["estimate"])

    def test_cases_are_this_suites_networks(self):
        assert GOLDEN["LINE2"]["document"] == LINE2_DOC
        assert GOLDEN["MIXED"]["document"] == MIXED_DOC
        nodes = [node for case in GOLDEN.values() for node in case["document"]["nodes"]]
        assert {node["policy"] for node in nodes} == {"R", "Sigma", "MinSigmaR"}
