"""Discrete-event simulator: statistical acceptance and comparison plumbing."""

import dataclasses
import math

import numpy as np
import pytest

from ttlnet import ValidationError, analyze, parse_topology
from ttlnet.sim import SimConfig, compare, simulate


def single_node(policy="R", ttl=None, ttl_r=None, lam=1.0):
    node = {"id": "c", "policy": policy, "ttl": ttl or {"exp": 1.0}}
    if ttl_r:
        node["ttl_r"] = ttl_r
    return parse_topology({"nodes": [node], "arrivals": {"c": {"poisson": lam}}})


LINE2 = parse_topology(
    {
        "nodes": [
            {"id": "C1", "policy": "Sigma", "ttl": {"exp": 1.0}},
            {"id": "C2", "policy": "Sigma", "ttl": {"exp": 1.0}, "children": ["C1"]},
        ],
        "arrivals": {"C1": {"poisson": 1.0}},
    }
)


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


class TestNodePass:
    """The vectorized per-node pass against the scalar rule, across a block boundary."""

    @pytest.mark.parametrize(
        "policy,ttl_r", [("R", None), ("Sigma", None), ("MinSigmaR", {"exp": 1.5})]
    )
    def test_matches_scalar_rule(self, policy, ttl_r):
        from ttlnet import sim

        spec = single_node(policy, ttl={"exp": 0.7}, ttl_r=ttl_r).nodes["c"]
        t = np.cumsum(np.random.default_rng(1).exponential(1.0, 3000))
        cut = 1700
        # batch edges between two requests, where an evicted copy shows
        edges = np.array([10, 900, 2000, 2998])
        edge_t = (t[edges] + t[edges + 1]) / 2
        node = sim._Node(spec, n_batches=3)
        draws = np.random.default_rng(2)
        sigma, r, misses = [], [], []
        for lo, hi in ((0, cut), (cut, t.size)):
            at_edge = (edges >= lo) & (edges < hi)
            rng_state = draws.bit_generator.state
            sigma.append(sim._draw_ttls(node.sigma_ttl, draws, hi - lo))
            r.append(sim._draw_ttls(node.r_ttl, draws, hi - lo))
            draws.bit_generator.state = rng_state
            block = t[lo:hi]
            batch = np.zeros(hi - lo, dtype=np.intp)
            misses.extend(lo + node.serve(block, batch, edge_t[at_edge], at_edge, draws))
        want_misses, cycles = _scalar_serve(t, np.concatenate(sigma), np.concatenate(r))
        assert misses == want_misses
        assert node.tally[1].sum() == len(want_misses)
        for x, got in zip(edge_t, node.in_cache):
            want = sum(max(0.0, min(x, end) - start) for start, end in cycles)
            assert got == pytest.approx(want, rel=1e-12)


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


MIXED = parse_topology(
    {
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
)


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
