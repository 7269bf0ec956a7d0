"""MAP-level cache metrics."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_map, random_ph
from ttlnet import kron, metrics
from ttlnet.cache_ops import cache_chain
from ttlnet import (
    DimensionError,
    Exponential,
    MarkovArrivalProcess,
    NoStationaryDistributionError,
    PhaseTypeDistribution,
    ProbabilityVector,
    RateMatrix,
    StoppingPolicy,
    hit_miss_renewal,
    metrics_from_maps,
    mmpp_map,
    occupancy_renewal,
    output_min,
    output_r,
    output_sigma,
    poisson_map,
    steady_state,
)


class TestKnownValues:
    def test_unit_rate_exponential_cache(self):
        m = poisson_map(1.0)
        got = metrics_from_maps(m, output_sigma(m, PhaseTypeDistribution.exponential(1.0)))
        assert_allclose(got.hit_probability, 0.5, rtol=1e-12)
        assert_allclose(got.miss_probability, 0.5, rtol=1e-12)
        assert_allclose(got.occupancy, 0.5, rtol=1e-12)
        assert_allclose(got.expected_inter_miss, 2.0, rtol=1e-12)

    def test_min_of_two_unit_timers(self):
        m = poisson_map(1.0)
        t = PhaseTypeDistribution.exponential(1.0)
        got = metrics_from_maps(m, output_min(m, t, t))
        assert_allclose(got.hit_probability, 1.0 / 3.0, rtol=1e-12)
        assert_allclose(got.occupancy, 1.0 / 3.0, rtol=1e-12)
        assert_allclose(got.expected_inter_miss, 1.5, rtol=1e-12)

    def test_instant_eviction_limit(self):
        m = poisson_map(1.0)
        got = metrics_from_maps(m, output_r(m, PhaseTypeDistribution.exponential(1e6)))
        assert abs(got.miss_probability - 1.0) < 1e-4

    def test_non_ergodic_rejected(self):
        # two disconnected copies of a Poisson stream: the cache's output
        # chain is reducible too
        blocked = MarkovArrivalProcess(
            RateMatrix.from_dense([[-1.0, 0.0], [0.0, -1.0]]),
            RateMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]]),
        )
        out = output_sigma(blocked, PhaseTypeDistribution.exponential(1.0))
        with pytest.raises(NoStationaryDistributionError):
            metrics_from_maps(blocked, out)

    def test_output_of_another_input_rejected(self):
        t = PhaseTypeDistribution.exponential(1.0)
        two_state = output_sigma(poisson_map(1.0), t).map
        out = output_sigma(two_state, t)
        with pytest.raises(DimensionError):
            metrics_from_maps(poisson_map(1.0), out)


class TestInvariants:
    def test_probabilities_complement_and_rates(self, rng):
        for _ in range(20):
            m = random_map(rng, 3)
            t = random_ph(rng, 2)
            got = metrics_from_maps(m, output_sigma(m, t))
            assert got.hit_probability + got.miss_probability == pytest.approx(1.0)
            assert 0.0 <= got.occupancy <= 1.0
            assert_allclose(
                got.miss_rate, got.input_rate * got.miss_probability, rtol=1e-9
            )
            assert_allclose(got.expected_inter_miss, 1.0 / got.miss_rate, rtol=1e-12)

    def test_occupancy_is_complement_of_out_mass(self, rng):
        from ttlnet.kron import steady_state

        for _ in range(10):
            m = random_map(rng, 3)
            out = output_r(m, random_ph(rng, 2))
            p = steady_state(out.map.generator)
            got = metrics_from_maps(m, out)
            out_mass = sum(p.entries[i] for i in out.out_states)
            assert_allclose(got.occupancy, 1.0 - out_mass, rtol=1e-12)

    def test_wald_consistency(self, rng):
        # inter-miss mean times request rate equals mean requests per cycle
        for _ in range(10):
            m = random_map(rng, 3)
            out = output_sigma(m, random_ph(rng, 2))
            got = metrics_from_maps(m, out)
            e_tau = got.expected_inter_miss * got.input_rate
            assert_allclose(e_tau, 1.0 / got.miss_probability, rtol=1e-9)


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("lam,mu", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.4), (3.0, 2.5)])
    def test_reset_on_request_grid(self, lam, mu):
        m = poisson_map(lam)
        got = metrics_from_maps(m, output_r(m, PhaseTypeDistribution.exponential(mu)))
        ref = hit_miss_renewal(Exponential(lam), StoppingPolicy.reset_on_request(Exponential(mu)))
        occ = occupancy_renewal(Exponential(lam), StoppingPolicy.reset_on_request(Exponential(mu)))
        assert_allclose(got.hit_probability, ref.hit, atol=1e-9)
        assert_allclose(got.occupancy, occ, atol=1e-9)
        assert_allclose(got.hit_probability, lam / (lam + mu), atol=1e-12)


def _erlang_sigma_cache(k: int):
    """Sigma cache with Erlang-k renewal requests (mean gap 1) and an Erlang-k TTL."""
    req = PhaseTypeDistribution.erlang(k, float(k))
    d1 = np.zeros((k, k))
    d1[-1, 0] = float(k)
    m = MarkovArrivalProcess(req.s, RateMatrix.from_dense(d1))
    return m, output_sigma(m, PhaseTypeDistribution.erlang(k, float(k)))


class TestStalledKrylovSolve:
    def test_erlang100_sigma_cache_gives_up_on_stagnation(self, monkeypatch):
        # BiCGSTAB stops improving its residual after two iterations on the
        # given-input system of this 10,100-state chain; it must hand over to
        # LU once it stagnates, not after _KRYLOV_MAXITER iterations
        m, out = _erlang_sigma_cache(100)
        runs = []
        real = kron._bicgstab

        def spy(a, inv_diag, b, x):
            x, info = real(a, inv_diag, b, x)
            runs.append(info)
            return x, info

        monkeypatch.setattr(kron, "_bicgstab", spy)
        started = time.perf_counter()
        got = metrics_from_maps(m, out)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, f"metrics_from_maps took {elapsed:.2f}s"
        (info,) = runs
        assert 0 < info < kron._KRYLOV_MAXITER
        monkeypatch.setattr(kron, "_given_input_solve", lambda *args: None)
        want = metrics_from_maps(m, out)
        for name, value in got.to_dict().items():
            assert_allclose(value, want.to_dict()[name], rtol=1e-10, err_msg=name)

    def test_erlang50_sigma_cache_falls_back_quickly(self):
        # BiCGSTAB stalls on this 2,550-state chain; the LU fallback must come
        # after a bounded number of iterations, not scipy's default of 10 n
        m, out = _erlang_sigma_cache(50)
        started = time.perf_counter()
        got = metrics_from_maps(m, out)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, f"metrics_from_maps took {elapsed:.2f}s"
        # dense solve of p Q' = 0, p 1 = 1
        q = out.map.generator.to_dense()
        a = q.T.copy()
        a[-1] = 1.0
        b = np.zeros(out.order)
        b[-1] = 1.0
        p = np.linalg.solve(a, b)
        miss_rate = float(p @ out.map.d1.to_dense().sum(axis=1))
        occupancy = float(p[sorted(out.in_states)].sum())
        assert_allclose(got.miss_rate, miss_rate, rtol=1e-10)
        assert_allclose(got.occupancy, occupancy, rtol=1e-10)
        # requests are a renewal process with mean gap 1
        assert_allclose(got.input_rate, 1.0, rtol=1e-10)
        assert_allclose(got.miss_probability, miss_rate, rtol=1e-10)


def _ring_mmpp(n: int) -> MarkovArrivalProcess:
    """n-state MMPP whose modulating chain is a ring with faster forward steps."""
    q = np.zeros((n, n))
    for i in range(n):
        q[i, (i + 1) % n] += 1.0
        q[i, (i - 1) % n] += 0.5
    np.fill_diagonal(q, -q.sum(axis=1))
    return mmpp_map(q, np.linspace(0.5, 2.0, n))


# phase 0 absorbs or passes to phase 1; phases 1 and 2 pass the clock
# between them and never absorb
_TRAPPED_TTL = PhaseTypeDistribution(
    RateMatrix.from_dense([[-2.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]]),
    ProbabilityVector([1.0, 0.0, 0.0]),
)


def _loose_ph(r, order: int) -> PhaseTypeDistribution:
    """Random PH whose phases may be unreachable from pi or never absorb."""
    while True:
        s = r.uniform(0.1, 1.5, (order, order)) * (r.random((order, order)) < 0.4)
        np.fill_diagonal(s, 0.0)
        exits = r.uniform(0.2, 1.5, order) * (r.random(order) < 0.5)
        if exits.any() and np.all(s.sum(axis=1) + exits > 0.0):
            break
    s -= np.diag(s.sum(axis=1) + exits)
    pi = r.dirichlet(np.ones(order)) * (r.random(order) < 0.6)
    if not pi.any():
        pi[r.integers(order)] = 1.0
    return PhaseTypeDistribution(RateMatrix.from_dense(s), ProbabilityVector(pi / pi.sum()))


class TestGivenInputSolve:
    """Output chains above the GTH bound solved from the input vector."""

    def test_trapped_ttl_phase_rejected(self):
        # a Sigma hit keeps the phase, so phases 1 and 2 never leave the cache
        m = _ring_mmpp(20)
        out = output_sigma(m, _TRAPPED_TTL)
        assert out.order > kron._GTH_MAX
        assert not metrics._phases_live(out.ttl, m.d1)
        for p_in in (None, steady_state(m.generator).entries):
            with pytest.raises(NoStationaryDistributionError, match="reducible"):
                metrics_from_maps(m, out, p_in)

    def test_reset_frees_trapped_phase(self, monkeypatch):
        # an R hit restarts the TTL in phase 0, which absorbs: the chain is
        # irreducible although the structural test cannot show it
        m = _ring_mmpp(20)
        out = output_r(m, _TRAPPED_TTL)
        assert out.order > kron._GTH_MAX
        assert not metrics._phases_live(out.ttl, m.d1)
        assert kron._is_irreducible(out.map.generator)
        with monkeypatch.context() as patch:
            patch.setattr(kron, "_given_input_solve", lambda *args: None)
            assembled = metrics_from_maps(m, out)
        solved = []
        real = kron._given_input_solve

        def spy(*args):
            solved.append(real(*args))
            return solved[-1]

        monkeypatch.setattr(kron, "_given_input_solve", spy)
        got = metrics_from_maps(m, out, steady_state(m.generator).entries)
        assert len(solved) == 1 and solved[0] is not None
        for name, value in got.to_dict().items():
            assert_allclose(value, assembled.to_dict()[name], rtol=1e-12, err_msg=name)

    def test_derived_input_vector_is_the_inputs_cached_one(self, monkeypatch):
        # without p_in, the given-input solve starts from the Kronecker
        # product of the inputs' `stationary` vectors, solved once per MAP
        parts = [_ring_mmpp(5), _ring_mmpp(4)]
        chain = cache_chain("Sigma", parts, PhaseTypeDistribution.erlang(4, 2.0))
        assert chain.order > kron._GTH_MAX
        solved = []
        monkeypatch.setattr(metrics, "steady_state", lambda q: solved.append(q.rows))
        inputs = []
        real = kron._given_input_solve
        monkeypatch.setattr(kron, "_given_input_solve", lambda *a: inputs.append(a[-1]) or real(*a))
        metrics.chain_metrics(chain)
        assert solved == [] and all("stationary" in m.__dict__ for m in parts)
        want = np.kron(parts[0].stationary.entries, parts[1].stationary.entries)
        assert len(inputs) == 1 and np.array_equal(inputs[0], want)

    def test_input_vector_length_checked(self):
        m = _ring_mmpp(20)
        with pytest.raises(DimensionError):
            metrics_from_maps(m, output_sigma(m, _TRAPPED_TTL), np.full(19, 1.0 / 19))

    @given(seed=st.integers(0, 2**31), policy=st.sampled_from(["Sigma", "R", "MinSigmaR"]))
    @settings(max_examples=150, deadline=None)
    def test_structural_verdict_matches_graph_search(self, seed, policy):
        r = np.random.default_rng(seed)
        m = random_map(r, 3)  # irreducible background chain
        ttl = _loose_ph(r, int(r.integers(1, 5)))
        if policy == "Sigma":
            out = output_sigma(m, ttl)
        elif policy == "R":
            out = output_r(m, ttl)
        else:
            out = output_min(m, ttl, _loose_ph(r, int(r.integers(1, 3))))
        live = metrics._phases_live(out.ttl, m.d1)
        irreducible = kron._is_irreducible(out.map.generator)
        assert irreducible or not live
        if policy == "Sigma":  # a hit moves no phase: the test is exact
            assert live == irreducible


class TestCacheChainMetrics:
    """A cache's metrics read its `CacheChain`: they assemble no miss MAP,
    and they check the length of the input vector they are given."""

    LAM, MU = 1.25, 0.75

    def test_metrics_assemble_no_miss_map(self):
        m = poisson_map(self.LAM)
        out = output_r(m, PhaseTypeDistribution.exponential(self.MU))
        assert out.order <= kron._GTH_MAX
        metrics_from_maps(m, out)
        assert "map" not in vars(out)
        # the printed fixture, read afterwards
        assert out.map.d0 == RateMatrix.from_dense([[-self.LAM, 0.0], [self.MU, -self.MU]])
        assert out.map.d1 == RateMatrix.from_dense([[0.0, self.LAM], [0.0, 0.0]])

    def test_factored_metrics_assemble_no_miss_map(self):
        m, ttl = _ring_mmpp(20), PhaseTypeDistribution.erlang(4, 4.0)
        out = cache_chain("Sigma", [m], ttl)
        assert out.order > kron._GTH_MAX
        metrics.chain_metrics(out)
        assert "map" not in vars(out)
        want = output_sigma(m, ttl).map
        assert out.map.d0 == want.d0 and out.map.d1 == want.d1

    @pytest.mark.parametrize("stages, inputs, states", [(3, 1, 8), (40, 2, 164)])
    def test_input_vector_length_checked(self, stages, inputs, states):
        # refused on both sides of the GTH bound, before any solve reads it
        parts = [mmpp_map([[-0.4, 0.4], [0.9, -0.9]], [1.1, 2.3 + i]) for i in range(inputs)]
        out = cache_chain("Sigma", parts, PhaseTypeDistribution.erlang(stages, 2.0))
        assert out.order == states
        with pytest.raises(DimensionError, match="5 entries"):
            metrics.chain_metrics(out, np.full(5, 0.2))
