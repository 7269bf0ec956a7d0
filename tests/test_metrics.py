"""MAP-level cache metrics."""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_map, random_ph
from ttlnet import kron
from ttlnet import (
    DimensionError,
    Exponential,
    MarkovArrivalProcess,
    NoStationaryDistributionError,
    PhaseTypeDistribution,
    RateMatrix,
    StoppingPolicy,
    hit_miss_renewal,
    metrics_from_maps,
    occupancy_renewal,
    output_min,
    output_r,
    output_sigma,
    poisson_map,
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
        from ttlnet import MarkovArrivalProcess, RateMatrix
        from ttlnet.cache_ops import CacheOutput

        m = poisson_map(1.0)
        # two disconnected copies of a Poisson stream
        blocked = MarkovArrivalProcess(
            RateMatrix.from_dense([[-1.0, 0.0], [0.0, -1.0]]),
            RateMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]]),
        )
        fake = CacheOutput(blocked, frozenset({1}), frozenset({0}))
        with pytest.raises(NoStationaryDistributionError):
            metrics_from_maps(m, fake)

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
        # BiCGSTAB never improves on its first residual on this 10,100-state
        # chain; it must hand over to LU once it stagnates, not after
        # _KRYLOV_MAXITER iterations
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
        monkeypatch.setattr(kron, "_krylov_solve", lambda *args: None)
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
