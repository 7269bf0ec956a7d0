"""Input-output operators: printed fixtures, structure, and invariants."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_map, random_ph
from ttlnet import kron
from ttlnet import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    ProbabilityVector,
    RateMatrix,
    fundamental_rate,
    kron_sum,
    metrics_from_maps,
    mmpp_map,
    output_min,
    output_r,
    output_sigma,
    ph_mean,
    poisson_map,
    split,
    stationary_interval_moments,
    steady_state,
    superpose,
    validate_map,
)
from ttlnet.kron import kron_terms


def two_phase_ttl(r1, r2):
    """Chain TTL: phase 1 -> phase 2 at r1, phase 2 -> absorb at r2."""
    return PhaseTypeDistribution(
        RateMatrix.from_dense([[-r1, r1], [0.0, -r2]]), ProbabilityVector([1.0, 0.0])
    )


class TestSingleCacheFixtures:
    """The worked line-of-two-caches example, matched entry for entry."""

    LAM, MU, NU = 1.25, 0.75, 2.0

    def test_poisson_into_exponential_sigma(self):
        out = output_sigma(
            poisson_map(self.LAM), PhaseTypeDistribution.exponential(self.MU)
        )
        d0 = RateMatrix.from_dense([[-self.LAM, 0.0], [self.MU, -self.MU]])
        d1 = RateMatrix.from_dense([[0.0, self.LAM], [0.0, 0.0]])
        assert out.map.d0 == d0
        assert out.map.d1 == d1
        assert set(out.out_states) == {0}
        assert set(out.in_states) == {1}

    def test_iterated_four_state_output(self):
        lam, mu, nu = self.LAM, self.MU, self.NU
        first = output_sigma(poisson_map(lam), PhaseTypeDistribution.exponential(mu))
        second = output_sigma(first.map, PhaseTypeDistribution.exponential(nu))
        expected_d0 = RateMatrix.from_dense(
            [
                [-lam, 0.0, 0.0, 0.0],
                [mu, -mu, 0.0, 0.0],
                [nu, 0.0, -lam - nu, lam],
                [0.0, nu, mu, -mu - nu],
            ]
        )
        expected_d1 = RateMatrix.from_triplets(4, 4, [(0, 3, lam)])
        assert second.map.d0 == expected_d0
        assert second.map.d1 == expected_d1
        assert set(second.out_states) == {0, 1}

    def test_r_equals_sigma_for_exponential_ttl(self):
        t = PhaseTypeDistribution.exponential(self.MU)
        m = poisson_map(self.LAM)
        a, b = output_sigma(m, t), output_r(m, t)
        assert a.map.d0 == b.map.d0
        assert a.map.d1 == b.map.d1

    def test_min_collapses_to_summed_exponential(self):
        m = poisson_map(self.LAM)
        om = output_min(
            m,
            PhaseTypeDistribution.exponential(self.MU),
            PhaseTypeDistribution.exponential(self.NU),
        )
        os = output_sigma(m, PhaseTypeDistribution.exponential(self.MU + self.NU))
        assert om.map.d0 == os.map.d0
        assert om.map.d1 == os.map.d1


class TestModulatedFixtures:
    """MMPP input with chain TTLs: state counts and arc structure."""

    A, B, L1, L2 = 0.4, 0.9, 1.1, 2.3
    MU1, MU2 = 0.6, 1.7
    NU1, NU2 = 0.8, 1.9

    @property
    def arrivals(self):
        return mmpp_map([[-self.A, self.A], [self.B, -self.B]], [self.L1, self.L2])

    def test_sigma_six_states(self):
        out = output_sigma(self.arrivals, two_phase_ttl(self.MU1, self.MU2))
        assert out.order == 2 * (2 + 1) == 6
        d0, d1 = out.map.d0.to_dense(), out.map.d1.to_dense()
        assert np.all(d1[2:] == 0.0)  # active arcs only from the OUT layer
        assert d1[0, 2] == self.L1 and d1[1, 3] == self.L2
        assert d0[2, 4] == self.MU1 and d0[3, 5] == self.MU1  # phase advance
        assert d0[4, 0] == self.MU2 and d0[5, 1] == self.MU2  # expiry to OUT
        assert np.all(d0[2:, :2][np.ix_([0, 1], [0, 1])] == 0.0)  # phase1 never exits

    def test_r_six_states_with_reset_arcs(self):
        out = output_r(self.arrivals, two_phase_ttl(self.NU1, self.NU2))
        assert out.order == 6
        d0, d1 = out.map.d0.to_dense(), out.map.d1.to_dense()
        assert np.all(d1[2:] == 0.0)
        # in-cache requests reset the TTL phase: arcs from phase 2 to phase 1
        assert d0[4, 2] == self.L1 and d0[5, 3] == self.L2
        sums = out.map.generator.row_sums()
        assert np.max(np.abs(sums)) < 1e-12

    def test_r_exponential_miss_probability(self):
        # unit-rate requests and TTL: half the requests miss
        m = poisson_map(1.0)
        out = output_r(m, PhaseTypeDistribution.exponential(1.0))
        got = metrics_from_maps(m, out)
        assert_allclose(got.miss_probability, 0.5, rtol=1e-12)

    def test_min_ten_states_with_sigma_preserving_resets(self):
        out = output_min(
            self.arrivals,
            two_phase_ttl(self.MU1, self.MU2),
            two_phase_ttl(self.NU1, self.NU2),
        )
        assert out.order == 2 * (2 * 2 + 1) == 10
        d0, d1 = out.map.d0.to_dense(), out.map.d1.to_dense()
        assert np.all(d1[2:] == 0.0)
        # layers: OUT 0-1, (S1,R1) 2-3, (S1,R2) 4-5, (S2,R1) 6-7, (S2,R2) 8-9
        assert d0[4, 2] == self.L1 and d0[5, 3] == self.L2
        assert d0[8, 6] == self.L1 and d0[9, 7] == self.L2
        assert d0[8, 2] == 0.0 and d0[4, 6] == 0.0  # resets never move the Sigma phase
        assert_allclose(d0[8, 0], self.MU2 + self.NU2, rtol=1e-15)
        assert d0[2, 6] == self.MU1 and d0[2, 4] == self.NU1


class TestOutputInvariants:
    def test_outputs_are_valid_maps(self, rng):
        for _ in range(15):
            m = random_map(rng, 3)
            t1, t2 = random_ph(rng, 2), random_ph(rng, 2)
            for out in (output_sigma(m, t1), output_r(m, t1), output_min(m, t1, t2)):
                assert validate_map(out.map).ok
                assert set(out.in_states) | set(out.out_states) == set(range(out.order))
                assert not (set(out.in_states) & set(out.out_states))

    def test_rate_contraction(self, rng):
        for _ in range(15):
            m = random_map(rng, 3)
            t = random_ph(rng, 2)
            rate_in = fundamental_rate(m)
            for out in (output_sigma(m, t), output_r(m, t)):
                assert fundamental_rate(out.map) < rate_in + 1e-12

    def test_dimension_law(self, rng):
        for _ in range(10):
            m = random_map(rng, 3)
            t1, t2 = random_ph(rng, 3), random_ph(rng, 2)
            assert output_sigma(m, t1).order == m.order * (t1.order + 1)
            assert output_r(m, t1).order == m.order * (t1.order + 1)
            assert output_min(m, t1, t2).order == m.order * (t1.order * t2.order + 1)

    def test_active_rows_confined_to_out(self, rng):
        for _ in range(10):
            m = random_map(rng, 3)
            t = random_ph(rng, 3)
            out = output_r(m, t)
            d1 = out.map.d1
            assert np.all(d1.row_idx < m.order)

    @pytest.mark.parametrize(
        "operator",
        [
            lambda m, t1, t2: output_sigma(m, t1),
            lambda m, t1, t2: output_r(m, t1),
            output_min,
        ],
        ids=["sigma", "r", "min"],
    )
    def test_request_marginal_is_input_stationary(self, rng, operator):
        # strong lumpability: summing the output vector over TTL-phase
        # blocks gives the stationary vector of the request chain
        for _ in range(10):
            m = random_map(rng, 4)
            out = operator(m, random_ph(rng, 3), random_ph(rng, 2))
            p_out = steady_state(out.map.generator).entries
            marginal = p_out.reshape(-1, m.order).sum(axis=0)
            assert_allclose(marginal, steady_state(m.generator).entries, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "operator, phases",
        [
            (lambda m: output_sigma(m, PhaseTypeDistribution.erlang(5000, 5.0)), 5000),
            (lambda m: output_r(m, PhaseTypeDistribution.erlang(5000, 5.0)), 5000),
            (
                lambda m: output_min(
                    m, PhaseTypeDistribution.erlang(60, 5.0), PhaseTypeDistribution.erlang(60, 3.0)
                ),
                3600,
            ),
        ],
        ids=["sigma", "r", "min"],
    )
    def test_long_ttl_builds_in_linear_memory(self, operator, phases):
        # a dense (phases x phases) hit-reset block would take 100-200 MB here
        tracemalloc.start()
        try:
            out = operator(poisson_map(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.order == phases + 1
        assert out.map.d0.nnz <= 4 * (phases + 1)
        assert peak < 30e6

    def test_hypoexponential_interval_moments(self):
        lam, mu = 1.4, 0.6
        m = poisson_map(lam)
        out = output_sigma(m, PhaseTypeDistribution.exponential(mu))
        m1, m2 = stationary_interval_moments(out.map, 2)
        assert_allclose(m1, 1.0 / lam + 1.0 / mu, rtol=1e-9)
        hypo_m2 = 2.0 * (1 / lam**2 + 1 / (lam * mu) + 1 / mu**2)
        assert_allclose(m2, hypo_m2, rtol=1e-9)


class TestMemorylessnessCollapse:
    def test_single_phase_ttl_makes_policies_identical(self, rng):
        for _ in range(20):
            m = random_map(rng, 4)
            t = PhaseTypeDistribution.exponential(float(rng.uniform(0.2, 3.0)))
            a, b = output_sigma(m, t), output_r(m, t)
            assert a.map.d0 == b.map.d0
            assert a.map.d1 == b.map.d1
            assert a.in_states == b.in_states


def _chained_product(a, b):
    """a (x) b canonicalized on its own: the reference for one-sort assembly."""
    r = (a.row_idx[:, None] * b.rows + b.row_idx[None, :]).ravel()
    c = (a.col_idx[:, None] * b.cols + b.col_idx[None, :]).ravel()
    v = (a.data[:, None] * b.data[None, :]).ravel()
    return RateMatrix.from_arrays(a.rows * b.rows, a.cols * b.cols, r, c, v)


def _chained_sum(a, b):
    """a (x) I + I (x) b as two canonical products and a merging `+`."""
    return _chained_product(a, RateMatrix.identity(b.rows)) + _chained_product(
        RateMatrix.identity(a.rows), b
    )


def _chained_pi_rows(pi, rows):
    nz = np.flatnonzero(pi)
    return RateMatrix.from_arrays(
        rows, pi.size, np.repeat(np.arange(rows), nz.size), np.tile(nz, rows), np.tile(pi[nz], rows)
    )


def _chained_output(m, ttl, hit_reset):
    """(d0', d1') of the cache template, each Kronecker term sorted on its own:
    d0' = (P (+) d0) + (H (x) d1), d1' = A (x) d1."""
    k = ttl.order
    h = RateMatrix.from_arrays(
        k + 1, k + 1, hit_reset.row_idx + 1, hit_reset.col_idx + 1, hit_reset.data
    )
    nz = np.flatnonzero(ttl.pi.entries)
    a = RateMatrix.from_arrays(k + 1, k + 1, np.zeros_like(nz), nz + 1, ttl.pi.entries[nz])
    d0 = _chained_sum(ttl.full_generator(), m.d0) + _chained_product(h, m.d1)
    return d0, _chained_product(a, m.d1)


def _chained_join_output(parts, ttl, hit_reset):
    """(d0', d1') of the cache template over the independent MAPs `parts`,
    each Kronecker term sorted on its own and added in the operator's term
    order: P (x) I, then I (x) d0_i and H (x) d1_i for each part i, and
    A (x) d1_i for each part i."""
    k = ttl.order
    h = RateMatrix.from_arrays(
        k + 1, k + 1, hit_reset.row_idx + 1, hit_reset.col_idx + 1, hit_reset.data
    )
    nz = np.flatnonzero(ttl.pi.entries)
    a = RateMatrix.from_arrays(k + 1, k + 1, np.zeros_like(nz), nz + 1, ttl.pi.entries[nz])
    orders = [m.order for m in parts]

    def expanded(i, f):  # I (x) f (x) I with f on part i's axis
        out = f
        for j in range(i - 1, -1, -1):
            out = _chained_product(RateMatrix.identity(orders[j]), out)
        for j in range(i + 1, len(parts)):
            out = _chained_product(out, RateMatrix.identity(orders[j]))
        return out

    n = math.prod(orders)
    d0 = _chained_product(ttl.full_generator(), RateMatrix.identity(n))
    for i, m in enumerate(parts):
        d0 = d0 + _chained_product(RateMatrix.identity(k + 1), expanded(i, m.d0))
    for i, m in enumerate(parts):
        d0 = d0 + _chained_product(h, expanded(i, m.d1))
    d1 = _chained_product(a, expanded(0, parts[0].d1))
    for i, m in enumerate(parts[1:], 1):
        d1 = d1 + _chained_product(a, expanded(i, m.d1))
    return d0, d1


def _rates_map(rng, tiny: bool, max_states: int = 4) -> MarkovArrivalProcess:
    """A random MAP of at most `max_states` states; with `tiny`, state 0's
    active rates are scaled by 1e-170."""
    m = random_map(rng, max_states)
    if not tiny:
        return m
    d0, d1 = m.d0.to_dense(), m.d1.to_dense()
    d1[0] *= 1e-170
    np.fill_diagonal(d0, 0.0)
    d0 -= np.diag(d0.sum(axis=1) + d1.sum(axis=1))
    return MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))


def _ttl(rng, tiny: bool, zero_pi: bool) -> PhaseTypeDistribution:
    """A random PH TTL; `zero_pi` zeroes all but one pi entry at random,
    `tiny` sets one pi entry to 1e-200 (so pi times a `tiny` d1 rate
    underflows to 0.0)."""
    t = random_ph(rng)
    pi = t.pi.entries.copy()
    if zero_pi:
        pi[rng.random(pi.size) < 0.5] = 0.0
        pi[rng.integers(pi.size)] = 1.0
    if tiny:
        pi[rng.integers(pi.size)] = 1e-200
    if pi.sum() == 1e-200:
        pi[:] = 1.0
    return PhaseTypeDistribution(t.s, ProbabilityVector(pi / pi.sum()))


class TestOneSortAssembly:
    """Each assembled matrix takes one sort of its Kronecker terms; the bits
    equal those of canonicalizing every term and adding them in order."""

    @given(seed=st.integers(0, 2**32 - 1), tiny=st.booleans(), zero_pi=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cache_outputs_match_chained_terms(self, seed, tiny, zero_pi):
        rng = np.random.default_rng(seed)
        m = _rates_map(rng, tiny)
        t, t_r = _ttl(rng, tiny, zero_pi), _ttl(rng, tiny, zero_pi)
        joint = PhaseTypeDistribution(
            _chained_sum(t.s, t_r.s), ProbabilityVector(np.kron(t.pi.entries, t_r.pi.entries))
        )
        min_reset = _chained_product(
            RateMatrix.identity(t.order), _chained_pi_rows(t_r.pi.entries, t_r.order)
        )
        cases = [
            (output_sigma(m, t), t, RateMatrix.identity(t.order)),
            (output_r(m, t), t, _chained_pi_rows(t.pi.entries, t.order)),
            (output_min(m, t, t_r), joint, min_reset),
        ]
        for out, ttl, reset in cases:
            d0, d1 = _chained_output(m, ttl, reset)
            assert out.ttl == ttl
            assert out.map.d0 == d0
            assert out.map.d1 == d1

    @given(
        seed=st.integers(0, 2**32 - 1),
        parts=st.integers(2, 3),
        tiny=st.booleans(),
        zero_pi=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_join_outputs_match_chained_terms(self, seed, parts, tiny, zero_pi):
        # joins of independent MAPs, each chain within the dense bound
        rng = np.random.default_rng(seed)
        maps = tuple(_rates_map(rng, tiny, 3 if parts == 2 else 2) for _ in range(parts))
        t, t_r = _ttl(rng, tiny, zero_pi), random_ph(rng, 2)
        joint = PhaseTypeDistribution(
            _chained_sum(t.s, t_r.s), ProbabilityVector(np.kron(t.pi.entries, t_r.pi.entries))
        )
        min_reset = _chained_product(
            RateMatrix.identity(t.order), _chained_pi_rows(t_r.pi.entries, t_r.order)
        )
        cases = [
            (output_sigma(maps, t), t, RateMatrix.identity(t.order)),
            (output_r(maps, t), t, _chained_pi_rows(t.pi.entries, t.order)),
            (output_min(maps, t, t_r), joint, min_reset),
        ]
        for out, ttl, reset in cases:
            assert out.order <= kron._GTH_MAX
            d0, d1 = _chained_join_output(maps, ttl, reset)
            assert out.ttl == ttl
            assert out.map.d0 == d0
            assert out.map.d1 == d1

    def test_underflowing_product_is_dropped(self):
        m = _rates_map(np.random.default_rng(4), tiny=True)
        pi = np.array([1e-200, 1.0])
        t = PhaseTypeDistribution(
            RateMatrix.from_dense([[-2.0, 1.0], [0.0, -1.5]]), ProbabilityVector(pi / pi.sum())
        )
        a = RateMatrix.from_dense([[0.0, 1e-200, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.any(kron_terms(a, m.d1)[2] == 0.0)  # 1e-200 * 1e-170 underflows
        for out, reset in [
            (output_sigma(m, t), RateMatrix.identity(2)),
            (output_r(m, t), _chained_pi_rows(t.pi.entries, 2)),
        ]:
            d0, d1 = _chained_output(m, t, reset)
            assert out.map.d0 == d0 and out.map.d1 == d1

    @given(seed=st.integers(0, 2**32 - 1), parts=st.integers(2, 3), tiny=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_superpose_matches_chained_sums(self, seed, parts, tiny):
        rng = np.random.default_rng(seed)
        maps = [_rates_map(rng, tiny) for _ in range(parts)]
        d0, d1 = maps[0].d0, maps[0].d1
        for m in maps[1:]:
            d0, d1 = _chained_sum(d0, m.d0), _chained_sum(d1, m.d1)
        got = superpose(maps)
        assert got.d0 == d0 and got.d1 == d1

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_kron_sum_matches_chained_sum(self, seed, m, n):
        # entries from a small set, so that diagonal sums cancel to exactly 0.0
        rng = np.random.default_rng(seed)
        values = np.array([0.0, 0.0, -2.0, -1.0, 1.0, 2.0, 1e-300])
        a = RateMatrix.from_dense(rng.choice(values, (m, m)))
        b = RateMatrix.from_dense(rng.choice(values, (n, n)))
        assert kron_sum(a, b) == _chained_sum(a, b)


def _policy_chain(r, policy: str, parts):
    """A random-TTL chain of `policy` over the tuple `parts`, and the
    assembled output of the same cache fed by their superposition."""
    ttl, ttl_r = random_ph(r, 4), random_ph(r, 2)
    ttls = (ttl, ttl_r) if policy == "MinSigmaR" else (ttl,)
    op = {"Sigma": output_sigma, "R": output_r, "MinSigmaR": output_min}[policy]
    input_map = parts[0] if len(parts) == 1 else superpose(parts)
    return op(tuple(parts), *ttls), input_map, op(input_map, *ttls)


def _assert_close(got, want, scale, what):
    """|got - want| <= 1e-13 scale, entry by entry."""
    excess = np.abs(got - want) - 1e-13 * scale
    assert np.all(excess <= 0.0), f"{what}: worst excess {excess.max():g}"


class TestFactoredChain:
    """The factored generator of a cache chain (`CacheChain.generator`) and
    the given-input system it builds (`CacheChain.in_system`) against the
    assembled `output_*` and `superpose` matrices, for joins of one to
    three inputs, one of them possibly a part of a split MAP. Each product
    runs by every rule of `KronOperator`: one bincount over all terms, one
    numpy product per factor (dense or over the term's triplets), and
    scipy's product per factor."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(["Sigma", "R", "MinSigmaR"]),
        children=st.integers(1, 3),
        split_child=st.integers(-1, 2),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_assembled_matrices(self, seed, policy, children, split_child):
        r = np.random.default_rng(seed)
        parts = [random_map(r, 5) for _ in range(children)]
        if 0 <= split_child < children:
            weights = r.dirichlet(np.ones(3))
            parts[split_child] = split(parts[split_child], ProbabilityVector(weights))[
                int(r.integers(3))
            ]
        chain, input_map, out = _policy_chain(r, policy, parts)
        q = out.map.generator.to_dense()
        op = chain.generator
        assert op.size == q.shape[0]
        x = r.uniform(0.1, 1.0, op.size)
        _assert_close(op.diagonal(), np.diag(q), np.abs(np.diag(q)), "diagonal")
        # the fallback's assembly of the chain itself
        d0, d1 = chain.map.d0.to_dense(), chain.map.d1.to_dense()
        _assert_close(d0, out.map.d0.to_dense(), np.abs(out.map.d0.to_dense()), "d0'")
        _assert_close(d1, out.map.d1.to_dense(), np.abs(out.map.d1.to_dense()), "d1'")

        # x_T (-M) = p_in (pi (x) d1), M = Q'_TT - (1 pi) (x) d1
        n, k = input_map.order, chain.ttl.order
        pi, input_d1 = chain.ttl.pi.entries, input_map.d1.to_dense()
        neg_m = -(q[n:, n:] - np.kron(np.outer(np.ones(k), pi), input_d1))
        p_in = steady_state(input_map.generator).entries
        system, rhs = chain.in_system(p_in)
        _assert_close(system.diagonal(), np.diag(neg_m), np.abs(np.diag(neg_m)), "diagonal of -M")
        want = np.kron(pi, p_in @ input_d1)
        _assert_close(rhs, want, want, "p_in (pi (x) d1)")

        off, x_t = q - np.diag(np.diag(q)), x[n:]
        largest = max(
            math.prod(dims[:axis]) * f.nnz * math.prod(dims[axis + 1:])
            for dims, terms in [(op.dims, op.terms), (system.dims, system.terms)]
            for t in terms
            for axis, f in enumerate(t)
            if f is not None
        )
        for bound in (sys.maxsize, largest, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kron, "_NUMPY_PRODUCT_MAX", bound)
                fresh = kron.KronOperator(op.dims, op.terms)
                _assert_close(fresh.product(x), x @ q, np.abs(x) @ np.abs(q), f"x Q' ({bound})")
                inflow = fresh.off_diagonal.product(x)
                _assert_close(inflow, x @ off, x @ off, f"inflow ({bound})")
                scale = np.abs(x_t) @ np.abs(neg_m)
                got = kron.KronOperator(system.dims, system.terms).product(x_t)
                _assert_close(got, x_t @ neg_m, scale, f"x_T (-M) ({bound})")
