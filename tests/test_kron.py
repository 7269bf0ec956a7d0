"""Kronecker algebra and steady-state solving."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import dense_stationary, kron_dense
from ttlnet import (
    DimensionError,
    NoStationaryDistributionError,
    PhaseTypeDistribution,
    ProbabilityVector,
    RateMatrix,
    ValidationError,
    cache_ops,
    kron,
    kron_product,
    kron_sum,
    mmpp_map,
    steady_state,
)


class TestRateMatrix:
    def test_duplicate_coordinates_are_summed(self):
        m = RateMatrix.from_triplets(2, 2, [(0, 1, 1.5), (0, 1, 2.0), (1, 0, 3.0)])
        assert m.to_dense()[0, 1] == 3.5
        assert m.nnz == 2

    def test_exact_zero_entries_are_dropped(self):
        m = RateMatrix.from_triplets(2, 2, [(0, 0, 1.0), (0, 0, -1.0)])
        assert m.nnz == 0

    def test_equality_is_entrywise(self):
        a = RateMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
        b = RateMatrix.from_triplets(2, 2, [(1, 1, 2.0), (0, 0, 1.0)])
        assert a == b
        assert a != RateMatrix.from_dense([[1.0, 0.0], [0.0, 2.0 + 1e-15]])

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            RateMatrix.from_triplets(2, 2, [(2, 0, 1.0)])

    def test_add_requires_matching_shapes(self):
        with pytest.raises(DimensionError):
            RateMatrix.zeros(2, 2) + RateMatrix.zeros(3, 3)


class TestProbabilityVector:
    def test_accepts_stochastic(self):
        p = ProbabilityVector([0.3, 0.7])
        assert len(p) == 2 and p[1] == 0.7

    @pytest.mark.parametrize("bad", [[0.5, 0.6], [-0.1, 1.1], [0.9]])
    def test_rejects_non_stochastic(self, bad):
        with pytest.raises(ValidationError):
            ProbabilityVector(bad)

    @pytest.mark.parametrize(
        "bad",
        [[math.nan], [math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 1.0]],
        ids=["nan", "nan-one", "nan-between", "inf-one"],
    )
    def test_rejects_non_finite(self, bad):
        # NaN fails no comparison that the sign and sum tests make
        with pytest.raises(ValidationError, match="probability vector has non-finite entries"):
            ProbabilityVector(bad)


class TestKronProduct:
    def test_scalar_case(self):
        out = kron_product(RateMatrix.from_dense([[2.0]]), RateMatrix.from_dense([[3.0]]))
        assert out == RateMatrix.from_dense([[6.0]])

    def test_identity_left_is_block_diagonal(self):
        b = RateMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        out = kron_product(RateMatrix.identity(2), b)
        expected = np.zeros((4, 4))
        expected[:2, :2] = b.to_dense()
        expected[2:, 2:] = b.to_dense()
        assert np.array_equal(out.to_dense(), expected)

    def test_permutation_against_direct_expansion(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.eye(2)
        out = kron_product(RateMatrix.from_dense(a), RateMatrix.from_dense(b))
        assert np.array_equal(out.to_dense(), kron_dense(a, b))

    def test_random_against_direct_expansion(self, rng):
        for _ in range(25):
            a = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            b = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            out = kron_product(RateMatrix.from_dense(a), RateMatrix.from_dense(b))
            assert_allclose(out.to_dense(), kron_dense(a, b), rtol=0, atol=0)

    @given(c=st.floats(-5, 5, allow_nan=False), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_bilinear_in_scalar(self, c, seed):
        r = np.random.default_rng(seed)
        a = RateMatrix.from_dense(r.normal(size=(2, 3)))
        b = RateMatrix.from_dense(r.normal(size=(2, 2)))
        left = kron_product(a.scale(c), b)
        right = kron_product(a, b).scale(c)
        assert_allclose(left.to_dense(), right.to_dense(), rtol=0, atol=1e-12)


class TestKronSum:
    def test_one_by_one(self):
        out = kron_sum(RateMatrix.from_dense([[-1.0]]), RateMatrix.from_dense([[-2.0]]))
        assert out == RateMatrix.from_dense([[-3.0]])

    def test_printed_two_state_superposition_blocks(self):
        # two on/off miss-process generators combine into the printed 4x4 sum
        l1, l2, m1, m2 = 1.0, 2.0, 3.0, 4.0
        a = RateMatrix.from_dense([[-l1, 0.0], [m1, -m1]])
        b = RateMatrix.from_dense([[-l2, 0.0], [m2, -m2]])
        first = np.array(
            [[-l1, 0, 0, 0], [0, -l1, 0, 0], [m1, 0, -m1, 0], [0, m1, 0, -m1]]
        )
        second = np.array(
            [[-l2, 0, 0, 0], [m2, -m2, 0, 0], [0, 0, -l2, 0], [0, 0, m2, -m2]]
        )
        assert np.array_equal(kron_sum(a, b).to_dense(), first + second)

    def test_zero_block_is_identity_element(self):
        a = RateMatrix.from_dense([[-1.0, 1.0], [2.0, -2.0]])
        out = kron_sum(a, RateMatrix.zeros(1, 1))
        assert out == a

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            kron_sum(RateMatrix.zeros(2, 3), RateMatrix.zeros(2, 2))

    def test_row_sums_add(self, rng):
        for _ in range(25):
            na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = rng.normal(size=(na, na))
            b = rng.normal(size=(nb, nb))
            out = kron_sum(RateMatrix.from_dense(a), RateMatrix.from_dense(b))
            sums = out.row_sums()
            for i in range(na):
                for j in range(nb):
                    assert_allclose(
                        sums[i * nb + j], a[i].sum() + b[j].sum(), rtol=1e-12
                    )

    def test_dimension_law(self, rng):
        a = RateMatrix.from_dense(rng.normal(size=(3, 3)))
        b = RateMatrix.from_dense(rng.normal(size=(4, 4)))
        out = kron_sum(a, b)
        assert (out.rows, out.cols) == (12, 12)


class TestSteadyState:
    def test_symmetric_two_state(self):
        p = steady_state(RateMatrix.from_dense([[-1.0, 1.0], [1.0, -1.0]]))
        assert_allclose(p.entries, [0.5, 0.5], atol=1e-14)

    def test_two_state_balance(self):
        # by hand: p0*lam = p1*mu with lam=1, mu=3
        p = steady_state(RateMatrix.from_dense([[-1.0, 1.0], [3.0, -3.0]]))
        assert_allclose(p.entries, [0.75, 0.25], atol=1e-13)

    def test_four_state_uniform_by_symmetry(self):
        # background generator of the superposition of two unit on/off processes
        q2 = RateMatrix.from_dense([[-1.0, 1.0], [1.0, -1.0]])
        q = kron_sum(q2, q2)
        p = steady_state(q)
        assert_allclose(p.entries, dense_stationary(q.to_dense()), atol=1e-12)
        assert_allclose(p.entries, 0.25, atol=1e-12)

    def test_matches_dense_oracle_on_random_generators(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            q = rng.uniform(0.1, 2.0, (n, n))
            np.fill_diagonal(q, 0.0)
            q -= np.diag(q.sum(axis=1))
            p = steady_state(RateMatrix.from_dense(q))
            assert_allclose(p.entries, dense_stationary(q), atol=1e-10)
            assert np.all(p.entries >= 0)
            assert abs(p.entries.sum() - 1.0) < 1e-12
            residual = np.max(np.abs(p.entries @ q))
            assert residual < 1e-10

    def test_reducible_chain_rejected(self):
        q = RateMatrix.from_dense([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        with pytest.raises(NoStationaryDistributionError):
            steady_state(q)

    def test_non_generator_rejected(self):
        with pytest.raises(ValidationError):
            steady_state(RateMatrix.from_dense([[-1.0, 2.0], [1.0, -1.0]]))
        with pytest.raises(ValidationError):
            steady_state(RateMatrix.from_dense([[-1.0, 1.0], [-0.5, 0.5]]))

    def test_stiff_chain_falls_back_to_lu(self, monkeypatch):
        # Above the dense bound steady_state solves by sparse LU alone: one
        # factorization, which holds the large entries of this stiff ring
        n = 300
        assert n > kron._DENSE_MAX
        q = _stiff_ring(n)
        factorizations = _spy_on_lu(monkeypatch)
        p = steady_state(RateMatrix.from_dense(q)).entries
        assert factorizations == [(n, n)]
        want = _bordered_lapack(q)
        big = want > 1e-6
        assert big.sum() == 52
        assert_allclose(p[big], want[big], rtol=1e-10, atol=0)

    def test_stiff_chain_within_dense_bound_needs_no_sparse_lu(self, monkeypatch):
        # Between the GTH and dense bounds steady_state solves the bordered
        # system dense, with no scipy factorization, to the same accuracy
        n = 100
        assert kron._GTH_MAX < n <= kron._DENSE_MAX
        q = _stiff_ring(n)
        factorizations = _spy_on_lu(monkeypatch)
        p = steady_state(RateMatrix.from_dense(q)).entries
        assert factorizations == []
        want = _bordered_lapack(q)
        big = want > 1e-6
        assert big.sum() == 33
        assert_allclose(p[big], want[big], rtol=1e-10, atol=0)

    def test_stiff_chain_within_gth_bound_needs_no_lu(self, monkeypatch):
        # GTH subtracts nothing, so the stiff ring passes the backward-error
        # gate without Krylov iterations or a factorization
        n = 50
        q = _stiff_ring(n)
        factorizations = _spy_on_lu(monkeypatch)
        monkeypatch.setattr(kron, "_bicgstab", _never_called)
        p = steady_state(RateMatrix.from_dense(q)).entries
        assert factorizations == []
        want = _bordered_lapack(q)
        big = want > 1e-6
        assert big.sum() == 15
        assert_allclose(p[big], want[big], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", [4, 100])
    @pytest.mark.parametrize("shape", ["two-closed-classes", "transient-state"])
    def test_reducible_chains_rejected(self, n, shape):
        # a ring over states 1..n-1; state 0 is absorbing (a closed class of
        # its own) or only leaves into the ring
        q = np.zeros((n, n))
        ring = np.arange(1, n)
        q[ring, np.roll(ring, -1)] = np.linspace(0.5, 2.0, n - 1)
        if shape == "transient-state":
            q[0, 1 + n // 2] = 1.0
        q -= np.diag(q.sum(axis=1))
        with pytest.raises(NoStationaryDistributionError, match="reducible"):
            steady_state(RateMatrix.from_dense(q))

    @pytest.mark.parametrize(
        "q,error,message",
        [
            ([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]],
             NoStationaryDistributionError, "generator is reducible"),
            ([[1.0, -1.0], [1.0, -1.0]], ValidationError, "negative off-diagonal"),
            ([[-1.0, 1.0], [1.0, -1.5]], ValidationError, r"rows do not sum to 0 \(max \|sum\| = 0.5\)"),
            ([[0.5]], ValidationError, "rows do not sum to 0"),
        ],
        ids=["reducible", "negative-rate", "row-sum", "one-state-row-sum"],
    )
    def test_dense_route_refusals(self, q, error, message):
        # chains within the GTH bound are checked on their dense array
        with pytest.raises(error, match=message):
            steady_state(RateMatrix.from_dense(q))

    def test_dense_route_sweeps_a_rough_vector(self, monkeypatch):
        # state 4 is rare (probability ~1e-10); a GTH vector 1e-6 off there
        # passes the residual gate but not the backward-error gate, so Jacobi
        # sweeps on the dense array must mend it, with no LU
        q = _rare_state_chain()
        exact = _exact_stationary(q)
        rough = exact.copy()
        rough[4] *= 1.0 + 1e-6
        monkeypatch.setattr(kron, "_gth", lambda a: rough)
        monkeypatch.setattr(kron, "_lu_solve", _never_called)
        p = steady_state(RateMatrix.from_dense(q)).entries
        assert exact[4] < 1e-9
        assert_allclose(p, exact, rtol=1e-12, atol=0)



class TestLuSolve:
    """One bordered LU, factored by `kron._solver`: LAPACK up to
    `_DENSE_MAX` states, one sparse LU above."""

    @pytest.mark.parametrize("n", [65, 200, 201, 300])
    def test_agrees_with_least_squares(self, monkeypatch, n):
        # an independent solve: least squares on q^T with a row of ones
        # appended, not substituted; the stiff ring's 1e12 spread of rates
        # leaves that system too ill-conditioned to check 1e-12 against
        q = _random_generator(np.random.default_rng(n), n)
        factorizations = _spy_on_lu(monkeypatch)
        p = kron._lu_solve(RateMatrix.from_dense(q))
        assert factorizations == ([(n, n)] if n > kron._DENSE_MAX else [])
        e = np.zeros(n + 1)
        e[-1] = 1.0
        want = np.linalg.lstsq(np.vstack([q.T, np.ones(n)]), e, rcond=None)[0]
        assert_allclose(p, want, rtol=1e-12, atol=0)

    def test_steady_state_builds_no_kron_operator(self, monkeypatch):
        # the generator check and the LU both read q's triplets
        def refuse(*args):
            raise AssertionError("KronOperator built")

        monkeypatch.setattr(kron, "KronOperator", refuse)
        q = _random_generator(np.random.default_rng(300), 300)
        p = steady_state(RateMatrix.from_dense(q)).entries
        assert_allclose(p, _bordered_lapack(q), rtol=1e-12, atol=0)

    def test_nan_vector_refused(self, monkeypatch):
        # a NaN residual is not above the bound, and not within it either
        n = 70
        monkeypatch.setattr(kron, "_solver", lambda a: lambda b: np.full(n, np.nan))
        with pytest.raises(NoStationaryDistributionError, match="residual too large"):
            kron._lu_solve(RateMatrix.from_dense(_random_generator(np.random.default_rng(0), n)))

    @pytest.mark.parametrize("n", [3, 64, 65, 300])
    @pytest.mark.parametrize(
        "fault,message",
        [("negative-rate", "generator has negative off-diagonal entries"),
         ("row-sum", r"generator rows do not sum to 0 \(max \|sum\| = 1e-06\)")],
    )
    def test_generator_checked_once_on_every_route(self, n, fault, message):
        # the same check and text on both sides of the GTH bound
        q = np.zeros((n, n))
        q[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        q -= np.diag(q.sum(axis=1))
        if fault == "negative-rate":
            q[0, 2] -= 0.5  # the row still sums to zero
            q[0, 0] += 0.5
        else:
            q[0, 0] -= 1e-6
        with pytest.raises(ValidationError, match=message):
            steady_state(RateMatrix.from_dense(q))


def _stiff_ring(n: int) -> np.ndarray:
    """A ring plus one random edge per state, rates 10^U(-6, 6)."""
    r = np.random.default_rng(1)
    rows = np.concatenate([np.arange(n), np.arange(n)])
    cols = np.concatenate([(np.arange(n) + 1) % n, r.integers(0, n, n)])
    rates = 10.0 ** r.uniform(-6, 6, 2 * n)
    off = rows != cols
    q = np.zeros((n, n))
    np.add.at(q, (rows[off], cols[off]), rates[off])
    return q - np.diag(q.sum(axis=1))


def _bordered_lapack(q: np.ndarray) -> np.ndarray:
    """Independent dense LU (LAPACK) of steady_state's bordered system."""
    n = q.shape[0]
    a = q.T.copy()
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _spy_on_lu(monkeypatch) -> list:
    """Record the shape of every sparse LU factorization."""
    factorizations = []
    real_splu = spla.splu

    def spy(a):
        factorizations.append(a.shape)
        return real_splu(a)

    monkeypatch.setattr(spla, "splu", spy)
    return factorizations


def _never_called(*args):
    raise AssertionError("BiCGSTAB or LU called")


def _random_generator(rng, n: int) -> np.ndarray:
    """Dense irreducible generator: a ring plus random edges, rates in [0.1, 10]."""
    q = np.zeros((n, n))
    q[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.1, 10.0, n)
    extra = rng.random((n, n)) < min(1.0, 3.0 / n)
    q[extra] += rng.uniform(0.1, 10.0, extra.sum())
    np.fill_diagonal(q, 0.0)
    return q - np.diag(q.sum(axis=1))


def _exact_stationary(q: np.ndarray) -> np.ndarray:
    """The stationary vector of the generator with q's off-diagonal rates,
    each read exactly, and each diagonal the exact negative row sum,
    rounded once from rationals.

    GTH in exact arithmetic: each row is held as integer numerators over one
    denominator, so a reduction step multiplies and adds integers and one
    gcd per row keeps them small. The diagonal is never read.
    """
    n = q.shape[0]
    num, den = [], []
    for i, row in enumerate(q.tolist()):
        rates = [Fraction(0) if j == i else Fraction(v) for j, v in enumerate(row)]
        d = math.lcm(*(f.denominator for f in rates))
        num.append([f.numerator * (d // f.denominator) for f in rates])
        den.append(d)
    weights = [[]]  # weights[k][i] = (rate i -> k) / pivot_k, both in the chain on 0..k
    for k in range(n - 1, 0, -1):
        into = [(j, v) for j, v in enumerate(num[k][:k]) if v]
        pivot = sum(v for _, v in into)
        assert pivot > 0
        weights.insert(1, [Fraction(num[i][k] * den[k], den[i] * pivot) for i in range(k)])
        for i in range(k):
            c, row = num[i][k], num[i]
            if c:
                row[:k] = [v * pivot for v in row[:k]]
                for j, v in into:
                    if j != i:
                        row[j] += c * v
                g = math.gcd(den[i] * pivot, *row[:k])
                row[:k] = [v // g for v in row[:k]]
                den[i] = den[i] * pivot // g
    x = [Fraction(1)]
    for k in range(1, n):
        x.append(sum(x[i] * w for i, w in enumerate(weights[k]) if w))
    total = sum(x)
    return np.array([float(v / total) for v in x])


def _two_operator_gate(q: np.ndarray, x: np.ndarray):
    """The gate with the product by q itself: `_relax` on q's off-diagonal
    part, then max |x q| from x q, under the residual bound
    max(1e-10, 1e-13 max |q_ii|)."""
    relaxed = kron._relax(lambda y: y @ (q - np.diag(np.diag(q))), -np.diag(q), x)
    if relaxed is None:
        return None
    x = relaxed[0]
    return x if np.abs(x @ q).max() <= max(1e-10, 1e-13 * np.abs(np.diag(q)).max()) else None


def _rare_state_chain() -> np.ndarray:
    """A 5-state generator whose state 4 has probability about 1e-10."""
    rng = np.random.default_rng(5)
    q = rng.uniform(0.5, 2.0, (5, 5))
    q[:, 4], q[0, 4], q[4, 1:] = 0.0, 1e-8, 0.0
    q[4, 0] = 10.0
    np.fill_diagonal(q, 0.0)
    return q - np.diag(q.sum(axis=1))


class TestGate:
    """`_gate` reads the residual max |x q| from the sweep that accepted x,
    as inflow minus outflow: it accepts and rejects as the gate with a
    product by q did, on the gate tests' chains and on vectors near their
    stationary ones."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(11)
        stiff, rare = _stiff_ring(50), _rare_state_chain()
        fast = 1e3 * _random_generator(rng, 20)
        cases = []
        for q in (stiff, rare, fast):
            exact = _exact_stationary(q)
            cases.append((q, exact, True))
            # every balance equation off by a relative 5e-11: within the
            # backward-error bound, so no sweep runs, but max |x q| is over
            # its bound when the rates are large
            nudged = exact * (1.0 + 5e-11 * rng.choice([-1.0, 1.0], exact.size))
            cases.append((q, nudged / nudged.sum(), q is not fast))
        rough = _exact_stationary(rare)
        rough[4] *= 1.0 + 1e-6  # mended by the sweeps
        cases.append((rare, rough, True))
        cases.append((stiff, np.full(50, 1.0 / 50), False))  # out of sweeps
        return cases

    def test_matches_the_two_operator_gate(self):
        for q, x, accepted in self._cases():
            off = q - np.diag(np.diag(q))
            got = kron._gate(lambda y: y @ off, np.diag(q), x)
            want = _two_operator_gate(q, x)
            assert (got is not None) == (want is not None) == accepted
            if accepted:
                assert np.array_equal(got, want)

    def test_factored_generator(self):
        # Q' of an R cache on its factors, as the given-input route gates
        # it: sweeps by its off-diagonal operator, no product with Q'
        q = cache_ops.output_r(mmpp_map([[-0.5, 0.5], [1.0, -1.0]], [40.0, 0.5]),
                               PhaseTypeDistribution.erlang(40, 30.0)).generator
        dense = q.to_dense()
        x = kron._gth(dense)
        nudged = x * (1.0 + 5e-11 * np.random.default_rng(3).choice([-1.0, 1.0], x.size))
        outcomes = []
        for v in (x, nudged / nudged.sum()):
            got = kron._gate(q.off_diagonal.product, q.diagonal(), v)
            want = _two_operator_gate(dense, v)
            assert (got is None) == (want is None)
            outcomes.append(got is None)
            if got is not None:
                assert_allclose(got, want, rtol=1e-14, atol=0)
        assert outcomes == [False, True]

    def test_residual_is_the_balance_of_the_accepting_sweep(self):
        # in - out of the accepting sweep is x q up to rounding; the one
        # vector refused with sweeps left is refused by the residual gate
        refused = 0
        for q, x, accepted in self._cases():
            relaxed = kron._relax(lambda y: y @ (q - np.diag(np.diag(q))), -np.diag(q), x)
            if relaxed is not None:
                x, balance = relaxed
                scale = np.abs(x) @ np.abs(q)
                assert np.all(np.abs(balance - x @ q) <= 4e-16 * scale)
                refused += not accepted
        assert refused == 1


class TestGth:
    """GTH state reduction against independent references."""

    @given(n=st.integers(2, kron._GTH_MAX), seed=st.integers(0, 2**31),
           spread=st.sampled_from([0.0, 2.0, 4.0]))
    # a draw on which LAPACK's bordered solve is 2.5e-7 off an entry 5.7e-6 of the largest
    @example(n=5, seed=430, spread=4.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, n, seed, spread):
        # random irreducible generators, off-diagonal rates scaled by 10^U(-spread, spread)
        r = np.random.default_rng(seed)
        q = _random_generator(r, n) * 10.0 ** r.uniform(-spread, spread, (n, n))
        np.fill_diagonal(q, 0.0)
        q -= np.diag(q.sum(axis=1))
        p = kron._gth(q)
        assert p is not None and np.all(p > 0)
        assert_allclose(p, _exact_stationary(q), rtol=1e-8 if spread else 1e-11, atol=0)
        assert_allclose(steady_state(RateMatrix.from_dense(q)).entries, p, rtol=1e-9, atol=0)

    def test_zero_pivot_on_reducible_chain(self):
        q = RateMatrix.from_dense([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        assert kron._gth(q.to_dense()) is None


class TestDense:
    """Dense forms of the Kronecker algebra, bit for bit those of numpy and
    of the sparse assembly."""

    @pytest.mark.parametrize(
        "a_shape,b_shape", [((2, 2), (3, 3)), ((3,), (2,)), ((3,), (4, 4)), ((4, 1), (3,)), ((2, 3), (1, 5))]
    )
    def test_dense_kron_is_numpys(self, a_shape, b_shape, rng):
        a = rng.normal(size=a_shape) * (rng.random(a_shape) < 0.7)
        b = rng.normal(size=b_shape) * (rng.random(b_shape) < 0.7)
        got, want = kron.dense_kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and np.array_equal(got, want)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_operator_to_dense_is_assemble(self, seed):
        # up to three axes, each factor a random matrix or the identity, so
        # terms repeat coordinates and partly cancel
        r = np.random.default_rng(seed)
        dims = tuple(int(d) for d in r.integers(1, 4, int(r.integers(1, 4))))
        terms = []
        for _ in range(int(r.integers(0, 5))):
            terms.append(tuple(
                None if r.random() < 0.4
                else RateMatrix.from_dense(r.choice([-1.5, -0.5, 0.0, 0.5, 1.0], (n, n)))
                for n in dims
            ))
        op = kron.KronOperator(dims, terms)
        got = op.to_dense()
        assert np.array_equal(got, _sorted_assembly(op).to_dense())
        assert not np.any(np.signbit(got) & (got == 0.0))

    @given(
        seed=st.integers(0, 2**31),
        dims=st.sampled_from([
            (64,), (8, 8), (2, 32), (4, 4, 4), (2, 4, 8),
            (65,), (5, 13), (13, 5), (1, 5, 13), (5, 13, 1),
        ]),
        count=st.integers(0, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_assemble_is_sorted_assembly(self, seed, dims, count):
        # _GTH_MAX states and one more: the dense route and the sorted one.
        # Entries from a small set, so that sums cancel to exactly 0.0, with
        # 1e-200, whose products underflow, and normal draws, whose sums
        # round by their order; a term may have an empty factor
        assert math.prod(dims) in (kron._GTH_MAX, kron._GTH_MAX + 1)
        r = np.random.default_rng(seed)
        values = [-1.5, -0.5, 0.0, 0.0, 0.5, 1.0, 1e-200, *r.normal(size=3)]
        terms = [
            tuple(
                None if r.random() < 0.3
                else RateMatrix.from_dense(r.choice(values, (n, n)) * (r.random((n, n)) < 0.3))
                for n in dims
            )
            for _ in range(count)
        ]
        if count and r.random() < 0.2:
            terms[0] = terms[0][:-1] + (RateMatrix.zeros(dims[-1], dims[-1]),)
        op = kron.KronOperator(dims, terms)
        got, want = op.assemble(), _sorted_assembly(op)
        assert got == want and got.data.tobytes() == want.data.tobytes()
        assert got.row_idx.dtype == got.col_idx.dtype == np.int64

    def test_assemble_drops_underflow_and_cancellation(self):
        # of a (x) a's nine products, 1e-200 * 1e-200 underflows at (0, 0)
        # and 1 * 1 at (3, 3) cancels against the second term
        a = RateMatrix.from_dense([[1e-200, 1.0], [0.0, 1.0]])
        corner = RateMatrix.from_dense([[0.0, 0.0], [0.0, 1.0]])
        op = kron.KronOperator((2, 2), [(a, a), (corner, corner.scale(-1.0))])
        got = op.assemble()
        assert got == _sorted_assembly(op)
        assert got.nnz == 7 and got.to_dense()[0, 0] == got.to_dense()[3, 3] == 0.0


def _sorted_assembly(op):
    """op assembled from its terms' triplets in one sort, whatever its size."""
    if not op.terms:
        return RateMatrix.zeros(op.size, op.size)
    triplets = [kron.kron_triplets(op.dims, t) for t in op.terms]
    return RateMatrix.from_terms(op.size, op.size, triplets)


class TestReachable:
    @given(n=st.integers(1, 30), density=st.floats(0.0, 0.3), seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_matches_transitive_closure(self, n, density, seed):
        r = np.random.default_rng(seed)
        adj = r.random((n, n)) < density
        start = r.choice(n, size=int(r.integers(1, n + 1)), replace=False)
        edges = sp.csr_matrix(adj)
        forward = kron.reachable(edges.indptr, edges.indices, start)
        reverse = edges.tocsc()
        backward = kron.reachable(reverse.indptr, reverse.indices, start)
        # Warshall's transitive closure of the reflexive adjacency
        closure = adj | np.eye(n, dtype=bool)
        for k in range(n):
            closure |= closure[:, [k]] & closure[[k], :]
        assert np.array_equal(forward, closure[start].any(axis=0))
        assert np.array_equal(backward, closure[:, start].any(axis=1))


class TestEdgeArrays:
    @given(rows=st.integers(1, 30), cols=st.integers(1, 30), density=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_match_scipy(self, rows, cols, density, seed):
        r = np.random.default_rng(seed)
        dense = r.uniform(-1.0, 1.0, (rows, cols)) * (r.random((rows, cols)) < density)
        q = RateMatrix.from_dense(dense)
        csr = sp.csr_matrix(dense)
        for (indptr, indices), want in [(kron.edges(q), csr), (kron.reversed_edges(q), csr.tocsc())]:
            assert np.array_equal(indptr, want.indptr)
            assert np.array_equal(indices, want.indices)


class TestProduct:
    """`KronOperator.product` of one factor against scipy's product: by one
    `np.bincount` at or below `kron._NUMPY_PRODUCT_MAX` nonzeros, by
    scipy's product of the factor above it."""

    @pytest.mark.parametrize("bound", [sys.maxsize, -1], ids=["numpy", "scipy"])
    @given(n=st.integers(1, 40), density=st.floats(0.0, 0.5), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy(self, bound, n, density, seed):
        r = np.random.default_rng(seed)
        dense = r.uniform(-1.0, 1.0, (n, n)) * (r.random((n, n)) < density)
        x = r.uniform(-1.0, 1.0, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kron, "_NUMPY_PRODUCT_MAX", bound)
            got = kron.KronOperator((n,), [(RateMatrix.from_dense(dense),)]).product(x)
        assert_allclose(got, x @ sp.csc_matrix(dense), rtol=1e-15, atol=1e-15)


def _absolute(op):
    """The operator whose factors are those of op with their entries' absolute values."""
    return kron.KronOperator(op.dims, [
        tuple(None if f is None else RateMatrix(f.rows, f.cols, f.row_idx, f.col_idx, np.abs(f.data))
              for f in t)
        for t in op.terms
    ])


class TestOffDiagonalProduct:
    """A small `KronOperator`'s product scatters the triplets of its
    off-diagonal terms in one `np.bincount` and adds diag(A) x. Against x A
    for the assembled A, to 1e-15 of |x| times the sum of the terms'
    absolute values (A's entries are those terms summed and rounded); the
    worst of 20,000 random operators of these shapes was 5.1e-16."""

    @given(
        seed=st.integers(0, 2**31),
        dims=st.sampled_from([(5,), (3, 4), (2, 3, 4), (4, 1, 3), (8, 8)]),
        count=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_assembled_product(self, seed, dims, count):
        # entries from a small set, so that diagonal sums cancel to exactly 0.0
        r = np.random.default_rng(seed)
        values = [-1.5, -0.5, 0.5, 1.0, *r.normal(size=2)]
        terms = [
            tuple(
                None if r.random() < 0.3
                else RateMatrix.from_dense(r.choice(values, (n, n)) * (r.random((n, n)) < 0.5))
                for n in dims
            )
            for _ in range(count)
        ]
        op = kron.KronOperator(dims, terms)
        x = r.uniform(-1.0, 1.0, op.size)
        got = op.product(x)
        assert len(op._steps) == bool(op.terms)  # the one-bincount route
        scale = np.abs(x) @ _absolute(op).to_dense()
        assert np.all(np.abs(got - x @ op.to_dense()) <= 1e-15 * scale)

    def test_diagonal_cancelling_to_zero(self):
        # I (x) F + G (x) I with diag(F) = 1.5 and diag(G) = -1.5: the
        # diagonal is exactly 0.0 and x A is the off-diagonal scatter alone
        f = RateMatrix.from_dense([[1.5, 2.0, 0.0], [0.0, 1.5, 0.5], [3.0, 0.0, 1.5]])
        g = RateMatrix.from_dense([[-1.5, 0.25], [4.0, -1.5]])
        op = kron.KronOperator((2, 3), [(None, f), (g, None)])
        assert np.array_equal(op.diagonal(), np.zeros(6))
        x = np.random.default_rng(4).uniform(-1.0, 1.0, 6)
        a = op.to_dense()
        assert np.all(np.diag(a) == 0.0)
        assert_allclose(op.product(x), x @ a, rtol=1e-15, atol=0)
        # a diagonal operator that cancels to zero, and one with no
        # off-diagonal term at all
        d = RateMatrix.from_dense(np.diag([1.0, -2.0, 0.5]))
        assert np.array_equal(kron.KronOperator((3,), [(d,), (d.scale(-1.0),)]).product(x[:3]), np.zeros(3))
        assert np.array_equal(kron.KronOperator((3,), [(d,)]).product(x[:3]), x[:3] * [1.0, -2.0, 0.5])


class TestBicgstab:
    """The package's BiCGSTAB loop against scipy's, on the bordered system
    of p q = 0, p 1 = 1 (q^T with its last equation replaced by the
    normalization), with either product of a one-factor `KronOperator`:
    numpy's at or below `kron._NUMPY_PRODUCT_MAX` nonzeros (these
    systems), scipy's above it."""

    @pytest.mark.parametrize("maxiter", [None, 2], ids=["converged", "out-of-iterations"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy(self, seed, maxiter, monkeypatch):
        self._check(seed, maxiter, monkeypatch, numpy_product=True)

    @pytest.mark.parametrize("maxiter", [None, 2], ids=["converged", "out-of-iterations"])
    @pytest.mark.parametrize("seed", range(8))
    def test_scipy_product_matches_scipy(self, seed, maxiter, monkeypatch):
        monkeypatch.setattr(kron, "_NUMPY_PRODUCT_MAX", -1)
        self._check(seed, maxiter, monkeypatch, numpy_product=False)

    @staticmethod
    def _check(seed, maxiter, monkeypatch, numpy_product):
        if maxiter is not None:
            monkeypatch.setattr(kron, "_KRYLOV_MAXITER", maxiter)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        a = _random_generator(rng, n).T
        a[-1] = 1.0
        # x -> a x is the row product x a^T
        op = kron.KronOperator((n,), [(RateMatrix.from_dense(a.T),)])
        a = sp.csc_matrix(a)
        assert (a.nnz <= kron._NUMPY_PRODUCT_MAX) == numpy_product
        b = np.zeros(n)
        b[-1] = 1.0
        inv_diag = 1.0 / a.diagonal()
        got, info = kron._bicgstab(op.product, inv_diag, b, np.full(n, 1.0 / n))
        want, want_info = spla.bicgstab(
            a, b, x0=np.full(n, 1.0 / n), rtol=1e-14, atol=0.0,
            maxiter=kron._KRYLOV_MAXITER, M=sp.diags(inv_diag),
        )
        assert (info == 0) == (want_info == 0)
        assert (info == 0) == (maxiter is None)
        if info == 0:
            # only the rounding of the inner products differs from scipy's
            assert_allclose(got, want, rtol=0, atol=1e-12)


def _canonicalize_reference(rows, cols, r, c, v):
    """The np.unique / np.bincount canonical form."""
    if r.size == 0:
        return r, c, v
    key = r * cols + c
    uniq, inverse = np.unique(key, return_inverse=True)
    data = np.bincount(inverse, weights=v, minlength=uniq.size)
    keep = data != 0.0
    return uniq[keep] // cols, uniq[keep] % cols, data[keep]


class TestCanonicalize:
    def _assert_same(self, rows, cols, r, c, v):
        got = kron._canonicalize(rows, cols, r, c, v)
        want = _canonicalize_reference(rows, cols, r, c, v)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_unsorted_duplicates_and_cancellations(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols, n = 7, 5, int(rng.integers(1, 200))
        r = rng.integers(0, rows, n)
        c = rng.integers(0, cols, n)
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        # runs of up to 6 summands per coordinate, and pairs that cancel exactly
        cancel = rng.integers(0, n, n // 4 + 1)
        r = np.concatenate([r, r[cancel]])
        c = np.concatenate([c, c[cancel]])
        v = np.concatenate([v, -v[cancel]])
        order = rng.permutation(r.size)
        self._assert_same(rows, cols, r[order], c[order], v[order])

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        self._assert_same(3, 4, e, e, np.empty(0))

    def test_kronecker_operands(self):
        rng = np.random.default_rng(3)
        a = RateMatrix.from_dense(rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5))
        b = RateMatrix.from_dense(rng.standard_normal((5, 5)) * (rng.random((5, 5)) < 0.5))
        r = (a.row_idx[:, None] * b.rows + b.row_idx[None, :]).ravel()
        c = (a.col_idx[:, None] * b.cols + b.col_idx[None, :]).ravel()
        v = (a.data[:, None] * b.data[None, :]).ravel()
        self._assert_same(30, 30, r, c, v)
        s = kron_product(a, RateMatrix.identity(5))
        t = kron_product(RateMatrix.identity(6), b)
        self._assert_same(
            30, 30, np.concatenate([s.row_idx, t.row_idx]),
            np.concatenate([s.col_idx, t.col_idx]), np.concatenate([s.data, t.data]),
        )
