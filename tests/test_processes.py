"""MAP/PH domain types, algebra, and exact sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_map, random_ph
from ttlnet import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    ProbabilityVector,
    RateMatrix,
    ValidationError,
    fundamental_rate,
    mmpp_map,
    ph_mean,
    ph_min,
    poisson_map,
    sample_map,
    sample_ph,
    split,
    superpose,
    validate_map,
)
from ttlnet import cache_ops, processes
from ttlnet.processes import erlang_approximation


def mmpp_fig(a=1.0, b=1.0, l1=1.0, l2=2.0):
    return mmpp_map([[-a, a], [b, -b]], [l1, l2])


def _map(d0, d1) -> MarkovArrivalProcess:
    return MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))


class TestValidation:
    def test_poisson_passes(self):
        assert validate_map(poisson_map(1.5)).ok

    @pytest.mark.parametrize(
        "parts, violations",
        [
            ([_map([[np.nan]], [[1.0]])], ["non-finite d0 rate at (0, 0)"]),
            (
                [_map([[-1.0, 0.5], [0.5, -1.0]], [[0.5, 0.0], [0.0, np.inf]])],
                ["non-finite d1 rate at (1, 1)", "row 1 of d0+d1 sums to inf, not 0"],
            ),
            (
                [_map([[-1.0, -np.inf], [0.5, -1.0]], [[1.0, 0.0], [0.0, 0.5]])],
                ["non-finite d0 rate at (0, 1)", "negative hidden off-diagonal rate at (0, 1)",
                 "row 0 of d0+d1 sums to -inf, not 0"],
            ),
            # a part of a superposition, named in its own coordinates
            (
                [poisson_map(1.0), _map([[-1.0, 1.0], [0.5, -1.0]], [[0.0, 0.0], [np.nan, 0.5]])],
                ["non-finite d1 rate at (1, 0)"],
            ),
        ],
        ids=["nan-d0", "inf-d1", "minus-inf-d0", "nan-part"],
    )
    def test_non_finite_rates_refused(self, parts, violations):
        report = validate_map(*parts)
        assert not report.ok
        assert list(report.violations) == violations

    @pytest.mark.parametrize(
        "parts, violations",
        [
            ([_map([[-1.0]], [[1.0]])], []),
            ([_map([[-1.0, 0.5], [0.5, -1.0]], [[0.7, -0.2], [0.3, 0.2]])],
             ["negative active rate at (0, 1)"]),
            ([_map([[-1.0, -0.5, 0.0], [0.5, -1.0, 0.5], [0.0, 0.0, -1.0]],
                   [[1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])],
             ["negative hidden off-diagonal rate at (0, 1)"]),
            ([_map([[0.0, 0.0], [0.5, -1.0]], [[0.0, 0.0], [0.0, 0.5]])],
             ["nonnegative d0 diagonal at state 0"]),
            ([_map([[-1.0, 0.5], [0.25, -1.0]], [[0.25, 0.0], [0.0, 1.0]])],
             ["row 0 of d0+d1 sums to -0.25, not 0", "row 1 of d0+d1 sums to 0.25, not 0"]),
            ([_map([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]])], ["d0 is singular"]),
            ([_map([[1.0, -0.5], [0.5, -1.0]], [[-0.5, 0.0], [0.0, 2.0]])],
             ["negative active rate at (0, 0)", "negative hidden off-diagonal rate at (0, 1)",
              "nonnegative d0 diagonal at state 0", "row 1 of d0+d1 sums to 1.5, not 0"]),
            ([_map([[-1.0, 0.5], [0.5, -1.0]], [[0.5, 0.0], [0.0, 0.5]]),
              _map([[-2.0, -0.5], [0.5, 0.0]], [[1.0, 0.0], [-0.5, 1.0]]),
              _map([[-1.0]], [[1.5]])],
             ["negative active rate at (1, 0)", "negative hidden off-diagonal rate at (0, 1)",
              "row 0 of d0+d1 sums to -1, not 0", "row 1 of d0+d1 sums to 1.5, not 0",
              "row 2 of d0+d1 sums to -1, not 0", "row 3 of d0+d1 sums to 1.5, not 0"]),
            ([_map([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]]),
              _map([[-2.0, 2.0], [2.0, -2.0]], [[0.0, 0.0], [0.0, 0.0]])],
             ["d0 is singular"]),
            ([_map([[-1.0, 0.5], [0.5, -1.0]], [[0.5 + 1e-10, 0.0], [0.0, 0.5]])], []),
        ],
        ids=["valid", "negative-active", "negative-hidden", "nonnegative-diagonal",
             "row-sums", "singular", "everything", "parts", "parts-singular", "within-tolerance"],
    )
    def test_violation_texts(self, parts, violations):
        # the texts and their order, as reported before the checks ran as
        # one vectorized pass
        report = validate_map(*parts)
        assert report.ok == (not violations)
        assert list(report.violations) == violations

    def test_mmpp_passes(self):
        assert validate_map(mmpp_fig()).ok

    def test_negative_active_rate_reported(self):
        m = MarkovArrivalProcess(
            RateMatrix.from_dense([[-1.0, 0.5], [0.5, -1.0]]),
            RateMatrix.from_dense([[0.0, 0.5], [-1.0, 1.5]]),
        )
        report = validate_map(m)
        assert not report.ok
        assert any("negative active rate" in v for v in report.violations)

    def test_bad_row_sums_reported(self):
        m = MarkovArrivalProcess(
            RateMatrix.from_dense([[-2.0]]), RateMatrix.from_dense([[1.0]])
        )
        report = validate_map(m)
        assert not report.ok and any("sums to" in v for v in report.violations)

    def test_singular_d0_reported(self):
        # no active rates at all: d0 equals the generator, which is singular
        m = MarkovArrivalProcess(
            RateMatrix.from_dense([[-1.0, 1.0], [1.0, -1.0]]),
            RateMatrix.zeros(2, 2),
        )
        report = validate_map(m)
        assert not report.ok

    def test_conservative_generator_as_d0_reported(self):
        # a MAP that never emits: LU roundoff left a ~1e-16 pivot here, not a zero
        d0 = np.array(
            [
                [-0.7, 0.2, 0.0, 0.5],
                [0.3, -1.3, 1.0, 0.0],
                [0.0, 0.4, -0.6, 0.2],
                [0.9, 0.0, 0.1, -1.0],
            ]
        )
        m = MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.zeros(4, 4))
        report = validate_map(m)
        assert not report.ok
        assert report.violations == ("d0 is singular",)

    def test_silent_closed_class_reported(self):
        # states 2 and 3 pass hidden transitions between themselves and never
        # emit, although states 0 and 1 do and can enter them
        d0 = np.array(
            [
                [-2.0, 0.5, 0.5, 0.0],
                [0.25, -1.25, 0.0, 0.0],
                [0.0, 0.0, -0.3, 0.3],
                [0.0, 0.0, 0.7, -0.7],
            ]
        )
        d1 = np.zeros((4, 4))
        d1[0, 1] = 1.0
        d1[1, 0] = 1.0
        m = MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))
        report = validate_map(m)
        assert not report.ok
        assert report.violations == ("d0 is singular",)

    @pytest.mark.parametrize(
        "d0,d1,violations",
        [
            ([[-1.0, 0.5], [0.5, -1.0]], [[0.5, 0.0], [-0.5, 1.0]], ("negative active rate at (1, 0)",)),
            (
                [[-1.0, -0.5], [0.5, -1.0]],
                [[1.0, 0.5], [0.5, 0.0]],
                ("negative hidden off-diagonal rate at (0, 1)",),
            ),
            ([[-1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], ("nonnegative d0 diagonal at state 1",)),
            ([[-2.0, 0.5], [0.5, -1.0]], [[1.0, 0.0], [0.0, 0.5]], ("row 0 of d0+d1 sums to -0.5, not 0",)),
            ([[-1.0, 1.0], [0.0, -0.5]], [[0.0, 0.0], [0.0, 0.0]], ("row 1 of d0+d1 sums to -0.5, not 0",)),
            ([[-1.0, 1.0], [1.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]], ("d0 is singular",)),
        ],
    )
    def test_each_violation_alone(self, d0, d1, violations):
        m = MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))
        report = validate_map(m)
        assert not report.ok and report.violations == violations

    def test_violation_text_and_order(self):
        # every sign and row-sum violation at once, in each part's own
        # coordinates, then the superposition's states; no singular verdict
        d0 = [[-1.0, -0.5, 0.5], [0.25, 0.0, 0.5], [0.5, 0.0, -2.0]]
        d1 = [[1.0, 0.0, -0.25], [0.0, 0.0, -0.75], [0.0, 1.0, 0.5]]
        m = MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))
        b = MarkovArrivalProcess(
            RateMatrix.from_dense([[0.0, -1.0], [1.0, -2.0]]), RateMatrix.identity(2)
        )
        own = (
            "negative active rate at (0, 2)",
            "negative active rate at (1, 2)",
            "negative hidden off-diagonal rate at (0, 1)",
        )
        sums = ("row 0 of d0+d1 sums to -0.25, not 0",)
        assert validate_map(m).violations == own + ("nonnegative d0 diagonal at state 1",) + sums
        assert validate_map(m, b).violations == own + (
            "negative hidden off-diagonal rate at (0, 1)",
            "nonnegative d0 diagonal at state 2",
            "row 0 of d0+d1 sums to -0.25, not 0",
            "row 1 of d0+d1 sums to -0.25, not 0",
        )

    @pytest.mark.parametrize("parts", [1, 2])
    def test_search_skipped_one_step_from_leaking(self, parts, monkeypatch):
        # every state emits, or moves by one hidden transition to one that
        # does: d0 is nonsingular without a graph search. A silent state two
        # steps away, or a silent closed class, needs the search
        searches = []
        real = processes.reachable
        monkeypatch.setattr(processes, "reachable", lambda *a: searches.append(a) or real(*a))
        near = [poisson_map(1.5), mmpp_fig(), mmpp_fig(l1=0.0)][:parts + 1]
        assert validate_map(*near).ok and not searches
        assert all(np.linalg.matrix_rank(m.d0.to_dense()) == m.order for m in near)
        ring = mmpp_map([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]], [0.0, 0.0, 1.0])
        assert validate_map(ring, *near).ok and len(searches) == 1
        closed = mmpp_map([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], [0.0, 0.0, 1.0])
        assert validate_map(closed).violations == ("d0 is singular",) and len(searches) == 2

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_singular_verdict_matches_rank(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 9))
        m = _sparse_map(r, n)
        singular = np.linalg.matrix_rank(m.d0.to_dense()) < n
        report = validate_map(m)
        assert report.violations == (("d0 is singular",) if singular else ())

    def test_ph_rejects_unreachable_absorption(self):
        with pytest.raises(ValidationError):
            PhaseTypeDistribution(
                RateMatrix.from_dense([[-1.0, 1.0], [1.0, -1.0]]),
                ProbabilityVector([0.5, 0.5]),
            )


def _sparse_map(r, n: int) -> MarkovArrivalProcess:
    """A MAP with a MAP's signs and zero row sums whose sparse hidden edges
    and silent rows leave about a quarter of them with a singular d0, and
    many with a reducible background chain."""
    d0 = r.uniform(0.05, 2.0, (n, n)) * (r.random((n, n)) < 0.3)
    np.fill_diagonal(d0, 0.0)
    d1 = r.uniform(0.05, 2.0, (n, n)) * (r.random((n, 1)) < 0.3)
    for i in range(n):
        if d0[i].sum() + d1[i].sum() == 0.0:  # every state needs an exit
            if n == 1:
                d1[i, i] = 1.0
            else:
                d0[i, (i + 1 + int(r.integers(0, n - 1))) % n] = 1.0
    d0 -= np.diag(d0.sum(axis=1) + d1.sum(axis=1))
    return MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))


def _sparse_ph(r, k: int, trapped: bool = False) -> PhaseTypeDistribution:
    """A PH law with sparse exits. With `trapped` (k >= 3), phases k - 2
    and k - 1 pass the clock between them and never absorb."""
    free = k - 2 if trapped else k
    s = r.uniform(0.1, 1.5, (k, k)) * (r.random((k, k)) < 0.4)
    np.fill_diagonal(s, 0.0)
    exits = r.uniform(0.2, 1.5, k) * (r.random(k) < 0.4)
    exits[int(r.integers(free))] += 0.5
    for i in range(k):
        if s[i].sum() + exits[i] == 0.0:
            s[i, (i + 1) % k] = 1.0 if k > 1 else 0.0
            exits[i] += 1.0 if k == 1 else 0.0
    if trapped:
        s[free:], exits[free:] = 0.0, 0.0
        s[free, free + 1], s[free + 1, free] = r.uniform(0.1, 1.5, 2)
    s -= np.diag(s.sum(axis=1) + exits)
    pi = r.dirichlet(np.ones(k)) * (r.random(k) < 0.7)
    pi[int(r.integers(k))] += 1.0
    return PhaseTypeDistribution(RateMatrix.from_dense(s), ProbabilityVector(pi / pi.sum()))


def _certified(m: MarkovArrivalProcess) -> bool:
    """Whether m's producer set its singular-d0 verdict (no search has run)."""
    return "d0_singular" in m.__dict__


class TestCertifiedVerdict:
    """The singular-d0 verdicts that `superpose`, `split` and
    `CacheChain.map` pass on from their parts, against the graph search on
    the MAP they build, for parts with a singular or nonsingular d0 and a
    reducible or irreducible background chain."""

    @given(seed=st.integers(0, 2**32 - 1), policy=st.sampled_from(["Sigma", "R", "MinSigmaR"]),
           children=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_cache_chain(self, seed, policy, children):
        # built directly, so that inputs with a singular d0 reach it too
        r = np.random.default_rng(seed)
        inputs = tuple(_sparse_map(r, int(r.integers(1, 5))) for _ in range(children))
        trapped = bool(r.integers(2))
        ttl = _sparse_ph(r, int(r.integers(3, 5)) if trapped else int(r.integers(1, 4)), trapped)
        if policy == "Sigma":
            reset = RateMatrix.identity(ttl.order)
        elif policy == "R":
            reset = cache_ops._pi_rows(ttl.pi.entries, ttl.order)
        else:
            ttl_r = _sparse_ph(r, int(r.integers(1, 3)))
            reset = cache_ops._pi_rows(ttl_r.pi.entries, ttl_r.order, ttl.order)
            ttl = ph_min(ttl, ttl_r)
        singular = [processes._d0_is_singular(m.d0, m.d1) for m in inputs]
        out = cache_ops.CacheChain(ttl, reset, inputs).map
        absorbs = processes.reachable(
            *processes.reversed_edges(ttl.s), np.flatnonzero(ttl.exit_rates)
        ).all()
        assert ttl.always_absorbs == absorbs
        assert _certified(out) == (all(singular) or absorbs)
        assert out.d0_singular == processes._d0_is_singular(out.d0, out.d1)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_superpose(self, seed, count):
        r = np.random.default_rng(seed)
        out = superpose([_sparse_map(r, int(r.integers(1, 5))) for _ in range(count)])
        assert _certified(out)
        assert out.d0_singular == processes._d0_is_singular(out.d0, out.d1)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_split(self, seed):
        # weights of 0 and 1 among random ones; a part of weight 0 of a MAP
        # that emits loses its active rates and is left to the search
        r = np.random.default_rng(seed)
        m = _sparse_map(r, int(r.integers(1, 6)))
        weights = [[1.0], [1.0, 0.0], [0.0, 1.0], list(r.dirichlet(np.ones(3)))][int(r.integers(4))]
        for weight, part in zip(weights, split(m, ProbabilityVector(weights))):
            assert _certified(part) == (weight > 0.0 or m.d1.nnz == 0)
            assert part.d0_singular == processes._d0_is_singular(part.d0, part.d1)
        assert validate_map(split(m, ProbabilityVector([1.0]))[0]).ok == validate_map(m).ok

    def test_parts_without_a_maps_signs_are_searched(self):
        # a negative active rate of 1 cancels a Poisson part's 1 in the
        # superposition, whose states 0 and 1 then form a silent closed
        # class: the parts' verdicts (both leak) would be wrong
        a = MarkovArrivalProcess(
            RateMatrix.from_dense([[-1.0, 2.0], [2.0, -1.0]]),
            RateMatrix.from_dense([[-1.0, 0.0], [0.0, -1.0]]),
        )
        out = superpose([a, poisson_map(1.0)])
        assert not _certified(out)
        assert out.d1.nnz == 0 and validate_map(out).violations == ("d0 is singular",)
        # a negative hidden rate that a split moves an active rate onto
        b = MarkovArrivalProcess(
            RateMatrix.from_dense([[-2.0, -0.5], [1.0, -1.0]]),
            RateMatrix.from_dense([[0.0, 2.5], [0.0, 0.0]]),
        )
        assert not any(_certified(part) for part in split(b, ProbabilityVector([0.5, 0.5])))

    def test_underflowing_miss_rates_are_searched(self):
        # every miss rate pi_l * 5e-324 rounds to zero: the miss MAP never
        # emits, so its d0 is singular although the input's is not
        ttl = PhaseTypeDistribution(
            RateMatrix.from_dense([[-1.0, 0.0], [0.0, -2.0]]), ProbabilityVector([0.5, 0.5])
        )
        out = cache_ops.output_sigma(poisson_map(5e-324), ttl).map
        assert not _certified(out) and out.d1.nnz == 0
        assert validate_map(out).violations == ("d0 is singular",)

    def test_engine_maps_validate_without_a_search(self, monkeypatch):
        # the miss MAPs that analyze passes up are checked for signs and
        # row sums only: the verdict comes from the closure
        chain = cache_ops.output_r(mmpp_fig(), PhaseTypeDistribution.erlang(3, 2.0))
        searches = []
        monkeypatch.setattr(processes, "_d0_is_singular", lambda *a: searches.append(a))
        parts = split(chain.map, ProbabilityVector([0.25, 0.75]))
        joined = superpose([parts[0], chain.map])
        assert all(validate_map(m).ok for m in (chain.map, *parts, joined)) and not searches


class TestFundamentalRate:
    def test_poisson(self):
        assert_allclose(fundamental_rate(poisson_map(2.0)), 2.0, rtol=1e-12)

    def test_mmpp_symmetric(self):
        # symmetric switching: half the time at rate 1, half at rate 3
        assert_allclose(fundamental_rate(mmpp_fig(1, 1, 1.0, 3.0)), 2.0, rtol=1e-12)

    def test_on_off_miss_map(self):
        d0 = RateMatrix.from_dense([[-1.0, 0.0], [1.0, -1.0]])
        d1 = RateMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
        m = MarkovArrivalProcess(d0, d1)
        assert_allclose(fundamental_rate(m), 0.5, rtol=1e-12)


class TestSuperpose:
    def test_single_input_unchanged(self):
        m = mmpp_fig()
        assert superpose([m]) == m

    def test_poisson_closure(self):
        out = superpose([poisson_map(1.0), poisson_map(2.5)])
        assert out.order == 1
        assert out.d1 == RateMatrix.from_dense([[3.5]])

    def test_two_on_off_processes_match_printed_blocks(self):
        l1, l2, m1, m2 = 1.25, 2.5, 0.5, 0.75
        maps = []
        for lam, mu in [(l1, m1), (l2, m2)]:
            maps.append(
                MarkovArrivalProcess(
                    RateMatrix.from_dense([[-lam, 0.0], [mu, -mu]]),
                    RateMatrix.from_dense([[0.0, lam], [0.0, 0.0]]),
                )
            )
        out = superpose(maps)
        first = np.array(
            [[-l1, 0, 0, 0], [0, -l1, 0, 0], [m1, 0, -m1, 0], [0, m1, 0, -m1]]
        )
        second = np.array(
            [[-l2, 0, 0, 0], [m2, -m2, 0, 0], [0, 0, -l2, 0], [0, 0, m2, -m2]]
        )
        assert np.array_equal(out.d0.to_dense(), first + second)
        d1 = np.zeros((4, 4))
        d1[0, 2] = d1[1, 3] = l1  # first process fires, second coordinate kept
        d1[0, 1] = d1[2, 3] = l2
        assert np.array_equal(out.d1.to_dense(), d1)

    def test_rate_additivity(self, rng):
        for _ in range(20):
            maps = [random_map(rng, 3) for _ in range(int(rng.integers(2, 4)))]
            out = superpose(maps)
            assert out.order == int(np.prod([m.order for m in maps]))
            assert_allclose(
                fundamental_rate(out),
                sum(fundamental_rate(m) for m in maps),
                rtol=1e-9,
            )
            assert validate_map(out).ok

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            superpose([])


class TestSplit:
    def test_identity_split(self):
        m = mmpp_fig()
        (out,) = split(m, ProbabilityVector([1.0]))
        assert out == m

    def test_degenerate_split_matrices(self):
        m = mmpp_fig()
        keep, drop = split(m, ProbabilityVector([1.0, 0.0]))
        assert keep == m
        assert drop.d1.nnz == 0
        assert drop.d0 == m.d0 + m.d1

    def test_poisson_thinning_rates(self):
        outs = split(poisson_map(2.0), ProbabilityVector([0.3, 0.7]))
        assert_allclose(fundamental_rate(outs[0]), 0.6, rtol=1e-12)
        assert_allclose(fundamental_rate(outs[1]), 1.4, rtol=1e-12)

    def test_non_finite_weight_refused_before_the_split(self):
        # the weights cannot be built, so no part with a NaN d1 is either
        with pytest.raises(ValidationError, match="probability vector has non-finite entries"):
            split(poisson_map(2.0), ProbabilityVector([np.nan, 1.0]))

    def test_background_chain_preserved_and_rates_conserved(self, rng):
        for _ in range(20):
            m = random_map(rng, 3)
            k = int(rng.integers(2, 5))
            p = ProbabilityVector(rng.dirichlet(np.ones(k) * 2.0))
            outs = split(m, p)
            q = m.generator.to_dense()
            scale = np.abs(m.d1.to_dense()).max()
            for o in outs:
                assert o.order == m.order
                assert validate_map(o).ok
                # identical up to one rounding of (1-p)v + pv per entry
                assert_allclose(o.generator.to_dense(), q, rtol=5e-16, atol=2e-16 * scale)
            assert_allclose(
                sum(fundamental_rate(o) for o in outs),
                fundamental_rate(m),
                rtol=1e-9,
            )


class TestPhaseType:
    @pytest.mark.parametrize(
        "s, pi, message",
        [([[np.nan]], [1.0], "must be finite"),
         ([[-1.0, np.inf], [0.0, -1.0]], [0.5, 0.5], "must be finite"),
         ([[-1.0, 0.5], [0.0, -1.0]], [np.nan, 1.0], "probability vector has non-finite entries")],
        ids=["nan-rate", "inf-rate", "nan-pi"],
    )
    def test_non_finite_entries_refused(self, s, pi, message):
        # a non-finite pi is refused by `ProbabilityVector` itself
        with pytest.raises(ValidationError, match=message):
            PhaseTypeDistribution(RateMatrix.from_dense(s), ProbabilityVector(pi))

    def test_non_finite_rate_refused_by_name(self):
        with pytest.raises(ValidationError, match="must be finite"):
            PhaseTypeDistribution.exponential(float("nan"))

    def test_ph_min_of_exponentials(self):
        out = ph_min(
            PhaseTypeDistribution.exponential(2.0), PhaseTypeDistribution.exponential(3.0)
        )
        assert out.order == 1
        assert out.s == RateMatrix.from_dense([[-5.0]])
        assert_allclose(ph_mean(out), 0.2, rtol=1e-12)

    def test_ph_min_erlang_exponential_by_hand(self):
        mu, nu = 1.5, 0.5
        out = ph_min(
            PhaseTypeDistribution.erlang(2, mu), PhaseTypeDistribution.exponential(nu)
        )
        expected = np.array([[-mu - nu, mu], [0.0, -mu - nu]])
        assert np.array_equal(out.s.to_dense(), expected)
        assert_allclose(out.pi.entries, [1.0, 0.0])

    def test_ph_min_mean_bound(self, rng):
        for _ in range(20):
            t1, t2 = random_ph(rng), random_ph(rng)
            assert ph_mean(ph_min(t1, t2)) <= min(ph_mean(t1), ph_mean(t2)) + 1e-12

    def test_ph_mean_exponential(self):
        assert_allclose(ph_mean(PhaseTypeDistribution.exponential(2.0)), 0.5, rtol=1e-12)

    def test_ph_mean_erlang(self):
        assert_allclose(ph_mean(PhaseTypeDistribution.erlang(2, 1.0)), 2.0, rtol=1e-12)

    def test_ph_mean_against_dense_solve(self, rng):
        for _ in range(20):
            t = random_ph(rng)
            dense = -t.pi.entries @ np.linalg.solve(t.s.to_dense(), np.ones(t.order))
            assert_allclose(ph_mean(t), dense, rtol=1e-10)

    def test_full_generator_layout(self):
        t = PhaseTypeDistribution.erlang(2, 3.0)
        p = t.full_generator().to_dense()
        expected = np.array([[0.0, 0.0, 0.0], [0.0, -3.0, 3.0], [3.0, 0.0, -3.0]])
        assert np.array_equal(p, expected)

    def test_erlang_approximation_mean(self):
        t = erlang_approximation(2.5, stages=20)
        assert_allclose(ph_mean(t), 2.5, rtol=1e-12)


class TestSampling:
    def test_sample_map_deterministic_given_seed(self):
        m = mmpp_fig()
        a = sample_map(m, 500, np.random.default_rng(3))
        b = sample_map(m, 500, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_poisson_rate_statistics(self):
        n = 1_000_000
        times = sample_map(poisson_map(1.0), n, np.random.default_rng(11))
        rate = n / times[-1]
        # inter-event rate estimator is ~ normal with sd rate/sqrt(n)
        assert abs(rate - 1.0) < 3.0 / math.sqrt(n)

    def test_poisson_interval_moment_relation(self):
        times = sample_map(poisson_map(2.0), 100_000, np.random.default_rng(5))
        gaps = np.diff(times)
        # exponential law: sd equals mean
        assert abs(gaps.std() / gaps.mean() - 1.0) < 0.02

    def test_sample_ph_exponential_mean(self):
        r = np.random.default_rng(7)
        t = PhaseTypeDistribution.exponential(1.0)
        draws = np.array([sample_ph(t, r) for _ in range(20_000)])
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(draws.size)

    def test_sample_ph_erlang_moments(self):
        r = np.random.default_rng(13)
        t = PhaseTypeDistribution.erlang(2, 1.0)
        draws = np.array([sample_ph(t, r) for _ in range(20_000)])
        assert abs(draws.mean() - 2.0) < 4.0 * math.sqrt(2.0 / draws.size)
        assert abs(draws.var() - 2.0) < 0.15

    def test_sample_ph_vector_moments_with_loop_back(self):
        s = np.array([[-2.0, 1.0], [0.5, -1.5]])
        pi = np.array([0.6, 0.4])
        t = PhaseTypeDistribution(RateMatrix.from_dense(s), ProbabilityVector(pi))
        draws = sample_ph(t, np.random.default_rng(17), size=200_000)
        s_inv = np.linalg.inv(s)
        m2 = 2.0 * pi @ s_inv @ s_inv @ np.ones(2)
        n = draws.size
        assert abs(draws.mean() - ph_mean(t)) < 4.0 * draws.std() / math.sqrt(n)
        assert abs((draws**2).mean() - m2) < 4.0 * (draws**2).std() / math.sqrt(n)

    def test_sample_map_mmpp_rate(self):
        m = mmpp_fig(a=0.5, b=1.5, l1=0.5, l2=3.0)
        times = sample_map(m, 200_000, np.random.default_rng(19))
        # batch means of the gaps carry the modulation's autocorrelation
        batch_gap = np.diff(times, prepend=0.0).reshape(100, -1).mean(axis=1)
        gap, gap_se = batch_gap.mean(), batch_gap.std(ddof=1) / math.sqrt(batch_gap.size)
        assert abs(1.0 / gap - fundamental_rate(m)) < 4.0 * gap_se / gap**2

    def test_huge_exit_rate_is_instant(self):
        r = np.random.default_rng(1)
        t = PhaseTypeDistribution.exponential(1e9)
        assert sample_ph(t, r) < 1e-6

    def test_horizon_validated(self):
        with pytest.raises(ValidationError):
            sample_map(poisson_map(1.0), 0, np.random.default_rng(0))
