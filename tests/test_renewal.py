"""Stopped-sum transforms and renewal-level cache metrics."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import dense_stationary, mc_mean_se, random_ph, stopped_sum_oracle
import ttlnet
import ttlnet.renewal
from ttlnet.cli import _table1_rows
from ttlnet import (
    BudgetExceededError,
    Deterministic,
    DivergentStoppingTimeError,
    Erlang,
    Exponential,
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    RateMatrix,
    RenewalSpec,
    StoppingPolicy,
    Tabulated,
    ValidationError,
    expected_stopped_sum,
    expected_tau,
    hit_miss_renewal,
    metrics_from_maps,
    occupancy_renewal,
    output_min,
    output_r,
    output_sigma,
    ph_mean,
    poisson_map,
    table1_reference,
    transform_min,
    transform_r,
    transform_sigma,
)


def tabulated_from(spec, step, n):
    """Lattice version of a continuous law, for mixed-kind tests."""
    edges = np.arange(n + 1) * step
    masses = np.diff(spec.cdf(edges))
    masses = masses / masses.sum()
    return Tabulated(step, masses / step)


class TestTransformR:
    @pytest.mark.parametrize(
        "lam,mu,omega",
        [(1.0, 1.0, 1.0), (0.5, 2.0, 0.3), (2.0, 0.7, 1.7), (3.0, 3.0, 0.0)],
    )
    def test_exponential_ttl_closed_form(self, lam, mu, omega):
        got = transform_r(Exponential(lam), Exponential(mu), omega)
        want = lam / (lam + omega) * mu / (mu + omega)
        assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("lam,mu,omega", [(1.0, 1.0, 1.0), (0.8, 2.0, 0.4)])
    def test_deterministic_ttl_closed_form(self, lam, mu, omega):
        got = transform_r(Exponential(lam), Deterministic(1.0 / mu), omega)
        want = (
            lam
            * math.exp(-lam / mu)
            / (lam * math.exp(-lam / mu) + omega * math.exp(omega / mu))
        )
        assert_allclose(got, want, rtol=1e-13)

    def test_value_one_at_zero(self):
        assert transform_r(Erlang(2, 1.0), Exponential(0.5), 0.0) == 1.0

    def test_requests_known_by_their_transform(self):
        # R and Sigma under an Exponential TTL read the request law only through
        # its transform and mean; under any other TTL such a law is refused
        x, twin, t = _LaplaceOnlyTtl(PhaseTypeDistribution.erlang(2, 3.0)), Erlang(2, 3.0), Exponential(0.8)
        for policy in (StoppingPolicy.reset_on_request(t), StoppingPolicy.reset_on_miss(t)):
            assert_allclose(expected_tau(x, policy).value, expected_tau(twin, policy).value, rtol=1e-12)
            assert_allclose(occupancy_renewal(x, policy), occupancy_renewal(twin, policy), rtol=1e-12)
        assert_allclose(transform_r(x, t, 0.5), transform_r(twin, t, 0.5), rtol=1e-12)
        assert_allclose(transform_sigma(x, t, 0.5), transform_sigma(twin, t, 0.5), rtol=1e-12)
        for ttl in (Deterministic(1.0), Erlang(2, 1.0)):
            with pytest.raises(ValidationError):
                transform_r(x, ttl, 0.5)
            with pytest.raises(ValidationError):
                occupancy_renewal(x, StoppingPolicy.reset_on_request(ttl))
        with pytest.raises(ValidationError):
            transform_sigma(x, Erlang(2, 1.0), 0.5)

    def test_hypothesis_violation(self):
        with pytest.raises(DivergentStoppingTimeError):
            transform_r(Deterministic(1.0), Deterministic(2.0), 0.0)

    def test_erlang_requests_against_oracle(self, rng):
        x, t, omega = Erlang(2, 2.0), Exponential(1.3), 0.4
        got = transform_r(x, t, omega)
        taus, sums, _ = stopped_sum_oracle(
            rng, x.sample, "R", t.sample, n=40_000
        )
        mc, se = mc_mean_se(np.exp(-omega * sums))
        assert abs(got - mc) < 3.5 * se


class TestTransformSigma:
    def test_poisson_deterministic_closed_value(self):
        got = transform_sigma(Exponential(1.0), Deterministic(1.0), 1.0)
        assert_allclose(got, 0.5 * math.exp(-1.0), rtol=1e-13)

    def test_value_one_at_zero(self):
        assert transform_sigma(Exponential(2.0), Deterministic(0.5), 0.0) == 1.0

    def test_exponential_ttl_equals_reset_on_request(self):
        for x in (Exponential(1.2), Erlang(3, 2.0), Deterministic(0.7)):
            for mu in (0.5, 1.0, 2.5):
                for omega in (0.0, 0.4, 1.3):
                    assert_allclose(
                        transform_sigma(x, Exponential(mu), omega),
                        transform_r(x, Exponential(mu), omega),
                        rtol=1e-9,
                    )

    def test_deterministic_requests_and_ttl(self):
        # tau = floor(d/c) + 1 steps of length c, deterministically
        got = transform_sigma(Deterministic(0.4), Deterministic(1.0), 0.9)
        assert_allclose(got, math.exp(-0.9 * 1.2), rtol=1e-12)

    # The "series" tests below check the stopped-sum series E~[L_omega(X)^tau]
    # of the module docstring, which every route now sums exactly; until the
    # Tabulated laws became atoms these cells took a grid approximation of it.
    def test_series_matches_closed_form(self):
        # an exponential TTL has a closed value; the MAP engine's miss chain
        # must reach it too
        x, t, omega = Erlang(2, 2.0), Exponential(1.0), 0.5
        psi = x.laplace(omega + t.rate)
        closed = (x.laplace(omega) - psi) / (1.0 - psi)
        chain = _interval_solve(x, StoppingPolicy.reset_on_miss(t), omega)[2]
        assert_allclose(transform_sigma(x, t, omega), closed, rtol=1e-14)
        assert_allclose(chain, closed, rtol=1e-10)

    def test_series_against_stopping_rule_oracle(self, rng):
        x, t, omega = Erlang(2, 2.0), Erlang(2, 1.0), 0.5
        got = transform_sigma(x, t, omega)
        _, sums, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=60_000)
        mc, se = mc_mean_se(np.exp(-omega * sums))
        assert abs(got - mc) < 4.0 * se

    def test_series_with_deterministic_ttl_against_oracle(self, rng):
        x, t, omega = Erlang(2, 2.0), Deterministic(1.3), 0.7
        got = transform_sigma(x, t, omega)
        _, sums, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=60_000)
        mc, se = mc_mean_se(np.exp(-omega * sums))
        assert abs(got - mc) < 4.0 * se

    def test_series_normalized_at_zero(self):
        # every route of the table, with Tabulated laws among them
        for x in (Erlang(2, 2.0), Deterministic(0.9), ROUTE_REQUESTS["tab"]):
            for t in (Erlang(2, 1.6), Deterministic(1.3), ROUTE_TTLS["tab"][0]):
                assert_allclose(transform_sigma(x, t, 0.0), 1.0, rtol=1e-12)

    def test_deterministic_requests_survival_sum_against_oracle(self, rng):
        x, t = Deterministic(0.7), Erlang(2, 1.0)
        got = expected_tau(x, StoppingPolicy.reset_on_miss(t))
        assert got.stderr == 0.0
        taus, _, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=100_000)
        mean, se = mc_mean_se(taus.astype(float))
        assert abs(got.value - mean) < 3.0 * se

    def test_tabulated_requests(self):
        # the lattice version of Erlang requests stays close to the exact Erlang value
        x = tabulated_from(Erlang(2, 2.0), 0.01, 2500)
        t = Erlang(2, 1.0)
        got = transform_sigma(x, t, 0.5)
        anchor = transform_sigma(Erlang(2, 2.0), t, 0.5)
        assert abs(got - anchor) < 5e-3

    def test_tabulated_requests_exact_value(self):
        # the grid series this cell once took returned 0.41153, 6.8 SE from a
        # 2e6-cycle simulation (0.41241 +- 0.00013)
        x, t = ROUTE_REQUESTS["tab"], Erlang(2, 1.6)
        assert abs(transform_sigma(x, t, 0.5) - 0.412454388) < 1e-9

    def test_import_skips_scipy_signal(self):
        # no renewal route uses scipy.signal, not even for Tabulated laws
        src = str(Path(ttlnet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, numpy as np, ttlnet; from ttlnet import Erlang, Tabulated, transform_sigma; "
            "transform_sigma(Tabulated(0.01, np.full(200, 0.5)), Erlang(2, 1.6), 0.5); "
            "print('scipy.signal' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestTransformMin:
    def test_all_exponential_closed(self):
        got = transform_min(Exponential(1.0), Exponential(1.0), Exponential(1.0), 1.0)
        assert got.value == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert got.stderr == 0.0

    def test_value_one_at_zero(self, rng):
        got = transform_min(
            Exponential(1.0), Deterministic(2.0), Exponential(1.0), 0.0,
            samples=20_000, rng=rng,
        )
        assert got.value == 1.0

    def test_tilted_estimator_matches_direct_oracle(self, rng):
        # this query once ran Monte Carlo under the tilted law; it is exact now
        x, ts, tr, omega = Exponential(1.0), Deterministic(2.0), Exponential(1.0), 0.5
        got = transform_min(x, ts, tr, omega, samples=120_000, rng=rng)
        _, sums, _ = stopped_sum_oracle(
            rng, x.sample, "MinSigmaR", ts.sample, tr.sample, n=60_000
        )
        mc, se = mc_mean_se(np.exp(-omega * sums))
        joint = math.hypot(se, got.stderr)
        assert abs(got.value - mc) < 3.0 * joint + 1e-4

    def test_samples_and_rng_change_nothing(self):
        # kept for compatibility: every route is exact and draws nothing
        x, ts, tr = Erlang(2, 2.0), Deterministic(1.3), Erlang(2, 2.2)
        policy = StoppingPolicy.min_of(ts, tr)
        assert transform_min(x, ts, tr, 0.5, samples=100, rng=object()) == transform_min(x, ts, tr, 0.5)
        for query in (expected_tau, occupancy_renewal):
            assert query(x, policy, samples=100, rng=object()) == query(x, policy)


class TestHitMiss:
    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.0, 0.5), (0.7, 1.9)])
    def test_reset_on_request_exponential(self, lam, mu):
        got = hit_miss_renewal(Exponential(lam), StoppingPolicy.reset_on_request(Exponential(mu)))
        assert_allclose(got.hit, lam / (lam + mu), rtol=1e-12)
        assert got.hit + got.miss == 1.0

    def test_sigma_deterministic_ttl(self):
        lam, mu = 1.0, 1.0
        got = hit_miss_renewal(
            Exponential(lam), StoppingPolicy.reset_on_miss(Deterministic(1.0 / mu))
        )
        assert_allclose(got.hit, lam / (lam + mu), rtol=1e-12)

    def test_reset_on_request_deterministic_ttl(self):
        got = hit_miss_renewal(
            Exponential(1.0), StoppingPolicy.reset_on_request(Deterministic(1.0))
        )
        assert_allclose(got.hit, 1.0 - math.exp(-1.0), rtol=1e-12)

    def test_divergence_flagged(self):
        with pytest.raises(DivergentStoppingTimeError):
            hit_miss_renewal(
                Deterministic(1.0), StoppingPolicy.reset_on_request(Deterministic(2.0))
            )

    def test_monte_carlo_branch_against_oracle(self, rng):
        # the query of the former Monte Carlo branch, now on the power-series route
        x, t = Erlang(2, 2.0), Erlang(2, 1.0)
        got = expected_tau(x, StoppingPolicy.reset_on_miss(t), samples=60_000, rng=rng)
        taus, _, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=60_000)
        mean, se = mc_mean_se(taus.astype(float))
        assert abs(got.value - mean) < 3.0 * math.hypot(se, got.stderr)

    def test_min_policy_monte_carlo_against_oracle(self, rng):
        # the query of the former Monte Carlo branch, now on the alive chain route
        x = Exponential(1.0)
        pol = StoppingPolicy.min_of(Deterministic(2.0), Exponential(1.0))
        got = expected_tau(x, pol, samples=60_000, rng=rng)
        taus, _, _ = stopped_sum_oracle(
            rng, x.sample, "MinSigmaR", Deterministic(2.0).sample, Exponential(1.0).sample,
            n=60_000,
        )
        mean, se = mc_mean_se(taus.astype(float))
        assert abs(got.value - mean) < 3.0 * math.hypot(se, got.stderr)


class TestOccupancy:
    def test_table_values(self):
        assert_allclose(
            occupancy_renewal(Exponential(1.0), StoppingPolicy.reset_on_request(Exponential(1.0))),
            0.5, rtol=1e-12,
        )
        assert_allclose(
            occupancy_renewal(Exponential(1.0), StoppingPolicy.reset_on_miss(Deterministic(1.0))),
            0.5, rtol=1e-12,
        )
        assert_allclose(
            occupancy_renewal(
                Exponential(1.0), StoppingPolicy.min_of(Exponential(1.0), Exponential(2.0))
            ),
            0.25, rtol=1e-12,
        )

    def test_min_monte_carlo_against_oracle(self, rng):
        # the query of the former Monte Carlo branch, now on the alive chain route
        x = Exponential(1.0)
        ts, tr = Deterministic(2.0), Exponential(1.0)
        got = occupancy_renewal(x, StoppingPolicy.min_of(ts, tr), samples=120_000, rng=rng)
        _, sums, occupied = stopped_sum_oracle(
            rng, x.sample, "MinSigmaR", ts.sample, tr.sample, n=120_000
        )
        oracle = occupied.mean() / sums.mean()
        assert abs(got - oracle) < 0.01

    def test_min_monte_carlo_memory_is_bounded(self):
        # the query of the former 1e6-sample Monte Carlo (about 40 MB), now on
        # the alive chain route, which `samples` does not enlarge
        x, policy = Erlang(2, 2.0), StoppingPolicy.min_of(Deterministic(1.3), Erlang(2, 2.2))
        tracemalloc.start()
        try:
            occupancy_renewal(x, policy, samples=1_000_000, rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_r_occupancy_erlang_pair_against_quadrature_identity(self):
        # E[min(X,T)] = (1 - L_X(mu)) / mu for exponential TTLs
        x, mu = Erlang(3, 2.0), 1.3
        got = occupancy_renewal(x, StoppingPolicy.reset_on_request(Exponential(mu)))
        want = (1.0 - x.laplace(mu)) / mu / x.mean
        assert_allclose(got, want, rtol=1e-10)


class TestExpectedStoppedSum:
    def test_table_values(self):
        assert_allclose(
            expected_stopped_sum(Exponential(1.0), StoppingPolicy.reset_on_request(Exponential(1.0))),
            2.0, rtol=1e-12,
        )
        assert_allclose(
            expected_stopped_sum(Exponential(1.0), StoppingPolicy.reset_on_request(Deterministic(1.0))),
            math.e, rtol=1e-12,
        )
        assert_allclose(
            expected_stopped_sum(Exponential(1.0), StoppingPolicy.min_of(Exponential(1.0), Exponential(1.0))),
            1.5, rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "x,policy",
        [
            (Exponential(1.3), StoppingPolicy.reset_on_request(Exponential(0.8))),
            (Exponential(0.9), StoppingPolicy.reset_on_request(Deterministic(1.1))),
            (Exponential(1.3), StoppingPolicy.reset_on_miss(Deterministic(0.6))),
            (Exponential(1.0), StoppingPolicy.min_of(Exponential(0.7), Exponential(1.8))),
        ],
    )
    def test_derivative_consistency(self, x, policy):
        # E[S_tau] = -dL/domega at 0, via a shifted central difference
        h = 1e-5
        if policy.tag == "R":
            f = lambda w: transform_r(x, policy.ttl, w)
        elif policy.tag == "Sigma":
            f = lambda w: transform_sigma(x, policy.ttl, w)
        else:
            f = lambda w: transform_min(x, policy.ttl_sigma, policy.ttl_r, w).value
        slope = (f(0.0) - f(2 * h)) / (2 * h)
        assert_allclose(expected_stopped_sum(x, policy), slope, rtol=1e-4)


class TestTableReference:
    def test_reference_grid_matches_engine(self):
        for lam in (0.5, 1.0, 2.0):
            for mu in (0.7, 1.0):
                for omega in (0.0, 0.5, 1.0):
                    ref = table1_reference(lam, mu, 1.3, omega)
                    x = Exponential(lam)
                    assert_allclose(
                        transform_r(x, Exponential(mu), omega),
                        ref["M-M-R"]["transform"], rtol=1e-12,
                    )
                    assert_allclose(
                        transform_sigma(x, Deterministic(1 / mu), omega),
                        ref["M-D-Sigma"]["transform"], rtol=1e-12,
                    )

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            table1_reference(0.0, 1.0, 1.0, 1.0)


def _decimal_r_erlang_det(k, a, c, omega):
    """E[tau] and the transform at omega of an R cache with Erlang(k, a)
    requests and a Deterministic(c) TTL, in 50-digit decimal arithmetic: the
    miss weight is L_omega(X) Q(k, (a + omega) c), Q the Poisson sum below k."""

    def miss(w):
        y = (Decimal(a) + Decimal(w)) * Decimal(c)
        term, below = (-y).exp(), Decimal(0)
        for j in range(k):
            below += term
            term *= y / (j + 1)
        return (Decimal(a) / (Decimal(a) + Decimal(w))) ** k * below

    with localcontext() as ctx:
        ctx.prec = 50
        lx = (Decimal(a) / (Decimal(a) + Decimal(omega))) ** k
        return float(1 / miss(0.0)), float(miss(omega) / (1 - lx + miss(omega)))


def _decimal_sigma_det_exp(d, mu, omega):
    """E[tau] and the transform at omega of a Sigma cache with Deterministic(d)
    requests and an Exponential(mu) TTL, in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        d, mu, omega = Decimal(d), Decimal(mu), Decimal(omega)
        tau = 1 / (1 - (-mu * d).exp())
        transform = ((-omega * d).exp() - (-(omega + mu) * d).exp()) / (1 - (-(omega + mu) * d).exp())
        return float(tau), float(transform)


def _decimal_min_det_exp_tab(e, mu, omega):
    """E[tau], occupancy and the transform at omega of a min(Sigma, R) cache
    with Deterministic(1) requests, an Exponential(mu) Sigma TTL and an R TTL
    at 0.5 with mass e and at 1.5 with mass 1 - e, in 50-digit decimal
    arithmetic: a request is a hit iff both TTLs outlast it, with chance
    K = (1 - e) e^{-mu}, and each interval holds the object for the integral
    of e^{-mu u} over [0, min(1, T_R)]."""
    with localcontext() as ctx:
        ctx.prec = 50
        e, mu, omega = Decimal(e), Decimal(mu), Decimal(omega)

        def held(c):
            return (1 - (-mu * c).exp()) / mu

        tau = 1 / (1 - (1 - e) * (-mu).exp())
        occupancy = e * held(Decimal("0.5")) + (1 - e) * held(Decimal(1))
        hit = (1 - e) * (-(omega + mu)).exp()
        transform = ((-omega).exp() - hit) / (1 - hit)
        return float(tau), float(occupancy), float(transform)


def _decimal_min_det_erlang_tab(r, e):
    """E[tau] and occupancy of a min(Sigma, R) cache with Deterministic(1)
    requests, an Erlang(2, r) Sigma TTL and an R TTL at 0.5 with mass e and
    at 1.5 with mass 1 - e, in 50-digit decimal arithmetic.

    A request is a hit with chance h = 1 - e, and the Sigma TTL outlasts t
    with chance e^{-r t} (1 + r t), so with z = h e^{-r}, P(tau > k) =
    z^k (1 + r k). The object is held at time k + s of a cycle, s < 1, with
    chance h^k P(T_R > s) e^{-r (k + s)} (1 + r (k + s)), P(T_R > s) = h on
    s > 1/2; summed over k, the in-cache time is A / (1 - z) + B z /
    (1 - z)^2 with A = I1(0, 1/2) + h I1(1/2, 1) and B = r (I0(0, 1/2) +
    h I0(1/2, 1)), I0 and I1 the integrals of e^{-r s} and e^{-r s} (1 + r s)."""
    with localcontext() as ctx:
        ctx.prec = 50
        r, e = Decimal(r), Decimal(e)
        h, half, one = 1 - e, Decimal("0.5"), Decimal(1)
        z = h * (-r).exp()

        def i0(a, b):
            return ((-r * a).exp() - (-r * b).exp()) / r

        def i1(a, b):
            return (-r * a).exp() * (a + 2 / r) - (-r * b).exp() * (b + 2 / r)

        a = i1(0, half) + h * i1(half, one)
        b = r * (i0(0, half) + h * i0(half, one))
        tau = 1 / (1 - z) + r * z / (1 - z) ** 2
        return float(tau), float((a / (1 - z) + b * z / (1 - z) ** 2) / tau)


class TestRareMisses:
    """R and Sigma closed forms keep their relative accuracy when misses are
    rare: the miss weight and L_0 - L_omega are each summed on their own."""

    # lam / mu up to 30, where P(X > T) = e^{-lam / mu} falls to 9e-14, and
    # a cell where the miss weight taken as L_omega - psi is 1e-11 off
    @pytest.mark.parametrize(
        "lam,mu,omega",
        [(ratio * mu, mu, omega) for ratio in (0.1, 1.0, 3.0, 10.0, 20.0, 30.0)
         for mu in (0.3, 1.0 / 3.0, 4.0) for omega in (0.0, 1e-6, 1.5)] + [(2.0, 0.3, 1.5)],
    )
    def test_table1_grid(self, lam, mu, omega):
        for row in _table1_rows([lam], [mu], [1.0], [omega]):
            assert row["max_rel_err"] <= 1e-12, row

    @pytest.mark.parametrize("k,a,c", [(3, 6.0, 4.0), (1, 2.0, 9.0), (40, 5.0, 20.0)])
    def test_erlang_requests_deterministic_ttl(self, k, a, c):
        x, t = Erlang(k, a), Deterministic(c)
        tau, transform = _decimal_r_erlang_det(k, a, c, 0.5)
        assert_allclose(expected_tau(x, StoppingPolicy.reset_on_request(t)).value, tau, rtol=1e-12)
        assert_allclose(transform_r(x, t, 0.5), transform, rtol=1e-12)

    @pytest.mark.parametrize("mu", [1e-9, 1e-4, 2.0])
    def test_sigma_deterministic_requests_exponential_ttl(self, mu):
        x, policy = Deterministic(1.0), StoppingPolicy.reset_on_miss(Exponential(mu))
        tau, transform = _decimal_sigma_det_exp(1.0, mu, 0.5)
        assert_allclose(expected_tau(x, policy).value, tau, rtol=1e-12)
        assert_allclose(transform_sigma(x, policy.ttl, 0.5), transform, rtol=1e-12)
        # the object stays for the whole TTL: occupancy (1 / mu) / E[S]
        assert_allclose(occupancy_renewal(x, policy), 1.0 / mu / tau, rtol=1e-12)

    def test_min_exponential_sigma_ttl(self):
        # misses one request in about 1e13, nearly all of them R evictions:
        # 1 - K formed by cancellation was 3.0e-4 off in E[tau]
        x, omega = Deterministic(1.0), 0.5
        policy = StoppingPolicy.min_of(Exponential(1e-15), Tabulated(1.0, [1e-13, 1.0 - 1e-13]))
        got = _route_values(x, policy, omega)
        want = _decimal_min_det_exp_tab("1e-13", 1e-15, omega)
        assert_allclose(got, want, rtol=1e-12)
        assert_allclose(want, [9.900990099009901e12, 0.9999999999999495, 1.5569090233619223e-13], rtol=1e-15)

    @pytest.mark.parametrize("r,e", [("2e-15", "1e-13"), ("2e-9", "1e-8")])
    def test_min_erlang_sigma_ttl(self, r, e):
        # misses one request in about 1e13 with an Erlang Sigma TTL: 1 - K
        # and the in-cache time formed by subtraction were 1.9e-3 and 0.22
        # off in E[tau] and occupancy
        x = Deterministic(1.0)
        policy = StoppingPolicy.min_of(Erlang(2, float(r)), Tabulated(1.0, [float(e), 1.0 - float(e)]))
        tau, occupancy = _decimal_min_det_erlang_tab(r, e)
        assert_allclose(expected_tau(x, policy).value, tau, rtol=1e-13)
        assert_allclose(occupancy_renewal(x, policy), occupancy, rtol=1e-13)


def _mixture_r(parts, omega):
    """E[tau], the transform at omega and the occupancy of an R cache whose
    request law (or TTL law) is the mixture of Deterministic laws with
    weights w: `parts` lists (w, x_i, t_i, mean of x_i).

    The hit and miss weights and E[min(X, T)] are linear in each law, so
    they are the w-mixtures of the parts'. For Deterministic requests d the
    miss weight at omega is e^{-omega d} P(T < d), read off the TTL law. For
    a Deterministic TTL the part's transform is r = m / (g + m), m its miss
    weight and g = 1 - L_omega(X) the same for every part, so the mixture's
    is odds / (1 + odds) with odds the w-mixture of r / (1 - r). Every
    transform at omega = 0 is 1."""
    miss0 = below = odds = held = mean = 0.0
    for w, x, t, x_mean in parts:
        policy = StoppingPolicy.reset_on_request(t)
        if isinstance(x, Deterministic):
            on_atoms = isinstance(t, (Deterministic, Tabulated))
            p = float(t.masses[t.points < x.value].sum()) if on_atoms else float(t.cdf(x.value))
        else:
            p = 1.0 / expected_tau(x, policy).value
        miss0 += w * p
        held += w * occupancy_renewal(x, policy) * x_mean
        mean += w * x_mean
        if isinstance(x, Deterministic):
            miss = math.exp(-omega * x.value) * p
            below += w * (-math.expm1(-omega * x.value) + miss)
            odds += w * miss
        elif omega:
            r = transform_r(x, t, omega)
            odds += w * r / (1.0 - r)
    transform = odds / below if below else odds / (1.0 + odds)
    return 1.0 / miss0, transform if omega else 1.0, held / mean


class TestTabulatedR:
    """R caches with Tabulated laws against exact mixtures of Deterministic
    ones: a one-cell law is the Deterministic law at its midpoint."""

    # the Tabulated TTL's atoms sit on the request atoms below: ties are hits
    TTLS = [Exponential(0.7), Erlang(3, 2.0), Deterministic(0.3), Tabulated(0.25, [0.8, 1.2, 1.2, 0.8])]
    REQUESTS = [Exponential(1.3), Erlang(2, 2.5)]

    @staticmethod
    def _readings(x, t, omega):
        policy = StoppingPolicy.reset_on_request(t)
        return expected_tau(x, policy).value, transform_r(x, t, omega), occupancy_renewal(x, policy)

    @pytest.mark.parametrize("t", TTLS)
    @pytest.mark.parametrize("omega", [0.0, 0.6])
    def test_one_cell_requests(self, t, omega):
        got = self._readings(Tabulated(0.8, [1.25]), t, omega)
        assert_allclose(got, self._readings(Deterministic(0.4), t, omega), rtol=1e-12)

    @pytest.mark.parametrize("x", REQUESTS + [Deterministic(1.9)])
    @pytest.mark.parametrize("omega", [0.0, 0.6])
    def test_one_cell_ttl(self, x, omega):
        got = self._readings(x, Tabulated(3.0, [1.0 / 3.0]), omega)
        assert_allclose(got, self._readings(x, Deterministic(1.5), omega), rtol=1e-12)

    @pytest.mark.parametrize("t", TTLS)
    @pytest.mark.parametrize("omega", [0.0, 0.6])
    def test_multi_cell_requests(self, t, omega):
        x = Tabulated(0.25, [0.2, 0.0, 1.4, 0.9, 1.5])
        parts = [(w, Deterministic(p), t, p) for w, p in zip(x.masses, x.points)]
        assert_allclose(self._readings(x, t, omega), _mixture_r(parts, omega), rtol=1e-12)

    @pytest.mark.parametrize("x", REQUESTS)
    @pytest.mark.parametrize("omega", [0.0, 0.6])
    def test_multi_cell_ttl(self, x, omega):
        t = Tabulated(0.4, [0.5, 0.75, 0.0, 1.25])
        parts = [(w, x, Deterministic(c), x.mean) for w, c in zip(t.masses, t.points)]
        assert_allclose(self._readings(x, t, omega), _mixture_r(parts, omega), rtol=1e-12)


class TestTabulatedSpec:
    def test_lattice_helpers(self):
        tab = Tabulated(0.1, np.full(10, 1.0))  # uniform mass on ten cells
        assert abs(tab.mean - 0.5) < 1e-12
        # E[min(W, c)], the integral of P(W > u) over [0, c]
        held = ttlnet.renewal._discounted_survival
        assert abs(held(tab, 0.0, 10.0) - tab.mean) < 1e-12
        want = float(np.minimum(tab.points, 0.5) @ tab.masses)
        assert abs(held(tab, 0.0, 0.5) - want) < 1e-12
        assert np.isclose(tab.cdf(tab.points[0]), 0.1)
        assert tab.cdf(0.049) == 0.0
        assert tab.survival_geq(tab.points[0]) == 1.0

    def test_density_must_integrate_to_one(self):
        with pytest.raises(ValidationError):
            Tabulated(0.1, np.full(10, 0.5))

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError):
            Tabulated(0.1, [-0.1, 10.1])

    @pytest.mark.parametrize("size", [None, 7], ids=["scalar", "array"])
    def test_draws_equal_generator_choice(self, size):
        # the stream of numpy's choice(p=...), with the cumulative masses formed once
        tab = tabulated_from(Erlang(2, 2.0), 0.01, 1000)
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            got = tab.sample(got_rng, size)
            want = want_rng.choice(tab.points, size=size, p=tab.masses)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


class TestTransformShape:
    @pytest.mark.parametrize(
        "f",
        [
            lambda w: transform_r(Exponential(1.0), Exponential(0.7), w),
            lambda w: transform_r(Erlang(2, 1.5), Deterministic(0.8), w),
            lambda w: transform_sigma(Exponential(1.2), Deterministic(1.1), w),
            lambda w: transform_min(Exponential(1.0), Exponential(2.0), Exponential(0.5), w).value,
        ],
    )
    def test_bounded_and_monotone(self, f):
        grid = [0.0, 0.2, 0.5, 1.0, 2.0, 5.0]
        values = [f(w) for w in grid]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestDeterministicHorizonIdentity:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_fixed_horizon_transform(self, t, rng):
        # for a fixed number of steps the transform factorizes exactly
        lam, omega = 1.0, 0.8
        x = Exponential(lam)
        lx = x.laplace(omega)
        sums = rng.exponential(1.0 / lam, size=(200_000, t)).sum(axis=1)
        mc, se = mc_mean_se(np.exp(-omega * sums))
        assert abs(lx**t - mc) < 3.0 * se
        # under the tilted law, the same law at rate lam + omega, the same
        # value is reproduced termwise
        tilted = dataclasses.replace(x, rate=x.rate + omega)
        tilted_sums = tilted.sample(rng, (200_000, t)).sum(axis=1)
        weights = np.full(tilted_sums.shape[0], lx**t)
        assert_allclose(weights.mean(), lx**t, rtol=1e-15)


class _LaplaceOnlyTtl(RenewalSpec):
    """A PH law that the renewal engine sees only through its Laplace
    transform and mean."""

    def __init__(self, ph: PhaseTypeDistribution):
        self.ph = ph

    @property
    def mean(self) -> float:
        return ph_mean(self.ph)

    def laplace(self, omega):
        s = self.ph.s.to_dense()
        a = omega * np.eye(s.shape[0]) - s
        return float(self.ph.pi.entries @ np.linalg.solve(a, self.ph.exit_rates))


def _dense_miss_transform(out, omega):
    """phi (omega I - D0')^{-1} D1' 1 with phi = p' D1' normalized, by dense solves."""
    d0, d1 = out.map.d0.to_dense(), out.map.d1.to_dense()
    phi = dense_stationary(d0 + d1) @ d1
    phi /= phi.sum()
    return float(phi @ np.linalg.solve(omega * np.eye(d0.shape[0]) - d0, d1.sum(axis=1)))


def _ratio_mean_se(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Ratio estimator mean(num) / mean(den) and its delta-method standard error."""
    ratio = num.mean() / den.mean()
    resid = num - ratio * den
    return float(ratio), float(resid.std(ddof=1) / math.sqrt(num.size) / den.mean())


def _route_values(x, policy, omega):
    """expected_tau, occupancy_renewal and the transform at omega, asserting exact values."""
    tau = expected_tau(x, policy)
    if policy.tag == "Sigma":
        transform = ttlnet.renewal.MonteCarloValue(transform_sigma(x, policy.ttl, omega), 0.0)
    else:
        transform = transform_min(x, policy.ttl_sigma, policy.ttl_r, omega)
    assert tau.stderr == 0.0 and transform.stderr == 0.0
    return tau.value, occupancy_renewal(x, policy), transform.value


def _assert_matches_oracle(x, policy, omega, rng, n=40_000):
    """The three exact readings within 4 SE of `stopped_sum_oracle`; a fully
    deterministic case has se 0, and the values must then agree to roundoff."""
    tau, occupancy, transform = _route_values(x, policy, omega)
    ttl, ttl_r = (policy.ttl, None) if policy.tag == "Sigma" else (policy.ttl_sigma, policy.ttl_r)
    taus, sums, occupied = stopped_sum_oracle(
        rng, x.sample, policy.tag, ttl.sample, ttl_r.sample if ttl_r else None, n=n
    )
    mean, se = mc_mean_se(taus.astype(float))
    assert abs(tau - mean) <= 4.0 * se + 1e-12
    mean, se = mc_mean_se(np.exp(-omega * sums))
    assert abs(transform - mean) <= 4.0 * se + 1e-12
    if occupied is None:
        # a Sigma cache holds the object for the whole TTL of each cycle
        mean, se = mc_mean_se(sums)
        mean, se = ttl.mean / mean, ttl.mean / mean * se / mean
    else:
        mean, se = _ratio_mean_se(occupied, sums)
    assert abs(occupancy - mean) <= 4.0 * se + 1e-12


class TestExponentialRequests:
    @pytest.mark.parametrize("seed", range(6))
    def test_r_cache_against_map_engine(self, seed, monkeypatch):
        # psi and E[min(X, T)] have closed forms in L_T for Poisson requests
        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature used for exponential requests")

        monkeypatch.setattr(scipy.integrate, "quad", no_quad)
        rng = np.random.default_rng(seed)
        lam = float(rng.uniform(0.3, 3.0))
        if seed % 2:
            stages, rate = int(rng.integers(2, 6)), float(rng.uniform(0.5, 4.0))
            ph, ttl = PhaseTypeDistribution.erlang(stages, rate), Erlang(stages, rate)
        else:
            ph = random_ph(rng, 3)
            ttl = _LaplaceOnlyTtl(ph)
        m = poisson_map(lam)
        out = output_r(m, ph)
        exact = metrics_from_maps(m, out)
        x, policy = Exponential(lam), StoppingPolicy.reset_on_request(ttl)
        assert_allclose(hit_miss_renewal(x, policy).miss, exact.miss_probability, rtol=1e-10)
        assert_allclose(occupancy_renewal(x, policy), exact.occupancy, rtol=1e-10)
        for omega in (0.3, 1.7):
            assert_allclose(
                transform_r(x, ttl, omega), _dense_miss_transform(out, omega), rtol=1e-10
            )

    def test_import_skips_scipy_integrate(self):
        # scipy.integrate is imported only when a quadrature first needs it
        src = str(Path(ttlnet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, ttlnet; print('scipy.integrate' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


def _ph_of(law):
    if isinstance(law, Exponential):
        return PhaseTypeDistribution.exponential(law.rate)
    return PhaseTypeDistribution.erlang(law.stages, law.rate)


PH_ROUTE_CASES = {
    "sigma-erlang-exp": (Erlang(2, 2.0), StoppingPolicy.reset_on_miss(Exponential(0.8))),
    "sigma-erlang-erlang": (Erlang(2, 2.0), StoppingPolicy.reset_on_miss(Erlang(2, 1.6))),
    "min-exp-erlang": (Exponential(1.0), StoppingPolicy.min_of(Erlang(2, 1.6), Erlang(2, 3.0))),
    "min-erlang-exp": (Erlang(2, 2.0), StoppingPolicy.min_of(Exponential(0.8), Exponential(1.5))),
    "min-erlang-erlang": (Erlang(3, 3.0), StoppingPolicy.min_of(Erlang(2, 1.6), Erlang(3, 4.0))),
    "min-erlang-exp-erlang": (
        Erlang(3, 3.0), StoppingPolicy.min_of(Exponential(0.8), Erlang(3, 4.0))
    ),
}
# Large queries: their miss chains have 4,505 and 20,000 states
LARGE_PH_CASES = {
    "min-5x30x30": (Erlang(5, 5.0), StoppingPolicy.min_of(Erlang(30, 20.0), Erlang(30, 40.0))),
    "sigma-2000x9": (Erlang(2000, 2000.0), StoppingPolicy.reset_on_miss(Erlang(9, 6.0))),
}
# Queries whose Sigma TTL has more phases than `renewal._DENSE_MAX`, which
# once took the miss chain's sparse LU
ABOVE_DENSE_CASES = {
    "sigma-2x250": (Erlang(2, 2.0), StoppingPolicy.reset_on_miss(Erlang(250, 100.0))),
    "min-2x250x1": (Erlang(2, 2.0), StoppingPolicy.min_of(Erlang(250, 100.0), Exponential(1.0))),
}


def _miss_process(x, policy):
    """The renewal MAP of X and its cache's miss process, built independently of the route."""
    req = _ph_of(x)
    d1 = np.outer(req.exit_rates, req.pi.entries)
    m = MarkovArrivalProcess(req.s, RateMatrix.from_dense(d1))
    if policy.tag == "Sigma":
        return m, output_sigma(m, _ph_of(policy.ttl))
    return m, output_min(m, _ph_of(policy.ttl_sigma), _ph_of(policy.ttl_r))


def _interval_solve(x, policy, omega):
    """E[tau], the in-cache time and the transform at omega from the miss
    process of `_miss_process`, by scipy's sparse LU in its default order.

    Every miss restarts the requests and the TTLs, so the initial vector phi
    of an inter-miss interval is proportional to the column sums of D1'.
    With z = phi (omega I - D0')^{-1}, at omega = 0 z 1 = E[tau] E[X] (Wald)
    and z summed over the IN states is the in-cache time; z D1' 1 is the
    transform."""
    _, out = _miss_process(x, policy)
    d0, d1 = out.map.d0.to_csr(), out.map.d1.to_csr()
    phi = np.asarray(d1.sum(axis=0)).ravel()
    a = (omega * scipy.sparse.identity(out.order) - d0).T.tocsc()
    z = scipy.sparse.linalg.spsolve(a, phi / phi.sum())
    return float(z.sum()) / x.mean, float(z[len(out.out_states):].sum()), float(z @ (d1 @ np.ones(out.order)))


def _decimal_solve(a, b):
    """x with x a = b for a square list-of-lists a of Decimals, by Gaussian
    elimination with partial pivoting on the transpose."""
    n = len(b)
    rows = [[a[j][i] for j in range(n)] + [b[i]] for i in range(n)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [u - f * v for u, v in zip(rows[i], rows[k])]
    x = [Decimal(0)] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


def _decimal_erlang_min(x, t_sigma, t_r, omega):
    """E[tau], occupancy and the transform at omega of a min(Sigma, R) cache
    with Erlang requests and Erlang TTLs, in 50-digit decimal arithmetic.

    Until eviction (request phase, Sigma phase, R phase) is a Markov chain
    with sub-generator A that starts in phase (0, 0, 0); a request ending is
    a hit that restarts the request and R phases. With y = e (cI - A)^{-1},
    E[tau] is 1 plus y at c = 0 times the hit rates, the in-cache time is y
    at c = 0 summed, and the transform is y at c = omega times the eviction
    rates, each times the transform of what is left of the request."""
    (p, a), (n, mu), (q, b) = [(law.stages, Decimal(law.rate)) for law in (x, t_sigma, t_r)]
    states = list(itertools.product(range(p), range(n), range(q)))
    index = {state: k for k, state in enumerate(states)}
    with localcontext() as ctx:
        ctx.prec = 50
        omega = Decimal(omega)
        gen = [[Decimal(0)] * len(states) for _ in states]
        hits, evictions = [], []
        for (i, s, r), k in index.items():
            gen[k][k] = -(a + mu + b)
            gen[k][index[(i + 1, s, r) if i + 1 < p else (0, s, 0)]] += a
            if s + 1 < n:
                gen[k][index[(i, s + 1, r)]] += mu
            if r + 1 < q:
                gen[k][index[(i, s, r + 1)]] += b
            hits.append(a if i + 1 == p else Decimal(0))
            left = (a / (a + omega)) ** (p - i)
            evictions.append(((mu if s + 1 == n else 0) + (b if r + 1 == q else 0)) * left)
        start = [Decimal(int(k == 0)) for k in range(len(states))]

        def interval(c):
            shifted = [[c * int(i == j) - g for j, g in enumerate(row)] for i, row in enumerate(gen)]
            return _decimal_solve(shifted, start)

        y = interval(Decimal(0))
        tau = 1 + sum(u * h for u, h in zip(y, hits))
        occupancy = sum(y) / (tau * p / a)
        transform = sum(u * e for u, e in zip(interval(omega), evictions))
        return float(tau), float(occupancy), float(transform)


class TestPhaseTypeRoute:
    @pytest.mark.parametrize("case", PH_ROUTE_CASES.values(), ids=PH_ROUTE_CASES.keys())
    def test_exact_against_stopping_rule_oracle(self, case, rng):
        x, policy = case
        _assert_matches_oracle(x, policy, 0.5, rng)

    def test_erlang_min_against_decimal_alive_chain(self):
        x, policy = PH_ROUTE_CASES["min-erlang-erlang"]
        want = _decimal_erlang_min(x, policy.ttl_sigma, policy.ttl_r, 0.5)
        assert_allclose(_route_values(x, policy, 0.5), want, rtol=1e-13)

    def test_no_query_reaches_cache_ops(self, monkeypatch):
        # the renewal and MAP engines share no code: every cache operator
        # builds a CacheChain, and no renewal query, of any size or route,
        # builds one
        def refuse(*args, **kwargs):
            raise AssertionError("a renewal query reached cache_ops")

        monkeypatch.setattr(ttlnet.cache_ops.CacheChain, "__init__", refuse)
        cases = [*PH_ROUTE_CASES.values(), *LARGE_PH_CASES.values(), *ABOVE_DENSE_CASES.values()]
        for xk, tk in itertools.product(ROUTE_REQUESTS, ROUTE_TTLS):
            x, (ts, tr) = ROUTE_REQUESTS[xk], ROUTE_TTLS[tk]
            cases.append((x, StoppingPolicy.reset_on_miss(ts)))
            if ("MinSigmaR", xk, tk) not in ROUTE_REFUSALS:
                cases.append((x, StoppingPolicy.min_of(ts, tr)))
        for x, policy in cases:
            _route_values(x, policy, 0.5)

    @pytest.mark.parametrize("case", PH_ROUTE_CASES.values(), ids=PH_ROUTE_CASES.keys())
    def test_agrees_with_stationary_map_metrics(self, case):
        # interval solve of the route against the stationary solve of the MAP engine
        x, policy = case
        m, out = _miss_process(x, policy)
        if policy.tag == "Sigma":
            transform = transform_sigma(x, policy.ttl, 0.5)
        else:
            transform = transform_min(x, policy.ttl_sigma, policy.ttl_r, 0.5).value
        exact = metrics_from_maps(m, out)
        assert_allclose(expected_tau(x, policy).value, 1.0 / exact.miss_probability, rtol=1e-12)
        assert_allclose(occupancy_renewal(x, policy), exact.occupancy, rtol=1e-12)
        assert_allclose(transform, _dense_miss_transform(out, 0.5), rtol=1e-10)

    @pytest.mark.parametrize(
        "x,policy",
        [*LARGE_PH_CASES.values(), *ABOVE_DENSE_CASES.values()],
        ids=[*LARGE_PH_CASES, *ABOVE_DENSE_CASES],
    )
    def test_interval_solve_keeps_factors_sparse(self, x, policy):
        # the power series against the miss chain's interval system (up to
        # 20,000 states), solved by the sparse LU in its default (COLAMD) order
        tau, in_cache, _ = _interval_solve(x, policy, 0.0)
        assert_allclose(expected_tau(x, policy).value, tau, rtol=1e-12)
        assert_allclose(occupancy_renewal(x, policy), in_cache / (tau * x.mean), rtol=1e-12)

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_matrix_geometric_matches_sparse_lu(self, omega):
        # every phase-type combination of the single-cache benchmark sweep
        # (laws of mean 1 / rate, rates 1, 0.8 and 1.5) and the large queries:
        # the power series and the closed forms against the miss chain's
        # sparse LU
        def law(kind, rate):
            return Exponential(rate) if kind == "exp" else Erlang(2, 2.0 * rate)

        cases = [*LARGE_PH_CASES.values(), *ABOVE_DENSE_CASES.values()]
        for xk, tk in itertools.product(["exp", "erlang"], repeat=2):
            x, t, t_r = law(xk, 1.0), law(tk, 0.8), law(tk, 1.5)
            cases += [(x, StoppingPolicy.reset_on_miss(t)), (x, StoppingPolicy.min_of(t, t_r))]
        for x, policy in cases:
            got = ttlnet.renewal._cycle(x, policy, omega)
            want = _interval_solve(x, policy, omega)
            # at omega > 0 only the transform is a reading of the cycle
            fields = slice(None) if omega == 0.0 else slice(2, 3)
            assert_allclose(got[fields], want[fields], rtol=1e-12)

    def test_chain_over_budget_refused(self):
        # 400 request phases x 301 TTL phases exceed DEFAULT_BUDGET states of
        # the miss chain, which bounds the power series
        policy = StoppingPolicy.reset_on_miss(Erlang(300, 300.0))
        with pytest.raises(BudgetExceededError):
            expected_tau(Erlang(400, 400.0), policy)
        # 1,500 x (3 x 1,500 + 1) states, where the closed form the dense
        # route once took had a first term that underflowed to 0 (E[tau]
        # about 2 read as 1)
        policy = StoppingPolicy.min_of(Erlang(3, 0.003), Erlang(1500, 1500.0))
        with pytest.raises(BudgetExceededError):
            expected_tau(Erlang(1500, 1500.0), policy)


def _decimal_sigma_det_erlang_tau(d, n, r):
    """E[tau] of a Sigma cache with Deterministic(d) requests and an
    Erlang(n, r) TTL in 50-digit decimal arithmetic: the object is still
    cached after request k iff the TTL outlasts k d, that is iff fewer than n
    events of a Poisson(r k d) count, so E[tau] sums that chance over k >= 0."""
    with localcontext() as ctx:
        ctx.prec = 50
        total, k = Decimal(0), 0
        while True:
            mean = Decimal(r) * Decimal(d) * k
            term, below = (-mean).exp(), Decimal(0)
            for j in range(n):
                below += term
                term *= mean / (j + 1)
            total += below
            if below < Decimal("1e-40"):
                return float(total)
            k += 1


class TestPowerSeriesReach:
    """Erlang Sigma TTLs of more than `renewal._DENSE_MAX` phases: requests
    on atoms, which the dense route refused, and Erlang requests, which took
    the MAP engine's miss chain."""

    def test_deterministic_requests(self, rng):
        x, t = Deterministic(0.5), Erlang(201, 201.0)
        policy = StoppingPolicy.reset_on_miss(t)
        assert_allclose(expected_tau(x, policy).value, _decimal_sigma_det_erlang_tau(0.5, 201, 201.0), rtol=1e-12)
        _, sums, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=20_000)
        mean, se = mc_mean_se(np.exp(-0.5 * sums))
        assert abs(transform_sigma(x, t, 0.5) - mean) <= 4.0 * se

    def test_erlang_requests_closed_form(self):
        # Erlang(2, a) requests: the request phase at the TTL's end T is 1
        # with chance (1 + e^{-2 a T}) / 2, so E[tau] = 3/4 + a E[T] / 2 +
        # L_{2a}(T) / 4 (1 plus the renewal function at T) and the transform is
        # (L_w(T) + L_{w+2a}(T)) / 2 (a / (a + w))^2 + (L_w(T) - L_{w+2a}(T)) / 2
        # a / (a + w); the sparse LU of the miss chain was 1.2e-13 off it
        a, n, r, omega = 2.0, 2000, 100.0, 0.5
        x, t = Erlang(2, a), Erlang(n, r)
        with localcontext() as ctx:
            ctx.prec = 50

            def laplace(w):
                return (Decimal(r) / (Decimal(r) + Decimal(w))) ** n

            tau = Decimal(3) / 4 + Decimal(a) * n / Decimal(r) / 2 + laplace(2 * a) / 4
            one = Decimal(a) / (Decimal(a) + Decimal(omega))
            low, high = laplace(omega), laplace(omega + 2 * a)
            transform = (low + high) / 2 * one * one + (low - high) / 2 * one
        policy = StoppingPolicy.reset_on_miss(t)
        assert_allclose(expected_tau(x, policy).value, float(tau), rtol=1e-13)
        assert_allclose(transform_sigma(x, t, omega), float(transform), rtol=1e-13)
        assert_allclose(occupancy_renewal(x, policy), t.mean / (float(tau) * x.mean), rtol=1e-13)

    def test_tabulated_requests(self, rng):
        # 2,000 phases x 100 atoms
        x = tabulated_from(Erlang(2, 4.0), 0.01, 100)
        _assert_matches_oracle(x, StoppingPolicy.reset_on_miss(Erlang(2000, 2000.0)), 0.5, rng, n=20_000)

    def test_table_over_the_limit_refused(self):
        # (1 + 2,000 + 1) phases x 1,000 atoms exceed _MAX_STEPS cells
        x = tabulated_from(Erlang(2, 4.0), 0.001, 1000)
        with pytest.raises(BudgetExceededError) as refused:
            expected_tau(x, StoppingPolicy.reset_on_miss(Erlang(2000, 2000.0)))
        assert refused.value.dimension == 2002 * 1000

    def test_no_scipy_loaded(self):
        # no renewal route loads scipy, at any size
        src = str(Path(ttlnet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, ttlnet; from ttlnet import Deterministic, Erlang, StoppingPolicy, expected_tau; "
            "expected_tau(Erlang(2, 2.0), StoppingPolicy.reset_on_miss(Erlang(2000, 100.0))); "
            "expected_tau(Deterministic(0.5), StoppingPolicy.reset_on_miss(Erlang(250, 100.0))); "
            "print(any(name.startswith('scipy') for name in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


DETERMINISTIC_ROUTE_CASES = {
    "sigma-erlang-det": (Erlang(2, 2.0), StoppingPolicy.reset_on_miss(Deterministic(1.3))),
    "min-exp-det-det": (
        Exponential(1.0), StoppingPolicy.min_of(Deterministic(1.25), Deterministic(0.67))
    ),
    "min-erlang-det-det": (
        Erlang(2, 2.0), StoppingPolicy.min_of(Deterministic(1.3), Deterministic(0.9))
    ),
    "min-det-exp-exp": (
        Deterministic(0.9), StoppingPolicy.min_of(Exponential(0.8), Exponential(1.5))
    ),
    "min-det-erlang-erlang": (
        Deterministic(0.9), StoppingPolicy.min_of(Erlang(2, 1.6), Erlang(2, 3.0))
    ),
    "min-det-det-det": (
        Deterministic(0.4), StoppingPolicy.min_of(Deterministic(1.25), Deterministic(0.67))
    ),
    "min-det-erlang-det": (
        Deterministic(0.4), StoppingPolicy.min_of(Erlang(2, 1.6), Deterministic(0.67))
    ),
    "min-det-det-exp": (
        Deterministic(0.4), StoppingPolicy.min_of(Deterministic(1.3), Exponential(1.0))
    ),
    # 20 windows of c_R before c_Sigma and 0.6 after: a 21-block method of steps
    "min-erlang-det-det-20-steps": (
        Erlang(3, 3.0), StoppingPolicy.min_of(Deterministic(20.6), Deterministic(1.0))
    ),
    "min-erlang-det-det-4-steps": (
        Erlang(2, 2.0), StoppingPolicy.min_of(Deterministic(3.7), Deterministic(0.8))
    ),
    # 400 windows, but the cached mass is below 1e-15 after 38 of them
    "min-exp-det-det-truncated": (
        Exponential(1.0), StoppingPolicy.min_of(Deterministic(200.0), Deterministic(0.5))
    ),
    # the mixed pairs: one Deterministic and one phase-type TTL
    "min-erlang-det-erlang": (
        Erlang(2, 2.0), StoppingPolicy.min_of(Deterministic(1.3), Erlang(2, 2.2))
    ),
    "min-erlang-erlang-det": (
        Erlang(2, 2.0), StoppingPolicy.min_of(Erlang(2, 1.6), Deterministic(0.67))
    ),
    # Tabulated laws next to laws of other kinds
    "min-det-tab-exp": (
        Deterministic(0.9),
        StoppingPolicy.min_of(tabulated_from(Erlang(2, 1.6), 0.01, 1000), Exponential(1.5)),
    ),
    "min-erlang-tab-erlang": (
        Erlang(2, 2.0),
        StoppingPolicy.min_of(tabulated_from(Erlang(2, 1.6), 0.01, 1000), Erlang(2, 3.0)),
    ),
    "min-erlang-tab-det": (
        Erlang(2, 2.0),
        StoppingPolicy.min_of(tabulated_from(Erlang(2, 1.6), 0.05, 200), Deterministic(0.67)),
    ),
    "min-tab-erlang-tab": (
        tabulated_from(Erlang(2, 2.0), 0.01, 1000),
        StoppingPolicy.min_of(Erlang(2, 1.6), tabulated_from(Erlang(2, 3.0), 0.01, 1000)),
    ),
    "min-exp-erlang-tab": (
        Exponential(1.0),
        StoppingPolicy.min_of(Erlang(2, 1.6), tabulated_from(Erlang(2, 3.0), 0.01, 1000)),
    ),
}


class TestDeterministicRoutes:
    @pytest.mark.parametrize(
        "case", DETERMINISTIC_ROUTE_CASES.values(), ids=DETERMINISTIC_ROUTE_CASES.keys()
    )
    def test_exact_against_stopping_rule_oracle(self, case, rng):
        x, policy = case
        _assert_matches_oracle(x, policy, 0.5, rng)

    @pytest.mark.parametrize("d,mu,nu", [(0.9, 0.8, 1.5), (0.3, 2.0, 0.4), (2.5, 0.1, 0.7)])
    def test_deterministic_requests_exponential_ttls_closed_forms(self, d, mu, nu):
        tau, occupancy, _ = _route_values(
            Deterministic(d), StoppingPolicy.min_of(Exponential(mu), Exponential(nu)), 0.5
        )
        decay = math.exp(-(mu + nu) * d)
        assert_allclose(tau, 1.0 / (1.0 - decay), rtol=1e-12)
        assert_allclose(occupancy, (1.0 - decay) / ((mu + nu) * d), rtol=1e-12)

    @pytest.mark.parametrize("c_r", [1.3, 1.7])
    def test_r_timer_past_sigma_ttl_is_sigma(self, c_r):
        # an R window that closes at or after c_Sigma evicts nothing earlier
        x, c_sigma = Erlang(3, 2.5), Deterministic(1.3)
        got = _route_values(x, StoppingPolicy.min_of(c_sigma, Deterministic(c_r)), 0.7)
        want = _route_values(x, StoppingPolicy.reset_on_miss(c_sigma), 0.7)
        assert_allclose(got, want, rtol=1e-12)

    def test_deterministic_ties(self):
        # d = c_R is a hit and k d = c_Sigma stays cached: 5 requests at 0.25
        # spacing, the last one 0.25 after c_Sigma = 1, the object held for all of c_Sigma
        x, omega = Deterministic(0.25), 0.5
        policy = StoppingPolicy.min_of(Deterministic(1.0), Deterministic(0.25))
        tau, occupancy, transform = _route_values(x, policy, omega)
        assert tau == 5.0
        assert_allclose(occupancy, 1.0 / 1.25, rtol=1e-15)
        assert_allclose(transform, math.exp(-omega * 1.25), rtol=1e-15)
        # with a PH Sigma TTL the tie at c_R still counts as a hit
        tau = expected_tau(x, StoppingPolicy.min_of(Exponential(1.0), Deterministic(0.25)))
        assert_allclose(tau.value, 1.0 / (1.0 - math.exp(-0.25)), rtol=1e-12)

    def test_tabulated_ties(self):
        # atoms at 0.5 and 1.5 for X and 1.5 for T_Sigma: a partial sum of 1.5
        # stays cached; the cycles by hand are (1.5, x), (0.5, 1.5), (0.5, 0.5,
        # 1.5) and (0.5, 0.5, 0.5, x)
        x, t = Tabulated(1.0, [0.5, 0.5]), Tabulated(1.0, [0.0, 1.0])
        tau, _, transform = _route_values(x, StoppingPolicy.reset_on_miss(t), 0.5)
        assert_allclose(tau, 2.375, rtol=1e-14)
        want = 0.5625 * math.exp(-1.0) + 0.3125 * math.exp(-1.5) + 0.125 * math.exp(-1.25)
        assert_allclose(transform, want, rtol=1e-14)

    def test_sigma_ttl_before_the_first_atom(self):
        # every cycle is one request: the TTL ends before the first request atom
        x, c = Tabulated(0.01, np.full(100, 1.0)), 0.001
        tau, occupancy, transform = _route_values(x, StoppingPolicy.reset_on_miss(Deterministic(c)), 0.5)
        assert tau == 1.0
        assert_allclose([transform, occupancy], [x.laplace(0.5), c / x.mean], rtol=1e-12)

    def test_large_dense_block_refused(self):
        # 20 windows of 10 request phases exceed the dense size of the method of steps
        x = Erlang(10, 10.0)
        policy = StoppingPolicy.min_of(Deterministic(30.0), Deterministic(1.5))
        with pytest.raises(BudgetExceededError):
            expected_tau(x, policy)


class TestErlangPairs:
    """R queries with Erlang requests under an Erlang or Exponential TTL take finite sums."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature used for an Erlang pair")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)

    @pytest.mark.parametrize(
        "x,ttl",
        [
            (Erlang(2, 2.0), Erlang(3, 1.5)),
            (Erlang(4, 3.0), Erlang(2, 0.7)),
            (Erlang(3, 1.2), Exponential(0.9)),
            (Erlang(5, 4.0), Erlang(5, 2.5)),
        ],
        ids=["2x3", "4x2", "3x1-exp", "5x5"],
    )
    def test_against_map_engine(self, x, ttl):
        req = _ph_of(x)
        m = MarkovArrivalProcess(req.s, RateMatrix.from_dense(np.outer(req.exit_rates, req.pi.entries)))
        out = output_r(m, _ph_of(ttl))
        exact = metrics_from_maps(m, out)
        policy = StoppingPolicy.reset_on_request(ttl)
        assert_allclose(expected_tau(x, policy).value, 1.0 / exact.miss_probability, rtol=1e-10)
        assert_allclose(occupancy_renewal(x, policy), exact.occupancy, rtol=1e-10)
        for omega in (0.3, 1.7):
            assert_allclose(transform_r(x, ttl, omega), _dense_miss_transform(out, omega), rtol=1e-10)

    def test_many_stages(self):
        # 500 stages: the finite sums must hold where no quadrature runs
        k, a, m, b = 500, 100.0, 400, 90.0
        x, t = Erlang(k, a), Erlang(m, b)
        policy = StoppingPolicy.reset_on_request(t)
        # P(X' <= T) for X' ~ Erlang(k, a'), T ~ Erlang(m, b) is I_p(k, m), p = a' / (a' + b)
        p_hit = scipy.special.betainc(k, m, a / (a + b))
        assert_allclose(expected_tau(x, policy).value, 1.0 / (1.0 - p_hit), rtol=1e-12)
        omega = 0.5
        psi = x.laplace(omega) * scipy.special.betainc(k, m, (a + omega) / (a + omega + b))
        assert_allclose(transform_r(x, t, omega), (x.laplace(omega) - psi) / (1.0 - psi), rtol=1e-12)
        # E[min(X, T)] is the integral of P(X > u) P(T > u), here by the trapezoid rule
        u = np.linspace(0.0, 8.0, 200_001)
        both = scipy.special.gammaincc(k, a * u) * scipy.special.gammaincc(m, b * u)
        assert_allclose(occupancy_renewal(x, policy), np.trapezoid(both, u) / x.mean, rtol=1e-9)


def _sub_generator(rng, n, norm, leak):
    """A random n-state generator of 1-norm `norm` less a random leak of at
    most min(norm, leak) from each row."""
    q = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=1))
    scale = np.abs(q).sum(axis=0).max()
    a = q * (norm / scale) if scale > 0.0 else q
    return a - np.diag(rng.random(n) * min(leak, norm))


def _assert_expm_close(a, want=None, rtol=1e-12, against_scipy=True):
    """`_expm(a)` within rtol of scipy's (unless `against_scipy` is False)
    and of `want`, relative to the result's 1-norm."""
    got = ttlnet.renewal._expm(a)
    refs = ([scipy.linalg.expm(a)] if against_scipy else []) + ([] if want is None else [want])
    assert refs
    for ref in refs:
        scale = np.abs(ref).sum(axis=0).max()
        assert np.abs(got - ref).sum(axis=0).max() <= rtol * scale


def _decimal_expm(a, digits=40):
    """e^a in decimal arithmetic of `digits` digits and more: the Taylor
    series of a / 2^s, whose 1-norm s brings to at most 1/2, summed until a
    term drops below 10^-digits, then squared s times. The squarings cancel
    nothing where e^(a / 2^s) is nonnegative, as for a Metzler matrix."""
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0.0 else 0

    def times(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    with localcontext() as ctx:
        ctx.prec = digits + 10
        scale = Decimal(2) ** -s
        m = [[Decimal(float(v)) * scale for v in row] for row in a]
        total = [[Decimal(int(i == j)) for j in range(n)] for i in range(n)]
        term, k = total, 0
        tiny = Decimal(10) ** -digits
        while k == 0 or max(abs(v) for row in term for v in row) >= tiny:
            k += 1
            term = [[v / k for v in row] for row in times(term, m)]
            total = [[t + v for t, v in zip(trow, vrow)] for trow, vrow in zip(total, term)]
        for _ in range(s):
            total = times(total, total)
        return np.array([[float(v) for v in row] for row in total])


# 1-norms of the matrices: 1e-8 up to 1e3, so that every Padé degree and up
# to 8 squarings run. A sub-generator leaks at most 40 in total, so that e^A
# keeps a norm above e^-40: past that scipy's expm, the reference, loses
# relative accuracy (5e-12 at e^-287, against 5e-14 for `_expm`, both against
# a 40-digit exponential); the Erlang generators cover that range against
# their closed form. A Van Loan block [[A, W], [0, 0]] has a larger 1-norm:
# A's up to 1e3 and a column of W up to n x 1e3, 6e3. There scipy's extra
# squarings lose accuracy in the columns of W (1.2e-12 relative at 3.1e3,
# against 1.1e-13 for `_expm`), so those blocks are checked against the
# 40-digit exponential alone.
LOG_NORMS = st.floats(-8.0, 3.0)
SEEDS = st.integers(0, 2**32 - 1)


class TestExpm:
    @given(seed=SEEDS, log_norm=LOG_NORMS, n=st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_sub_generators(self, seed, log_norm, n):
        rng = np.random.default_rng(seed)
        _assert_expm_close(_sub_generator(rng, n, 10.0**log_norm, 40.0))

    @given(seed=SEEDS, log_norm=LOG_NORMS, n=st.integers(1, 6), k=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_van_loan_blocks(self, seed, log_norm, n, k):
        rng = np.random.default_rng(seed)
        norm = 10.0**log_norm
        a = _sub_generator(rng, n, norm, 40.0)
        block = ttlnet.renewal._van_loan(a, rng.random((n, k)) * norm)
        _assert_expm_close(block, _decimal_expm(block), against_scipy=False)

    @given(stages=st.integers(2, 12), log_norm=st.floats(-8.0, math.log10(500.0)))
    @settings(max_examples=80, deadline=None)
    def test_erlang_generators(self, stages, log_norm):
        # e^{x (N - I)}, N the shift: entry (i, i + j) is e^-x x^j / j!, down to e^-500
        x = 10.0**log_norm
        _, s = ttlnet.renewal._ph_arrays(Erlang(stages, x))
        exact = np.zeros((stages, stages))
        for i in range(stages):
            for j in range(i, stages):
                exact[i, j] = math.exp(-x) * x ** (j - i) / math.factorial(j - i)
        _assert_expm_close(s, exact)

    @given(
        seed=SEEDS,
        log_norm=LOG_NORMS,
        stages=st.integers(1, 3),
        blocks=st.integers(1, 4),
        omega=st.floats(0.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_delay_step_blocks(self, seed, log_norm, stages, blocks, omega):
        # the Van Loan block of `_delay_steps`: its off-diagonal blocks are
        # negative, so the matrix is not Metzler
        rng = np.random.default_rng(seed)
        alpha, s_mat = ttlnet.renewal._ph_arrays(Erlang(stages, rng.uniform(0.5, 5.0)))
        s = -s_mat.sum(axis=1)
        c_r = rng.uniform(0.2, 2.0)
        beta = alpha @ scipy.linalg.expm(s_mat * c_r)
        g = np.kron(np.eye(blocks), s_mat + np.outer(s, alpha) - omega * np.eye(stages))
        g -= np.kron(np.eye(blocks, k=1), math.exp(-omega * c_r) * np.outer(s, beta))
        w = np.column_stack([np.tile(s, blocks), np.ones(stages * blocks)])
        block = ttlnet.renewal._van_loan(g, w)
        _assert_expm_close(block * (10.0**log_norm / np.abs(block).sum(axis=0).max()))

    @pytest.mark.parametrize("degree", [3, 5, 7, 9, 13])
    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_every_degree_at_its_bound(self, degree, side, rng):
        theta = {m: theta for m, theta, _ in ttlnet.renewal._PADE}[degree]
        _assert_expm_close(_sub_generator(rng, 5, side * theta, 40.0))

    def test_zero_is_identity(self):
        assert np.array_equal(ttlnet.renewal._expm(np.zeros((3, 3))), np.eye(3))


def _decimal_gamma_tails(k, y):
    """P(k, y) and Q(k, y) from the Poisson(y) probabilities in 60-digit
    decimal arithmetic: the finite sum below k, and the series from k up
    until its terms stop counting."""
    with localcontext() as ctx:
        ctx.prec = 60
        y = Decimal(y)
        term, below = (-y).exp(), Decimal(0)
        for j in range(k):
            below += term
            term *= y / (j + 1)
        above, j = Decimal(0), k
        while term > above * Decimal("1e-40") or j <= y:
            above += term
            j += 1
            term *= y / j
        return float(above), float(below)


def _decimal_binomial_tails(n, s, p, q):
    """P(B >= s) and P(B < s), B ~ Binomial(n, p), from the terms in 60-digit
    decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        p, q = Decimal(p), Decimal(q)
        term, below, above = q**n, Decimal(0), Decimal(0)
        for i in range(n + 1):
            if i < s:
                below += term
            else:
                above += term
            term = term * (n - i) / (i + 1) * p / q
        return float(above), float(below)


def _tail_points(k, floor):
    """y where P(k, y) or Q(k, y) runs from 1/2 down to `floor`."""
    probs = np.geomspace(floor, 0.5, 12)
    return np.concatenate([scipy.special.gammaincinv(k, probs), scipy.special.gammainccinv(k, probs)])


ERLANG_SHAPES = [1, 2, 3, 40, 500, 2000]


def _scipy_floor(k):
    # at 2,000 stages and below 1e-30, scipy's gammainc and nbdtr are off by
    # up to 4e-12 (they round a log of magnitude 3e4); the decimal sums cover
    # those tails
    return 1e-30 if k > 500 else 1e-300


def _numpy_binomial_tails(n, s, p, q):
    """`_binomial_tails` as numpy sums: the first term's deviances on
    one-entry arrays and the others by `np.cumprod` of the ratio arrays."""

    def run(c, up):
        def deviance(c, mean):
            return mean if c == 0 else float(ttlnet.renewal._deviance(np.array([c]), np.array([mean]))[0])

        norm = ttlnet.renewal._log_norm
        log_first = norm(c) + norm(n - c) - norm(n) - deviance(c, n * p) - deviance(n - c, n * q)
        if up:
            j = np.arange(c, n)
            ratios = (n - j) / (j + 1) * (p / q)
        else:
            j = np.arange(c, 0, -1)
            ratios = j / (n - j + 1) * (q / p)
        return math.exp(log_first) * (1.0 + float(np.cumprod(ratios).sum()))

    if s <= 0:
        return 1.0, 0.0
    if s > n:
        return 0.0, 1.0
    if s <= n * p:
        lower = run(s - 1, up=False)
        return 1.0 - lower, lower
    upper = run(s, up=True)
    if s >= n * p + 1:
        return upper, 1.0 - upper
    return upper, run(s - 1, up=False)


def _assert_routes_agree(alone, table, rtol):
    """Relative agreement; below 1e-300, where the last digits of a
    subnormal number are few, agreement to rtol * 1e-300."""
    for a, t in zip(alone, table):
        if math.isnan(t):
            assert math.isnan(a)
        else:
            assert abs(a - t) <= rtol * max(abs(t), 1e-300), (a, t)


# (kind, value): y with P(k, y) or Q(k, y) = 10^value, y = value, or an edge
_GAMMA_POINTS = st.one_of(
    st.tuples(st.sampled_from(["P", "Q"]), st.floats(-300.0, math.log10(0.5))),
    st.tuples(st.just("y"), st.floats(0.0, 1e4)),
    st.tuples(st.sampled_from(["0", "inf", "below k", "above k", "negative"]), st.just(0.0)),
)


def _gamma_point(k, kind, value):
    if kind == "P":
        return float(scipy.special.gammaincinv(k, 10.0**value))
    if kind == "Q":
        return float(scipy.special.gammainccinv(k, 10.0**value))
    edges = {"0": 0.0, "inf": math.inf, "below k": k * (1.0 - 1e-12), "above k": k * (1.0 + 1e-12)}
    return value if kind == "y" else edges.get(kind, -1.0)


class TestErlangSums:
    """Erlang-law tails from finite sums, against scipy.special and against
    the defining sums in decimal arithmetic, both tails down to 1e-300; each
    through the array route and through the scalar route that one point
    takes."""

    @pytest.mark.parametrize("k", ERLANG_SHAPES)
    def test_gamma_tails_against_scipy(self, k):
        y = _tail_points(k, _scipy_floor(k))
        law = Erlang(k, 2.0)
        want = [scipy.special.gammainc(np.arange(1, k + 1), v).sum() / 2.0 for v in y]

        def held(c):  # E[min(X, c)], the integral of P(X > u) over [0, c]
            return ttlnet.renewal._discounted_survival(law, 0.0, c)

        # one array call, then each point alone as a number and as a one-entry array
        for read in (
            lambda f: f(y / 2.0),
            lambda f: np.array([f(v / 2.0) for v in y]),
            lambda f: np.array([f(np.array([v / 2.0]))[0] for v in y]),
        ):
            assert_allclose(read(law.cdf), scipy.special.gammainc(k, y), rtol=1e-12)
            assert_allclose(read(law.survival_geq), scipy.special.gammaincc(k, y), rtol=1e-12)
            assert_allclose(read(held), want, rtol=1e-12)

    @pytest.mark.parametrize("k", ERLANG_SHAPES)
    def test_gamma_tails_against_decimal_sums(self, k):
        y = _tail_points(k, 1e-300)
        want = np.array([_decimal_gamma_tails(k, v) for v in y])
        tails = ttlnet.renewal._gamma_tails
        for p, q in (
            tails(k, y),
            np.array([tails(k, v) for v in y]).T,
            np.array([tails(k, np.array([v])) for v in y])[:, :, 0].T,
        ):
            assert_allclose(p, want[:, 0], rtol=1e-12)
            assert_allclose(q, want[:, 1], rtol=1e-12)

    @given(k=st.integers(1, 2000), point=_GAMMA_POINTS)
    @example(k=1, point=("0", 0.0))
    @example(k=3, point=("inf", 0.0))
    @example(k=10, point=("below k", 0.0))
    @example(k=2000, point=("above k", 0.0))
    @example(k=2, point=("negative", 0.0))
    @settings(max_examples=300, deadline=None)
    def test_scalar_route_matches_array_route(self, k, point):
        # one point takes the scalar route, two the array route
        y = _gamma_point(k, *point)
        alone = ttlnet.renewal._gamma_tails(k, np.array([y]))
        table = ttlnet.renewal._gamma_tails(k, np.array([y, y]))
        assert all(a.shape == (1,) for a in alone)
        _assert_routes_agree([a[0] for a in alone], [t[0] for t in table], 4e-15 if k <= 10 else 1e-13)

    @given(
        n=st.integers(1, 50),
        s=st.integers(0, 51),
        p=st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.floats(-12.0, -0.3).map(lambda e: 10.0**e)),
    )
    @settings(max_examples=300, deadline=None)
    def test_binomial_tails_match_numpy_sums(self, n, s, p):
        got = ttlnet.renewal._binomial_tails(n, s, p, 1.0 - p)
        want = _numpy_binomial_tails(n, s, p, 1.0 - p)
        _assert_routes_agree(got, want, 4e-15 if n <= 10 else 1e-13)

    def test_deviance_of_one_number_has_the_array_bits(self):
        deviance = ttlnet.renewal._deviance
        for c, mean in itertools.product([1, 2, 7, 40, 2000], [1e-300, 0.3, 0.51, 1.0, 6.5, 2000.0, 1e5]):
            one = deviance(c, mean)
            assert isinstance(one, float)
            with np.errstate(divide="ignore"):  # the array route forms both logs
                assert one == deviance(np.array([c]), np.array([mean]))[0]
        assert deviance(0, 0.25) == 0.25
        assert deviance(3, 0.0) == math.inf
        assert math.isnan(deviance(3, -1.0))

    def test_poisson_tables_of_tiny_means_warn_nothing(self):
        # at means below 1.1e-16 of c the array route's deviance forms
        # log1p(-1) on the branch it does not read
        policy = StoppingPolicy.reset_on_miss(Erlang(3, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = expected_tau(Deterministic(1e-17), policy).value
        # the sum over k >= 0 of P(T >= k d) is E[T] / d + 1/2 + O(d)
        assert_allclose(tau, 3e17, rtol=1e-12)

    @pytest.mark.parametrize("k", ERLANG_SHAPES)
    def test_psi_and_expected_min_against_scipy(self, k):
        # Erlang(k, a) requests under an Erlang(m, 1) TTL: P(X <= T) is
        # nbdtr(m - 1, k, p), p = a / (a + 1); P(X > T), summed on its own, is
        # checked against the decimal sums (scipy's nbdtrc is 2e-12 off at
        # 2,000 stages)
        for m in sorted({1, 2, k, 3 * k}):
            for p in np.geomspace(1e-4, 1.0 - 1e-4, 15):
                x, t = Erlang(k, p / (1.0 - p)), Erlang(m, 1.0)
                hit, miss = ttlnet.renewal._weights(x, t, 0.0)
                want = scipy.special.nbdtr(m - 1, k, p)
                if want >= _scipy_floor(k):
                    assert_allclose(hit, want, rtol=1e-12)
                _, want = _decimal_binomial_tails(k + m - 1, k, p, 1.0 - p)
                assert_allclose(miss, want, rtol=1e-12)
                # E[min(X, T)] by the binomial sum the closed form replaced: the
                # chance that min(X, T) outlasts merged event n, summed over n
                n = np.arange(k + m - 1)

                def at_most(j):  # P(Binomial(n, p) <= j)
                    return np.where(j < 0, 0.0, scipy.special.bdtr(np.clip(j, 0, n), n, p))

                want = float(np.sum(at_most(k - 1) - at_most(n - m))) * (1.0 - p)
                assert_allclose(ttlnet.renewal._discounted_held(x, t, 0.0), want, rtol=1e-12)

    @pytest.mark.parametrize("k", ERLANG_SHAPES)
    def test_binomial_tails_against_decimal_sums(self, k):
        for m in sorted({1, k}):
            n = k + m - 1
            for p in np.geomspace(1e-6, 1.0 - 1e-6, 9):
                got = ttlnet.renewal._binomial_tails(n, k, p, 1.0 - p)
                want = _decimal_binomial_tails(n, k, p, 1.0 - p)
                for g, w in zip(got, want):
                    if w >= 1e-300:
                        assert_allclose(g, w, rtol=1e-12)

    @pytest.mark.parametrize(
        "law", [Deterministic(0.7), Tabulated(0.5, [0.2, 0.0, 1.4, 0.4])], ids=["det", "tab"]
    )
    def test_atom_arrays_formed_once(self, law):
        assert law.points is law.points and law.masses is law.masses
        assert not law.points.flags.writeable and not law.masses.flags.writeable
        u = np.array([0.0, 0.25, 0.7, 0.75, 1.25, 5.0])
        below = np.concatenate([[0.0], np.cumsum(law.masses)])
        above = np.concatenate([np.cumsum(law.masses[::-1])[::-1], [0.0]])
        for side in ("left", "right"):
            j = np.searchsorted(law.points, u, side)
            got = ttlnet.renewal._atom_tails(law, u, side)
            assert np.array_equal(got[0], below[j]) and np.array_equal(got[1], above[j])
        assert np.array_equal(law.cdf(u), below[np.searchsorted(law.points, u, "right")])

    def test_zero_and_infinite_arguments(self):
        law = Erlang(3, 2.0)
        assert law.cdf(0.0) == 0.0 and law.survival_geq(0.0) == 1.0
        assert law.cdf(math.inf) == 1.0 and law.survival_geq(math.inf) == 0.0
        assert law.cdf(-1.0) == 0.0 and law.survival_geq(-1.0) == 1.0
        held = ttlnet.renewal._discounted_survival
        assert held(law, 0.0, 0.0) == 0.0 and held(law, 0.0, math.inf) == law.mean

    def test_many_points_in_small_tables(self):
        # 200,000 points at 2,000 stages: one table of powers for all of them
        # would take 650 MB
        y = np.linspace(0.0, 4000.0, 200_000)
        tracemalloc.start()
        try:
            p, q = ttlnet.renewal._gamma_tails(2000, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * y.nbytes
        assert_allclose(p[::1000], scipy.special.gammainc(2000, y[::1000]), rtol=1e-11, atol=1e-300)


def _timed(f):
    start = time.perf_counter()
    value = f()
    assert time.perf_counter() - start < 0.5
    return value


class TestSigmaFineDeterministicRequests:
    """Sigma with requests much shorter than the TTL: closed sums, no series."""

    @pytest.mark.parametrize("d", [1e-2, 1e-4])
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_erlang_ttl(self, d, omega):
        b = 1.0
        x, t = Deterministic(d), Erlang(2, b)
        # P(T >= k d) = q^k (1 + b d k)
        q, z = math.exp(-b * d), math.exp(-omega * d)
        g = 1.0 / (1.0 - z * q) + b * d * z * q / (1.0 - z * q) ** 2
        tau = _timed(lambda: expected_tau(x, StoppingPolicy.reset_on_miss(t)))
        assert tau.stderr == 0.0
        assert_allclose(tau.value, 1.0 / (1.0 - q) + b * d * q / (1.0 - q) ** 2, rtol=1e-10)
        assert_allclose(_timed(lambda: transform_sigma(x, t, omega)), 1.0 - (1.0 - z) * g, rtol=1e-10)

    @pytest.mark.parametrize("d", [1e-2, 1e-4])
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_deterministic_ttl(self, d, omega):
        x, c = Deterministic(d), 30.0
        steps = math.floor(c / d) + 1
        tau = _timed(lambda: expected_tau(x, StoppingPolicy.reset_on_miss(Deterministic(c))))
        assert tau.value == steps and tau.stderr == 0.0
        assert_allclose(
            _timed(lambda: transform_sigma(x, Deterministic(c), omega)),
            math.exp(-omega * d * steps),
            rtol=1e-10,
        )

    def test_partial_sums_over_the_limit_refused(self):
        # 1e7 requests fit in the TTL, more partial sums than _MAX_STEPS
        with pytest.raises(BudgetExceededError):
            expected_tau(Deterministic(1e-7), StoppingPolicy.reset_on_miss(Deterministic(1.0)))

    def test_tabulated_ttl_survival_sum(self):
        # a TTL atom at p holds floor(p / d) + 1 requests
        d, omega = 0.0937, 0.5
        x, t = Deterministic(d), tabulated_from(Erlang(2, 1.6), 0.01, 1000)
        steps = np.floor(t.points / d) + 1
        policy = StoppingPolicy.reset_on_miss(t)
        tau = expected_tau(x, policy)
        assert tau.stderr == 0.0
        assert_allclose(tau.value, t.masses @ steps, rtol=1e-12)
        assert_allclose(occupancy_renewal(x, policy), t.mean / (tau.value * d), rtol=1e-12)
        want = t.masses @ np.exp(-omega * d * steps)
        assert_allclose(transform_sigma(x, t, omega), want, rtol=1e-12)


ROUTE_REQUESTS = {
    "exp": Exponential(1.0),
    "erlang": Erlang(2, 2.0),
    "det": Deterministic(0.9),
    "tab": tabulated_from(Erlang(2, 2.0), 0.01, 1000),
}
# (Sigma or min's Sigma TTL, min's R TTL) of one law family
ROUTE_TTLS = {
    "exp": (Exponential(0.8), Exponential(1.5)),
    "erlang": (Erlang(2, 1.6), Erlang(2, 3.0)),
    "det": (Deterministic(1.3), Deterministic(0.67)),
    "tab": (tabulated_from(Erlang(2, 1.6), 0.01, 1000), tabulated_from(Erlang(2, 3.0), 0.01, 1000)),
}
# The combinations the `renewal` module docstring's route table refuses;
# every other one is exact.
ROUTE_REFUSALS = {("MinSigmaR", "exp", "tab"), ("MinSigmaR", "erlang", "tab")}


class TestRouteTable:
    @pytest.mark.parametrize("tk", ROUTE_TTLS)
    @pytest.mark.parametrize("xk", ROUTE_REQUESTS)
    @pytest.mark.parametrize("tag", ["Sigma", "MinSigmaR"])
    def test_route(self, tag, xk, tk, rng):
        x, (ts, tr) = ROUTE_REQUESTS[xk], ROUTE_TTLS[tk]
        policy = StoppingPolicy.reset_on_miss(ts) if tag == "Sigma" else StoppingPolicy.min_of(ts, tr)
        if (tag, xk, tk) in ROUTE_REFUSALS:
            with pytest.raises(ValidationError, match="tabulated R TTL"):
                expected_tau(x, policy)
            with pytest.raises(ValidationError, match="tabulated R TTL"):
                transform_min(x, ts, tr, 0.5)
        else:
            _assert_matches_oracle(x, policy, 0.5, rng, n=20_000)


class TestExponentialSigmaTtl:
    @pytest.mark.parametrize("tk", ROUTE_TTLS)
    @pytest.mark.parametrize("xk", ROUTE_REQUESTS)
    def test_closed_form_matches_matrix_geometric(self, xk, tk):
        # min(Sigma, R) with an Exponential Sigma TTL: the closed form against
        # the power series of one phase
        x, t_sigma, t_r = ROUTE_REQUESTS[xk], Exponential(0.8), ROUTE_TTLS[tk][1]
        policy = StoppingPolicy.min_of(t_sigma, t_r)
        for omega in (0.0, 0.5):
            got = ttlnet.renewal._cycle(x, policy, omega)
            want = ttlnet.renewal._erlang_sigma(x, t_sigma, t_r, omega)
            # at omega > 0 only the transform is a reading of the cycle, and at
            # omega = 0 the transform is 1
            fields = slice(0, 2) if omega == 0.0 else slice(2, 3)
            assert_allclose(got[fields], want[fields], rtol=1e-12)
