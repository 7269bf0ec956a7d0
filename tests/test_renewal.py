"""Tilting, stopped-sum transforms, and renewal-level cache metrics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import mc_mean_se, stopped_sum_oracle
import ttlnet
from ttlnet import (
    Deterministic,
    DivergentStoppingTimeError,
    Erlang,
    Exponential,
    StoppingPolicy,
    Tabulated,
    ValidationError,
    expected_stopped_sum,
    expected_tau,
    hit_miss_renewal,
    occupancy_renewal,
    table1_reference,
    tilt,
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


class TestTilt:
    def test_exponential_shifts_rate(self):
        t = tilt(Exponential(1.5), 0.7)
        assert t.law == Exponential(2.2)
        assert_allclose(t.lx, 1.5 / 2.2, rtol=1e-15)

    def test_zero_omega_is_identity(self):
        for spec in (Exponential(2.0), Deterministic(1.3), Erlang(3, 2.0)):
            t = tilt(spec, 0.0)
            assert t.law == spec
            assert t.lx == 1.0

    def test_deterministic_shape_invariant(self):
        t = tilt(Deterministic(2.0), 0.5)
        assert t.law == Deterministic(2.0)
        assert_allclose(t.lx, math.exp(-1.0), rtol=1e-15)

    @pytest.mark.parametrize(
        "spec", [Exponential(0.8), Erlang(2, 1.5), Deterministic(0.9)]
    )
    def test_tilted_density_normalized(self, spec):
        t = tilt(spec, 0.6)
        # numeric check of unit mass through the tilted law's own cdf
        far = t.law.truncation_point(1e-12)
        assert abs(float(t.law.cdf(far * 1.5)) - 1.0) < 1e-6

    def test_tabulated_tilt_normalized(self, rng):
        base = tabulated_from(Exponential(1.0), 0.01, 3000)
        t = tilt(base, 0.8)
        assert abs(t.law.masses.sum() - 1.0) < 1e-12
        # matches the analytic normalizer of the underlying exponential
        assert abs(t.lx - 1.0 / 1.8) < 1e-3

    def test_negative_omega_rejected(self):
        with pytest.raises(ValidationError):
            tilt(Exponential(1.0), -0.1)


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

    def test_series_matches_closed_form(self):
        # exponential TTL has a closed value; the series must approach it
        x, t, omega = Erlang(2, 2.0), Exponential(1.0), 0.5
        closed = transform_sigma(x, t, omega)
        series = transform_sigma(x, t, omega, method="series")
        assert abs(series - closed) < 2e-3

    def test_series_against_stopping_rule_oracle(self, rng):
        x, t, omega = Erlang(2, 2.0), Erlang(2, 1.0), 0.5
        got = transform_sigma(x, t, omega, method="series")
        _, sums, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=60_000)
        mc, se = mc_mean_se(np.exp(-omega * sums))
        assert abs(got - mc) < 3.0 * se + 1e-3

    def test_deterministic_requests_and_ttl(self):
        # tau = floor(d/c) + 1 steps of length c, deterministically
        got = transform_sigma(Deterministic(0.4), Deterministic(1.0), 0.9)
        assert_allclose(got, math.exp(-0.9 * 1.2), rtol=1e-12)

    def test_series_with_deterministic_ttl_against_oracle(self, rng):
        x, t, omega = Erlang(2, 2.0), Deterministic(1.3), 0.7
        got = transform_sigma(x, t, omega, method="series")
        _, sums, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=60_000)
        mc, se = mc_mean_se(np.exp(-omega * sums))
        assert abs(got - mc) < 3.0 * se + 1e-3

    def test_series_normalized_at_zero(self):
        assert abs(transform_sigma(Erlang(2, 2.0), Deterministic(1.3), 0.0, method="series") - 1.0) < 1e-6
        assert abs(transform_sigma(Erlang(3, 1.5), Erlang(2, 0.9), 0.0, method="series") - 1.0) < 1e-6

    def test_deterministic_requests_survival_sum_against_oracle(self, rng):
        x, t = Deterministic(0.7), Erlang(2, 1.0)
        got = expected_tau(x, StoppingPolicy.reset_on_miss(t))
        assert got.stderr == 0.0
        taus, _, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=100_000)
        mean, se = mc_mean_se(taus.astype(float))
        assert abs(got.value - mean) < 3.0 * se

    def test_tabulated_requests(self, rng):
        x = tabulated_from(Erlang(2, 2.0), 0.01, 2500)
        t = Erlang(2, 1.0)
        got = transform_sigma(x, t, 0.5)
        anchor = transform_sigma(Erlang(2, 2.0), t, 0.5, method="series")
        assert abs(got - anchor) < 5e-3

    def test_closed_method_rejects_general_pair(self):
        with pytest.raises(ValidationError):
            transform_sigma(Erlang(2, 1.0), Erlang(2, 1.0), 0.5, method="closed")

    def test_import_skips_scipy_signal(self):
        # scipy.signal is imported only when a Sigma series first needs it
        src = str(Path(ttlnet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, ttlnet; print('scipy.signal' in sys.modules)"
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
        x, ts, tr, omega = Exponential(1.0), Deterministic(2.0), Exponential(1.0), 0.5
        got = transform_min(x, ts, tr, omega, samples=120_000, rng=rng)
        _, sums, _ = stopped_sum_oracle(
            rng, x.sample, "MinSigmaR", ts.sample, tr.sample, n=60_000
        )
        mc, se = mc_mean_se(np.exp(-omega * sums))
        joint = math.hypot(se, got.stderr)
        assert abs(got.value - mc) < 3.0 * joint + 1e-4

    def test_sample_floor_enforced(self, rng):
        with pytest.raises(ValidationError):
            transform_min(
                Exponential(1.0), Deterministic(1.0), Exponential(1.0), 0.5,
                samples=100, rng=rng,
            )


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
        x, t = Erlang(2, 2.0), Erlang(2, 1.0)
        got = expected_tau(x, StoppingPolicy.reset_on_miss(t), samples=60_000, rng=rng)
        taus, _, _ = stopped_sum_oracle(rng, x.sample, "Sigma", t.sample, n=60_000)
        mean, se = mc_mean_se(taus.astype(float))
        assert abs(got.value - mean) < 3.0 * math.hypot(se, got.stderr)

    def test_min_policy_monte_carlo_against_oracle(self, rng):
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
        x = Exponential(1.0)
        ts, tr = Deterministic(2.0), Exponential(1.0)
        got = occupancy_renewal(x, StoppingPolicy.min_of(ts, tr), samples=120_000, rng=rng)
        _, sums, occupied = stopped_sum_oracle(
            rng, x.sample, "MinSigmaR", ts.sample, tr.sample, n=120_000
        )
        oracle = occupied.mean() / sums.mean()
        assert abs(got - oracle) < 0.01

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


class TestTabulatedSpec:
    def test_lattice_helpers(self):
        tab = Tabulated(0.1, np.full(10, 1.0))  # uniform mass on ten cells
        assert abs(tab.mean - 0.5) < 1e-12
        assert np.isclose(tab.truncation_point(0.15), 0.85)
        assert abs(tab.integral_survival(10.0) - tab.mean) < 1e-12
        want = float(np.minimum(tab.points, 0.5) @ tab.masses)
        assert abs(tab.integral_survival(0.5) - want) < 1e-12
        assert np.isclose(tab.cdf(tab.points[0]), 0.1)
        assert tab.cdf(0.049) == 0.0
        assert tab.survival_geq(tab.points[0]) == 1.0

    def test_density_must_integrate_to_one(self):
        with pytest.raises(ValidationError):
            Tabulated(0.1, np.full(10, 0.5))

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError):
            Tabulated(0.1, [-0.1, 10.1])


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


class TestCombineEstimates:
    def test_inverse_variance_weighting(self, rng):
        from ttlnet.renewal import MonteCarloValue, combine_estimates

        a = MonteCarloValue(1.0, 0.1)
        b = MonteCarloValue(2.0, 0.2)
        merged = combine_estimates([a, b])
        assert_allclose(merged.value, (100 * 1.0 + 25 * 2.0) / 125, rtol=1e-12)
        assert_allclose(merged.stderr, math.sqrt(1 / 125), rtol=1e-12)

    def test_exact_estimate_wins(self):
        from ttlnet.renewal import MonteCarloValue, combine_estimates

        merged = combine_estimates([MonteCarloValue(0.5, 0.0), MonteCarloValue(0.7, 0.1)])
        assert merged == MonteCarloValue(0.5, 0.0)

    def test_pooled_min_transforms_tighten(self, rng):
        x, ts, tr, omega = Exponential(1.0), Deterministic(1.5), Exponential(1.0), 0.6
        parts = [
            transform_min(x, ts, tr, omega, samples=20_000, rng=np.random.default_rng(s))
            for s in (1, 2, 3)
        ]
        from ttlnet.renewal import combine_estimates

        merged = combine_estimates(parts)
        assert merged.stderr < min(p.stderr for p in parts)


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
        # under the tilted law the same value is reproduced termwise
        tilted = tilt(x, omega)
        tilted_sums = tilted.law.sample(rng, (200_000, t)).sum(axis=1)
        weights = np.full(tilted_sums.shape[0], lx**t)
        assert_allclose(weights.mean(), lx**t, rtol=1e-15)
