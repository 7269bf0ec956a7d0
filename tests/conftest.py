"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own computational paths:
dense numpy solves instead of the sparse factorization, scalar-loop
stopping-rule simulation instead of the vectorized estimators.
"""

import math

import numpy as np
import pytest

import ttlnet.renewal
from ttlnet import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    ProbabilityVector,
    RateMatrix,
    validate_map,
)


def random_map(rng, max_states: int = 4) -> MarkovArrivalProcess:
    """Random valid MAP with an irreducible background chain."""
    while True:
        n = int(rng.integers(1, max_states + 1))
        d1 = rng.uniform(0.05, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
        d0 = rng.uniform(0.05, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(d0, 0.0)
        # a hidden cycle keeps the background chain irreducible
        for i in range(n):
            d0[i, (i + 1) % n] += 0.3
        if d1.sum() == 0.0:
            d1[0, 0] = 1.0
        np.fill_diagonal(d0, 0.0)
        diag = -(d0.sum(axis=1) + d1.sum(axis=1))
        d0 = d0 + np.diag(diag)
        m = MarkovArrivalProcess(RateMatrix.from_dense(d0), RateMatrix.from_dense(d1))
        if validate_map(m).ok:
            return m


def random_ph(rng, max_order: int = 3) -> PhaseTypeDistribution:
    """Random PH distribution with absorption reachable from every phase."""
    m = int(rng.integers(1, max_order + 1))
    s = rng.uniform(0.05, 1.5, (m, m)) * (rng.random((m, m)) < 0.5)
    np.fill_diagonal(s, 0.0)
    exits = rng.uniform(0.2, 1.5, m)
    s = s - np.diag(s.sum(axis=1) + exits)
    pi = rng.dirichlet(np.ones(m))
    pi = pi / pi.sum()
    return PhaseTypeDistribution(RateMatrix.from_dense(s), ProbabilityVector(pi))


def dense_stationary(q: np.ndarray) -> np.ndarray:
    """Stationary vector via dense least squares on the full balance system."""
    n = q.shape[0]
    a = np.vstack([q.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def kron_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by the textbook nested-block definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            out[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb] = a[i, j] * b
    return out


def stopped_sum_oracle(rng, draw_x, policy_tag, draw_ttl, draw_ttl_r=None, n=20000):
    """Scalar-loop simulation of the eviction stopping rules.

    Returns (tau, s_tau, occupied) arrays; occupied is None except for the
    min policy. Independent of the vectorized estimators in the library.
    """
    taus = np.empty(n, dtype=np.int64)
    sums = np.empty(n)
    occupied = np.empty(n) if policy_tag == "MinSigmaR" else None
    for i in range(n):
        if policy_tag == "R":
            t = 0
            s = 0.0
            while True:
                t += 1
                x = draw_x(rng)
                s += x
                if x > draw_ttl(rng):
                    break
        elif policy_tag == "Sigma":
            ttl = draw_ttl(rng)
            t = 0
            s = 0.0
            while True:
                t += 1
                s += draw_x(rng)
                if s > ttl:
                    break
        else:
            ttl_sigma = draw_ttl(rng)
            t = 0
            s = 0.0
            inside = 0.0
            while True:
                t += 1
                x = draw_x(rng)
                tr = draw_ttl_r(rng)
                s += x
                inside += min(x, tr)
                if s > ttl_sigma or x > tr:
                    break
            occupied[i] = min(inside, ttl_sigma)
        taus[i] = t
        sums[i] = s
    return taus, sums, occupied


def mc_mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


@pytest.fixture(autouse=True)
def _fresh_renewal_cycles():
    """Forget the renewal engine's remembered cycles, so that a test which
    switches a route off (by monkeypatching) does not read a cycle an
    earlier test computed."""
    ttlnet.renewal._rest_cycle.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
