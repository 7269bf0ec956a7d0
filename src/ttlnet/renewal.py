"""Renewal-line cache analysis via exponential tilting of stopped sums.

A cache fed by a renewal request process X and an independent TTL process T
has inter-miss times distributed as the stopped sum S_tau = X_1 + ... +
X_tau, where the stopping rule depends on the policy:

* R (reset on request): stop at the first t with X_t > T_t.
* Sigma (reset on miss): stop at the first t with X_1 + ... + X_t > T_1.
* min(Sigma, R): the earlier of the two rules, with independent TTLs.

The Laplace transform of S_tau equals the expectation of L_omega(X)^tau
under the fractionally tilted measure that reweights only the law of X by
exp(-omega x) / L_omega(X) and leaves the TTL law untouched; X and T stay
independent under the tilt.

E[tau], the mean in-cache time and E[exp(-omega S_tau)] are three readings
of one cycle. R has closed forms for every law pair. For Sigma and
min(Sigma, R), `_cycle` is the one place that picks the route; the first row
that matches wins:

======  =============  ==========================  =========================
policy  requests X     TTL law(s)                  route
======  =============  ==========================  =========================
Sigma   Exponential    any                         closed form
Sigma   any            Exponential                 closed form (R's, by
                                                   memorylessness)
Sigma   Deterministic  Exponential, Erlang, Det.   deterministic requests
Sigma   Deterministic  Tabulated                   survival sum
Sigma   Erlang         Deterministic               delay equation
Sigma   Erlang         Erlang                      phase-type
min     Exponential    both Exponential            closed form
min     Deterministic  Exponential, Erlang, Det.   deterministic requests
min     Exp., Erlang   both Deterministic          delay equation
min     Exp., Erlang   both Exponential or Erlang  phase-type
======  =============  ==========================  =========================

Every other case (a Tabulated law, or Exponential/Erlang requests under min
with one Deterministic and one Exponential/Erlang TTL) falls back: E[tau] and
the occupancy run the stopping rule by Monte Carlo, the Sigma transform sums
a tilted convolution series and the min transform runs Monte Carlo under the
tilted measure. A route over its size limit falls back the same way, except
that Sigma with deterministic requests then takes the survival sum. The
routes:

* deterministic requests X = d: P(tau > k) = P(T_Sigma >= k d)
  P(T_R >= d)^k, a matrix-geometric sum for an Exponential or Erlang Sigma
  TTL and a finite sum for a deterministic one. Sigma is the case of an R
  TTL that never fires.
* delay equation: for Exponential or Erlang requests under Deterministic
  TTLs, the cached mass over request phases solves a linear delay equation,
  solved exactly by the method of steps with Van Loan block exponentials.
* phase-type (PH): Exponential and Erlang laws are PH, so the requests form
  a renewal MAP, `cache_ops` builds the cache's miss process exactly, and one
  sparse solve over one inter-miss interval of that process gives the cycle,
  as long as its chain has at most `network.DEFAULT_BUDGET` states. Near that
  budget a query takes about as long as the 1e6-sample Monte Carlo it
  replaces and up to about 100 MB for the chain and its factors, where the
  Monte Carlo needs about 30 MB.
* survival sum: E[tau] = sum over k >= 0 of P(T >= k d), term by term.

The two dense routes are millisecond-scale computations.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# scipy.linalg, scipy.sparse.linalg and scipy.special load in the functions
# that use them: `import ttlnet`, analyze and simulate need none of them.

from .cache_ops import output_min, output_sigma
from .errors import (
    ConvergenceError,
    DivergentStoppingTimeError,
    ValidationError,
)
from .kron import RateMatrix, _dot
from .network import DEFAULT_BUDGET
from .processes import MarkovArrivalProcess, PhaseTypeDistribution

__all__ = [
    "RenewalSpec",
    "Exponential",
    "Deterministic",
    "Erlang",
    "Tabulated",
    "TiltedDistribution",
    "StoppingPolicy",
    "MonteCarloValue",
    "RenewalHitMiss",
    "combine_estimates",
    "tilt",
    "transform_r",
    "transform_sigma",
    "transform_min",
    "hit_miss_renewal",
    "occupancy_renewal",
    "expected_stopped_sum",
    "expected_tau",
    "table1_reference",
]

_TAIL_EPS = 1e-9


class RenewalSpec:
    """One-dimensional inter-event (or TTL) distribution descriptor."""

    kind = "abstract"

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def laplace(self, omega: float) -> float:
        """Laplace transform E[exp(-omega X)]."""
        raise NotImplementedError

    def cdf(self, x):
        """P(X <= x); accepts scalars or arrays."""
        raise NotImplementedError

    def survival_geq(self, x):
        """P(X >= x), with atoms counted (matters for deterministic laws)."""
        raise NotImplementedError

    def sample(self, rng, size=None):
        raise NotImplementedError

    def truncation_point(self, eps: float) -> float:
        """Smallest x with P(X > x) <= eps."""
        raise NotImplementedError

    def integral_survival(self, x: float) -> float:
        """Integral of P(X > u) over u in [0, x]; equals E[min(X, x)]."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(RenewalSpec):
    rate: float
    kind = "exponential"

    def __post_init__(self):
        if self.rate <= 0:
            raise ValidationError("exponential rate must be positive")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def laplace(self, omega):
        return self.rate / (self.rate + omega)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.rate * np.exp(-self.rate * x), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-self.rate * x), 0.0)

    def survival_geq(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, np.exp(-self.rate * x))

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def truncation_point(self, eps):
        return -math.log(eps) / self.rate

    def integral_survival(self, x):
        return float(-np.expm1(-self.rate * x) / self.rate)


@dataclass(frozen=True)
class Deterministic(RenewalSpec):
    value: float
    kind = "deterministic"

    def __post_init__(self):
        if self.value <= 0:
            raise ValidationError("deterministic value must be positive")

    @property
    def mean(self) -> float:
        return self.value

    def laplace(self, omega):
        return math.exp(-omega * self.value)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)

    def survival_geq(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.value, 1.0, 0.0)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def truncation_point(self, eps):
        return self.value

    def integral_survival(self, x):
        return min(x, self.value)


@dataclass(frozen=True)
class Erlang(RenewalSpec):
    stages: int
    rate: float
    kind = "erlang"

    def __post_init__(self):
        if self.stages < 1:
            raise ValidationError("erlang needs at least one stage")
        if self.rate <= 0:
            raise ValidationError("erlang rate must be positive")

    @property
    def mean(self) -> float:
        return self.stages / self.rate

    def laplace(self, omega):
        return (self.rate / (self.rate + omega)) ** self.stages

    def pdf(self, x):
        # in log space: rate**stages and x**(stages-1) overflow for many stages
        from scipy.special import gammaln, xlogy

        y = self.rate * np.asarray(x, dtype=float)
        k = self.stages
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.rate * np.exp(xlogy(k - 1, y) - y - gammaln(k))
        return np.where(y >= 0, out, 0.0)

    def cdf(self, x):
        from scipy.special import gammainc

        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, gammainc(self.stages, self.rate * x), 0.0)

    def survival_geq(self, x):
        from scipy.special import gammaincc

        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, gammaincc(self.stages, self.rate * x))

    def sample(self, rng, size=None):
        return rng.gamma(self.stages, 1.0 / self.rate, size)

    def truncation_point(self, eps):
        from scipy.special import gammainccinv

        return float(gammainccinv(self.stages, eps)) / self.rate

    def integral_survival(self, x):
        from scipy.special import gammainc

        js = np.arange(1, self.stages + 1)
        return float(np.sum(gammainc(js, self.rate * x))) / self.rate


@dataclass(frozen=True, eq=False)
class Tabulated(RenewalSpec):
    """Density sampled on a uniform grid; cell i covers [i*step, (i+1)*step)
    with its probability mass placed at the cell midpoint."""

    step: float
    density: np.ndarray
    kind = "tabulated"

    def __init__(self, step: float, density):
        if step <= 0:
            raise ValidationError("grid step must be positive")
        values = np.asarray(density, dtype=np.float64).copy()
        if values.ndim != 1 or values.size == 0:
            raise ValidationError("density must be a nonempty one-dimensional array")
        if np.any(values < 0):
            raise ValidationError("density values must be nonnegative")
        total = values.sum() * step
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"tabulated density integrates to {total!r}, not 1")
        values.flags.writeable = False
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "density", values)

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.density.size) + 0.5) * self.step

    @property
    def masses(self) -> np.ndarray:
        m = self.density * self.step
        return m / m.sum()

    @property
    def mean(self) -> float:
        return float(np.dot(self.points, self.masses))

    def laplace(self, omega):
        return float(np.dot(np.exp(-omega * self.points), self.masses))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        idx = np.searchsorted(self.points, x, side="right")
        return cum[idx]

    def survival_geq(self, x):
        x = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        idx = np.searchsorted(self.points, x, side="left")
        return 1.0 - cum[idx]

    def sample(self, rng, size=None):
        return rng.choice(self.points, size=size, p=self.masses)

    def truncation_point(self, eps):
        tail = 1.0 - np.cumsum(self.masses)
        idx = int(np.searchsorted(-tail, -eps))
        idx = min(idx, self.density.size - 1)
        return float(self.points[idx])

    def integral_survival(self, x):
        # survival is a step function dropping at each atom
        pts, masses = self.points, self.masses
        surv_left = 1.0 - np.concatenate([[0.0], np.cumsum(masses)[:-1]])
        prev = np.concatenate([[0.0], pts[:-1]])
        seg = np.minimum(pts, x) - np.minimum(prev, x)
        return float(np.dot(np.clip(seg, 0.0, None), surv_left))

    def __eq__(self, other):
        if not isinstance(other, Tabulated):
            return NotImplemented
        return self.step == other.step and np.array_equal(self.density, other.density)

    def __hash__(self):
        return hash((self.step, self.density.tobytes()))


@dataclass(frozen=True)
class TiltedDistribution:
    """Exponentially tilted inter-request law.

    `law` carries the tilted distribution itself (density proportional to
    exp(-omega x) times the base density), `lx` the normalizer
    L_omega(base). Tilting at omega = 0 returns the base law unchanged, and
    TTL laws are never tilted.
    """

    base: RenewalSpec
    omega: float
    lx: float
    law: RenewalSpec


def tilt(x: RenewalSpec, omega: float) -> TiltedDistribution:
    """Tilt the law of X by exp(-omega x); the normalizer is L_omega(X)."""
    if omega < 0:
        raise ValidationError("tilting requires omega >= 0")
    if isinstance(x, Exponential):
        return TiltedDistribution(x, omega, x.laplace(omega), Exponential(x.rate + omega))
    if isinstance(x, Deterministic):
        return TiltedDistribution(x, omega, x.laplace(omega), x)
    if isinstance(x, Erlang):
        return TiltedDistribution(
            x, omega, x.laplace(omega), Erlang(x.stages, x.rate + omega)
        )
    if isinstance(x, Tabulated):
        weights = np.exp(-omega * x.points) * x.density
        lx = float(weights.sum() * x.step)
        if lx <= 0:
            raise ValidationError("tilted density has no mass")
        return TiltedDistribution(x, omega, x.laplace(omega), Tabulated(x.step, weights / lx))
    raise ValidationError(f"unsupported distribution kind: {x!r}")


@dataclass(frozen=True)
class StoppingPolicy:
    """Eviction rule plus its TTL law(s): tag R, Sigma, or MinSigmaR."""

    tag: str
    ttl: RenewalSpec | None = None
    ttl_sigma: RenewalSpec | None = None
    ttl_r: RenewalSpec | None = None

    def __post_init__(self):
        if self.tag in ("R", "Sigma"):
            if self.ttl is None or self.ttl_sigma is not None or self.ttl_r is not None:
                raise ValidationError(f"policy {self.tag} carries exactly one TTL spec")
        elif self.tag == "MinSigmaR":
            if self.ttl is not None or self.ttl_sigma is None or self.ttl_r is None:
                raise ValidationError("policy MinSigmaR carries exactly two TTL specs")
        else:
            raise ValidationError(f"unknown policy tag {self.tag!r}")

    @classmethod
    def reset_on_request(cls, ttl: RenewalSpec) -> "StoppingPolicy":
        return cls("R", ttl=ttl)

    @classmethod
    def reset_on_miss(cls, ttl: RenewalSpec) -> "StoppingPolicy":
        return cls("Sigma", ttl=ttl)

    @classmethod
    def min_of(cls, ttl_sigma: RenewalSpec, ttl_r: RenewalSpec) -> "StoppingPolicy":
        return cls("MinSigmaR", ttl_sigma=ttl_sigma, ttl_r=ttl_r)


class MonteCarloValue(NamedTuple):
    value: float
    stderr: float


def combine_estimates(estimates) -> MonteCarloValue:
    """Merge independent Monte-Carlo estimates by inverse-variance weighting.

    An estimate with stderr 0 is exact and is returned as-is.
    """
    estimates = list(estimates)
    if not estimates:
        raise ValidationError("no estimates to combine")
    for est in estimates:
        if est.stderr == 0.0:
            return est
    weights = [1.0 / est.stderr**2 for est in estimates]
    total = sum(weights)
    value = sum(w * est.value for w, est in zip(weights, estimates)) / total
    return MonteCarloValue(value, math.sqrt(1.0 / total))


@dataclass(frozen=True)
class RenewalHitMiss:
    hit: float
    miss: float
    stderr: float | None = None


class _Cycle(NamedTuple):
    """One inter-miss cycle: E[tau], the mean in-cache time and
    E[exp(-omega S_tau)].

    Read `tau` and `in_cache` only from a cycle built at omega = 0: the PH
    route's state occupation is discounted by exp(-omega t), so at omega > 0
    its two are discounted as well.
    """

    tau: float
    in_cache: float
    transform: float


# A TTL that never fires: Sigma is min(Sigma, R) with it as R, and R with it as Sigma.
_NEVER = Deterministic(math.inf)


def _cycle(x: RenewalSpec, policy: StoppingPolicy, omega: float) -> _Cycle | None:
    """One Sigma or min(Sigma, R) cycle by the first exact route of the
    module docstring's table, or None where the table falls back."""
    if policy.tag == "Sigma":
        t_sigma, t_r = policy.ttl, _NEVER
        if isinstance(x, Exponential):
            lam = x.rate
            return _Cycle(
                1.0 + lam * t_sigma.mean, t_sigma.mean, t_sigma.laplace(omega) * lam / (lam + omega)
            )
        if isinstance(t_sigma, Exponential):
            psi = x.laplace(omega + t_sigma.rate)
            return _Cycle(
                1.0 / (1.0 - x.laplace(t_sigma.rate)),
                t_sigma.mean,
                (x.laplace(omega) - psi) / (1.0 - psi),
            )
    else:
        t_sigma, t_r = policy.ttl_sigma, policy.ttl_r
        if all(isinstance(law, Exponential) for law in (x, t_sigma, t_r)):
            lam, rate = x.rate, t_sigma.rate + t_r.rate
            return _Cycle(1.0 + lam / rate, 1.0 / rate, lam / (lam + omega) * rate / (rate + omega))
    cycle = _deterministic_route(x, t_sigma, t_r, omega)
    if cycle is None and policy.tag == "Sigma" and isinstance(x, Deterministic):
        cycle = _sigma_deterministic_requests(x, t_sigma, omega)
    return cycle if cycle is not None else _ph_cycle(x, policy, omega)


@functools.lru_cache(maxsize=8)
def _rest_cycle(x: RenewalSpec, policy: StoppingPolicy) -> _Cycle | None:
    """`_cycle` at omega = 0, kept for the last few queries: `expected_tau`
    and `occupancy_renewal` of one query read the same cycle, and on the
    phase-type route building it builds and factors the miss chain."""
    return _cycle(x, policy, 0.0)


def _as_ph(law: RenewalSpec) -> PhaseTypeDistribution | None:
    if isinstance(law, Exponential):
        return PhaseTypeDistribution.exponential(law.rate)
    if isinstance(law, Erlang):
        return PhaseTypeDistribution.erlang(law.stages, law.rate)
    return None


def _ph_cycle(x: RenewalSpec, policy: StoppingPolicy, omega: float) -> _Cycle | None:
    """The cycle from the discounted state occupation of the exact miss chain.

    Exponential and Erlang laws are phase-type: requests with a PH(alpha, S)
    law form the renewal MAP (S, s alpha), s the exit vector, and the MAP
    engine builds the cache's miss process (D0', D1') exactly (TTL order as
    in `StoppingPolicy.min_of`). Every miss restarts the request law and the
    TTL, so misses are regeneration points: every row of D1' is a multiple
    of one vector, the initial vector phi of the next inter-miss interval,
    and phi is proportional to p' D1' whatever the stationary vector p' is.
    One sparse solve gives z = phi (omega I - D0')^{-1}. Entry i of z is the
    expected time spent in state i during one inter-miss interval S,
    discounted by exp(-omega t); so at omega = 0, z 1 = E[S] = E[tau] E[X]
    (Wald) and the sum of z over the IN states is the in-cache time, and
    z D1' 1 = E[exp(-omega S)].

    Returns None, building nothing, when a law is not PH or the miss chain
    would exceed `DEFAULT_BUDGET` states.
    """
    from scipy.sparse.linalg import splu

    ttls = (policy.ttl,) if policy.ttl is not None else (policy.ttl_sigma, policy.ttl_r)
    phs = [_as_ph(law) for law in (x, *ttls)]
    if any(ph is None for ph in phs):
        return None
    ph_x, *ph_ttls = phs
    n = ph_x.order
    if n * (math.prod(t.order for t in ph_ttls) + 1) > DEFAULT_BUDGET:
        return None
    exits = np.flatnonzero(ph_x.exit_rates)
    starts = np.flatnonzero(ph_x.pi.entries)
    d1 = RateMatrix.from_arrays(
        n,
        n,
        np.repeat(exits, starts.size),
        np.tile(starts, exits.size),
        np.outer(ph_x.exit_rates[exits], ph_x.pi.entries[starts]).ravel(),
    )
    m = MarkovArrivalProcess(ph_x.s, d1)
    out = (output_sigma if policy.tag == "Sigma" else output_min)(m, *ph_ttls)
    phi = np.asarray(out.map.d1.to_csr().sum(axis=0)).ravel()
    a = omega * sp.identity(out.order, format="csr") - out.map.d0.to_csr()
    # In the cache_ops state order (OUT block, then Sigma phase, R phase and
    # request phase, outermost first) Erlang phases only move forward; the
    # only moves back are evictions into the OUT block and hits, which return
    # to the first state of their Sigma phase. Eliminating the OUT block and
    # then the IN block, each in reverse, adds at most a few fill entries per
    # state, and a^T is column diagonally dominant, so SuperLU keeps that
    # order without pivoting (a fill-reducing ordering such as COLAMD does not
    # see the structure and filled up to 1 GB near the budget).
    n = len(out.out_states)
    order = np.concatenate([np.arange(n)[::-1], np.arange(n, out.order)[::-1]])
    lu = splu(a[order][:, order].T, permc_spec="NATURAL")
    z = np.empty(out.order)
    z[order] = lu.solve(phi[order] / phi.sum())
    transform = _dot(z, out.map.d1.row_sums())
    return _Cycle(float(z.sum()) / x.mean, float(z[n:].sum()), float(transform))


# Largest dense matrix the deterministic-law routes exponentiate or factor:
# an `expm` of this size takes tens of ms (2-vCPU host), a fraction of the
# 1e6-sample Monte Carlo (about 0.1 s a call) that larger cases keep.
_DENSE_MAX = 200
# Most steps the finite sums for deterministic requests take; the Monte Carlo
# would need as many rounds per replication.
_MAX_STEPS = 1_000_000
# Cached mass below which the method of steps stops.
_MASS_EPS = 1e-15


def _expm_integral(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{a h} and the integral of e^{a t} b over t in [0, h], from one block
    exponential (Van Loan 1978, "Computing integrals involving the matrix
    exponential")."""
    from scipy.linalg import expm

    n, k = b.shape
    block = np.zeros((n + k, n + k))
    block[:n, :n] = a
    block[:n, n:] = b
    e = expm(block * h)
    return e[:n, :n], e[:n, n:]


def _ph_arrays(law: RenewalSpec) -> tuple[np.ndarray, np.ndarray]:
    ph = _as_ph(law)
    return ph.pi.entries, ph.s.to_dense()


def _deterministic_route(
    x: RenewalSpec, t_sigma: RenewalSpec, t_r: RenewalSpec, omega: float
) -> _Cycle | None:
    """The deterministic-requests and delay-equation routes, or None.

    Sigma passes t_r = `_NEVER`. Returns None for the laws these routes do
    not cover, where a dense block would exceed `_DENSE_MAX` states and where
    the finite sums would exceed `_MAX_STEPS` terms.
    """
    ttls = (t_sigma, t_r)
    if isinstance(x, Deterministic) and all(
        isinstance(t, (Exponential, Erlang, Deterministic)) for t in ttls
    ):
        return _deterministic_requests(x.value, t_sigma, t_r, omega)
    if isinstance(x, (Exponential, Erlang)) and all(isinstance(t, Deterministic) for t in ttls):
        return _deterministic_ttls(x, t_sigma.value, t_r.value, omega)
    return None


def _deterministic_requests(
    d: float, t_sigma: RenewalSpec, t_r: RenewalSpec, omega: float
) -> _Cycle | None:
    """Requests X = d under min(Sigma, R).

    Step k + 1 starts with the object cached with probability
    P(tau > k) = P(T_Sigma >= k d) p_r^k, p_r = P(T_R >= d), and holds it
    for min(d, T_R, T_Sigma - k d); S_tau = tau d. A PH T_Sigma (alpha, S)
    gives, with E = e^{S d} and z = e^{-omega d}, E[tau] =
    alpha (I - p_r E)^{-1} 1, E[z^tau] = z alpha (I - z p_r E)^{-1}
    (I - p_r E) 1 and in-cache time (alpha (I - p_r E)^{-1} (x) alpha_R)
    int_0^d e^{(S (+) S_R) v} dv 1. A Deterministic T_Sigma makes these
    finite sums over `survival_geq(k d)`, with the ties of
    `_sigma_deterministic_requests`: a request at exactly the TTL is a hit.
    """
    from scipy.linalg import expm

    p_r = float(t_r.survival_geq(d))
    z = math.exp(-omega * d)
    if isinstance(t_sigma, Deterministic):
        steps = math.floor(t_sigma.value / d) + 3
        if steps > _MAX_STEPS:
            return None
        k = np.arange(steps)
        cached = t_sigma.survival_geq(k * d)
        alive = cached * p_r**k  # P(tau > k); the last entries are 0
        last = int(cached.sum()) - 1  # the step that T_Sigma cuts short
        full = t_r.integral_survival(d)
        cut = t_r.integral_survival(min(d, t_sigma.value - last * d))
        in_cache = full * alive[:last].sum() + cut * alive[last]
        transform = float(z ** k[1:] @ (alive[:-1] - alive[1:]))
        return _Cycle(float(alive.sum()), float(in_cache), transform)
    alpha, s_sigma = _ph_arrays(t_sigma)
    if isinstance(t_r, Deterministic):
        # T_R > v for every v < c_R: one phase that never leaves, up to c_R
        alpha_r, s_r, horizon = np.ones(1), np.zeros((1, 1)), min(d, t_r.value)
    else:
        alpha_r, s_r = _ph_arrays(t_r)
        horizon = d
    n, n_r = alpha.size, alpha_r.size
    if n * n_r > _DENSE_MAX:
        return None
    e = expm(s_sigma * d)
    eye, ones = np.eye(n), np.ones(n)
    w = np.linalg.solve((eye - p_r * e).T, alpha)  # alpha (I - p_r E)^{-1}
    transform = z * alpha @ np.linalg.solve(eye - z * p_r * e, ones - p_r * e @ ones)
    kron_sum = np.kron(s_sigma, np.eye(n_r)) + np.kron(eye, s_r)
    _, held = _expm_integral(kron_sum, np.ones((n * n_r, 1)), horizon)
    return _Cycle(float(w.sum()), float(np.kron(w, alpha_r) @ held[:, 0]), float(transform))


def _deterministic_ttls(
    x: RenewalSpec, c_sigma: float, c_r: float, omega: float
) -> _Cycle | None:
    """PH(alpha, S) requests under Deterministic TTLs; c_r = inf for Sigma.

    The object is evicted at E, the earlier of c_sigma and the first time
    the gap since the miss or the last request reaches c_r; tau = 1 + N(E),
    the in-cache time is E, and S_tau is the first request after E. With
    s = -S 1, Q = S + s alpha and beta = alpha e^{S c_r}, the cached mass
    y(u) over request phases solves the linear delay equation y(0) = alpha,
    y' = y Q, a jump of -beta at u = c_r and y'(u) = y(u) Q -
    (y(u - c_r) s) beta after c_r (a request at u - c_r followed by none
    evicts at u). Then E[tau] = 1 + int y s and the in-cache time is
    int y 1. Sigma is the one-block case, E[tau] = 1 + alpha
    int_0^c e^{Q u} du s.
    """
    from scipy.linalg import expm

    alpha, s_mat = _ph_arrays(x)
    n = alpha.size
    s = -s_mat.sum(axis=1)
    q = s_mat + np.outer(s, alpha)
    steps, rest = divmod(c_sigma, c_r)  # R windows that close before c_sigma
    steps, beta = int(steps), None
    if steps:
        e_r = expm(s_mat * c_r)
        beta = alpha @ e_r
        # A window of length c_r without a request evicts, so the mass still
        # cached after j windows is at most rho^j, rho the largest chance over
        # the phases of a request within c_r.
        rho = 1.0 - e_r.sum(axis=1).min()
        if rho < 1.0:
            needed = math.ceil(math.log(_MASS_EPS) / math.log(rho)) if rho > 0.0 else 1
            if needed < steps:
                steps, rest = needed, 0.0
    if n * (steps + 1) > _DENSE_MAX:
        return None
    y_end, (hits, in_cache) = _delay_steps(alpha, q, s, beta, c_r, steps, rest, 0.0)
    transform = 1.0
    if omega > 0.0:
        # The same equation for e^{-omega u} y(u). S_tau - E is PH(., S) from
        # the phase at E, with transform phi; an R eviction leaves the phase
        # law beta / (beta 1), and by the mass balance of the discounted
        # equation the discounted mass R evicts is 1 - y(end) 1 - omega int y 1.
        y_end, (_, held) = _delay_steps(alpha, q, s, beta, c_r, steps, rest, omega)
        phi = np.linalg.solve(omega * np.eye(n) - s_mat, s)
        transform = float(y_end @ phi)
        if steps and beta.sum() > 0.0:
            transform += float(beta @ phi / beta.sum()) * (1.0 - y_end.sum() - omega * held)
    return _Cycle(1.0 + float(hits), float(in_cache), float(transform))


def _delay_steps(alpha, q, s, beta, c_r, steps, rest, omega):
    """Method of steps for y~(u) = e^{-omega u} y(u) on [0, steps c_r + rest].

    Block j of the stacked state holds y~(j c_r + t) for t in [0, c_r] (the
    last block only up to `rest`), so the stacked state solves Y' = Y G
    with G block upper bidiagonal: Q - omega I on the diagonal and
    -e^{-omega c_r} s beta above it. Block j starts where block j - 1 ends,
    less the jump for j = 1; G is triangular, so the starts follow block by
    block from one exponential. Returns y~ at the end of the horizon and the
    integrals of y~ s and y~ 1 over it.
    """
    n = alpha.size
    blocks = steps + 1
    g = np.kron(np.eye(blocks), q - omega * np.eye(n))
    if steps:
        g -= np.kron(np.eye(blocks, k=1), math.exp(-omega * c_r) * np.outer(s, beta))
    w = np.column_stack([np.tile(s, blocks), np.ones(n * blocks)])
    e_rest, held_rest = _expm_integral(g, w, rest)
    y0 = np.zeros(n * blocks)
    y0[:n] = alpha
    if steps:
        w[-n:] = 0.0  # the last block ends at the horizon
        e_tail, held_tail = _expm_integral(g, w, c_r - rest)
        window = e_rest @ e_tail
        for j in range(1, blocks):
            y0[j * n : (j + 1) * n] = y0[: j * n] @ window[: j * n, (j - 1) * n : j * n]
            if j == 1:
                y0[n : 2 * n] -= math.exp(-omega * c_r) * beta
    y_rest = y0 @ e_rest
    held = y0 @ held_rest
    if steps:
        held += y_rest @ held_tail
    return y_rest[-n:], held


def _psi(x: RenewalSpec, t: RenewalSpec, omega: float) -> float:
    """E[exp(-omega X) 1{X <= T}], the weight of in-cache requests."""
    if isinstance(x, Deterministic):
        return math.exp(-omega * x.value) * float(t.survival_geq(x.value))
    if isinstance(t, Exponential):
        return x.laplace(omega + t.rate)
    if isinstance(t, Deterministic):
        tilted = tilt(x, omega)
        return tilted.lx * float(tilted.law.cdf(t.value))
    if isinstance(t, Tabulated):
        tilted = tilt(x, omega)
        return tilted.lx * float(np.dot(t.masses, tilted.law.cdf(t.points)))
    if isinstance(x, Exponential):
        # lam * integral of e^{-(lam+omega) u} P(T >= u) du over u >= 0
        rate = x.rate + omega
        return x.rate * (1.0 - t.laplace(rate)) / rate
    if isinstance(x, Tabulated):
        return float(
            np.dot(np.exp(-omega * x.points) * x.masses, t.survival_geq(x.points))
        )
    # Erlang(k, a) under Erlang(m, b): the tilted X is Erlang(k, a + omega) and
    # ends first iff k of its events come before m of T's in the merged Poisson
    # streams, a negative binomial CDF
    from scipy.special import nbdtr

    rate = x.rate + omega
    return x.laplace(omega) * float(nbdtr(t.stages - 1, x.stages, rate / (rate + t.rate)))


def transform_r(x: RenewalSpec, t: RenewalSpec, omega: float) -> float:
    """Laplace transform of the inter-miss time of a reset-on-request cache.

    Evaluates (L_omega(X) - psi) / (1 - psi) with psi = E[e^{-omega X}
    1{X <= T}]; requires psi < 1.
    """
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    psi = _psi(x, t, omega)
    if psi >= 1.0:
        raise DivergentStoppingTimeError(
            "psi(omega) >= 1: requests never outlast the TTL, the cache never misses"
        )
    return (x.laplace(omega) - psi) / (1.0 - psi)


def _discretize_cell_masses(law: RenewalSpec, step: float, n_cells: int) -> np.ndarray:
    """Probability mass of [i*step, (i+1)*step) for i < n_cells (midpoint atoms)."""
    if isinstance(law, Tabulated):
        if not math.isclose(law.step, step):
            raise ValidationError("tabulated law must share the evaluation grid step")
        masses = law.masses
        if masses.size >= n_cells:
            return masses[:n_cells].copy()
        return np.concatenate([masses, np.zeros(n_cells - masses.size)])
    edges = np.arange(n_cells + 1) * step
    return np.diff(law.cdf(edges))


def _ttl_weights(t: RenewalSpec, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation points and weights representing the (untilted) TTL law."""
    if isinstance(t, Deterministic):
        return np.array([t.value]), np.array([1.0])
    if isinstance(t, Tabulated):
        return t.points, t.masses
    upper = t.truncation_point(_TAIL_EPS)
    n_cells = max(1, int(math.ceil(upper / step)))
    weights = _discretize_cell_masses(t, step, n_cells)
    total = weights.sum()
    if total <= 0:
        raise ValidationError("TTL law has no representable mass")
    points = (np.arange(n_cells) + 0.5) * step
    return points, weights / total


def transform_sigma(x: RenewalSpec, t: RenewalSpec, omega: float, method: str = "auto") -> float:
    """Laplace transform of the inter-miss time of a reset-on-miss cache.

    method="auto" takes the exact route of the module docstring's table
    where there is one. Elsewhere, and always with method="series", the
    value is the series sum over t >= 1 of L_omega(X)^t times the
    tilted-measure probability that exactly t requests fit inside one TTL,
    evaluated on a uniform grid (step mean(X)/200, or the grid of Tabulated
    requests) with tilted convolution powers and truncated once the
    geometric tail bound drops below `_SERIES_TOL`.
    """
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    if method not in ("auto", "series"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "auto":
        cycle = _cycle(x, StoppingPolicy.reset_on_miss(t), omega)
        if cycle is not None:
            return cycle.transform
    return _sigma_series(x, t, omega)


# Tail bound at which the Sigma series stops, and its most terms.
_SERIES_TOL = 1e-10
_SERIES_MAX_TERMS = 100_000


def _sigma_deterministic_requests(x: Deterministic, t: RenewalSpec, omega: float) -> _Cycle:
    """Sigma with requests X = d by the survival sum: P(tau > k) = P(T >= k d)
    and S_tau = tau d, summed in blocks of `_MC_BLOCK` terms up to the point
    where P(T >= k d) <= `_MASS_EPS`."""
    d = x.value
    terms = math.floor(t.truncation_point(_MASS_EPS) / d) + 2
    tau = transform = 0.0
    for lo in range(0, terms, _MC_BLOCK):
        k = np.arange(lo, min(lo + _MC_BLOCK, terms) + 1)
        alive = t.survival_geq(k * d)
        tau += float(alive[:-1].sum())
        transform += float(np.exp(-omega * d * k[1:]) @ (alive[:-1] - alive[1:]))
    return _Cycle(tau, t.mean, transform)


def _sigma_series(x: RenewalSpec, t: RenewalSpec, omega: float) -> float:
    tilted = tilt(x, omega)
    lx = tilted.lx
    if isinstance(tilted.law, Deterministic):
        return _sigma_deterministic_requests(tilted.law, t, omega).transform
    step = x.step if isinstance(x, Tabulated) else x.mean / 200.0
    import scipy.signal  # deferred: the only user, and slow to import

    points, weights = _ttl_weights(t, step)
    x_max = float(points.max())
    n_cells = max(1, int(math.ceil(x_max / step)) + 1)
    q = _discretize_cell_masses(tilted.law, step, n_cells)
    conv = q.copy()
    prev_vals = np.ones_like(points)
    total = 0.0
    cum = 0.0
    for term_idx in range(1, _SERIES_MAX_TERMS + 1):
        centers = (np.arange(conv.size) + 0.5 * term_idx) * step
        cdf_vals = np.interp(points, centers, np.cumsum(conv), left=0.0)
        term = float(np.dot(weights, np.clip(prev_vals - cdf_vals, 0.0, None)))
        total += lx**term_idx * term
        cum += term
        if lx ** (term_idx + 1) * max(0.0, 1.0 - cum) < _SERIES_TOL:
            return total
        prev_vals = cdf_vals
        conv = scipy.signal.convolve(conv, q)[:n_cells]
        np.clip(conv, 0.0, None, out=conv)
    raise ConvergenceError(
        f"series did not reach tolerance {_SERIES_TOL:g} within {_SERIES_MAX_TERMS} terms"
    )


# Replications simulated together. The per-round temporaries grow with the
# block (about 70 MB for 1e6 replications at once); blocks of this size keep
# them to a few MB.
_MC_BLOCK = 1 << 16


def _simulate_stopping(
    x_law: RenewalSpec,
    policy: StoppingPolicy,
    n: int,
    rng,
    max_rounds: int = 10_000_000,
):
    """Replications of the stopping rules, vectorized over blocks of `_MC_BLOCK`.

    Returns (tau, s_tau, occupied) arrays; `occupied` is the in-cache time
    min(sum of min(X_s, T^R_s), T^Sigma).
    """
    tau = np.empty(n, dtype=np.int64)
    s_tau = np.empty(n)
    occupied = np.empty(n)
    for lo in range(0, n, _MC_BLOCK):
        block = slice(lo, min(lo + _MC_BLOCK, n))
        tau[block], s_tau[block], occupied[block] = _simulate_block(
            x_law, policy, block.stop - lo, rng, max_rounds
        )
    return tau, s_tau, occupied


def _simulate_block(x_law: RenewalSpec, policy: StoppingPolicy, n: int, rng, max_rounds: int):
    """One block of the min(Sigma, R) stopping rule; a timer a policy lacks is
    `_NEVER`, whose draws take no random numbers."""
    t_sigma, t_r = {
        "R": (_NEVER, policy.ttl),
        "Sigma": (policy.ttl, _NEVER),
        "MinSigmaR": (policy.ttl_sigma, policy.ttl_r),
    }[policy.tag]
    tau = np.zeros(n, dtype=np.int64)
    s_tau = np.zeros(n)
    occupied = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    ttl_total = t_sigma.sample(rng, n)
    rounds = 0
    while alive.any():
        rounds += 1
        if rounds > max_rounds:
            raise ConvergenceError("stopping-rule simulation exceeded the round cap")
        idx = np.nonzero(alive)[0]
        xs = x_law.sample(rng, idx.size)
        s_tau[idx] += xs
        tau[idx] += 1
        tr = t_r.sample(rng, idx.size)
        occupied[idx] += np.minimum(xs, tr)
        stopped = (s_tau[idx] > ttl_total[idx]) | (xs > tr)
        alive[idx[stopped]] = False
    return tau, s_tau, np.minimum(occupied, ttl_total)


def transform_min(
    x: RenewalSpec,
    t_sigma: RenewalSpec,
    t_r: RenewalSpec,
    omega: float,
    samples: int = 1_000_000,
    rng=None,
) -> MonteCarloValue:
    """Laplace transform of the inter-miss time of a min(Sigma, R) cache.

    Exact (stderr 0) where the module docstring's table has a route.
    Otherwise the value E-tilde[L_omega(X)^tau] is estimated by Monte Carlo:
    inter-request times are drawn from the tilted law, both TTLs from their
    original laws, and the stopping rule of the min policy is applied
    literally.
    """
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    policy = StoppingPolicy.min_of(t_sigma, t_r)
    cycle = _cycle(x, policy, omega)
    if cycle is not None:
        return MonteCarloValue(cycle.transform, 0.0)
    if samples < 10_000:
        raise ValidationError("transform_min needs at least 1e4 samples")
    rng = np.random.default_rng() if rng is None else rng
    tilted = tilt(x, omega)
    tau, _, _ = _simulate_stopping(tilted.law, policy, samples, rng)
    values = tilted.lx ** tau.astype(np.float64)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return MonteCarloValue(mean, stderr)


def expected_tau(
    x: RenewalSpec,
    policy: StoppingPolicy,
    samples: int = 1_000_000,
    rng=None,
) -> MonteCarloValue:
    """Mean number of requests per miss cycle, E[tau].

    Exact (stderr 0) for R, geometric with success probability P(X > T), and
    where the module docstring's table has a route; otherwise the literal
    stopping rule is run by Monte Carlo (stderr reported).
    """
    if policy.tag == "R":
        p_miss = 1.0 - _psi(x, policy.ttl, 0.0)
        if p_miss <= 0.0:
            raise DivergentStoppingTimeError(
                "P(X > T) = 0: the TTL structurally never expires before a request"
            )
        return MonteCarloValue(1.0 / p_miss, 0.0)
    cycle = _rest_cycle(x, policy)
    if cycle is not None:
        return MonteCarloValue(cycle.tau, 0.0)
    rng = np.random.default_rng() if rng is None else rng
    tau, _, _ = _simulate_stopping(x, policy, samples, rng)
    mean = float(tau.mean())
    stderr = float(tau.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return MonteCarloValue(mean, stderr)


def hit_miss_renewal(
    x: RenewalSpec,
    policy: StoppingPolicy,
    samples: int = 1_000_000,
    rng=None,
) -> RenewalHitMiss:
    """Hit and miss probabilities: M = 1 / E[tau], H = 1 - M."""
    est = expected_tau(x, policy, samples, rng)
    miss = 1.0 / est.value
    stderr = None if est.stderr == 0.0 else est.stderr / est.value**2
    return RenewalHitMiss(hit=1.0 - miss, miss=miss, stderr=stderr)


def expected_stopped_sum(
    x: RenewalSpec,
    policy: StoppingPolicy,
    samples: int = 1_000_000,
    rng=None,
) -> float:
    """Mean inter-miss time E[S_tau] = E[tau] E[X] (Wald's identity)."""
    return expected_tau(x, policy, samples, rng).value * x.mean


def _expected_min(x: RenewalSpec, t: RenewalSpec) -> float:
    """E[min(X, T)] for independent X and T."""
    if isinstance(x, Exponential) and isinstance(t, Exponential):
        return 1.0 / (x.rate + t.rate)
    if isinstance(x, Deterministic):
        return t.integral_survival(x.value)
    if isinstance(t, Deterministic):
        return x.integral_survival(t.value)
    if isinstance(x, Tabulated):
        return float(sum(m * t.integral_survival(p) for m, p in zip(x.masses, x.points)))
    if isinstance(t, Tabulated):
        return float(sum(m * x.integral_survival(p) for m, p in zip(t.masses, t.points)))
    if isinstance(x, Exponential):
        # E[integral of e^{-lam u} over [0, T]]
        return (1.0 - t.laplace(x.rate)) / x.rate
    # Erlang(k, a) against Erlang(m, b), m = 1 for an Exponential TTL: X has a
    # Binomial(n, p) share of the first n events of the merged Poisson streams
    # (rate a + b), p = a / (a + b), and min(X, T) outlasts event n iff X has
    # fewer than k of them and T fewer than m
    from scipy.special import bdtr

    k, a = x.stages, x.rate
    m, b = (t.stages, t.rate) if isinstance(t, Erlang) else (1, t.rate)
    n = np.arange(k + m - 1)
    p = a / (a + b)

    def at_most(j):  # P(Binomial(n, p) <= j)
        return np.where(j < 0, 0.0, bdtr(np.clip(j, 0, n), n, p))

    return float(np.sum(at_most(k - 1) - at_most(n - m))) / (a + b)


def occupancy_renewal(
    x: RenewalSpec,
    policy: StoppingPolicy,
    samples: int = 1_000_000,
    rng=None,
) -> float:
    """Long-run fraction of time the object is cached.

    R: E[min(X, T)] / E[X]. Sigma and min(Sigma, R): the mean in-cache time
    of a cycle over E[tau] E[X], exact where the module docstring's table has
    a route; otherwise estimated by simulating the stopped sequence (a Sigma
    cache holds the object for the whole TTL of each cycle).
    """
    if policy.tag == "R":
        return _expected_min(x, policy.ttl) / x.mean
    cycle = _rest_cycle(x, policy)
    if cycle is not None:
        return cycle.in_cache / (cycle.tau * x.mean)
    rng = np.random.default_rng() if rng is None else rng
    tau, s_tau, occupied = _simulate_stopping(x, policy, samples, rng)
    if policy.tag == "Sigma":
        return policy.ttl.mean / (float(tau.mean()) * x.mean)
    return float(occupied.mean() / s_tau.mean())


def table1_reference(lam: float, mu: float, nu: float, omega: float) -> dict:
    """Closed-form anchor values for the four canonical single-cache models.

    Rates: lam for exponential requests, mu for the (Sigma or single) TTL,
    nu for the R-component TTL of the min model; deterministic TTLs have
    value 1/mu. Returns {model: {"transform", "expected_stopped_sum",
    "occupancy"}}.
    """
    if min(lam, mu, nu) <= 0:
        raise ValidationError("rates must be positive")
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    d = 1.0 / mu
    return {
        "M-M-R": {
            "transform": lam / (lam + omega) * mu / (mu + omega),
            "expected_stopped_sum": (lam + mu) / (lam * mu),
            "occupancy": lam / (lam + mu),
        },
        "M-D-R": {
            "transform": lam
            * math.exp(-lam * d)
            / (lam * math.exp(-lam * d) + omega * math.exp(omega * d)),
            "expected_stopped_sum": 1.0 / (lam * math.exp(-lam * d)),
            "occupancy": 1.0 - math.exp(-lam * d),
        },
        "M-D-Sigma": {
            "transform": lam / (lam + omega) * math.exp(-omega * d),
            "expected_stopped_sum": (lam + mu) / (lam * mu),
            "occupancy": lam / (lam + mu),
        },
        "M-M-min": {
            "transform": lam / (lam + omega) * (mu + nu) / (mu + nu + omega),
            "expected_stopped_sum": (lam + mu + nu) / (lam * (mu + nu)),
            "occupancy": lam / (lam + mu + nu),
        },
    }
