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
independent under the tilt. Closed forms exist for the exponential and
deterministic families. When the request law and every TTL law are
Exponential or Erlang, the laws are phase-type (PH): the requests form a
renewal MAP, `cache_ops` builds the cache's miss process exactly, and one
sparse solve over one inter-miss interval of that process gives E[tau],
the occupancy or the transform, as long as its chain has at most
`network.DEFAULT_BUDGET` states. Near that budget a query takes about as
long as the 1e6-sample Monte Carlo it replaces and up to about 100 MB for
the chain and its factors, where the Monte Carlo needs about 30 MB.

Deterministic laws without a closed form take one of two exact dense
routes, each a millisecond-scale computation:

* deterministic requests X = d under min(Sigma, R) with Exponential, Erlang
  or Deterministic TTLs: P(tau > k) = P(T_Sigma >= k d) P(T_R >= d)^k, a
  matrix-geometric sum for a PH Sigma TTL and a finite sum for a
  deterministic one;
* Exponential or Erlang requests under Sigma, or under min(Sigma, R) with
  both TTLs Deterministic: the cached mass over request phases solves a
  linear delay equation, solved exactly by the method of steps with Van
  Loan block exponentials.

The remaining cases (Tabulated laws, Exponential or Erlang requests under
min(Sigma, R) with one Deterministic and one PH TTL, and chains or dense
blocks over their size limits) are evaluated by a tilted convolution series
(Sigma) or by Monte Carlo under the tilted measure.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special

from .cache_ops import CacheOutput, output_min, output_sigma
from .errors import (
    ConvergenceError,
    DivergentStoppingTimeError,
    ValidationError,
)
from .kron import RateMatrix
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
        x = np.asarray(x, dtype=float)
        k, th = self.stages, self.rate
        with np.errstate(divide="ignore", invalid="ignore"):
            out = th**k * x ** (k - 1) * np.exp(-th * x) / math.factorial(k - 1)
        return np.where(x >= 0, out, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, scipy.special.gammainc(self.stages, self.rate * x), 0.0)

    def survival_geq(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, scipy.special.gammaincc(self.stages, self.rate * x))

    def sample(self, rng, size=None):
        return rng.gamma(self.stages, 1.0 / self.rate, size)

    def truncation_point(self, eps):
        return float(scipy.special.gammainccinv(self.stages, eps)) / self.rate

    def integral_survival(self, x):
        js = np.arange(1, self.stages + 1)
        return float(np.sum(scipy.special.gammainc(js, self.rate * x))) / self.rate


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


def _as_ph(law: RenewalSpec) -> PhaseTypeDistribution | None:
    if isinstance(law, Exponential):
        return PhaseTypeDistribution.exponential(law.rate)
    if isinstance(law, Erlang):
        return PhaseTypeDistribution.erlang(law.stages, law.rate)
    return None


def _ph_cycle(
    x: RenewalSpec, policy: StoppingPolicy, omega: float = 0.0
) -> tuple[np.ndarray, CacheOutput] | None:
    """Discounted state occupation of the exact miss chain over one interval.

    `policy` is Sigma or min(Sigma, R); R has closed forms everywhere.
    Exponential and Erlang laws are phase-type: requests with a PH(alpha, S)
    law form the renewal MAP (S, s alpha), s the exit vector, and the MAP
    engine builds the cache's miss process (D0', D1') exactly (TTL order as
    in `StoppingPolicy.min_of`). Every miss restarts the request law and the
    TTL, so misses are regeneration points: every row of D1' is a multiple
    of one vector, the initial vector phi of the next inter-miss interval,
    and phi is proportional to p' D1' whatever the stationary vector p' is.
    Returns z = phi (omega I - D0')^{-1}, one sparse solve, with the miss
    process. Entry i of z is the expected time spent in state i during one
    inter-miss interval S, discounted by exp(-omega t); so z 1 = E[S] at
    omega = 0 and z D1' 1 = E[exp(-omega S)].

    Returns None, building nothing, when a law is not PH or the miss chain
    would exceed `DEFAULT_BUDGET` states.
    """
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
    lu = spla.splu(a[order][:, order].T, permc_spec="NATURAL")
    z = np.empty(out.order)
    z[order] = lu.solve(phi[order] / phi.sum())
    return z, out


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
    n, k = b.shape
    block = np.zeros((n + k, n + k))
    block[:n, :n] = a
    block[:n, n:] = b
    e = scipy.linalg.expm(block * h)
    return e[:n, :n], e[:n, n:]


def _ph_arrays(law: RenewalSpec) -> tuple[np.ndarray, np.ndarray]:
    ph = _as_ph(law)
    return ph.pi.entries, ph.s.to_dense()


def _deterministic_route(
    x: RenewalSpec, policy: StoppingPolicy, omega: float = 0.0
) -> tuple[float, float, float] | None:
    """(E[tau], mean in-cache time, E[exp(-omega S_tau)]) exactly, or None.

    Covers the Deterministic-law cases without a closed form:
    deterministic requests under min(Sigma, R) with Exponential, Erlang or
    Deterministic TTLs, and Exponential or Erlang requests under Sigma or
    min(Sigma, R) with Deterministic TTLs only. Returns None for everything
    else (mixed Deterministic/PH TTL pairs under PH requests, Tabulated laws),
    where a dense block would exceed `_DENSE_MAX` states and where the finite
    sums would exceed `_MAX_STEPS` terms.
    """
    ttls = (policy.ttl,) if policy.ttl is not None else (policy.ttl_sigma, policy.ttl_r)
    if (
        isinstance(x, Deterministic)
        and policy.tag == "MinSigmaR"
        and all(isinstance(t, (Exponential, Erlang, Deterministic)) for t in ttls)
    ):
        return _deterministic_requests(x.value, *ttls, omega)
    if isinstance(x, (Exponential, Erlang)) and all(isinstance(t, Deterministic) for t in ttls):
        c_r = ttls[1].value if len(ttls) == 2 else math.inf
        return _deterministic_ttls(x, ttls[0].value, c_r, omega)
    return None


def _deterministic_requests(
    d: float, t_sigma: RenewalSpec, t_r: RenewalSpec, omega: float
) -> tuple[float, float, float] | None:
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
        return float(alive.sum()), float(in_cache), transform
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
    e = scipy.linalg.expm(s_sigma * d)
    eye, ones = np.eye(n), np.ones(n)
    w = np.linalg.solve((eye - p_r * e).T, alpha)  # alpha (I - p_r E)^{-1}
    transform = z * alpha @ np.linalg.solve(eye - z * p_r * e, ones - p_r * e @ ones)
    kron_sum = np.kron(s_sigma, np.eye(n_r)) + np.kron(eye, s_r)
    _, held = _expm_integral(kron_sum, np.ones((n * n_r, 1)), horizon)
    return float(w.sum()), float(np.kron(w, alpha_r) @ held[:, 0]), float(transform)


def _deterministic_ttls(
    x: RenewalSpec, c_sigma: float, c_r: float, omega: float
) -> tuple[float, float, float] | None:
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
    alpha, s_mat = _ph_arrays(x)
    n = alpha.size
    s = -s_mat.sum(axis=1)
    q = s_mat + np.outer(s, alpha)
    steps, rest = divmod(c_sigma, c_r)  # R windows that close before c_sigma
    steps, beta = int(steps), None
    if steps:
        e_r = scipy.linalg.expm(s_mat * c_r)
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
    return 1.0 + float(hits), float(in_cache), float(transform)


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
    import scipy.integrate  # deferred: only general continuous pairs need it

    upper = x.truncation_point(1e-14)
    value, _ = scipy.integrate.quad(
        lambda u: math.exp(-omega * u) * float(x.pdf(u)) * float(t.survival_geq(u)),
        0.0,
        upper,
        limit=200,
    )
    return value


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


def transform_sigma(
    x: RenewalSpec,
    t: RenewalSpec,
    omega: float,
    tol: float = 1e-10,
    method: str = "auto",
    step: float | None = None,
    max_terms: int = 100_000,
) -> float:
    """Laplace transform of the inter-miss time of a reset-on-miss cache.

    The general value is the series sum over t >= 1 of L_omega(X)^t times
    the tilted-measure probability that exactly t requests fit inside one
    TTL. Closed forms are used where available:

    * exponential TTL: identical to the reset-on-request transform (the
      memorylessness collapse), via psi = L_X(omega + mu);
    * exponential requests: L_T(omega) * lambda / (lambda + omega);
    * deterministic requests: a direct geometric-style sum.

    Next, in "auto" mode, Erlang requests with a Deterministic TTL c take
    the exact delay-equation route, e^{-omega c} alpha e^{Q c}
    (omega I - S)^{-1} s for requests PH(alpha, S), s = -S 1 and
    Q = S + s alpha; Erlang requests with an Erlang TTL take the exact PH
    route, the transform of the MAP engine's miss process, one sparse solve
    (chains of at most `network.DEFAULT_BUDGET` states). Otherwise (a
    Tabulated law, or a chain over the budget) the series is evaluated on a
    uniform grid (default step mean(X)/200) with tilted convolution powers,
    truncated once the geometric tail bound drops below `tol`.

    Parameters
    ----------
    method : {"auto", "closed", "series"}
        "auto" prefers closed forms, then the exact routes; "closed" allows
        only closed forms; "series" forces the series.
    """
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if method not in ("auto", "closed", "series"):
        raise ValidationError(f"unknown method {method!r}")

    if method != "series":
        if isinstance(t, Exponential):
            psi = x.laplace(omega + t.rate)
            return (x.laplace(omega) - psi) / (1.0 - psi)
        if isinstance(x, Exponential):
            return t.laplace(omega) * x.rate / (x.rate + omega)
        if isinstance(x, Deterministic):
            return _sigma_deterministic_requests(x, t, omega, tol, max_terms)
        if method == "closed":
            raise ValidationError("no closed form for this request/TTL combination")
        exact = _deterministic_route(x, StoppingPolicy.reset_on_miss(t), omega)
        if exact is not None:
            return exact[2]
        cycle = _ph_cycle(x, StoppingPolicy.reset_on_miss(t), omega)
        if cycle is not None:
            z, out = cycle
            return float(z @ out.map.d1.row_sums())

    return _sigma_series(x, t, omega, tol, step, max_terms)


def _sigma_deterministic_requests(
    x: Deterministic, t: RenewalSpec, omega: float, tol: float, max_terms: int
) -> float:
    lx = math.exp(-omega * x.value)
    total = 0.0
    cum = 0.0
    prev = 1.0  # P(T >= 0)
    for k in range(1, max_terms + 1):
        cur = float(t.survival_geq(k * x.value))
        term = prev - cur
        total += lx**k * term
        cum += term
        prev = cur
        if lx ** (k + 1) * max(0.0, 1.0 - cum) < tol:
            return total
    raise ConvergenceError("series for deterministic requests did not converge")


def _sigma_series(
    x: RenewalSpec,
    t: RenewalSpec,
    omega: float,
    tol: float,
    step: float | None,
    max_terms: int,
) -> float:
    tilted = tilt(x, omega)
    lx = tilted.lx
    if isinstance(x, Tabulated):
        step = x.step
    elif step is None:
        step = x.mean / 200.0
    if isinstance(tilted.law, Deterministic):
        return _sigma_deterministic_requests(
            Deterministic(tilted.law.value), t, omega, tol, max_terms
        )
    import scipy.signal  # deferred: the only user, and slow to import

    points, weights = _ttl_weights(t, step)
    x_max = float(points.max())
    n_cells = max(1, int(math.ceil(x_max / step)) + 1)
    q = _discretize_cell_masses(tilted.law, step, n_cells)
    conv = q.copy()
    prev_vals = np.ones_like(points)
    total = 0.0
    cum = 0.0
    for term_idx in range(1, max_terms + 1):
        centers = (np.arange(conv.size) + 0.5 * term_idx) * step
        cdf_vals = np.interp(points, centers, np.cumsum(conv), left=0.0)
        term = float(np.dot(weights, np.clip(prev_vals - cdf_vals, 0.0, None)))
        total += lx**term_idx * term
        cum += term
        if lx ** (term_idx + 1) * max(0.0, 1.0 - cum) < tol:
            return total
        prev_vals = cdf_vals
        conv = scipy.signal.convolve(conv, q)[:n_cells]
        np.clip(conv, 0.0, None, out=conv)
    raise ConvergenceError(
        f"series did not reach tolerance {tol:g} within {max_terms} terms"
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
    min(sum of min(X_s, T^R_s), T^Sigma) and is only filled for MinSigmaR.
    """
    tau = np.empty(n, dtype=np.int64)
    s_tau = np.empty(n)
    occupied = np.empty(n) if policy.tag == "MinSigmaR" else None
    for lo in range(0, n, _MC_BLOCK):
        block = slice(lo, min(lo + _MC_BLOCK, n))
        tau[block], s_tau[block], occ = _simulate_block(
            x_law, policy, block.stop - lo, rng, max_rounds
        )
        if occupied is not None:
            occupied[block] = occ
    return tau, s_tau, occupied


def _simulate_block(x_law: RenewalSpec, policy: StoppingPolicy, n: int, rng, max_rounds: int):
    tau = np.zeros(n, dtype=np.int64)
    s_tau = np.zeros(n)
    occupied = np.zeros(n) if policy.tag == "MinSigmaR" else None
    alive = np.ones(n, dtype=bool)
    if policy.tag == "Sigma":
        ttl_total = policy.ttl.sample(rng, n)
    elif policy.tag == "MinSigmaR":
        ttl_total = policy.ttl_sigma.sample(rng, n)
    rounds = 0
    while alive.any():
        rounds += 1
        if rounds > max_rounds:
            raise ConvergenceError("stopping-rule simulation exceeded the round cap")
        idx = np.nonzero(alive)[0]
        xs = x_law.sample(rng, idx.size)
        s_tau[idx] += xs
        tau[idx] += 1
        if policy.tag == "R":
            ts = policy.ttl.sample(rng, idx.size)
            stopped = xs > ts
        elif policy.tag == "Sigma":
            stopped = s_tau[idx] > ttl_total[idx]
        else:
            tr = policy.ttl_r.sample(rng, idx.size)
            occupied[idx] += np.minimum(xs, tr)
            stopped = (s_tau[idx] > ttl_total[idx]) | (xs > tr)
        alive[idx[stopped]] = False
    if occupied is not None:
        occupied = np.minimum(occupied, ttl_total)
    return tau, s_tau, occupied


def transform_min(
    x: RenewalSpec,
    t_sigma: RenewalSpec,
    t_r: RenewalSpec,
    omega: float,
    samples: int = 1_000_000,
    rng=None,
) -> MonteCarloValue:
    """Laplace transform of the inter-miss time of a min(Sigma, R) cache.

    All-exponential inputs use the closed form lambda/(lambda+omega) *
    (mu+nu)/(mu+nu+omega) exactly (stderr 0). Deterministic requests with
    Exponential, Erlang or Deterministic TTLs, and Exponential or Erlang
    requests with two Deterministic TTLs, take the exact deterministic-law
    routes (stderr 0; see the module docstring). Other Exponential/Erlang
    combinations take the exact PH route (stderr 0): the MAP engine's miss
    process and one sparse solve, for chains of at most
    `network.DEFAULT_BUDGET` states. Otherwise (Tabulated laws, PH requests
    with one Deterministic and one PH TTL, or a case over a size limit) the
    value E-tilde[L_omega(X)^tau] is estimated by Monte Carlo: inter-request
    times are drawn from the tilted law, both TTLs from their original
    laws, and the stopping rule of the min policy is applied literally.
    """
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    if (
        isinstance(x, Exponential)
        and isinstance(t_sigma, Exponential)
        and isinstance(t_r, Exponential)
    ):
        lam, mu, nu = x.rate, t_sigma.rate, t_r.rate
        value = lam / (lam + omega) * (mu + nu) / (mu + nu + omega)
        return MonteCarloValue(value, 0.0)
    exact = _deterministic_route(x, StoppingPolicy.min_of(t_sigma, t_r), omega)
    if exact is not None:
        return MonteCarloValue(exact[2], 0.0)
    cycle = _ph_cycle(x, StoppingPolicy.min_of(t_sigma, t_r), omega)
    if cycle is not None:
        z, out = cycle
        return MonteCarloValue(float(z @ out.map.d1.row_sums()), 0.0)
    if samples < 10_000:
        raise ValidationError("transform_min needs at least 1e4 samples")
    rng = np.random.default_rng() if rng is None else rng
    tilted = tilt(x, omega)
    policy = StoppingPolicy.min_of(t_sigma, t_r)
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

    Exact for: any reset-on-request combination (geometric tau with success
    probability P(X > T)); Poisson requests under Sigma (1 + lambda E[T]);
    deterministic requests under Sigma; all-exponential min. Deterministic
    requests under min with Exponential, Erlang or Deterministic TTLs, and
    Erlang requests under Sigma or Exponential/Erlang requests under min
    with Deterministic TTLs only, take the exact deterministic-law routes
    (see the module docstring). Other Exponential/Erlang combinations take
    the exact PH route, E[S] / E[X] with E[S] the mean interval of the MAP
    engine's miss process, for chains of at most `network.DEFAULT_BUDGET`
    states. Everything else (Tabulated laws, PH requests under min with one
    Deterministic and one PH TTL, cases over a size limit) runs the literal
    stopping rules by Monte Carlo (stderr reported; 0 marks an exact value).
    """
    tag = policy.tag
    if tag == "R":
        p_miss = 1.0 - _psi(x, policy.ttl, 0.0)
        if p_miss <= 0.0:
            raise DivergentStoppingTimeError(
                "P(X > T) = 0: the TTL structurally never expires before a request"
            )
        return MonteCarloValue(1.0 / p_miss, 0.0)
    if tag == "Sigma":
        t = policy.ttl
        if isinstance(x, Exponential):
            return MonteCarloValue(1.0 + x.rate * t.mean, 0.0)
        if isinstance(x, Deterministic):
            total = 1.0
            k = 1
            while k < 100_000_000:
                s = float(t.survival_geq(k * x.value))
                total += s
                if s < 1e-15 or k * x.value > t.truncation_point(1e-15):
                    return MonteCarloValue(total, 0.0)
                k += 1
            raise ConvergenceError("survival series did not converge")
    elif tag == "MinSigmaR":
        if (
            isinstance(x, Exponential)
            and isinstance(policy.ttl_sigma, Exponential)
            and isinstance(policy.ttl_r, Exponential)
        ):
            lam = x.rate
            return MonteCarloValue(
                1.0 + lam / (policy.ttl_sigma.rate + policy.ttl_r.rate), 0.0
            )
    exact = _deterministic_route(x, policy)
    if exact is not None:
        return MonteCarloValue(exact[0], 0.0)
    cycle = _ph_cycle(x, policy)
    if cycle is not None:
        # Wald: E[S] = E[tau] E[X]
        return MonteCarloValue(float(cycle[0].sum()) / x.mean, 0.0)
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
    import scipy.integrate  # deferred: only general continuous pairs need it

    upper = min(x.truncation_point(1e-14), t.truncation_point(1e-14))
    value, _ = scipy.integrate.quad(
        lambda u: float(x.survival_geq(u)) * float(t.survival_geq(u)),
        0.0,
        upper,
        limit=200,
    )
    return value


def occupancy_renewal(
    x: RenewalSpec,
    policy: StoppingPolicy,
    samples: int = 1_000_000,
    rng=None,
) -> float:
    """Long-run fraction of time the object is cached.

    R: E[min(X, T)] / E[X]. Sigma: E[T] / E[S_tau], with E[S_tau] from
    `expected_tau`. min(Sigma, R): lambda/(lambda+mu+nu) in the
    all-exponential case; the mean in-cache time of the exact
    deterministic-law routes over E[tau] E[X] for deterministic requests
    with Exponential, Erlang or Deterministic TTLs and for
    Exponential/Erlang requests with two Deterministic TTLs; for other
    Exponential/Erlang combinations the exact PH route, the mean time in the
    IN states of the MAP engine's miss process over its mean interval
    (chains of at most `network.DEFAULT_BUDGET` states); otherwise
    (Tabulated laws, PH requests with one Deterministic and one PH TTL,
    cases over a size limit) the ratio of mean in-cache time to mean cycle
    length estimated by simulating the stopped sequence.
    """
    tag = policy.tag
    if tag == "R":
        return _expected_min(x, policy.ttl) / x.mean
    if tag == "Sigma":
        return policy.ttl.mean / expected_stopped_sum(x, policy, samples, rng)
    if (
        isinstance(x, Exponential)
        and isinstance(policy.ttl_sigma, Exponential)
        and isinstance(policy.ttl_r, Exponential)
    ):
        lam = x.rate
        return lam / (lam + policy.ttl_sigma.rate + policy.ttl_r.rate)
    exact = _deterministic_route(x, policy)
    if exact is not None:
        tau, in_cache, _ = exact
        return in_cache / (tau * x.mean)
    cycle = _ph_cycle(x, policy)
    if cycle is not None:
        # renewal reward: mean time with the object present over E[S]
        z, out = cycle
        return float(z[len(out.out_states) :].sum() / z.sum())
    rng = np.random.default_rng() if rng is None else rng
    _, s_tau, occupied = _simulate_stopping(x, policy, samples, rng)
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
