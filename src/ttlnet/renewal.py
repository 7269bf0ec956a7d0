"""Renewal-line cache analysis through stopped sums of request intervals.

A cache fed by a renewal request process X and an independent TTL process T
has inter-miss times distributed as the stopped sum S_tau = X_1 + ... +
X_tau, where the stopping rule depends on the policy:

* R (reset on request): stop at the first t with X_t > T_t.
* Sigma (reset on miss): stop at the first t with X_1 + ... + X_t > T_1.
* min(Sigma, R): the earlier of the two rules, with independent TTLs.

The engine reads a law by its family. Laws on atoms (`Deterministic`, and
`Tabulated` with one atom per cell midpoint) share `points` and `masses`;
phase-type laws (`Exponential`, `Erlang`) share `rate`, and tilting one by
exp(-omega x) gives the same law at rate + omega. A law known only by its
`laplace` and `mean` plugs into the closed forms with an Exponential TTL.

E[tau], the mean in-cache time and E[exp(-omega S_tau)] are three readings
of one cycle. R reads every law pair through two weights of one request
interval, E[e^{-omega X} 1{X <= T}] and E[e^{-omega X} 1{X > T}] (`_weights`),
and the drop L_omega(X) - L_{omega + mu}(X) (`_gap`), each summed without
cancellation, so rare misses keep their relative accuracy. One reader gives
every E[min]: `_discounted_held` is E[min(X, T, E_mu)] for an independent
E_mu ~ Exponential(mu), and at rate 0 it is E[min(X, T)], the in-cache time
of an R interval. For Sigma and min(Sigma, R), `_cycle` is the one place
that picks the route. A Sigma cache is a min(Sigma, R) cache whose R TTL
never fires ("none" below). After the closed forms (Sigma with Exponential
requests, Sigma or min with an Exponential Sigma TTL: `_exponential_sigma`
for min) the first row that matches wins:

=============  ============================  ====================  ================
requests X     Sigma TTL                     R TTL                 route
=============  ============================  ====================  ================
any            Erlang                        any                   power series
Det., Tab.     Det., Tab.                    any                   partial sums
Exp., Erlang   Det., Tab.                    Tabulated             refused
Exp., Erlang   Det., Tab.                    Deterministic         delay equation
Exp., Erlang   Det., Tab.                    Exp., Erlang, none    alive chain
=============  ============================  ====================  ================

Every value is exact (E[tau] and the transform come back as
`MonteCarloValue`s with stderr 0). A Tabulated Sigma TTL is drawn once per
cycle, so each reading is the mass-weighted mixture over its atoms of the
Deterministic-TTL reading. The routes:

* power series: an Erlang(n, r) Sigma TTL has sub-generator S = r (J - I),
  J the shift, so P(tau > k) = alpha K^k 1 with K = E[e^{S X} 1{X <= T_R}]
  the upper-triangular Toeplitz matrix of the series c(J), c_k the chance
  of a hit that passes k Sigma phases. Every reading is a power series in
  J truncated after n terms, from coefficients that are sums of
  nonnegative Poisson and negative binomial terms, each formed in log space
  (`_erlang_sigma`); alpha (I - K)^{-1} is the reciprocal of 1 - c(z),
  whose constant term is formed directly, so no step cancels and rare
  misses keep their relative accuracy.
* partial sums: for requests on atoms, the weight of each partial sum of
  requests that were all hits, by repeated convolution, read against the
  Sigma TTL's atoms in one pass (`_atom_requests`).
* delay equation: for PH requests under a Deterministic R TTL, the cached
  mass over request phases solves a linear delay equation, solved exactly by
  the method of steps with Van Loan block exponentials; a Tabulated Sigma
  TTL takes it atom by atom (`_deterministic_ttls`).
* alive chain: for PH requests under a PH R TTL or none, (request phase,
  R phase) is a Markov chain until eviction, and one Van Loan block
  exponential per Sigma atom gives the cycle (`_alive_chain`).

The Erlang-law tails (`_gamma_tails`), the binomial sums (`_binomial_tails`)
and the deviance they share split by size. Arrays (`_poisson_tails`' tables,
the atoms of a law) take numpy; one number takes the same sums on Python
floats, each power series by Horner's rule on coefficients kept per shape
(`_gamma_horner`), with numpy's log and exp called on one float so that its
exponent has the array route's bits. On a one-entry array numpy's dispatch
cost 13-15 us a call for under 1 us of arithmetic; the scalar route takes
1.3-2.6 us (timeit, 2-vCPU host), and a `single-cache` sweep makes 23 such
calls. A law on atoms keeps its points, masses and their running sums.

PH requests with a Deterministic or Tabulated Sigma TTL and a Tabulated R
TTL would need a delay equation with one delay per atom; they raise
`ValidationError`. A route that would exceed its size limit raises
`BudgetExceededError`: a power series whose requests, Sigma TTL and R TTL
would make a MAP-engine miss chain of over `DEFAULT_BUDGET` states (a law
on atoms counting one phase) or whose coefficient tables would hold over
`_MAX_STEPS` phase-atom cells, a dense matrix over `_DENSE_MAX` or more than
`_MAX_STEPS` partial sums.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# numpy alone runs every route: matrix exponentials are `_expm`'s and
# Erlang-law tails finite sums; no route loads scipy.

from .cache_ops import DEFAULT_BUDGET
from .errors import BudgetExceededError, DivergentStoppingTimeError, ValidationError
from .kron import dense_kron

__all__ = [
    "RenewalSpec",
    "Exponential",
    "Deterministic",
    "Erlang",
    "Tabulated",
    "StoppingPolicy",
    "MonteCarloValue",
    "RenewalHitMiss",
    "transform_r",
    "transform_sigma",
    "transform_min",
    "hit_miss_renewal",
    "occupancy_renewal",
    "expected_stopped_sum",
    "expected_tau",
    "table1_reference",
]

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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-self.rate * x), 0.0)

    def survival_geq(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 1.0, np.exp(-self.rate * x))

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)


class _OnAtoms(RenewalSpec):
    """A law on atoms. Its `points` (ascending) and `masses` are read-only
    arrays formed once per law, and so are their running sums
    (`_cumulative`), which every reading of the law by atoms takes."""

    @functools.cached_property
    def _cumulative(self) -> tuple[np.ndarray, np.ndarray]:
        """P(V < x_j) and P(V >= x_j) at the atoms x_j and, last, past
        them: running sums of the masses from each end."""
        below = np.concatenate([[0.0], np.cumsum(self.masses)])
        above = np.concatenate([np.cumsum(self.masses[::-1])[::-1], [0.0]])
        return _read_only(below), _read_only(above)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Deterministic(_OnAtoms):
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

    @functools.cached_property
    def points(self) -> np.ndarray:
        return _read_only(np.array([self.value]))

    @functools.cached_property
    def masses(self) -> np.ndarray:
        return _read_only(np.ones(1))

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        p, _ = _gamma_tails(self.stages, self.rate * x)
        return np.where(x >= 0, p, 0.0)

    def survival_geq(self, x):
        x = np.asarray(x, dtype=float)
        _, q = _gamma_tails(self.stages, self.rate * x)
        return np.where(x <= 0, 1.0, q)

    def sample(self, rng, size=None):
        return rng.gamma(self.stages, 1.0 / self.rate, size)


# Erlang laws through finite sums. At integer k the regularized incomplete
# gamma functions P(k, y) and Q(k, y) = 1 - P(k, y) are the chances of at
# least and of fewer than k events of a Poisson(y) count, and negative
# binomial laws are binomial tails. Each routine sums the smaller tail
# directly and takes one minus it for the other, so neither loses relative
# accuracy. A tail starts at its term next to the boundary, the largest of
# the tail, whose log comes from Loader's saddle-point form (2000, "Fast and
# accurate computation of binomial probabilities"), so that c log y, y and
# log c! never cancel; the terms after it are running products of ratios
# below one.

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Running products below this are dropped; as the ratios fall, what follows
# them sums to less than 1e-16 of a tail.
_SERIES_EPS = 1e-17
# Most entries of the table of powers `_power_series` builds at once.
_SERIES_CELLS = 1 << 16


def _log_norm(c: int) -> float:
    """log(c^c e^{-c} / c!): 0 at c = 0, else -log sqrt(2 pi c) less
    Stirling's error term, by its series above 15 stages."""
    if c == 0:
        return 0.0
    if c <= 15:
        return c * math.log(c) - c - math.lgamma(c + 1.0)
    cc = float(c) * c
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / cc) / cc) / cc) / cc) / c
    return -_LOG_SQRT_2PI - 0.5 * math.log(c) - stirlerr


def _deviance(c, mean):
    """c log(c / mean) + mean - c >= 0, elementwise in mean >= 0 and in an
    integer array c >= 1 or an integer c >= 0.

    The log of the Poisson(mean) probability of c is `_log_norm(c)` less
    this. With d = mean / c - 1 it is c (d - log(1 + d)), log1p unless
    mean < c / 2. Two numbers take Python floats, and numpy's log of one
    float, which costs little more than `math`'s and has the bits of the
    array route's: c times a last-bit difference in the log would move the
    exponent of a Poisson term, and so the term itself, by up to 1e-13.
    """
    if not isinstance(c, np.ndarray) and c == 0:
        return mean
    d = (mean - c) / c
    if isinstance(d, np.ndarray):
        return c * (d - np.where(d < -0.5, np.log(mean / c), np.log1p(d)))
    if d >= -0.5:
        return c * (d - float(np.log1p(d)))
    ratio = mean / c  # numpy's log of 0 and of a negative number, without its warning
    return c * (d - float(np.log(ratio))) if ratio > 0.0 else (math.inf if ratio == 0.0 else math.nan)


def _running_products(ratios: np.ndarray) -> np.ndarray:
    """1 and the running products of `ratios`, each at most 1, down to
    `_SERIES_EPS`."""
    products = np.cumprod(np.concatenate([[1.0], ratios]))
    return products[products >= _SERIES_EPS]


@functools.lru_cache(maxsize=64)
def _gamma_series(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the two tail series of `_gamma_tails` at shape k.

    They are the running products of k / (k + i) and of 1 - i / k over
    i = 1, 2, ... Both fall below `_SERIES_EPS` within min(k, 11 sqrt(k)) +
    60 factors: below k factors the logs add up to at least n^2 / (3 k), and
    past k each factor is at most 1/2.
    """
    i = np.arange(1.0, min(k, math.ceil(11.0 * math.sqrt(k))) + 61)
    return _running_products(k / (k + i)), _running_products(np.maximum(1.0 - i / k, 0.0))


def _power_series(r: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The sum over n of coef[n] r^n for each entry of the vector r, in
    tables of at most `_SERIES_CELLS` powers."""
    out = np.empty(r.size)
    rows = max(1, _SERIES_CELLS // coef.size)
    powers = np.arange(coef.size)
    for lo in range(0, r.size, rows):
        out[lo : lo + rows] = np.power.outer(r[lo : lo + rows], powers) @ coef
    return out


@functools.lru_cache(maxsize=64)
def _gamma_horner(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """`_gamma_series(k)` as Python floats, highest power first, for the
    Horner sums of `_gamma_tail`."""
    up, down = _gamma_series(k)
    return tuple(up[::-1].tolist()), tuple(down[::-1].tolist())


def _gamma_tails(k: int, y) -> tuple[np.ndarray, np.ndarray]:
    """P(k, y) and Q(k, y), elementwise in y >= 0, for an integer k >= 1
    (nan for y < 0).

    With t the Poisson(y) probability of k and (up, down) the coefficients of
    `_gamma_series`, P is t times the power series of up at y / k for y < k,
    and Q is t times the series of down at k / y, times k / y, for y >= k.
    One y takes the same sums on Python floats (`_gamma_tail`): numpy's
    dispatch would cost some 20 times their arithmetic.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 1:
        p, q = _gamma_tail(k, y.item())
        return np.array(p).reshape(y.shape), np.array(q).reshape(y.shape)
    up, down = _gamma_series(k)
    upper = y < k
    lower = ~upper
    tail = np.empty(y.shape)
    tail[upper] = _power_series(y[upper] / k, up)
    inv = k / y[lower]
    tail[lower] = inv * _power_series(inv, down)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail *= np.exp(_log_norm(k) - _deviance(k, y))
    tail[y == math.inf] = 0.0
    return np.where(upper, tail, 1.0 - tail), np.where(upper, 1.0 - tail, tail)


def _gamma_tail(k: int, y: float) -> tuple[float, float]:
    """`_gamma_tails` at one y on Python floats: each power series by
    Horner's rule, and 0, inf and y < 0 (or nan) as the array route gives
    them."""
    if not y > 0.0:
        return (0.0, 1.0) if y == 0.0 else (math.nan, math.nan)
    if y == math.inf:
        return 1.0, 0.0
    up, down = _gamma_horner(k)
    upper = y < k
    r = y / k if upper else k / y
    tail = 0.0
    for coef in up if upper else down:
        tail = tail * r + coef
    if not upper:
        tail = r * tail
    tail *= float(np.exp(_log_norm(k) - _deviance(k, y)))
    return (tail, 1.0 - tail) if upper else (1.0 - tail, tail)


def _binomial_run(n: int, c: int, p: float, q: float, up: bool) -> float:
    """The sum of the Binomial(n, p) probabilities of c, c + 1, ..., n (up)
    or of c, c - 1, ..., 0, for a c on the side of the mean where they fall:
    the first in log space, the others by running products of their ratios,
    on Python floats."""
    log_first = (
        _log_norm(c) + _log_norm(n - c) - _log_norm(n) - _deviance(c, n * p) - _deviance(n - c, n * q)
    )
    term, rest = 1.0, 0.0
    if up:
        odds = p / q
        for j in range(c, n):
            term *= (n - j) / (j + 1) * odds
            rest += term
    else:
        odds = q / p
        for j in range(c, 0, -1):
            term *= j / (n - j + 1) * odds
            rest += term
    return math.exp(log_first) * (1.0 + rest)


def _binomial_tails(n: int, s: int, p: float, q: float) -> tuple[float, float]:
    """P(B >= s) and P(B < s) for B ~ Binomial(n, p), with q = 1 - p passed
    on its own so that it keeps its relative accuracy.

    The binomial median is within 1 of the mean, so the tail from s up is
    the smaller one when s >= n p + 1 and the tail from s - 1 down when s <=
    n p; between the two, where either may be, both are summed.
    """
    if s <= 0:
        return 1.0, 0.0
    if s > n:
        return 0.0, 1.0
    if s <= n * p:
        lower = _binomial_run(n, s - 1, p, q, up=False)
        return 1.0 - lower, lower
    upper = _binomial_run(n, s, p, q, up=True)
    if s >= n * p + 1:
        return upper, 1.0 - upper
    return upper, _binomial_run(n, s - 1, p, q, up=False)


def _poisson_tails(mean: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The Poisson(mean) probabilities of 0, ..., size - 1 and the chances
    of at least m, m = 0, ..., size, one row per entry of mean > 0.

    Each probability is `_log_norm` less `_deviance` in log space, the chance
    of at least size comes from `_gamma_tails`, and the others add the
    probabilities to it, so every entry is a sum of nonnegative terms.
    """
    logs = np.empty((mean.size, size))
    logs[:, 0] = -mean
    norms = np.array([_log_norm(c) for c in range(1, size)])
    # log1p(-1) where mean / c is below 1.1e-16: its branch is not taken
    with np.errstate(divide="ignore"):
        logs[:, 1:] = norms - _deviance(np.arange(1, size), mean[:, None])
    pmf = np.exp(logs)
    tail = _gamma_tails(size, mean)[0]
    return pmf, np.cumsum(np.column_stack([tail, pmf[:, ::-1]]), axis=1)[:, ::-1]


def _nb_terms(m: np.ndarray, count: int, log_s: float, log_t: float) -> np.ndarray:
    """C(m - 1 + j, j) s^m t^j for j = 0, ..., count - 1, one row per entry
    of the integer array m >= 1: for s + t = 1, the chance of j failures
    before success m. Each is summed in log space, m log s plus the logs of
    the ratios (m - 1 + i) t / i for i <= j, so none underflows on the way.
    """
    m = m[:, None]
    logs = np.zeros((m.size, count))
    logs[:, 1:] = np.log1p((m - 1) / np.arange(1.0, count)) + log_t
    return np.exp(logs.cumsum(axis=1) + m * log_s)


@dataclass(frozen=True, eq=False)
class Tabulated(_OnAtoms):
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

    @functools.cached_property
    def points(self) -> np.ndarray:
        return _read_only((np.arange(self.density.size) + 0.5) * self.step)

    @functools.cached_property
    def masses(self) -> np.ndarray:
        m = self.density * self.step
        return _read_only(m / m.sum())

    @property
    def mean(self) -> float:
        return float(np.dot(self.points, self.masses))

    def laplace(self, omega):
        return float(np.dot(np.exp(-omega * self.points), self.masses))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.points, x, side="right")
        return self._cumulative[0][idx]

    def survival_geq(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.points, x, side="left")
        return 1.0 - self._cumulative[0][idx]

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.masses)
        cdf /= cdf[-1]
        return cdf

    def sample(self, rng, size=None):
        # numpy's own `Generator.choice(points, size, p=masses)` algorithm,
        # so the draws are the same, with the cumulative masses formed once
        return self.points[self._cdf.searchsorted(rng.random(size), side="right")]

    def __eq__(self, other):
        if not isinstance(other, Tabulated):
            return NotImplemented
        return self.step == other.step and np.array_equal(self.density, other.density)

    def __hash__(self):
        return hash((self.step, self.density.tobytes()))


# The two families the engine reads laws by.
_ATOMS = (Deterministic, Tabulated)
_PH_LAWS = (Exponential, Erlang)


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
    """A renewal value and its standard error; every route is exact, so the
    engine returns stderr 0."""

    value: float
    stderr: float


@dataclass(frozen=True)
class RenewalHitMiss:
    hit: float
    miss: float


class _Cycle(NamedTuple):
    """One inter-miss cycle: E[tau], the mean in-cache time and
    E[exp(-omega S_tau)].

    Read `tau` and `in_cache` only from a cycle built at omega = 0: at
    omega > 0 routes discount them by exp(-omega t) or skip them (nan).
    """

    tau: float
    in_cache: float
    transform: float


# A TTL that never fires: Sigma is min(Sigma, R) with it as R.
_NEVER = Deterministic(math.inf)


def _cycle(x: RenewalSpec, policy: StoppingPolicy, omega: float) -> _Cycle:
    """One Sigma or min(Sigma, R) cycle by the first route of the module
    docstring's table that matches; raises where the table refuses."""
    if policy.tag == "Sigma":
        t_sigma, t_r = policy.ttl, _NEVER
        if isinstance(x, Exponential):
            lam = x.rate
            return _Cycle(
                1.0 + lam * t_sigma.mean, t_sigma.mean, t_sigma.laplace(omega) * lam / (lam + omega)
            )
        if isinstance(t_sigma, Exponential):
            mu = t_sigma.rate
            return _Cycle(
                1.0 / _gap(x, 0.0, mu), 1.0 / mu, _gap(x, omega, mu) / _gap(x, 0.0, omega + mu)
            )
    else:
        t_sigma, t_r = policy.ttl_sigma, policy.ttl_r
        if isinstance(t_sigma, Exponential):
            return _exponential_sigma(x, t_sigma.rate, t_r, omega)
    if isinstance(t_sigma, _PH_LAWS):
        # The p (n q + 1) states of the MAP-engine miss chain, for p request,
        # n Sigma and q R phases (a law on atoms or none counting one), bound
        # the series solve; (p + n + q) x the atoms of X and T_R, its tables.
        n, p, q = _stages(t_sigma), _stages(x), _stages(t_r)
        size = p * (n * q + 1)
        if size > DEFAULT_BUDGET:
            raise BudgetExceededError("renewal", size, DEFAULT_BUDGET, "power series")
        atoms = [law.masses.size for law in (x, t_r) if isinstance(law, _ATOMS) and law is not _NEVER]
        cells = (p + n + q) * sum(atoms)
        if cells > _MAX_STEPS:
            raise BudgetExceededError("renewal", cells, _MAX_STEPS, "power series table")
        return _erlang_sigma(x, t_sigma, t_r, omega)
    if not isinstance(x, _PH_LAWS):
        return _atom_requests(x, t_sigma, t_r, omega)
    if isinstance(t_r, Tabulated):
        raise ValidationError(
            f"no exact route for {x.kind} requests under min({t_sigma.kind} Sigma TTL, "
            "tabulated R TTL): it would need a delay equation with one delay per atom"
        )
    if t_r is _NEVER or not isinstance(t_r, Deterministic):
        return _alive_chain(x, t_sigma, t_r, omega)
    # Deterministic R TTL: the delay equation, atom by atom of the Sigma TTL
    cycles = [_deterministic_ttls(x, c, t_r.value, omega) for c in t_sigma.points]
    return _Cycle(*map(float, t_sigma.masses @ np.array(cycles)))


@functools.lru_cache(maxsize=8)
def _rest_cycle(x: RenewalSpec, policy: StoppingPolicy) -> _Cycle:
    """`_cycle` at omega = 0, kept for the last few queries: `expected_tau`
    and `occupancy_renewal` of one query read the same cycle."""
    return _cycle(x, policy, 0.0)


# Largest dense matrix the routes exponentiate or factor: at this size an
# `_expm` takes 1.3-2.8 ms (1-norms 0.1 to 1e3) and a dense solve 0.16 ms
# (2-vCPU host).
_DENSE_MAX = 200
# Most partial sums the atom routes enumerate, and most phase-atom cells of
# the power series' coefficient tables.
_MAX_STEPS = 1_000_000
# Cached mass below which the method of steps and the partial-sum
# convolutions stop.
_MASS_EPS = 1e-15


def _dense(size: int) -> None:
    if size > _DENSE_MAX:
        raise BudgetExceededError("renewal", size, _DENSE_MAX, "dense block")


def _van_loan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block [[a, b], [0, 0]]: its exponential at h holds e^{a h} and the
    integral of e^{a t} b over t in [0, h] (Van Loan 1978, "Computing
    integrals involving the matrix exponential")."""
    n, k = b.shape
    block = np.zeros((n + k, n + k))
    block[:n, :n] = a
    block[:n, n:] = b
    return block


# (degree m, largest 1-norm theta_m at which the Padé approximant of e^A of
# degree m is accurate to double precision, coefficients b_0, ..., b_m of its
# numerator p_m; the denominator is p_m(-A)), from Higham 2005, "The scaling
# and squaring method for the matrix exponential revisited", Table 2.3 and (2.8)
_PADE = tuple(
    (m, theta, np.array(b))
    for m, theta, b in (
        (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
        (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
        (7, 9.504178996162932e-1,
         (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
        (9, 2.097847961257068e0,
         (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
          2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
        (13, 5.371920351148152e0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
    )
)


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring (Higham 2005).

    The Padé approximant is of the least degree whose theta bounds the
    1-norm of a; above theta_13 it is that of degree 13 at a / 2^s, the least
    s that brings the norm within theta_13, squared s times.
    """
    n = a.shape[0]
    if n == 1:
        return np.exp(a)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = 0
    for m, theta, b in _PADE:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        a = a / 2.0**squarings
    # A^0, A^2, ..., A^(m - 1); p_m(A) = V + U with V their sum weighted by
    # the even coefficients and U = A times their sum weighted by the odd ones
    even = np.empty((m // 2 + 1, n, n))
    even[0] = np.eye(n)
    even[1] = a @ a
    for j in range(2, m // 2 + 1):
        np.matmul(even[j - 1], even[1], out=even[j])
    rows = even.reshape(m // 2 + 1, n * n)
    u = a @ (b[1::2] @ rows).reshape(n, n)
    v = (b[0::2] @ rows).reshape(n, n)
    e = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        e = e @ e
    return e


def _expm_integral(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{a h} and the integral of e^{a t} b over t in [0, h]."""
    n = a.shape[0]
    e = _expm(_van_loan(a, b) * h)
    return e[:n, :n], e[:n, n:]


def _expm_mix(a: np.ndarray, law: RenewalSpec, weights: np.ndarray) -> np.ndarray:
    """The sum of weights[i] e^{a x_i} over the atoms x_i of a law on atoms.
    The exponential at the first atom is formed once; a later atom, on a
    Tabulated grid, takes repeated products with e^{a step}."""
    _dense(a.shape[0])
    (used,) = np.nonzero(weights)
    if used.size == 0:
        return np.zeros_like(a)
    power = _expm(a * law.points[0])
    total = weights[0] * power
    if used[-1] > 0:
        step = _expm(a * law.step)
        for w in weights[1 : used[-1] + 1]:
            power = power @ step
            total += w * power
    return total


def _stages(law: RenewalSpec) -> int:
    """The phases of an Exponential or Erlang law."""
    return law.stages if isinstance(law, Erlang) else 1


def _ph_arrays(law: RenewalSpec) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, S) of an Exponential or Erlang law, stage 1 first; `_NEVER` is
    one phase that never leaves."""
    if law is _NEVER:
        return np.ones(1), np.zeros((1, 1))
    stages = _stages(law)
    return np.eye(stages)[0], law.rate * (np.eye(stages, k=1) - np.eye(stages))


def _exponential_sigma(x: RenewalSpec, mu: float, t_r: RenewalSpec, omega: float) -> _Cycle:
    """min(Sigma, R) with an Exponential(mu) Sigma TTL.

    The Sigma TTL outlasts a request interval X with chance e^{-mu X}
    whatever its age, so P(tau > k) = K^k with K_omega the hit weight
    E[e^{-(omega + mu) X} 1{X <= T_R}]. Then 1 - K_omega is the drop
    L_0(X) - L_{omega + mu}(X) plus the miss weight at omega + mu
    (`_weights`), and L_omega(X) - K_omega is L_omega(X) - L_{omega + mu}(X)
    plus the same miss weight, each a sum without cancellation (`_gap`):
    E[tau] = 1 / (1 - K_0) and the transform is their ratio. Each interval
    holds the object for min(X, T_R, T_Sigma), so the in-cache time is E[tau]
    times `_discounted_held`. At omega > 0 only the transform is formed.
    """
    miss = _weights(x, t_r, omega + mu)[1]
    transform = (_gap(x, omega, mu) + miss) / (_gap(x, 0.0, omega + mu) + miss)
    if omega > 0.0:
        return _Cycle(math.nan, math.nan, transform)
    tau = 1.0 / (_gap(x, 0.0, mu) + miss)
    return _Cycle(tau, tau * _discounted_held(x, t_r, mu), transform)


def _stage_hits(w: RenewalSpec, lam: float, top: int) -> tuple[np.ndarray, np.ndarray]:
    """P(W >= Y_m) and P(W < Y_m) for Y_m ~ Erlang(m, lam), m = 1, ...,
    top, each a sum of nonnegative terms.

    Y_m <= u iff a Poisson(lam u) count reaches m, which `_poisson_tails`
    reads at the atoms of W. Against W ~ Erlang(q, b), in the merged streams
    of rates lam and b, Y_m ends first iff fewer than q of W's events come
    before the m-th of Y's, and last iff the q-th of W's comes after j < m
    of Y's: with the `_nb_terms` table of rows m and columns j < q, a row sum
    and, times b / lam, a running sum of the last column.
    """
    if w is _NEVER:
        return np.ones(top), np.zeros(top)
    if isinstance(w, _ATOMS):
        pmf, above = _poisson_tails(lam * w.points, top)
        return w.masses @ above[:, 1:], w.masses @ pmf.cumsum(axis=1)
    b = w.rate
    table = _nb_terms(np.arange(1, top + 1), _stages(w), -math.log1p(b / lam), -math.log1p(lam / b))
    return table.sum(axis=1), b / lam * table[:, -1].cumsum()


def _stage_terms(v: RenewalSpec, w: RenewalSpec, r: float, omega: float, n: int):
    """For V ~ Erlang(p, a) tilted to rate b = a + omega, rows i = 1, ..., p
    of the chances of k < n Sigma phases before stage i, C(i - 1 + k, k)
    (b / lam)^i (r / lam)^k with lam = b + r, and `_stage_hits` of W at lam:
    after k phases stage i ends at Erlang(i + k, lam), one entry per order."""
    p, b = _stages(v), v.rate + omega
    table = _nb_terms(np.arange(1, p + 1), n, -math.log1p(r / b), -math.log1p(b / r))
    return table, *_stage_hits(w, b + r, p + n - 1)


def _erlang_sigma(x: RenewalSpec, t_sigma: RenewalSpec, t_r: RenewalSpec, omega: float) -> _Cycle:
    """An Erlang(n, r) Sigma TTL, with requests and R TTL of any law
    (`_NEVER` for a Sigma cache), by power series in the shift J.

    Step k ends with the object still cached iff S_k <= T_Sigma and every
    request so far was a hit (X <= T_R), so P(tau > k) = alpha K^k 1 with
    K_omega = E[e^{-omega X} e^{S X} 1{X <= T_R}], S = r (J - I): the sum of
    c_k J^k, c_k = E[e^{-(r + omega) X} (r X)^k / k! 1{X <= T_R}], and d_k
    the same over X > T_R. Read by first coefficients:

    * w = alpha (I - K)^{-1} is 1 / (1 - c(z)): with u = 1 - c_0 formed as
      `_gap` plus d_0, w_k = (c_1 w_{k-1} + ... + c_k w_0) / u; E[tau] = w 1.
    * The transform is w (L_omega(X) 1 - K_omega 1), entry i, with m = n - i
      phases left, the discounted chance that a request outlasts T_R or m
      phases: every d_j, c_j over m <= j < n, and the chance that it
      outlasts n phases. At omega = 0 it is 1.
    * The in-cache time is w times the integral of P(X > v) P(T_R > v)
      e^{S v} 1, entry i the sum over k < m of h_k, the integral of
      P(X > v) P(T_R > v) e^{-r v} (r v)^k / k!.

    For X ~ Erlang(p, a), c_k + d_k is L_omega(X) times the negative
    binomial chance of k Sigma phases within the request, and `_stage_terms`
    splits it; P(X > v) is the sum of the Erlang(i, a) densities over a, i
    <= p, so h is the sum over i of c at omega = 0 for Erlang(i, a) requests,
    over a, and likewise with X and T_R swapped. For X on atoms, c and d
    weight Poisson probabilities by the atoms' hit and miss weights, and with
    T_R on atoms or none h_k = P(M >= Erlang(k + 1, r)) / r, M = min(X, T_R)
    on the atoms of both.
    """
    n, r = _stages(t_sigma), t_sigma.rate
    if isinstance(x, _ATOMS):
        hit_w, miss_w = _atom_weights(x, t_r, omega)
        pmf, above = _poisson_tails(r * x.points, n)
        c, d = hit_w @ pmf, miss_w @ pmf
    elif isinstance(x, _PH_LAWS):
        table, hits, misses = _stage_terms(x, t_r, r, omega, n)
        nb = x.laplace(omega) * table[-1]
        c, d = nb * hits[-n:], nb * misses[-n:]
    else:
        raise ValidationError(f"requests known by their transform need an Exponential TTL: {x!r}")
    u = _gap(x, 0.0, r + omega) + d[0]
    w = np.empty(n)
    w[0] = 1.0 / u
    for i in range(1, n):
        w[i] = c[i:0:-1] @ w[:i] / u
    if omega > 0.0:
        # the chance that the request outlasts n phases
        if isinstance(x, _ATOMS):
            beyond = (hit_w + miss_w) @ above[:, n]
        else:
            # n phases before stage i + 1, after i < p stages
            beyond = x.laplace(omega) * r / (x.rate + omega) * table[:, -1].sum()
        total = float(w.sum())
        return _Cycle(total, math.nan, (beyond + d.sum()) * total + float(w[1:] @ c[:0:-1].cumsum()))
    if isinstance(x, _PH_LAWS) or isinstance(t_r, _PH_LAWS):
        v = x if isinstance(x, _PH_LAWS) else t_r
        if v is t_r:  # requests on atoms: the same sum over the R TTL's stages
            table, hits, _ = _stage_terms(t_r, x, r, 0.0, n)
        h = (table * hits[np.arange(table.shape[0])[:, None] + np.arange(n)]).sum(axis=0) / v.rate
    else:
        # M is X where T_R >= X, with the hit weights, else T_R
        h = hit_w @ above[:, 1:] / r
        if t_r is not _NEVER:
            first = t_r.masses * _atom_tails(x, t_r.points, "right")[1]
            h += first @ _poisson_tails(r * t_r.points, n)[1][:, 1:] / r
    return _Cycle(float(w.sum()), float(w @ h.cumsum()[::-1]), 1.0)


def _held(x: RenewalSpec, t_r: RenewalSpec, u: np.ndarray) -> np.ndarray:
    """E[min(X, T_R, u)] for X on atoms, elementwise in u >= 0."""
    j = np.searchsorted(x.points, u, side="right")  # atoms at or below u
    below = np.concatenate([[0.0], np.cumsum(x.masses * _discounted_survival(t_r, 0.0, x.points))])
    above = 1.0 - x._cumulative[0]
    return below[j] + above[j] * _discounted_survival(t_r, 0.0, u)


def _partial_sums(x: Tabulated, hits: np.ndarray, horizon: float):
    """Positions s and weights Q(s) = sum over k of P(S_k = s, the first k
    requests all hits) for s <= horizon, by repeated convolution.

    S_k sits at (j + k / 2) step, so Q lives on the half-step lattice. A
    convolution stops once the weight it carries drops below `_MASS_EPS`.
    """
    half = x.step / 2
    size = math.floor(horizon / half) + 1
    if size > _MAX_STEPS:
        raise BudgetExceededError("renewal", size, _MAX_STEPS, "partial sums")
    hits = hits[: size // 2 + 1]  # the atoms at or below the horizon, and one more
    total = np.zeros(size)
    q, k = np.ones(1), 0
    while q.size and q.sum() >= _MASS_EPS:
        total[k::2][: q.size] += q
        k += 1
        q = np.convolve(q, hits)[: (size - 1 - k) // 2 + 1]
    return np.arange(size) * half, total


def _atom_requests(x: RenewalSpec, t_sigma: RenewalSpec, t_r: RenewalSpec, omega: float) -> _Cycle:
    """Requests on atoms under a Deterministic or Tabulated Sigma TTL.

    With Q(s) from `_partial_sums` (for X = d, Q(k d) = p^k, p = P(T_R >= d))
    P(tau > k) sums Q over the step-k partial sums s with P(T_Sigma >= s): a
    request exactly at a TTL is a hit. E[tau] = sum of Q(s) P(T_Sigma >= s),
    the transform is 1 - (1 - L_omega(X)) times the same sum discounted by
    e^{-omega s}, and the in-cache time is E[min(T_Sigma, E_R)], E_R the
    eviction time of R alone: the sum over s <= T_Sigma of Q(s) E[min(X, T_R,
    T_Sigma - s)]. A Sigma cache holds the object for the whole TTL.
    """
    horizon = float(t_sigma.points[-1])
    hits = x.masses * t_r.survival_geq(x.points)
    if isinstance(x, Deterministic):
        d = x.value
        count = math.floor(horizon / d) + 2  # the last partial sum is past the horizon
        if count > _MAX_STEPS:
            raise BudgetExceededError("renewal", count, _MAX_STEPS, "partial sums")
        k = np.arange(count)
        pos, q = k * d, hits[0] ** k
        alive = q * t_sigma.survival_geq(pos)  # P(tau > k)
        # the difference form keeps its relative accuracy when tau is long
        transform = float(np.exp(-omega * d * k[1:]) @ (alive[:-1] - alive[1:]))
    else:
        pos, q = _partial_sums(x, hits, horizon)
        alive = q * t_sigma.survival_geq(pos)
        transform = 1.0 - (1.0 - x.laplace(omega)) * float(np.exp(-omega * pos) @ alive)
    if t_r is _NEVER:
        in_cache = t_sigma.mean
    elif omega > 0.0:
        in_cache = math.nan
    else:
        pos, q = pos[q > 0.0], q[q > 0.0]
        gap = t_sigma.points[:, None] - pos
        held = np.zeros(gap.shape)
        reached = gap >= 0.0
        held[reached] = _held(x, t_r, gap[reached])
        in_cache = float(t_sigma.masses @ held @ q)
    return _Cycle(float(alive.sum()), in_cache, transform)


def _alive_chain(x: RenewalSpec, t_sigma: RenewalSpec, t_r: RenewalSpec, omega: float) -> _Cycle:
    """PH(beta, T) requests, a phase-type or `_NEVER` R TTL PH(alpha_R,
    S_R) and a Sigma TTL on atoms.

    Until eviction the pair (request phase, R phase) is a Markov chain on
    A = T (+) S_R + (t (x) 1)(beta (x) alpha_R), t = -T 1: a request is a
    hit that restarts both. It starts at beta (x) alpha_R at the miss and
    loses mass only when T_R fires (rate 1 (x) s_R). With y(u) its mass at
    time u and T_Sigma = c: E[tau] = 1 + int_0^c y (t (x) 1), the in-cache
    time is int_0^c y 1, and S_tau is the first request after the eviction,
    so with phi = (omega I - T)^{-1} t and y discounted by e^{-omega u} the
    transform is y(c) (phi (x) 1) + int_0^c y (phi (x) s_R). One Van Loan
    block gives all three at c; a Tabulated T_Sigma mixes them over its
    atoms in one pass of `_expm_mix`.
    """
    beta, t = _ph_arrays(x)
    alpha_r, s_r = _ph_arrays(t_r)
    exits, exits_r = -t.sum(axis=1), -s_r.sum(axis=1)
    ones_r = np.ones(alpha_r.size)
    dim = beta.size * alpha_r.size
    _dense(dim + 3)
    start = dense_kron(beta, alpha_r)
    hit = dense_kron(exits, ones_r)
    a = dense_kron(t, np.eye(alpha_r.size)) + dense_kron(np.eye(beta.size), s_r)
    a += np.outer(hit, start)
    phi = np.linalg.solve(omega * np.eye(beta.size) - t, exits)
    rates = np.column_stack([hit, np.ones(dim), dense_kron(phi, exits_r)])
    block = _van_loan(a - omega * np.eye(dim), rates)
    end = np.concatenate([start, np.zeros(3)]) @ _expm_mix(block, t_sigma, t_sigma.masses)
    hits, held, evicted = end[dim:]
    transform = end[:dim] @ dense_kron(phi, ones_r) + evicted
    return _Cycle(1.0 + float(hits), float(held), float(transform))


def _deterministic_ttls(x: RenewalSpec, c_sigma: float, c_r: float, omega: float) -> _Cycle:
    """PH(alpha, S) requests under Deterministic TTLs.

    The object is evicted at E, the earlier of c_sigma and the first time
    the gap since the miss or the last request reaches c_r; tau = 1 + N(E),
    the in-cache time is E, and S_tau is the first request after E. With
    s = -S 1, Q = S + s alpha and beta = alpha e^{S c_r}, the cached mass
    y(u) over request phases solves the linear delay equation y(0) = alpha,
    y' = y Q, a jump of -beta at u = c_r and y'(u) = y(u) Q -
    (y(u - c_r) s) beta after c_r (a request at u - c_r followed by none
    evicts at u). Then E[tau] = 1 + int y s and the in-cache time is
    int y 1.
    """
    alpha, s_mat = _ph_arrays(x)
    n = alpha.size
    s = -s_mat.sum(axis=1)
    q = s_mat + np.outer(s, alpha)
    steps, rest = divmod(c_sigma, c_r)  # R windows that close before c_sigma
    steps, beta = int(steps), None
    if steps:
        e_r = _expm(s_mat * c_r)
        beta = alpha @ e_r
        # A window of length c_r without a request evicts, so the mass still
        # cached after j windows is at most rho^j, rho the largest chance over
        # the phases of a request within c_r.
        rho = 1.0 - e_r.sum(axis=1).min()
        if rho < 1.0:
            needed = math.ceil(math.log(_MASS_EPS) / math.log(rho)) if rho > 0.0 else 1
            if needed < steps:
                steps, rest = needed, 0.0
    _dense(n * (steps + 1))
    # at omega > 0, the same equation for e^{-omega u} y(u): hits and held discounted
    y_end, (hits, held) = _delay_steps(alpha, q, s, beta, c_r, steps, rest, omega)
    transform = 1.0
    if omega > 0.0:
        # S_tau - E is PH(., S) from the phase at E, with transform phi; an R
        # eviction leaves the phase law beta / (beta 1), and by the mass
        # balance of the discounted equation the discounted mass R evicts is
        # 1 - y(end) 1 - omega int y 1.
        phi = np.linalg.solve(omega * np.eye(n) - s_mat, s)
        transform = float(y_end @ phi)
        if steps and beta.sum() > 0.0:
            transform += float(beta @ phi / beta.sum()) * (1.0 - y_end.sum() - omega * held)
    return _Cycle(1.0 + float(hits), float(held), float(transform))


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
    g = dense_kron(np.eye(blocks), q - omega * np.eye(n))
    if steps:
        g -= dense_kron(np.eye(blocks, k=1), math.exp(-omega * c_r) * np.outer(s, beta))
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


def _gap(x: RenewalSpec, omega: float, mu: float) -> float:
    """L_omega(X) - L_{omega + mu}(X) = E[e^{-omega X} (1 - e^{-mu X})],
    without cancellation for the laws of both families; any other law is
    read through its `laplace`."""
    if isinstance(x, Exponential):
        lam = x.rate
        return lam * mu / ((lam + omega) * (lam + omega + mu))
    if isinstance(x, Erlang):
        return x.laplace(omega) * -math.expm1(x.stages * math.log1p(-mu / (x.rate + omega + mu)))
    if isinstance(x, _ATOMS):
        return float(x.masses @ (np.exp(-omega * x.points) * -np.expm1(-mu * x.points)))
    return x.laplace(omega) - x.laplace(omega + mu)


def _atom_tails(law: RenewalSpec, u: np.ndarray, side: str = "left") -> tuple[np.ndarray, np.ndarray]:
    """P(V < u) and P(V >= u) for V on atoms (P(V <= u) and P(V > u) on the
    "right" side), each a sum of masses."""
    j = np.searchsorted(law.points, u, side)
    below, above = law._cumulative
    return below[j], above[j]


def _discounted_survival(w: RenewalSpec, mu: float, c: np.ndarray) -> np.ndarray:
    """The integral of e^{-mu u} P(W > u) over u in [0, c], elementwise in c;
    at mu = 0, E[min(W, c)].

    With phi(u) = (1 - e^{-mu u}) / mu, u at mu = 0: for W on atoms, the sum
    of m phi(p) over the atoms p < c plus phi(c) P(W >= c). For W ~
    Erlang(q, b), with lam = b + mu, e^{-mu u} P(W > u) is the sum over j < q
    of (b / lam)^j times the Poisson(lam u) probability of j, whose integral
    up to c is P(j + 1, lam c) / lam.
    """
    if isinstance(w, _ATOMS):

        def phi(u):
            return -np.expm1(-mu * u) / mu if mu > 0.0 else u

        j = np.searchsorted(w.points, c)
        below = np.concatenate([[0.0], np.cumsum(w.masses * phi(w.points))])
        return below[j] + phi(c) * w._cumulative[1][j]  # P(W >= c)
    lam = w.rate + mu
    return sum((w.rate / lam) ** j * _gamma_tails(j + 1, lam * c)[0] for j in range(_stages(w))) / lam


def _discounted_held(x: RenewalSpec, t: RenewalSpec, mu: float) -> float:
    """E[min(X, T, E)] for E ~ Exponential(mu) independent of X and T, the
    integral of e^{-mu u} P(X > u) P(T > u) over u >= 0, as a sum of
    nonnegative terms; at mu = 0 (E never ends), E[min(X, T)].

    Against an Exponential(rate) law it is `_gap` at mu + rate over mu +
    rate; against a law on atoms, the mass-weighted sum over its atoms of
    `_discounted_survival` of the other law. For Erlang(p, a) and Erlang(q,
    b) it is the mean count of events of the merged Poisson streams of
    rates a, b and mu up to the p-th of the first, the q-th of the second or
    the first of the third, over lam = a + b + mu: the sum over n of the
    chance that the first n events end nothing, the sum of C(n, i) x^i
    y^(n - i) over the i < p events of the first with n - i < q (x = a /
    lam, y = b / lam), built level by level by Pascal's rule.
    """
    for v, w in ((x, t), (t, x)):
        if isinstance(w, Exponential):
            return _gap(v, 0.0, mu + w.rate) / (mu + w.rate)
    for v in (x, t):
        if not isinstance(v, _ATOMS + _PH_LAWS):
            raise ValidationError(f"a law known by its transform needs an Exponential law against it: {v!r}")
    for v, w in ((x, t), (t, x)):
        if isinstance(v, _ATOMS):
            return float(v.masses @ _discounted_survival(w, mu, v.points))
    lam = x.rate + t.rate + mu
    level = np.zeros(x.stages)  # entry i: i events of the first stream
    level[0] = 1.0
    total = 0.0
    for n in range(x.stages + t.stages - 1):
        total += level.sum()
        level[1:] = level[1:] * (t.rate / lam) + level[:-1] * (x.rate / lam)
        level[0] *= t.rate / lam
        level[: max(n + 2 - t.stages, 0)] = 0.0  # the second stream's q-th event
    return float(total / lam)


def _atom_weights(x: RenewalSpec, t: RenewalSpec, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """e^{-omega x} P(X = x) times P(T >= x) and P(T < x) at each atom x of
    X: the weights of a request that hits and of one that misses."""
    w = x.masses * np.exp(-omega * x.points)
    if isinstance(t, _ATOMS):
        below, above = _atom_tails(t, x.points)
    elif isinstance(t, Erlang):
        below, above = _gamma_tails(t.stages, t.rate * x.points)
    else:
        below, above = t.cdf(x.points), t.survival_geq(x.points)
    return w * above, w * below


def _weights(x: RenewalSpec, t: RenewalSpec, omega: float) -> tuple[float, float]:
    """E[e^{-omega X} 1{X <= T}] and E[e^{-omega X} 1{X > T}]: the weights of
    a request that hits and of one that misses, each summed directly."""
    if isinstance(t, Exponential):
        return x.laplace(omega + t.rate), _gap(x, omega, t.rate)
    if isinstance(x, _ATOMS):
        hit, miss = _atom_weights(x, t, omega)
        return float(hit.sum()), float(miss.sum())
    if not isinstance(x, _PH_LAWS):
        raise ValidationError(f"requests known by their transform need an Exponential TTL: {x!r}")
    if isinstance(t, _ATOMS):
        # the tilted X is the same phase-type law at rate + omega
        tilted, lx = replace(x, rate=x.rate + omega), x.laplace(omega)
        below, above = tilted.cdf(t.points), tilted.survival_geq(t.points)
        return lx * float(t.masses @ below), lx * float(t.masses @ above)
    if isinstance(x, Exponential):
        # lam / (lam + omega) times P(T >= X') and P(T < X'), X' ~ Exp(lam + omega)
        rate = x.rate + omega
        return x.laplace(omega) * _gap(t, 0.0, rate), x.laplace(omega) * t.laplace(rate)
    # Erlang(k, a) under Erlang(m, b): the tilted X is Erlang(k, a + omega) and
    # ends first iff k of its events come before m of T's in the merged Poisson
    # streams, that is iff at least k of the first k + m - 1 merged events are X's
    rate = x.rate + omega
    total = rate + t.rate
    first, second = _binomial_tails(x.stages + t.stages - 1, x.stages, rate / total, t.rate / total)
    return x.laplace(omega) * first, x.laplace(omega) * second


def transform_r(x: RenewalSpec, t: RenewalSpec, omega: float) -> float:
    """Laplace transform of the inter-miss time of a reset-on-request cache.

    Evaluates (L_omega(X) - psi) / (1 - psi) with psi = E[e^{-omega X}
    1{X <= T}], as miss / (L_0(X) - L_omega(X) + miss) with miss =
    L_omega(X) - psi (`_weights`); requires psi < 1.
    """
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    _, miss = _weights(x, t, omega)
    below_one = _gap(x, 0.0, omega) + miss  # 1 - psi
    if below_one <= 0.0:
        raise DivergentStoppingTimeError(
            "psi(omega) >= 1: requests never outlast the TTL, the cache never misses"
        )
    return miss / below_one


def transform_sigma(x: RenewalSpec, t: RenewalSpec, omega: float) -> float:
    """Laplace transform of the inter-miss time of a reset-on-miss cache, by
    the route of the module docstring's table."""
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    return _cycle(x, StoppingPolicy.reset_on_miss(t), omega).transform


def transform_min(
    x: RenewalSpec,
    t_sigma: RenewalSpec,
    t_r: RenewalSpec,
    omega: float,
    samples: int = 1_000_000,
    rng=None,
) -> MonteCarloValue:
    """Laplace transform of the inter-miss time of a min(Sigma, R) cache.

    Exact (stderr 0) by the route of the module docstring's table. `samples`
    and `rng` are accepted for compatibility and change no result.
    """
    if omega < 0:
        raise ValidationError("omega must be nonnegative")
    return MonteCarloValue(_cycle(x, StoppingPolicy.min_of(t_sigma, t_r), omega).transform, 0.0)


def expected_tau(
    x: RenewalSpec,
    policy: StoppingPolicy,
    samples: int = 1_000_000,
    rng=None,
) -> MonteCarloValue:
    """Mean number of requests per miss cycle, E[tau], exact (stderr 0).

    R: geometric with success probability P(X > T). Sigma and min(Sigma,
    R): the route of the module docstring's table. `samples` and `rng` are
    accepted for compatibility and change no result.
    """
    if policy.tag == "R":
        _, p_miss = _weights(x, policy.ttl, 0.0)
        if p_miss <= 0.0:
            raise DivergentStoppingTimeError(
                "P(X > T) = 0: the TTL structurally never expires before a request"
            )
        return MonteCarloValue(1.0 / p_miss, 0.0)
    return MonteCarloValue(_rest_cycle(x, policy).tau, 0.0)


def hit_miss_renewal(x: RenewalSpec, policy: StoppingPolicy) -> RenewalHitMiss:
    """Hit and miss probabilities: M = 1 / E[tau], H = 1 - M."""
    miss = 1.0 / expected_tau(x, policy).value
    return RenewalHitMiss(hit=1.0 - miss, miss=miss)


def expected_stopped_sum(x: RenewalSpec, policy: StoppingPolicy) -> float:
    """Mean inter-miss time E[S_tau] = E[tau] E[X] (Wald's identity)."""
    return expected_tau(x, policy).value * x.mean


def occupancy_renewal(
    x: RenewalSpec,
    policy: StoppingPolicy,
    samples: int = 1_000_000,
    rng=None,
) -> float:
    """Long-run fraction of time the object is cached.

    R: E[min(X, T)] / E[X], E[min(X, T)] being `_discounted_held` at rate
    0. Sigma and min(Sigma, R): the mean in-cache time of a cycle over
    E[tau] E[X], by the route of the module docstring's table. `samples` and
    `rng` are accepted for compatibility and change no result.
    """
    if policy.tag == "R":
        return _discounted_held(x, policy.ttl, 0.0) / x.mean
    cycle = _rest_cycle(x, policy)
    return cycle.in_cache / (cycle.tau * x.mean)


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
