"""Markov arrival processes and phase-type distributions.

A MAP is a pair (d0, d1) of equal-dimension square matrices: d0 holds the
rates of hidden transitions of the background chain, d1 the rates of active
(event-emitting) transitions, and d0 + d1 is a conservative generator.

A phase-type (PH) distribution is the absorption time of a finite chain.
The full generator representation used throughout places the absorbing
state first (row 0), which lets the cache input-output constructions
transcribe as plain block templates.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, ValidationError
from .kron import (
    ProbabilityVector,
    RateMatrix,
    _dot,
    _solver,
    dense_kron,
    kron_sum,
    kron_sum_operator,
    kron_sum_vector,
    reachable,
    reversed_edges,
    steady_state,
)

__all__ = [
    "MarkovArrivalProcess",
    "PhaseTypeDistribution",
    "ValidationReport",
    "MapSampler",
    "validate_map",
    "fundamental_rate",
    "superpose",
    "split",
    "ph_min",
    "ph_mean",
    "sample_map",
    "sample_ph",
    "poisson_map",
    "mmpp_map",
    "erlang_approximation",
]

_ROWSUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MarkovArrivalProcess:
    """MAP given by hidden (d0) and active (d1) rate matrices."""

    d0: RateMatrix
    d1: RateMatrix

    def __post_init__(self):
        if not (self.d0.is_square and self.d1.is_square):
            raise DimensionError("d0 and d1 must be square")
        if self.d0.rows != self.d1.rows:
            raise DimensionError("d0 and d1 must have equal dimension")

    @property
    def order(self) -> int:
        return self.d0.rows

    @property
    def generator(self) -> RateMatrix:
        """Background-chain generator d0 + d1."""
        return self.d0 + self.d1

    @cached_property
    def stationary(self) -> ProbabilityVector:
        """Stationary vector of the background chain, solved on first read."""
        return steady_state(self.generator)

    @cached_property
    def d0_singular(self) -> bool:
        """Whether d0 is singular, as `validate_map` reads it once the sign
        and row-sum checks pass: by the graph search (`_d0_is_singular`) on
        first read, unless the MAP's producer set it from its parts
        (`superpose`, `split` and `cache_ops.CacheChain.map`; see `_certify`).
        """
        return _d0_is_singular(self.d0, self.d1)

    def __eq__(self, other):
        if not isinstance(other, MarkovArrivalProcess):
            return NotImplemented
        return self.d0 == other.d0 and self.d1 == other.d1

    def __hash__(self):
        return hash((self.d0, self.d1))

    def __repr__(self):
        return f"MarkovArrivalProcess(order={self.order})"


@dataclass(frozen=True, eq=False)
class PhaseTypeDistribution:
    """PH distribution (s, pi): subintensity over transient phases plus initial vector."""

    s: RateMatrix
    pi: ProbabilityVector
    exit_rates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.s.is_square:
            raise DimensionError("subintensity must be square")
        if self.s.rows != len(self.pi):
            raise DimensionError("initial vector length must match the subintensity order")
        if not np.isfinite(self.s.data).all():  # `ProbabilityVector` refuses a non-finite pi
            raise ValidationError("subintensity and initial vector entries must be finite")
        if (self.s.diagonal() >= 0).any():
            raise ValidationError("subintensity diagonal must be strictly negative")
        if ((self.s.data < 0) & (self.s.row_idx != self.s.col_idx)).any():
            raise ValidationError("subintensity off-diagonal entries must be nonnegative")
        exits = -self.s.row_sums()
        if (exits < -_ROWSUM_TOL).any():
            raise ValidationError("subintensity row sums must be nonpositive")
        exits = exits.clip(0.0)
        if not (exits > 0).any():
            raise ValidationError("absorption unreachable: all exit rates are zero")
        exits.flags.writeable = False
        object.__setattr__(self, "exit_rates", exits)

    @property
    def order(self) -> int:
        return self.s.rows

    @cached_property
    def always_absorbs(self) -> bool:
        """Whether every phase reaches absorption through s."""
        return bool(reachable(*reversed_edges(self.s), np.flatnonzero(self.exit_rates)).all())

    def full_generator(self) -> RateMatrix:
        """(m+1)-state generator with the absorbing state first."""
        m = self.order
        exits = np.flatnonzero(self.exit_rates)
        r = np.concatenate([exits + 1, self.s.row_idx + 1])
        # canonical once merged by row: a row's exit (column 0) before its s entries
        order = np.argsort(r, kind="stable")
        c = np.concatenate([np.zeros_like(exits), self.s.col_idx + 1])
        v = np.concatenate([self.exit_rates[exits], self.s.data])
        return RateMatrix(m + 1, m + 1, r[order], c[order], v[order])

    @classmethod
    def exponential(cls, rate: float) -> "PhaseTypeDistribution":
        if rate <= 0:
            raise ValidationError("exponential rate must be positive")
        return cls(RateMatrix.from_dense([[-rate]]), ProbabilityVector([1.0]))

    @classmethod
    def erlang(cls, stages: int, rate: float) -> "PhaseTypeDistribution":
        """Erlang distribution: `stages` sequential phases, each at `rate`."""
        if stages < 1:
            raise ValidationError("erlang needs at least one stage")
        if rate <= 0:
            raise ValidationError("erlang rate must be positive")
        triplets = [(i, i, -rate) for i in range(stages)]
        triplets += [(i, i + 1, rate) for i in range(stages - 1)]
        pi = np.zeros(stages)
        pi[0] = 1.0
        return cls(RateMatrix.from_triplets(stages, stages, triplets), ProbabilityVector(pi))

    def __eq__(self, other):
        if not isinstance(other, PhaseTypeDistribution):
            return NotImplemented
        return self.s == other.s and self.pi == other.pi

    def __hash__(self):
        return hash((self.s, self.pi))

    def __repr__(self):
        return f"PhaseTypeDistribution(order={self.order})"


def erlang_approximation(value: float, stages: int = 20) -> PhaseTypeDistribution:
    """Erlang-k surrogate for a deterministic duration (mean matched, CV^2 = 1/k)."""
    if value <= 0:
        raise ValidationError("deterministic value must be positive")
    return PhaseTypeDistribution.erlang(stages, stages / value)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_map(m: MarkovArrivalProcess, *more: MarkovArrivalProcess) -> ValidationReport:
    """Check all MAP invariants; returns a report rather than raising.

    The finiteness, sign and row-sum checks come first. Once they pass, -d0
    is a Z-matrix whose row sums equal those of d1, and d0 is singular
    exactly when some state cannot reach an event-emitting state (a nonzero
    row of d1) through hidden transitions; see :func:`_d0_is_singular`. The
    verdict is the MAP's `d0_singular`: the MAPs that `superpose`, `split`
    and a cache operator build carry it from their parts, so only other
    MAPs are searched.

    With `more`, the MAP checked is the superposition of m and `more`, read
    from the parts without assembling it: its sign checks are the parts',
    its diagonal and row sums are Kronecker sums of theirs, and its d0, the
    Kronecker sum of the parts' d0, is singular exactly when every part's
    is. (An eigenvalue of a Kronecker sum is a sum of one eigenvalue of
    each part, and those of a d0 that passes the sign and row-sum checks
    have negative real parts, but for 0.) Sign and finiteness violations
    name a part's own coordinates.

    The checks run as one vectorized pass over each part, and the messages
    are formatted only when it fails (`_violations`). A NaN or infinite
    rate makes its row's sum NaN or infinite, so the row-sum test of that
    pass refuses it too.
    """
    parts = (m,) + more
    diags, sums, signed = [], [], True
    for p in parts:
        d0, d1 = p.d0, p.d1
        diag = d0.diagonal()
        diags.append(diag)
        sums.append(d0.row_sums() + d1.row_sums())
        # every negative rate of d0 and d1 on the diagonal of d0
        negative = np.count_nonzero(d0.data < 0) + np.count_nonzero(d1.data < 0)
        signed = signed and negative == np.count_nonzero(diag < 0)
    diag, sums = kron_sum_vector(diags), kron_sum_vector(sums)
    problems = ()
    n = diag.size
    if not (
        signed
        and np.count_nonzero(diag < 0) == n
        and np.count_nonzero(np.abs(sums) <= _ROWSUM_TOL) == n
    ):
        problems = _violations(parts, diag, sums)
    if not problems and all(p.d0_singular for p in parts):
        problems = ("d0 is singular",)
    return ValidationReport(ok=not problems, violations=problems)


def _violations(parts, diag: np.ndarray, sums: np.ndarray) -> tuple[str, ...]:
    """The messages of `validate_map` for the MAP parts `parts`, whose
    Kronecker sums of diagonals and row sums of d0 + d1 are `diag` and `sums`."""
    problems: list[str] = []
    for d0, d1 in ((p.d0, p.d1) for p in parts):
        for name, d in (("d0", d0), ("d1", d1)):
            bad = ~np.isfinite(d.data)
            for r, c in zip(d.row_idx[bad], d.col_idx[bad]):
                problems.append(f"non-finite {name} rate at ({r}, {c})")
        neg_active = d1.data < 0
        for r, c in zip(d1.row_idx[neg_active], d1.col_idx[neg_active]):
            problems.append(f"negative active rate at ({r}, {c})")
        off = d0.row_idx != d0.col_idx
        neg_hidden = off & (d0.data < 0)
        for r, c in zip(d0.row_idx[neg_hidden], d0.col_idx[neg_hidden]):
            problems.append(f"negative hidden off-diagonal rate at ({r}, {c})")
    for i in np.nonzero(diag >= 0)[0]:
        problems.append(f"nonnegative d0 diagonal at state {i}")
    for i in np.nonzero(np.abs(sums) > _ROWSUM_TOL)[0]:
        problems.append(f"row {i} of d0+d1 sums to {sums[i]:g}, not 0")
    return tuple(problems)


def _d0_is_singular(d0: RateMatrix, d1: RateMatrix) -> bool:
    """Graph test for a singular d0, valid once the sign and row-sum checks pass.

    Then -d0 is a Z-matrix, weakly diagonally dominant by rows, and strictly
    dominant in the rows where d1 has an entry (the leaking states). Such a
    matrix is nonsingular iff it is weakly chained diagonally dominant: every
    state reaches a leaking state along the off-diagonal entries of d0
    (Shivakumar & Chew 1974; Azimzadeh & Forsyth 2016). A d0-closed class
    with no leaking state has row sums zero, so its indicator vector is in
    the null space. One breadth-first search over the reversed hidden edges,
    from every leaking state at once, decides it in O(nnz) with no roundoff
    (the diagonal's self-loops reach nothing new). Its first level is taken
    here: no search when every state leaks or has a hidden edge to one that does.
    """
    near = np.bincount(d1.row_idx, minlength=d1.rows) > 0
    near[d0.row_idx[near[d0.col_idx]]] = True
    return not near.all() and not reachable(*reversed_edges(d0), np.flatnonzero(near)).all()


def _signed(m: MarkovArrivalProcess) -> bool:
    """No negative active rate and no negative hidden rate off the diagonal:
    then the sums of rates that `superpose` and `split` form cancel nowhere,
    which the verdicts they pass on need."""
    off = m.d0.row_idx != m.d0.col_idx
    return not (m.d1.data < 0).any() and not (m.d0.data[off] < 0).any()


def _certify(m: MarkovArrivalProcess, singular: bool) -> MarkovArrivalProcess:
    """m, its singular-d0 verdict set to `singular`, which its producer
    derived from its parts: `validate_map` then runs no graph search on it."""
    m.__dict__["d0_singular"] = singular
    return m


def require_valid(m: MarkovArrivalProcess, *more: MarkovArrivalProcess) -> MarkovArrivalProcess:
    """m, if it (with `more`: the superposition of m and `more`) is a valid MAP."""
    report = validate_map(m, *more)
    if not report:
        raise ValidationError("invalid MAP: " + "; ".join(report.violations))
    return m


def fundamental_rate(m: MarkovArrivalProcess) -> float:
    """Long-run event rate p d1 1 for the stationary background vector p."""
    return float(_dot(m.stationary.entries, m.d1.row_sums()))


def superpose(maps) -> MarkovArrivalProcess:
    """Merge independent MAPs; matrices combine by Kronecker sums.

    State order is the Cartesian product of the input state spaces in
    lexicographic order (first argument outermost). Each matrix takes one
    sort of its Kronecker terms, bit for bit the chained `kron_sum`s.

    The result's d0 is singular exactly when every part's is (see
    `validate_map`), so its verdict comes from the parts' when their rates
    have a MAP's signs.
    """
    maps = list(maps)
    if not maps:
        raise ValidationError("superpose requires at least one MAP")
    d0 = kron_sum_operator([m.d0 for m in maps]).assemble()
    d1 = kron_sum_operator([m.d1 for m in maps]).assemble()
    out = MarkovArrivalProcess(d0, d1)
    if all(_signed(m) for m in maps):
        _certify(out, all(m.d0_singular for m in maps))
    return out


def split(m: MarkovArrivalProcess, p: ProbabilityVector) -> list[MarkovArrivalProcess]:
    """Thin a MAP into len(p) sub-processes routed with probabilities p.

    Component i keeps fraction p[i] of the active transitions; the rest
    become hidden, so every component shares the original background chain.

    A component whose d1 keeps every entry of m's (a positive weight, no
    product underflowed) keeps m's singular-d0 verdict when m's rates have
    a MAP's signs: its states that emit are m's, and its hidden edges are
    m's and those of the moved active rates, which leave emitting states
    only.
    """
    out = []
    signed = _signed(m)
    for weight in p:
        d0 = m.d0 + m.d1.scale(1.0 - weight)
        d1 = m.d1.scale(weight)
        part = MarkovArrivalProcess(d0, d1)
        if signed and d1.nnz == m.d1.nnz:
            _certify(part, m.d0_singular)
        out.append(part)
    return out


def ph_min(t1: PhaseTypeDistribution, t2: PhaseTypeDistribution) -> PhaseTypeDistribution:
    """Minimum of two independent PH distributions.

    The result has order m*q with subintensity s1 (+) s2 and initial vector
    pi1 (x) pi2. The argument order fixes the state order (first argument
    outermost) and is load-bearing for the min-policy cache construction.
    """
    s = kron_sum(t1.s, t2.s)
    pi = ProbabilityVector(dense_kron(t1.pi.entries, t2.pi.entries))
    return PhaseTypeDistribution(s, pi)


def ph_mean(t: PhaseTypeDistribution) -> float:
    """Expected absorption time -pi s^{-1} 1: s^{-1} 1 by dense LU up to
    `kron._DENSE_MAX` phases, by sparse LU above."""
    try:
        y = _solver(t.s)(np.ones(t.order))
    except ValueError as exc:
        raise ValidationError(f"singular subintensity: {exc}") from exc
    if not np.all(np.isfinite(y)):
        raise ValidationError("singular subintensity")
    return float(-np.dot(t.pi.entries, y))


class MapSampler:
    """Stateful exact sampler for the joint chain (J(t), N(t)) of a MAP.

    Each jump waits an exponential holding time at the total exit rate of
    the current state and then picks a hidden or active transition with
    probability proportional to its rate; active transitions emit events.
    """

    __slots__ = ("time", "state", "_rng", "_cum", "_codes", "_scales", "_poisson")

    def __init__(self, m: MarkovArrivalProcess, rng, initial_state: int | None = None):
        n = m.order
        exit_rates = -m.d0.diagonal()
        if np.any(exit_rates <= 0):
            raise ValidationError("every state needs a positive total exit rate")
        rates_by_state: list[list[tuple[int, float, bool]]] = [[] for _ in range(n)]
        for r, c, v in zip(m.d0.row_idx, m.d0.col_idx, m.d0.data):
            if r != c:
                rates_by_state[r].append((int(c), float(v), False))
        for r, c, v in zip(m.d1.row_idx, m.d1.col_idx, m.d1.data):
            rates_by_state[r].append((int(c), float(v), True))
        # per state, as plain lists for the jump loop: cumulative jump
        # probabilities (the last pinned to 1) and each jump's code,
        # 2 * target + 1 if it emits an event
        self._cum, self._codes = [], []
        for j, entries in enumerate(rates_by_state):
            if not entries:
                raise ValidationError(f"state {j} has no outgoing transitions")
            cum = np.cumsum([v for _, v, _ in entries])
            cum = (cum / cum[-1]).tolist()
            cum[-1] = 1.0
            self._cum.append(cum)
            self._codes.append([2 * t + a for t, _, a in entries])
        self._scales = 1.0 / exit_rates
        # every jump emits an event: a Poisson process
        self._poisson = self._codes == [[1]]
        self._rng = rng
        self.time = 0.0
        if initial_state is None:
            initial_state = int(rng.choice(n, p=m.stationary.entries))
        self.state = initial_state

    def sample(self, n: int) -> np.ndarray:
        """Advance by `n` events; returns their absolute times in order."""
        rng = self._rng
        if self._poisson:
            clock = self.time + np.cumsum(rng.exponential(self._scales[0], n))
            self.time = float(clock[-1])
            return clock
        # run the jump chain over pre-drawn uniforms; a jump emits at most one
        # event, so one uniform per event still missing never overshoots n
        cum, codes = self._cum, self._codes
        state, jumps, missing = self.state, [self.state * 2], n
        while missing:
            for u in rng.random(missing).tolist():
                code = codes[state][bisect_right(cum[state], u)]
                jumps.append(code)
                missing -= code & 1
                state = code >> 1
        self.state = state
        jumps = np.array(jumps)
        holding = rng.standard_exponential(jumps.size - 1) * self._scales[jumps[:-1] >> 1]
        clock = self.time + np.cumsum(holding)
        self.time = float(clock[-1])
        return clock[(jumps[1:] & 1).astype(bool)]


def sample_map(
    m: MarkovArrivalProcess,
    horizon: int,
    rng,
    initial_state: int | None = None,
) -> np.ndarray:
    """Simulate `horizon` event times of a MAP; deterministic given the rng state."""
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    return MapSampler(m, rng, initial_state).sample(horizon)


def sample_ph(t: PhaseTypeDistribution, rng, size: int | None = None):
    """Absorption times of a PH distribution by jump-chain simulation.

    Returns one float, or an array of `size` i.i.d. draws whose chains all
    jump together, one vectorized step per round.
    """
    n = 1 if size is None else size
    s = t.s.to_dense()
    scales = -1.0 / np.diag(s)
    # cumulative jump rates per phase; column `order` is absorption
    cum = np.cumsum(np.hstack([s - np.diag(np.diag(s)), t.exit_rates[:, None]]), axis=1)
    pi_cum = np.cumsum(t.pi.entries)
    phase = np.searchsorted(pi_cum, rng.random(n) * pi_cum[-1], side="right")
    elapsed = np.zeros(n)
    live = np.arange(n)
    while live.size:
        elapsed[live] += rng.standard_exponential(live.size) * scales[phase]
        u = rng.random(live.size) * cum[phase, -1]
        phase = (cum[phase] <= u[:, None]).sum(axis=1)
        keep = phase < t.order
        live, phase = live[keep], phase[keep]
    return float(elapsed[0]) if size is None else elapsed


def poisson_map(rate: float) -> MarkovArrivalProcess:
    """One-state MAP of a Poisson process."""
    if rate <= 0:
        raise ValidationError("rate must be positive")
    return MarkovArrivalProcess(
        RateMatrix.from_dense([[-rate]]), RateMatrix.from_dense([[rate]])
    )


def mmpp_map(q, rates) -> MarkovArrivalProcess:
    """Markov-modulated Poisson process: modulating generator q, per-state rates."""
    q = q if isinstance(q, RateMatrix) else RateMatrix.from_dense(q)
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size != q.rows:
        raise DimensionError("rates length must match the modulating chain dimension")
    if np.any(rates < 0):
        raise ValidationError("MMPP rates must be nonnegative")
    n = q.rows
    d1 = RateMatrix.from_triplets(n, n, [(i, i, r) for i, r in enumerate(rates) if r != 0.0])
    d0 = q + d1.scale(-1.0)
    return MarkovArrivalProcess(d0, d1)
