"""Cache metrics computed from MAP descriptions of the request and miss processes."""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import kron
from .cache_ops import CacheChain, _misses_kept, _parts
from .errors import DimensionError, NoStationaryDistributionError, ValidationError
from .kron import (
    RateMatrix,
    _dot,
    dense_kron,
    edges,
    kron_sum_vector,
    reachable,
    steady_state,
)
from .processes import MarkovArrivalProcess, PhaseTypeDistribution

__all__ = ["CacheMetrics", "metrics_from_maps", "stationary_interval_moments"]


@dataclass(frozen=True)
class CacheMetrics:
    """Per-object steady-state metrics of one cache node.

    `stationary` is the stationary vector of the output chain, the miss
    MAP's background chain, when the metrics were computed from it; it is
    not serialized.
    """

    hit_probability: float
    miss_probability: float
    occupancy: float
    input_rate: float
    miss_rate: float
    expected_inter_miss: float
    stationary: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "hit_probability": self.hit_probability,
            "miss_probability": self.miss_probability,
            "occupancy": self.occupancy,
            "input_rate": self.input_rate,
            "miss_rate": self.miss_rate,
            "expected_inter_miss": self.expected_inter_miss,
        }


def metrics_from_maps(
    input_map: MarkovArrivalProcess | tuple, output: CacheChain, p_in: np.ndarray | None = None
) -> CacheMetrics:
    """Hit/miss probabilities, occupancy, and rates of a cache, from its
    output chain's factors.

    `input_map` is the request MAP the cache `output` was built from, or the
    tuple of independent MAPs whose superposition it sees. The miss
    probability is the ratio of the stationary miss rate p' d1' 1 to the
    stationary request rate p d1 1, the hit probability that of the request
    rate over the IN states, p'_IN (1 (x) d1 1); the occupancy is the
    stationary mass of the IN states of the miss process. Requires the
    background chain of the miss process to be ergodic; the returned
    metrics carry its stationary vector p' as `stationary`.

    The request coordinate of the output chain is strongly lumpable: every
    cache operator's hit-reset and miss templates together have unit row
    sums, so Q' (1 (x) I) = 1 (x) (d0 + d1) for the output generator Q'.
    The input vector p is therefore the marginal of p' over the TTL-phase
    blocks, and a reducible input chain makes the output chain reducible.

    `p_in` is the stationary vector of the input's background chain, which
    must be irreducible; without it, the Kronecker product of the
    stationary vectors of the chain's inputs. p' comes from it
    (`_output_vector`) above `kron._GTH_MAX` states, and the rates d1 1 and
    d1' 1 from the factors' row sums: no `KronOperator` is formed for them,
    and the miss MAP (`CacheChain.map`) is never assembled.

    Raises
    ------
    DimensionError
        If `output` has another number of OUT states than the input (a
        tuple: the product of its orders) has states, or `p_in` another length.
    """
    n = math.prod(m.order for m in _parts(input_map))
    if len(output.out_states) != n:
        raise DimensionError(
            f"cache output has {len(output.out_states)} OUT states but the"
            f" input MAP has {n} states"
        )
    if p_in is not None and p_in.size != n:
        raise DimensionError(f"input vector has {p_in.size} entries, not {n}")
    try:
        p_out = _output_vector(output, p_in)
    except NoStationaryDistributionError as exc:
        raise NoStationaryDistributionError(
            f"cache metrics need ergodic background chains: {exc}"
        ) from exc
    rates = [m.d1.row_sums() for m in output.inputs]
    requests = kron_sum_vector(rates)
    # d1' = sum_i A (x) d1_i has row sums only in the OUT block, where row 0
    # of A sums to that of pi: the terms' row sums, added in order from the
    # factors' (`np.cumsum` adds in order, as `RateMatrix.row_sums` does)
    misses = np.zeros(output.order)
    pi_total = output.ttl.pi.entries.cumsum()[-1]
    misses[:n] = kron_sum_vector([pi_total * r for r in rates])
    # the OUT block, then one block of request states per TTL phase (IN)
    blocks = p_out.reshape(-1, n)
    cached = blocks[1:].sum(axis=0)
    input_rate = float(_dot(blocks.sum(axis=0), requests))
    miss_rate = float(_dot(p_out, misses))
    # the hit flow itself, not 1 - miss, keeps relative accuracy when hits are rare
    hit_rate = float(_dot(cached, requests))
    occupancy = float(cached.sum())
    return CacheMetrics(
        hit_probability=hit_rate / input_rate,
        miss_probability=miss_rate / input_rate,
        occupancy=occupancy,
        input_rate=input_rate,
        miss_rate=miss_rate,
        expected_inter_miss=1.0 / miss_rate,
        stationary=p_out,
    )


def _output_vector(chain: CacheChain, p_in) -> np.ndarray:
    """The output chain's stationary vector: within `kron._GTH_MAX` states
    by `steady_state` of Q' = d0' + d1', the chain's dense pair summed;
    above it from the input vector (`p_in`, or its inputs' own) and the
    chain's given-input system (`CacheChain.in_system`).

    There the generator checks and the gates read the factors (see
    `kron._check_generator` and `kron._gate`). Q' is assembled
    (`chain.generator.assemble()`) only for what the factors cannot do:
    the graph search for irreducibility where `_phases_live` cannot show
    it, and `steady_state`, which solves any chain that the given-input
    route declines or whose vector fails a gate.
    """
    if chain._dense_pair is not None:
        d0p, d1p = chain._dense_pair
        return steady_state(RateMatrix._of_dense(d0p + d1p)).entries
    q = chain.generator
    try:
        kron._check_generator(q)
    except ValidationError:  # the factor test is only sufficient: steady_state's decides
        return steady_state(q.assemble()).entries
    live = _phases_live(chain.ttl, *(m.d1 for m in chain.inputs))
    if not live and not kron._is_irreducible(q.assemble()):
        raise NoStationaryDistributionError(
            "generator is reducible: no unique stationary distribution"
        )
    if p_in is None:
        p_in = reduce(dense_kron, [m.stationary.entries for m in chain.inputs])
    x = kron._given_input_solve(q, *chain.in_system(p_in), p_in)
    return steady_state(q.assemble()).entries if x is None else x


def _phases_live(ttl: PhaseTypeDistribution, *d1s: RateMatrix) -> bool:
    """Whether a cache output chain is irreducible when its input chain is.

    The input's active matrix is the Kronecker sum of `d1s`, one per
    superposed input. True when every TTL phase is reachable from supp(pi)
    through S, every phase reaches absorption through S, and no miss rate
    pi_l d1_ij of the factors underflows. Then, from any state, the TTL
    runs out on its own and reaches the OUT block; the OUT states reach
    each other along the input chain's edges (a d1 edge through an IN
    state and back out); and every IN state (l, i) is reached by a miss
    into some request state w, installing a phase of supp(pi), then the TTL
    moving to l while the requests move from w to i by hidden transitions.
    Such a w exists for every i: on a path of the irreducible input chain
    from the target of a d1 edge to i, take the target of the last d1
    edge. Hit resets are not used, so the argument holds for every policy.
    False does not show the chain reducible: a reset-on-request hit can
    lead out of a phase that never absorbs.
    """
    pi = ttl.pi.entries
    entered = reachable(*edges(ttl.s), np.flatnonzero(pi)).all()
    return bool(entered and ttl.always_absorbs and _misses_kept(pi, d1s))


def stationary_interval_moments(m: MarkovArrivalProcess, count: int = 2) -> list[float]:
    """First `count` moments of the stationary inter-event time of a MAP.

    The time between consecutive events started in stationarity is
    phase-type with subintensity d0 and initial vector p d1 / (p d1 1), so
    the k-th moment is k! phi (-d0)^{-k} 1, by LU of -d0 (`kron._solver`):
    dense up to `kron._DENSE_MAX` states, sparse above. p is the MAP's own
    stationary vector, solved on its first read.
    """
    p = m.stationary
    d1 = m.d1
    rate_vec = np.bincount(d1.col_idx, weights=p.entries[d1.row_idx] * d1.data, minlength=m.order)
    phi = rate_vec / rate_vec.sum()
    moments = []
    y = np.ones(m.order)
    factorial = 1.0
    try:
        solve = kron._solver(m.d0.scale(-1.0))
        for k in range(1, count + 1):
            y = solve(y)
            factorial *= k
            moments.append(float(factorial * np.dot(phi, y)))
    except ValueError as exc:
        raise ValidationError(f"singular d0: {exc}") from exc
    return moments
