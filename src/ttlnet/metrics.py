"""Cache metrics computed from MAP descriptions of the request and miss processes."""

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import kron
from .cache_ops import CacheChain, CacheOutput
from .errors import DimensionError, NoStationaryDistributionError, ValidationError
from .kron import (
    KronOperator,
    RateMatrix,
    _dot,
    edges,
    kron_sum_vector,
    reachable,
    reversed_edges,
    steady_state,
)
from .processes import MarkovArrivalProcess, PhaseTypeDistribution

__all__ = ["CacheMetrics", "metrics_from_maps", "chain_metrics", "stationary_interval_moments"]


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
    input_map: MarkovArrivalProcess, output: CacheOutput, p_in: np.ndarray | None = None
) -> CacheMetrics:
    """Hit/miss probabilities, occupancy, and rates of a MAP cache.

    The miss probability is the ratio of the stationary miss rate
    p' d1' 1 to the stationary request rate p d1 1, the hit probability
    that of the request rate over the IN states, p'_IN (1 (x) d1 1); the
    occupancy is the stationary mass of the IN states of the miss process.
    Requires the background chain of the miss process to be ergodic; the
    returned metrics carry its stationary vector p' as `stationary`.

    The request coordinate of the output chain is strongly lumpable: every
    cache operator's hit-reset and miss templates together have unit row
    sums, so Q' (1 (x) I) = 1 (x) (d0 + d1) for the output generator Q'.
    The input vector p is therefore the marginal of p' over the TTL-phase
    blocks, and a reducible input chain makes the output chain reducible.

    `p_in` is the stationary vector of the input MAP's background chain,
    which must be irreducible; without it, the Kronecker product of the
    stationary vectors of `output.chain`'s inputs. An output chain of more
    than `kron._GTH_MAX` states is solved from it on its Kronecker factors
    (see `chain_metrics`), a smaller one alone (`steady_state`).

    Raises
    ------
    DimensionError
        If `output` has a different number of OUT states than `input_map`
        has states, that is, was not built from `input_map`, or `p_in`
        has another length.
    """
    n = input_map.order
    if len(output.out_states) != n:
        raise DimensionError(
            f"cache output has {len(output.out_states)} OUT states but the"
            f" input MAP has {n} states"
        )
    if p_in is not None and p_in.size != n:
        raise DimensionError(f"input vector has {p_in.size} entries, not {n}")
    requests, misses = input_map.d1.row_sums(), output.map.d1.row_sums()
    return _cache_metrics(output.chain, p_in, lambda: output.map.generator, requests, misses)


def chain_metrics(chain: CacheChain, p_in: np.ndarray | None = None) -> CacheMetrics:
    """`metrics_from_maps` of a cache given as its output chain's factors.

    The stationary vector p' comes from the factors by the given-input
    solve (`kron._given_input_solve`; `p_in` as in `metrics_from_maps`),
    and so do the request rates d1 1 and the miss rates d1' 1 that the
    metrics read, so no matrix of Q''s size is built. Q' is assembled only
    where the factors do not decide: for a chain of at most
    `kron._GTH_MAX` states, whose GTH solve reads it dense, when a solve
    fails its gates, or when the chain's irreducibility needs the graph
    search.
    """
    requests = kron_sum_vector([m.d1.row_sums() for m in chain.inputs])
    misses = KronOperator(chain.dims, chain.active).row_sums()
    return _cache_metrics(chain, p_in, chain.generator.assemble, requests, misses)


def _cache_metrics(
    chain: CacheChain, p_in, generator, requests: np.ndarray, misses: np.ndarray
) -> CacheMetrics:
    """The metrics of the output vector (`_output_vector`) from the request
    rates d1 1 of the input states and the miss rates d1' 1 of the output
    states."""
    try:
        p_out = _output_vector(chain, p_in, generator)
    except NoStationaryDistributionError as exc:
        raise NoStationaryDistributionError(
            f"cache metrics need ergodic background chains: {exc}"
        ) from exc
    # the OUT block, then one block of request states per TTL phase (IN)
    blocks = p_out.reshape(-1, requests.size)
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


def _output_vector(chain: CacheChain, p_in, generator) -> np.ndarray:
    """The output chain's stationary vector, above `kron._GTH_MAX` states
    from the input vector (`p_in`, or its inputs' own) on its factors.

    The generator checks and the gates read the factors (see
    `kron._check_generator` and `kron._gate`). `generator()` assembles Q'
    for what the factors cannot do: the graph search for irreducibility
    where `_phases_live` cannot show it, and `steady_state`, which solves
    a chain within the GTH bound and any chain that the given-input route
    declines or whose vector fails a gate.
    """
    if math.prod(chain.dims) <= kron._GTH_MAX:
        return steady_state(generator()).entries
    q = chain.generator
    try:
        kron._check_generator(q)
    except ValidationError:  # the factor test is only sufficient: steady_state's decides
        return steady_state(generator()).entries
    if not _phases_live(chain.ttl, *(m.d1 for m in chain.inputs)):
        q_assembled = generator()
        if not kron._is_irreducible(q_assembled):
            raise NoStationaryDistributionError(
                "generator is reducible: no unique stationary distribution"
            )
        generator = lambda: q_assembled  # noqa: E731
    if p_in is None:
        p_in = reduce(np.kron, [steady_state(m.generator).entries for m in chain.inputs])
    x = kron._given_input_solve(q, p_in)
    return steady_state(generator()).entries if x is None else x


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
    entered = reachable(*edges(ttl.s), np.flatnonzero(pi))
    absorbed = reachable(*reversed_edges(ttl.s), np.flatnonzero(ttl.exit_rates))
    rates = [d1.data.min() for d1 in d1s if d1.nnz]
    return bool(entered.all() and absorbed.all() and rates and pi[pi > 0].min() * min(rates) > 0.0)


def stationary_interval_moments(m: MarkovArrivalProcess, count: int = 2) -> list[float]:
    """First `count` moments of the stationary inter-event time of a MAP.

    The time between consecutive events started in stationarity is
    phase-type with subintensity d0 and initial vector p d1 / (p d1 1), so
    the k-th moment is k! phi (-d0)^{-k} 1.
    """
    from scipy.sparse import linalg as spla  # deferred: keeps scipy off import

    p = steady_state(m.generator)
    d1 = m.d1
    rate_vec = np.bincount(d1.col_idx, weights=p.entries[d1.row_idx] * d1.data, minlength=m.order)
    phi = rate_vec / rate_vec.sum()
    lu = spla.splu((m.d0.scale(-1.0)).to_csr().tocsc())
    moments = []
    y = np.ones(m.order)
    factorial = 1.0
    for k in range(1, count + 1):
        y = lu.solve(y)
        factorial *= k
        moments.append(float(factorial * np.dot(phi, y)))
    return moments
