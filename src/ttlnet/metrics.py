"""Cache metrics computed from MAP descriptions of the request and miss processes."""

from dataclasses import dataclass

import numpy as np

from .cache_ops import CacheOutput
from .errors import DimensionError, NoStationaryDistributionError
from .kron import _dot, steady_state
from .processes import MarkovArrivalProcess

__all__ = ["CacheMetrics", "metrics_from_maps", "stationary_interval_moments"]


@dataclass(frozen=True)
class CacheMetrics:
    """Per-object steady-state metrics of one cache node."""

    hit_probability: float
    miss_probability: float
    occupancy: float
    input_rate: float
    miss_rate: float
    expected_inter_miss: float

    def to_dict(self) -> dict:
        return {
            "hit_probability": self.hit_probability,
            "miss_probability": self.miss_probability,
            "occupancy": self.occupancy,
            "input_rate": self.input_rate,
            "miss_rate": self.miss_rate,
            "expected_inter_miss": self.expected_inter_miss,
        }


def metrics_from_maps(input_map: MarkovArrivalProcess, output: CacheOutput) -> CacheMetrics:
    """Hit/miss probabilities, occupancy, and rates of a MAP cache.

    The miss probability is the ratio of the stationary miss rate
    p' d1' 1 to the stationary request rate p d1 1; the occupancy is the
    stationary mass of the IN states of the miss process. Requires the
    background chain of the miss process to be ergodic.

    Only the output chain is solved. Its request coordinate is strongly
    lumpable: every cache operator's hit-reset and miss templates together
    have unit row sums, so the generator Q' of the output chain satisfies
    Q' (1 (x) I) = 1 (x) (d0 + d1). The input vector p is therefore the
    marginal of p' over the TTL-phase blocks, and a reducible input chain
    makes the output chain reducible too, which the output solve rejects.

    Raises
    ------
    DimensionError
        If `output` has a different number of OUT states than `input_map`
        has states, that is, was not built from `input_map`.
    """
    n = input_map.order
    if len(output.out_states) != n:
        raise DimensionError(
            f"cache output has {len(output.out_states)} OUT states but the"
            f" input MAP has {n} states"
        )
    try:
        p_out = steady_state(output.map.generator)
    except NoStationaryDistributionError as exc:
        raise NoStationaryDistributionError(
            f"cache metrics need ergodic background chains: {exc}"
        ) from exc
    p_in = p_out.entries.reshape(-1, n).sum(axis=0)
    input_rate = float(_dot(p_in, input_map.d1.row_sums()))
    miss_rate = float(_dot(p_out.entries, output.map.d1.row_sums()))
    miss = miss_rate / input_rate
    in_idx = np.fromiter(output.in_states, dtype=np.int64)
    occupancy = float(np.sum(p_out.entries[in_idx])) if in_idx.size else 0.0
    return CacheMetrics(
        hit_probability=1.0 - miss,
        miss_probability=miss,
        occupancy=occupancy,
        input_rate=input_rate,
        miss_rate=miss_rate,
        expected_inter_miss=1.0 / miss_rate,
    )


def stationary_interval_moments(m: MarkovArrivalProcess, count: int = 2) -> list[float]:
    """First `count` moments of the stationary inter-event time of a MAP.

    The time between consecutive events started in stationarity is
    phase-type with subintensity d0 and initial vector p d1 / (p d1 1), so
    the k-th moment is k! phi (-d0)^{-k} 1.
    """
    from scipy.sparse import linalg as spla  # deferred: keeps scipy.linalg off import

    p = steady_state(m.generator)
    rate_vec = m.d1.to_csr().T @ p.entries
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
