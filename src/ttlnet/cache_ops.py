"""Input-output closure operators for TTL caches with MAP requests and PH TTLs.

A cache's miss process is a new MAP on (TTL phase x request state). The
TTL phase is the outer index, with the absorbing phase first, so the first
n states form the OUT group (object absent) and each further block of n
states is one transient TTL phase of the IN group (object present). With a
TTL of full generator P and a request MAP (d0, d1), every policy builds

    d0' = (P (+) d0) + (H (x) d1)
    d1' = (A (x) d1)

where A has the single row 0 = (0, pi): a request seen while the object is
absent is a miss, installs the object, and starts the TTL from pi. The
three policies differ only in the hit-reset template H, which says where a
request seen while the object is present (a hidden hit) sends the TTL
phase. Row 0 of H is zero; its IN block is

* Sigma: the identity, since a hit leaves the TTL phase untouched.
* R: every row equal to pi, since a hit restarts the TTL.
* min(Sigma, R): block diagonal over the Sigma phases, each block with
  every row equal to pi_R, since a hit restarts only the R component.

Every row of H + A sums to one, so the request coordinate of the output
chain evolves on its own with generator d0 + d1.
"""

from dataclasses import dataclass

import numpy as np

from .kron import RateMatrix, kron_product, kron_sum_terms, kron_terms
from .processes import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    ph_min,
    require_valid,
)

__all__ = ["CacheOutput", "output_sigma", "output_r", "output_min"]


@dataclass(frozen=True)
class CacheOutput:
    """Miss-process MAP of a cache plus its IN/OUT state partition.

    The OUT group is the first n states, n the request MAP's order, and the
    IN group the rest. `ttl` is the phase-type TTL the MAP was built with
    (the joint minimum for a min(Sigma, R) cache), when known.
    """

    map: MarkovArrivalProcess
    in_states: range
    out_states: range
    ttl: PhaseTypeDistribution | None = None

    @property
    def order(self) -> int:
        return self.map.order


def _pi_rows(pi: np.ndarray, rows: int) -> RateMatrix:
    """Sparse (rows x len(pi)) matrix with every row equal to pi."""
    nz = np.flatnonzero(pi)
    # canonical as built: rows ascending, pi's nonzeros ascending in each
    return RateMatrix(
        rows,
        pi.size,
        np.repeat(np.arange(rows), nz.size),
        np.tile(nz, rows),
        np.tile(pi[nz], rows),
    )


def _cache_output(
    m: MarkovArrivalProcess, ttl: PhaseTypeDistribution, hit_reset: RateMatrix
) -> CacheOutput:
    """Miss process of a cache whose hits move the TTL phase by `hit_reset`.

    `hit_reset` is the IN block of H: a sparse (ttl.order x ttl.order)
    matrix over the transient TTL phases whose rows sum to one. H and A
    shift it and pi past the absorbing phase, so every step stays O(nnz).
    d0' is assembled from the triplets of its three Kronecker terms in one
    sort, bit for bit the sum built term by term (see
    `RateMatrix.from_terms`).
    """
    require_valid(m)
    k = ttl.order
    # canonical as built, so no sort: H is hit_reset shifted, A row 0 of pi's nonzeros
    h = RateMatrix(k + 1, k + 1, hit_reset.row_idx + 1, hit_reset.col_idx + 1, hit_reset.data)
    pi = ttl.pi.entries
    nz = np.flatnonzero(pi)
    a = RateMatrix(k + 1, k + 1, np.zeros_like(nz), nz + 1, pi[nz])
    n, size = m.order, (k + 1) * m.order
    terms = kron_sum_terms([ttl.full_generator(), m.d0]) + [kron_terms(h, m.d1)]
    d0p = RateMatrix.from_terms(size, size, terms)
    d1p = kron_product(a, m.d1)
    return CacheOutput(
        MarkovArrivalProcess(d0p, d1p),
        in_states=range(n, size),
        out_states=range(n),
        ttl=ttl,
    )


def output_sigma(m: MarkovArrivalProcess, t: PhaseTypeDistribution) -> CacheOutput:
    """Miss process of a reset-on-miss (Sigma) cache.

    Parameters
    ----------
    m : MarkovArrivalProcess
        Request process with n states.
    t : PhaseTypeDistribution
        TTL with m transient phases; requests and TTL independent.

    Returns
    -------
    CacheOutput
        MAP of dimension n(m+1). Hidden matrix: (P (+) d0) plus a copy of d1
        on every IN diagonal block (in-cache requests are hits that leave the
        TTL phase untouched). Active matrix: top block row (0, pi_1 d1, ...,
        pi_m d1).
    """
    return _cache_output(m, t, RateMatrix.identity(t.order))


def output_r(m: MarkovArrivalProcess, t: PhaseTypeDistribution) -> CacheOutput:
    """Miss process of a reset-on-request (R) cache.

    Same layout as :func:`output_sigma`, but a hit also restarts the TTL:
    every IN block row of the hidden correction carries (pi_1 d1, ...,
    pi_m d1) instead of keeping the phase fixed.
    """
    return _cache_output(m, t, _pi_rows(t.pi.entries, t.order))


def output_min(
    m: MarkovArrivalProcess,
    t_sigma: PhaseTypeDistribution,
    t_r: PhaseTypeDistribution,
) -> CacheOutput:
    """Miss process of a min(Sigma, R) cache holding two parallel TTLs.

    The joint TTL is min(t_sigma, t_r) with the Sigma phases outermost; that
    argument order cannot be swapped without scrambling the reset blocks.
    Hits restart only the R component, so the hidden correction is block
    diagonal over Sigma phases, each q*q block repeating the row
    (pi^R_1 d1, ..., pi^R_q d1). Dimension n(m*q + 1).
    """
    r_reset = _pi_rows(t_r.pi.entries, t_r.order)
    return _cache_output(
        m, ph_min(t_sigma, t_r), kron_product(RateMatrix.identity(t_sigma.order), r_reset)
    )
