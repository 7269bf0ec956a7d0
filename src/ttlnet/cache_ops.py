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

The template is written once, as a list of Kronecker terms of small
factors (`CacheChain`): P (x) I and I (x) d0 and H (x) d1 in d0', A (x) d1 in
d1'. A cache whose requests are the superposition of independent MAPs
(d0_i, d1_i) has d0 = (+)_i d0_i and d1 = (+)_i d1_i, so each input term
expands into one term per input, with the factors of that input alone. The
assembled MAP (`CacheChain.output`, behind `output_sigma`, `output_r` and
`output_min`) and the factored generator (`CacheChain.generator`, a
`kron.KronOperator` that is never assembled) both read that list.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kron import KronOperator, RateMatrix, kron_product, kron_sum_operator
from .processes import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    ph_min,
    require_valid,
)

__all__ = ["CacheOutput", "CacheChain", "cache_chain", "output_sigma", "output_r", "output_min"]


@dataclass(frozen=True)
class CacheChain:
    """A cache's output chain on its Kronecker factors.

    `inputs` are the independent request MAPs the cache sees superposed:
    one for a leaf, or for a superposition assembled as one MAP. `ttl` is
    the phase-type TTL (the joint minimum for a min(Sigma, R) cache) and
    `hit_reset` the IN block of H, a sparse (ttl.order x ttl.order) matrix
    whose rows sum to one. Axis 0 of every term is the TTL phase, with the
    absorbing phase (the OUT state) first; the other axes are the inputs'
    states, first input outermost. `hidden` and `active` are the terms of
    d0' and d1', and `generator` is Q' = d0' + d1' on the factors.
    """

    ttl: PhaseTypeDistribution
    hit_reset: RateMatrix
    inputs: tuple[MarkovArrivalProcess, ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    hidden: list = field(init=False, repr=False, compare=False)
    active: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # H and A shift hit_reset and pi past the absorbing phase, canonical
        # as built, so every step stays O(nnz)
        k = self.ttl.order
        reset = self.hit_reset
        h = RateMatrix(k + 1, k + 1, reset.row_idx + 1, reset.col_idx + 1, reset.data)
        pi = self.ttl.pi.entries
        nz = np.flatnonzero(pi)
        a = RateMatrix(k + 1, k + 1, np.zeros_like(nz), nz + 1, pi[nz])
        d0 = kron_sum_operator([m.d0 for m in self.inputs]).terms
        d1 = kron_sum_operator([m.d1 for m in self.inputs]).terms
        hidden = [(self.ttl.full_generator(),) + (None,) * len(self.inputs)]
        hidden += [(None,) + t for t in d0] + [(h,) + t for t in d1]
        active = [(a,) + t for t in d1]
        object.__setattr__(self, "dims", (k + 1,) + tuple(m.order for m in self.inputs))
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "active", active)

    @cached_property
    def generator(self) -> KronOperator:
        return KronOperator(self.dims, self.hidden + self.active)

    def output(self) -> "CacheOutput":
        """The assembled miss MAP: d0' and d1' each from its terms' triplets
        in one sort, bit for bit the sums built term by term (see
        `RateMatrix.from_terms`)."""
        d0p = KronOperator(self.dims, self.hidden).assemble()
        d1p = KronOperator(self.dims, self.active).assemble()
        n = d0p.rows // self.dims[0]
        return CacheOutput(
            MarkovArrivalProcess(d0p, d1p), in_states=range(n, d0p.rows), out_states=range(n),
            chain=self,
        )


@dataclass(frozen=True)
class CacheOutput:
    """Miss-process MAP of a cache plus its IN/OUT state partition.

    The OUT group is the first n states, n the request MAP's order, and the
    IN group the rest. `chain` is the factored chain the MAP was assembled
    from (`CacheChain.output`), and `ttl` its phase-type TTL (the joint
    minimum for a min(Sigma, R) cache).
    """

    map: MarkovArrivalProcess
    in_states: range
    out_states: range
    chain: CacheChain

    @property
    def ttl(self) -> PhaseTypeDistribution:
        return self.chain.ttl

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


def cache_chain(
    policy: str,
    inputs,
    ttl: PhaseTypeDistribution,
    ttl_r: PhaseTypeDistribution | None = None,
) -> CacheChain:
    """The chain of a "Sigma", "R" or "MinSigmaR" cache fed by the
    superposition of the independent MAPs `inputs`, validated on its parts
    (`validate_map`).

    A Sigma hit leaves the TTL phase untouched (H_IN = I), an R hit restarts
    it (every row pi), and a min(Sigma, R) hit restarts only the R
    component of the joint TTL min(ttl, ttl_r), Sigma phases outermost.
    """
    inputs = tuple(inputs)
    require_valid(*inputs)
    if policy == "Sigma":
        return CacheChain(ttl, RateMatrix.identity(ttl.order), inputs)
    if policy == "R":
        return CacheChain(ttl, _pi_rows(ttl.pi.entries, ttl.order), inputs)
    r_reset = _pi_rows(ttl_r.pi.entries, ttl_r.order)
    return CacheChain(
        ph_min(ttl, ttl_r), kron_product(RateMatrix.identity(ttl.order), r_reset), inputs
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
    return cache_chain("Sigma", [m], t).output()


def output_r(m: MarkovArrivalProcess, t: PhaseTypeDistribution) -> CacheOutput:
    """Miss process of a reset-on-request (R) cache.

    Same layout as :func:`output_sigma`, but a hit also restarts the TTL:
    every IN block row of the hidden correction carries (pi_1 d1, ...,
    pi_m d1) instead of keeping the phase fixed.
    """
    return cache_chain("R", [m], t).output()


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
    return cache_chain("MinSigmaR", [m], t_sigma, t_r).output()
