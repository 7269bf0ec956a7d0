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
expands into one term per input, with the factors of that input alone.
The operators take one request MAP or a tuple of independent ones, whose
superposition is never assembled. Every reader of a cache goes through the
`CacheChain` they return. A chain of at most `kron._GTH_MAX` states is
built at once as the dense pair (d0', d1'), summed from its factors' dense
forms in the terms' order, which its miss MAP (`map`) and its metrics
read. A larger chain is never assembled for its solve: its generator
(`generator`) and given-input system (`in_system`) stay on the factors,
and its miss MAP is assembled on first read.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kron import (
    _GTH_MAX,
    KronOperator,
    RateMatrix,
    _dense_sum,
    _eye,
    dense_kron,
    kron_sum_operator,
)
from .processes import (
    MarkovArrivalProcess,
    PhaseTypeDistribution,
    _certify,
    ph_min,
    require_valid,
)

__all__ = ["CacheChain", "output_sigma", "output_r", "output_min", "DEFAULT_BUDGET"]

# Most states of one chain that `network.analyze` and the renewal engine's
# miss chain build unless told otherwise.
DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class CacheChain:
    """A cache's output chain on its Kronecker factors, and its miss MAP.

    `inputs` are the independent request MAPs the cache sees superposed:
    one for a leaf, or one per child of a join. `ttl` is the phase-type TTL
    (the joint minimum for a min(Sigma, R) cache) and `hit_reset` the IN
    block of H, a sparse (ttl.order x ttl.order) matrix whose rows sum to
    one. Axis 0 of every term is the TTL phase, with the absorbing phase
    (the OUT state) first; the other axes are the inputs' states, first
    input outermost. `hidden` and `active` are the terms of d0' and d1',
    `generator` is Q' = d0' + d1' on the factors, and `map` the miss MAP
    (d0', d1'). The OUT group (`out_states`) is the first n states, n the
    input's order, and the IN group (`in_states`) the rest.

    A chain of at most `kron._GTH_MAX` states is built once as the dense
    pair (d0', d1') (`_dense_pair`), which `map` and the metrics read; its
    terms are never formed unless asked for. A larger chain keeps only its
    factors: its terms are formed on first read, `map` assembles them in
    one sort, and the generator and given-input system (`in_system`) are
    never assembled.
    """

    ttl: PhaseTypeDistribution
    hit_reset: RateMatrix
    inputs: tuple[MarkovArrivalProcess, ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _dense_pair: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = (self.ttl.order + 1,) + tuple(m.order for m in self.inputs)
        object.__setattr__(self, "dims", dims)
        pair = None
        if math.prod(dims) <= _GTH_MAX:
            pair = _dense_chain(self.ttl, self.hit_reset, self.inputs)
        object.__setattr__(self, "_dense_pair", pair)

    @property
    def order(self) -> int:
        return math.prod(self.dims)

    @property
    def out_states(self) -> range:
        return range(math.prod(self.dims[1:]))

    @property
    def in_states(self) -> range:
        return range(len(self.out_states), self.order)

    @cached_property
    def hidden(self) -> list:
        """The terms of d0': P (x) I, then I (x) d0_i and H (x) d1_i for each
        input i. H shifts hit_reset past the absorbing phase, canonical as
        built, so every step stays O(nnz)."""
        k, reset = self.ttl.order, self.hit_reset
        h = RateMatrix(k + 1, k + 1, reset.row_idx + 1, reset.col_idx + 1, reset.data)
        d0 = kron_sum_operator([m.d0 for m in self.inputs]).terms
        d1 = kron_sum_operator([m.d1 for m in self.inputs]).terms
        hidden = [(self.ttl.full_generator(),) + (None,) * len(self.inputs)]
        return hidden + [(None,) + t for t in d0] + [(h,) + t for t in d1]

    @cached_property
    def active(self) -> list:
        """The terms of d1': A (x) d1_i for each input i, A the single row
        (0, pi), canonical as built."""
        k, pi = self.ttl.order, self.ttl.pi.entries
        nz = np.flatnonzero(pi)
        a = RateMatrix(k + 1, k + 1, np.zeros_like(nz), nz + 1, pi[nz])
        return [(a,) + t for t in kron_sum_operator([m.d1 for m in self.inputs]).terms]

    @cached_property
    def generator(self) -> KronOperator:
        return KronOperator(self.dims, self.hidden + self.active)

    @cached_property
    def map(self) -> MarkovArrivalProcess:
        """The miss MAP: the dense pair, or d0' and d1' each assembled from
        its terms' triplets in one sort; either way bit for bit the sums
        built term by term (see `RateMatrix.from_terms`).

        Its singular-d0 verdict (`validate_map`) follows from the closure of
        MAPs under the operator, for inputs that `output_*` validated. The
        OUT group's hidden transitions are the input's d0 alone, and an OUT
        state emits where its request state does, so d0' is singular when
        the input's d0 is. Otherwise every IN state reaches the OUT group
        when every TTL phase reaches absorption, and then d0' is nonsingular
        unless a miss rate underflows (`_misses_kept`).
        """
        if self._dense_pair is not None:
            d0p, d1p = (RateMatrix._of_dense(a) for a in self._dense_pair)
        else:
            d0p = KronOperator(self.dims, self.hidden).assemble()
            d1p = KronOperator(self.dims, self.active).assemble()
        out = MarkovArrivalProcess(d0p, d1p)
        singular = all(m.d0_singular for m in self.inputs)
        d1s = [m.d1 for m in self.inputs]
        if singular or (self.ttl.always_absorbs and _misses_kept(self.ttl.pi.entries, d1s)):
            _certify(out, singular)
        return out

    def in_system(self, p_in: np.ndarray) -> tuple[KronOperator, np.ndarray]:
        """(-M, rhs): the given-input system x_T (-M) = rhs over the IN
        states T, on the chain's factors, for the input vector `p_in`.

        The input's background chain evolves on its own with stationary
        vector p_in, so the blocks x_0 (OUT) and x_j (TTL phase j) of the
        stationary vector x of Q' sum to p_in. Putting x_0 = p_in - sum_j x_j
        into the balance equations of the IN columns leaves

            x_T (-M) = p_in Q'_OT,   M = Q'_TT - (1 (x) I) Q'_OT,

        a nonsingular system over the IN states alone. Of the template
        (P (+) d0) + H (x) d1 + A (x) d1 only A has an OUT row, (0, pi), and
        P restricted to the IN phases is S, so

            -M = -(S (+) d0) + (1 pi - H_IN) (x) d1,   rhs = pi (x) p_in d1,

        one term per factor of d0 = (+)_i d0_i and d1 = (+)_i d1_i. For an
        R cache H_IN is exactly 1 pi, so its d1 terms drop.
        """
        k, pi = self.ttl.order, self.ttl.pi.entries
        spread = _pi_rows(pi, k) + self.hit_reset.scale(-1.0)  # 1 pi - H_IN
        neg_d0 = kron_sum_operator([m.d0.scale(-1.0) for m in self.inputs]).terms
        d1 = [t[1:] for t in self.active]
        terms = [(self.ttl.s.scale(-1.0),) + (None,) * len(self.inputs)]
        terms += [(None,) + t for t in neg_d0] + [(spread,) + t for t in d1]
        flow = KronOperator(self.dims[1:], d1).product(p_in)
        return KronOperator((k,) + self.dims[1:], terms), np.outer(pi, flow).ravel()


def _dense_chain(ttl: PhaseTypeDistribution, hit_reset: RateMatrix, inputs) -> tuple:
    """(d0', d1') of a cache chain as read-only dense arrays: the terms of
    `CacheChain.hidden` and `CacheChain.active`, in their order, on the
    dense forms of their factors (`kron._dense_sum`), so that every bit is
    that of assembling the terms."""
    k = ttl.order
    p = np.zeros((k + 1, k + 1))  # the TTL's full generator P
    p[1:, 0] = ttl.exit_rates
    p[1:, 1:] = ttl.s._array()
    h = np.zeros((k + 1, k + 1))  # the hit-reset template H
    h[1:, 1:] = hit_reset._array()
    a = np.zeros((k + 1, k + 1))  # the miss template A
    a[0, 1:] = ttl.pi.entries
    dims = (k + 1,) + tuple(m.order for m in inputs)
    ones = (None,) * len(inputs)
    d0 = [ones[:i] + (m.d0._array(),) + ones[i + 1:] for i, m in enumerate(inputs)]
    d1 = [ones[:i] + (m.d1._array(),) + ones[i + 1:] for i, m in enumerate(inputs)]
    d0p = _dense_sum(dims, [(p,) + ones] + [(None,) + t for t in d0] + [(h,) + t for t in d1])
    d1p = _dense_sum(dims, [(a,) + t for t in d1])
    d0p.flags.writeable = d1p.flags.writeable = False
    return d0p, d1p


def _misses_kept(pi: np.ndarray, d1s) -> bool:
    """Whether no miss rate pi_l d1_ij of the factors underflows, so that
    the OUT state of request state i emits whenever i does; the input's
    active matrix is the Kronecker sum of `d1s`."""
    rates = [d1.data.min() for d1 in d1s if d1.nnz]
    return bool(rates) and pi[pi > 0].min() * min(rates) > 0.0


def _pi_rows(pi: np.ndarray, rows: int, blocks: int = 1) -> RateMatrix:
    """Sparse block-diagonal matrix of `blocks` copies of the (rows x len(pi))
    matrix with every row equal to pi: I_blocks (x) 1 pi. Up to
    `kron._GTH_MAX` rows it is built dense and holds that array, which a
    small chain reads (`_dense_chain`)."""
    n = blocks * rows
    if n <= _GTH_MAX:
        dense = np.tile(pi, (rows, 1))
        return RateMatrix._of_dense(dense if blocks == 1 else dense_kron(_eye(blocks), dense))
    nz = np.flatnonzero(pi)
    # canonical as built: rows ascending, pi's nonzeros ascending in each
    cols = np.repeat(np.arange(blocks) * pi.size, rows)[:, None] + nz
    return RateMatrix(
        n, blocks * pi.size, np.repeat(np.arange(n), nz.size), cols.ravel(), np.tile(pi[nz], n)
    )


def _parts(m: MarkovArrivalProcess | tuple) -> tuple[MarkovArrivalProcess, ...]:
    """The request MAP `m` as a one-entry tuple, or the independent MAPs of the tuple `m`."""
    return (m,) if isinstance(m, MarkovArrivalProcess) else tuple(m)


def _inputs(m: MarkovArrivalProcess | tuple) -> tuple[MarkovArrivalProcess, ...]:
    """`_parts(m)`, validated."""
    inputs = _parts(m)
    require_valid(*inputs)
    return inputs


def output_sigma(m: MarkovArrivalProcess | tuple, t: PhaseTypeDistribution) -> CacheChain:
    """Miss process of a reset-on-miss (Sigma) cache.

    Parameters
    ----------
    m : MarkovArrivalProcess or tuple of MarkovArrivalProcess
        Request process with n states, or independent request MAPs whose
        superposition (n the product of their orders) the cache sees.
    t : PhaseTypeDistribution
        TTL with m transient phases; requests and TTL independent.

    Returns
    -------
    CacheChain
        Its `map` has dimension n(m+1). Hidden matrix: (P (+) d0) plus a
        copy of d1 on every IN diagonal block (in-cache requests are hits
        that leave the TTL phase untouched). Active matrix: top block row
        (0, pi_1 d1, ..., pi_m d1).
    """
    return CacheChain(t, RateMatrix.identity(t.order), _inputs(m))


def output_r(m: MarkovArrivalProcess | tuple, t: PhaseTypeDistribution) -> CacheChain:
    """Miss process of a reset-on-request (R) cache.

    Same layout and inputs as :func:`output_sigma`, but a hit also restarts
    the TTL: every IN block row of the hidden correction carries
    (pi_1 d1, ..., pi_m d1) instead of keeping the phase fixed.
    """
    return CacheChain(t, _pi_rows(t.pi.entries, t.order), _inputs(m))


def output_min(
    m: MarkovArrivalProcess | tuple,
    t_sigma: PhaseTypeDistribution,
    t_r: PhaseTypeDistribution,
) -> CacheChain:
    """Miss process of a min(Sigma, R) cache holding two parallel TTLs.

    Inputs as for :func:`output_sigma`. The joint TTL is min(t_sigma, t_r)
    with the Sigma phases outermost; that argument order cannot be swapped
    without scrambling the reset blocks. Hits restart only the R component,
    so the hidden correction is block diagonal over Sigma phases, each q*q
    block repeating the row (pi^R_1 d1, ..., pi^R_q d1). Dimension n(m*q + 1).
    """
    reset = _pi_rows(t_r.pi.entries, t_r.order, t_sigma.order)
    return CacheChain(ph_min(t_sigma, t_r), reset, _inputs(m))
