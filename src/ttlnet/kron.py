"""Sparse rate-matrix substrate: Kronecker algebra and steady-state solving.

Matrices are stored as canonical COO triplets (row-major order, duplicates
summed, exact zeros dropped) so that two matrices built from the same
literal rates compare equal entry-by-entry.

A sum of Kronecker products of small factors need not be assembled:
`KronOperator` keeps the factors and gives what the stationary solve
reads, the product x A, the diagonal, the row sums and the off-diagonal
part, term by term. A cache's output chain and its given-input system are
such sums, built by `cache_ops.CacheChain`. A sum of at most `_GTH_MAX`
states is formed dense, with no sort (`_dense_sum`: `KronOperator.to_dense`,
and a small `CacheChain` straight from its factors' dense forms), and a
larger one assembled in one sort: both sum the terms in order.

A stationary vector takes one of two routes. `steady_state` solves an
assembled generator alone: it checks q once, on its triplets, then solves
up to `_GTH_MAX` states on one dense array (GTH, Jacobi sweeps and the
residual gate), by LU above that and where GTH fails its gates, factored
by `_solver`: dense up to `_DENSE_MAX` states, sparse above.
`_given_input_solve` solves a cache output chain from its input vector and
the system its `CacheChain` builds, by BiCGSTAB on the factors, with the
generator checks and both gates evaluated on the factors too.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NoStationaryDistributionError, ValidationError

__all__ = [
    "RateMatrix",
    "ProbabilityVector",
    "KronOperator",
    "kron_product",
    "kron_sum",
    "steady_state",
]


def _canonicalize(rows: int, cols: int, r, c, v):
    """Sort triplets row-major, sum duplicate coordinates, drop exact zeros.

    One stable sort: Kronecker products and sums of canonical matrices come
    as a few sorted runs, which timsort merges rather than sorts. Duplicates
    are summed in input order, as `np.bincount` does.
    """
    r = np.asarray(r, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    v = np.asarray(v, dtype=np.float64)
    if r.size == 0:
        return r, c, v
    if r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols:
        raise ValidationError("matrix entry coordinates out of range")
    key = r * cols + c
    order = np.argsort(key, kind="stable")
    key, v = key[order], v[order]
    first = np.concatenate(([True], key[1:] != key[:-1]))
    if not first.all():
        key = key[first]
        v = np.bincount(np.cumsum(first) - 1, weights=v, minlength=key.size)
    keep = v != 0.0
    key, v = key[keep], v[keep]
    return key // cols, key % cols, v


def _indptr(idx: np.ndarray, n: int) -> np.ndarray:
    """Offsets of the runs of 0..n-1 in the sorted array idx: CSR row pointers."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n), out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Immutable sparse matrix of transition rates.

    Use :meth:`from_triplets` or :meth:`from_dense` to build one; raw field
    assignment bypasses canonicalization and is not supported.
    """

    rows: int
    cols: int
    row_idx: np.ndarray = field(repr=False)
    col_idx: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    # The read-only dense array the matrix was built from (`_of_dense`),
    # which `_array` hands out instead of `to_dense()`.
    _dense = None

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets) -> "RateMatrix":
        """Build from an iterable of (row, col, rate); duplicate coordinates are summed."""
        if rows < 0 or cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        trip = list(triplets)
        if trip:
            r, c, v = zip(*trip)
        else:
            r = c = v = ()
        r, c, v = _canonicalize(rows, cols, r, c, v)
        return cls(rows, cols, r, c, v)

    @classmethod
    def from_arrays(cls, rows: int, cols: int, r, c, v) -> "RateMatrix":
        return cls(rows, cols, *_canonicalize(rows, cols, r, c, v))

    @classmethod
    def from_terms(cls, rows: int, cols: int, terms) -> "RateMatrix":
        """The sum of the triplet terms (r, c, v), canonicalized in one sort.

        When no term repeats a coordinate within itself (as `kron_terms` of
        canonical matrices), the bits equal those of adding the terms as
        canonical matrices one at a time, in order: both sum each
        coordinate's entries in term order and drop the zeros left.
        """
        r, c, v = (np.concatenate(parts) for parts in zip(*terms))
        return cls.from_arrays(rows, cols, r, c, v)

    @classmethod
    def from_dense(cls, array) -> "RateMatrix":
        try:
            a = np.asarray(array, dtype=np.float64)
        except ValueError as exc:  # ragged rows
            raise DimensionError("dense input must be a rectangular array of numbers") from exc
        if a.ndim != 2:
            raise DimensionError("dense input must be two-dimensional")
        r, c = np.nonzero(a)  # row-major and nonzero: canonical as found
        return cls(a.shape[0], a.shape[1], r, c, a[r, c])

    @classmethod
    def _of_dense(cls, a: np.ndarray) -> "RateMatrix":
        """`from_dense(a)` of a float array, holding `a`, made read-only, as
        its dense form (`_array`)."""
        m = cls.from_dense(a)
        a.flags.writeable = False
        object.__setattr__(m, "_dense", a)
        return m

    @classmethod
    def identity(cls, n: int) -> "RateMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, idx, idx.copy(), np.ones(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RateMatrix":
        e = np.empty(0, dtype=np.int64)
        return cls(rows, cols, e, e.copy(), np.empty(0, dtype=np.float64))

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self.row_idx, self.col_idx] = self.data
        return out

    def _array(self) -> np.ndarray:
        """The dense form, for reading only: the array held (`_of_dense`),
        else `to_dense()`."""
        return self.to_dense() if self._dense is None else self._dense

    def to_csr(self) -> "scipy.sparse.csr_matrix":
        import scipy.sparse as sp  # deferred: the package itself multiplies without scipy

        # the triplets are already in CSR order: no COO conversion needed
        indptr = _indptr(self.row_idx, self.rows)
        return sp.csr_matrix((self.data, self.col_idx, indptr), shape=(self.rows, self.cols))

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.row_idx, weights=self.data, minlength=self.rows)

    def diagonal(self) -> np.ndarray:
        out = np.zeros(min(self.rows, self.cols))
        on_diag = self.row_idx == self.col_idx
        out[self.row_idx[on_diag]] = self.data[on_diag]
        return out

    def scale(self, factor: float) -> "RateMatrix":
        """factor times the matrix: the same coordinates, less any product now zero."""
        v = self.data * factor
        keep = v != 0.0
        return RateMatrix(self.rows, self.cols, self.row_idx[keep], self.col_idx[keep], v[keep])

    def __add__(self, other: "RateMatrix") -> "RateMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return RateMatrix.from_terms(
            self.rows,
            self.cols,
            [(m.row_idx, m.col_idx, m.data) for m in (self, other)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RateMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.row_idx, other.row_idx)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data.tobytes()))

    def __repr__(self):
        return f"RateMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Dense stochastic vector: finite entries >= 0 summing to 1 within 1e-12."""

    entries: np.ndarray

    _SUM_TOL = 1e-12

    def __init__(self, entries):
        values = np.asarray(entries, dtype=np.float64).copy()
        values.flags.writeable = False
        if values.ndim != 1:
            raise ValidationError("probability vector must be one-dimensional")
        if values.size == 0:
            raise ValidationError("probability vector must be nonempty")
        if not np.isfinite(values).all():  # a NaN passes the two tests below
            raise ValidationError("probability vector has non-finite entries")
        if (values < 0).any():
            raise ValidationError("probability vector has negative entries")
        if abs(values.sum() - 1.0) > self._SUM_TOL:
            raise ValidationError(f"probability vector sums to {values.sum()!r}, not 1")
        object.__setattr__(self, "entries", values)

    @classmethod
    def _solved(cls, x: np.ndarray) -> "ProbabilityVector":
        """x, fresh from a stationary solve that has clipped and normalized
        it (`_gate`, `_as_probabilities`): made read-only in place, without
        the copy and the checks of `__init__`."""
        x.flags.writeable = False
        p = object.__new__(cls)
        object.__setattr__(p, "entries", x)
        return p

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbabilityVector):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self):
        return f"ProbabilityVector({np.array2string(self.entries, precision=6)})"


def kron_terms(a: RateMatrix, b: RateMatrix) -> tuple:
    """Unsorted triplets (r, c, v) of a (x) b, for `RateMatrix.from_terms`."""
    r = (a.row_idx[:, None] * b.rows + b.row_idx[None, :]).ravel()
    c = (a.col_idx[:, None] * b.cols + b.col_idx[None, :]).ravel()
    v = (a.data[:, None] * b.data[None, :]).ravel()
    return r, c, v


def kron_product(a: RateMatrix, b: RateMatrix) -> RateMatrix:
    """Kronecker product: block (i, j) of the result equals a[i, j] * b."""
    return RateMatrix.from_arrays(a.rows * b.rows, a.cols * b.cols, *kron_terms(a, b))


def kron_triplets(dims, factors) -> tuple:
    """Unsorted triplets (r, c, v) of F_1 (x) ... (x) F_c, for `RateMatrix.from_terms`.

    F_i is a square factor of order dims[i], or None for the identity. No
    coordinate repeats, and an identity multiplies by an exact 1.0.
    """
    r = c = v = None
    for n, f in zip(dims, factors):
        if f is None:
            fr = fc = np.arange(n)
            fv = np.ones(n)
        else:
            fr, fc, fv = f.row_idx, f.col_idx, f.data
        if r is None:
            r, c, v = fr, fc, fv
        else:
            r = (r[:, None] * n + fr).ravel()
            c = (c[:, None] * n + fc).ravel()
            v = (v[:, None] * fv).ravel()
    return r, c, v


_ONE = np.ones((1, 1))
_EYES: dict[int, np.ndarray] = {}


def _eye(n: int) -> np.ndarray:
    """The identity of order n as a read-only dense array. One of order at
    most `_GTH_MAX`, as the small dense forms expand, is built once."""
    eye = _EYES.get(n)
    if eye is None:
        eye = np.eye(n)
        eye.flags.writeable = False
        if n <= _GTH_MAX:
            _EYES[n] = eye
    return eye


def dense_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b of dense arrays, a 1-D operand of a 2-D product being one row:
    `np.kron`'s products by one broadcast, without its any-rank handling (on
    2 x 2 (x) 3 x 3, 1.3 us against 7.8 us on a 2-vCPU host)."""
    if a.ndim == b.ndim == 1:
        return np.multiply.outer(a, b).ravel()
    a = a[None] if a.ndim == 1 else a
    b = b[None] if b.ndim == 1 else b
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def _part(f: RateMatrix, on_diagonal: bool) -> RateMatrix:
    """The diagonal or the off-diagonal entries of f: a subset, so canonical."""
    keep = (f.row_idx == f.col_idx) == on_diagonal
    return RateMatrix(f.rows, f.cols, f.row_idx[keep], f.col_idx[keep], f.data[keep])


class KronOperator:
    """A sum of Kronecker products of square factors, applied factor by factor.

    Term t is F_t1 (x) ... (x) F_tc over axes of orders `dims`, a factor None
    being the identity; a term with an empty factor is zero and dropped. A
    row vector x times a term is x reshaped to `dims` with one factor
    applied along each axis (the shuffle algorithm: Plateau 1985; Dayar
    2012, "Analyzing Markov Chains using Kronecker Products"), each factor
    by the rule of `_axis_product`. Below that scale one product costs
    more in numpy calls than in arithmetic, so an operator whose terms
    have at most `_NUMPY_PRODUCT_MAX` nonzeros in all, assembled, takes one
    `np.bincount` over the unsorted triplets of its off-diagonal terms
    instead, plus its diagonal times x (`_triplet_step`), kept for later
    products. A cache's generator Q' and its given-input system -M are such
    operators (`cache_ops.CacheChain`).
    """

    def __init__(self, dims, terms):
        self.dims = tuple(dims)
        self.size = math.prod(self.dims)
        self.terms = [tuple(t) for t in terms if all(f is None or f.nnz for f in t)]
        self._steps = None

    def product(self, x: np.ndarray) -> np.ndarray:
        """The row vector x times the operator."""
        if self._steps is None:
            nonzeros = sum(
                math.prod(self.dims[i] if f is None else f.nnz for i, f in enumerate(t))
                for t in self.terms
            )
            if nonzeros <= _NUMPY_PRODUCT_MAX and self.terms:
                self._steps = [[self._triplet_step()]]
            else:
                self._steps = [
                    [_axis_product(self.dims, axis, f) for axis, f in enumerate(t) if f is not None]
                    for t in self.terms
                ]
        total = None
        for steps in self._steps:
            y = x
            for step in steps:
                y = step(y)
            # a step returns a new array, so the first term's can take the sum
            if total is None:
                total = y
            else:
                total += y
        return np.zeros(self.size) if total is None else total

    def _triplet_step(self):
        """y -> y A in one `np.bincount` over the triplets of A's off-diagonal
        terms (`off_diagonal`), plus diag(A) y: the terms' own triplets would
        repeat each diagonal entry once per term that holds it (the given-input
        system of the map-large line's 972-state node: 11,340 triplets
        against 15,228)."""
        off = self.off_diagonal
        scatter = _triplet_product(self.size, [kron_triplets(self.dims, t) for t in off.terms])
        if off is self:
            return scatter
        diagonal = self._diagonal
        return lambda y: scatter(y) + diagonal * y

    def _sum_of_kron(self, part) -> np.ndarray:
        """sum_t part(F_t1) (x) ... (x) part(F_tc), where part(I) is a vector of ones."""
        total = None
        for t in self.terms:
            v = None
            for n, f in zip(self.dims, t):
                w = np.ones(n) if f is None else part(f)
                v = w if v is None else np.multiply.outer(v, w).ravel()
            # part returns a new array, so the first term's can take the sum
            total = v if total is None else total + v
        return np.zeros(self.size) if total is None else total

    @functools.cached_property
    def _diagonal(self) -> np.ndarray:
        return self._sum_of_kron(RateMatrix.diagonal)

    def diagonal(self) -> np.ndarray:
        return self._diagonal.copy()

    def row_sums(self) -> np.ndarray:
        return self._sum_of_kron(RateMatrix.row_sums)

    @functools.cached_property
    def off_diagonal(self) -> "KronOperator":
        """The off-diagonal part, built once: that of F_1 (x) ... (x) F_c is
        the sum over j of diag(F_1) (x) ... (x) diag(F_j-1) (x) off(F_j) (x)
        F_j+1 (x) ... (x) F_c, so that no entry is found by a subtraction."""
        terms = []
        for t in self.terms:
            for j, f in enumerate(t):
                if f is not None:
                    head = tuple(None if g is None else _part(g, True) for g in t[:j])
                    terms.append(head + (_part(f, False),) + t[j + 1:])
        return _OffDiagonal(self.dims, terms)

    def assemble(self) -> RateMatrix:
        """The operator as one canonical matrix, its terms summed in order: up
        to `_GTH_MAX` states from `to_dense()`, else from their triplets in one
        sort (`RateMatrix.from_terms`); the two give the same bits."""
        if self.size <= _GTH_MAX:
            return RateMatrix._of_dense(self.to_dense())
        if not self.terms:
            return RateMatrix.zeros(self.size, self.size)
        triplets = [kron_triplets(self.dims, t) for t in self.terms]
        return RateMatrix.from_terms(self.size, self.size, triplets)

    def to_dense(self) -> np.ndarray:
        """The operator as one dense array, bit for bit its sorted assembly
        (see `_dense_sum`)."""
        terms = [tuple(None if f is None else f._array() for f in t) for t in self.terms]
        return _dense_sum(self.dims, terms)


def _dense_sum(dims, terms) -> np.ndarray:
    """sum_t F_t1 (x) ... (x) F_tc of dense square factors F_ti of orders
    `dims`, a factor None being the identity, as one dense array.

    Each term multiplies its factors left to right, an identity expanded (it
    multiplies by an exact 1.0): all but the last by `dense_kron`, then the
    last into the blocks of a 4-D array, reshaped once the terms have added
    in order from zero. Each entry so sums the products the terms' triplets
    hold (`kron_triplets`), in the order of `RateMatrix.from_terms`, and the
    bits are those of the sorted assembly; a sum from +0.0 holds no -0.0.
    """
    *outer, n = dims
    m = math.prod(outer)
    total = np.zeros((m, n, m, n))
    for t in terms:
        head = _ONE
        for d, f in zip(outer, t):
            f = _eye(d) if f is None else f
            head = f if head is _ONE else dense_kron(head, f)
        tail = _eye(n) if t[-1] is None else t[-1]
        total += head[:, None, :, None] * tail[None, :, None, :]
    return total.reshape(m * n, m * n)


class _OffDiagonal(KronOperator):
    """An operator every term of which has a factor with no diagonal entry,
    as `KronOperator.off_diagonal` builds it: its diagonal is zero, so it is
    its own off-diagonal part."""

    @property
    def off_diagonal(self) -> "KronOperator":
        return self


def kron_sum_operator(mats) -> KronOperator:
    """The Kronecker sum of the square matrices `mats`, first outermost: the
    terms I (x) M_i (x) I."""
    if not all(m.is_square for m in mats):
        raise DimensionError("kron_sum requires square matrices")
    c = len(mats)
    terms = [(None,) * i + (m,) + (None,) * (c - 1 - i) for i, m in enumerate(mats)]
    return KronOperator([m.rows for m in mats], terms)


def kron_sum_vector(vectors) -> np.ndarray:
    """v_1 (+) ... (+) v_c = sum_i 1 (x) v_i (x) 1: the diagonal or the row
    sums of a Kronecker sum, from those of its parts."""
    return functools.reduce(lambda a, b: np.add.outer(a, b).ravel(), vectors)


def kron_sum(a: RateMatrix, b: RateMatrix) -> RateMatrix:
    """Kronecker sum a (x) I_n + I_m (x) b for square a (m x m) and b (n x n).

    Up to `_GTH_MAX` states it is formed dense from its two terms
    (`_dense_sum`) with no `KronOperator`, and holds that array.
    """
    if a.rows * b.rows > _GTH_MAX or not (a.is_square and b.is_square):
        return kron_sum_operator([a, b]).assemble()
    terms = [(a._array(), None), (None, b._array())]
    return RateMatrix._of_dense(_dense_sum((a.rows, b.rows), terms))


def _check_generator(q: KronOperator) -> None:
    """Nonnegative off-diagonal rates and zero row sums, read from the
    factors of a cache output chain (`metrics._output_vector`).

    The sign test asks every factor of every off-diagonal term
    (`KronOperator.off_diagonal`) to be nonnegative: enough, not necessary,
    so `steady_state` decides a chain that fails it on its triplets.
    """
    factors = [f for t in q.off_diagonal.terms for f in t if f is not None]
    _require_generator(any(np.any(f.data < 0) for f in factors), q.row_sums())


def _require_generator(negative: bool, sums: np.ndarray, tol: float = 1e-9) -> None:
    """Refuse a generator with a negative off-diagonal rate or a row sum off zero."""
    if negative:
        raise ValidationError("generator has negative off-diagonal entries")
    worst = np.abs(sums).max(initial=0.0)
    if worst > tol:
        raise ValidationError(f"generator rows do not sum to 0 (max |sum| = {worst:g})")


def reachable(indptr: np.ndarray, indices: np.ndarray, start) -> np.ndarray:
    """Mask of the states reachable from the states `start`.

    The edges leaving state i end in indices[indptr[i]:indptr[i + 1]]: the
    arrays of a CSR matrix for its rows' edges, of a CSC matrix for the
    reversed edges. A breadth-first search one level per numpy pass; each
    level gathers the edges of its frontier through `indptr` and costs
    O(edges gathered + states).
    """
    n = indptr.size - 1
    counts = np.diff(indptr)
    seen = np.zeros(n, dtype=bool)
    frontier = np.asarray(start, dtype=np.int64)
    seen[frontier] = True
    while frontier.size and not seen.all():
        count = counts[frontier]
        ends = np.cumsum(count)
        # edge slots indptr[i] .. indptr[i] + count[i] - 1 of every frontier state i
        slots = np.arange(ends[-1]) + np.repeat(indptr[frontier] - ends + count, count)
        new = np.zeros(n, dtype=bool)
        new[indices[slots]] = True
        new &= ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return seen


def edges(q: RateMatrix) -> tuple[np.ndarray, np.ndarray]:
    """q's edges as `reachable` reads them: its CSR arrays (indptr, column indices)."""
    return _indptr(q.row_idx, q.rows), q.col_idx


def reversed_edges(q: RateMatrix) -> tuple[np.ndarray, np.ndarray]:
    """q's edges reversed: its CSC arrays (indptr, row indices).

    A stable sort of the row-major triplets by column keeps the rows of each
    column ascending, so the arrays equal those of scipy's `tocsc()`.
    """
    return _indptr(q.col_idx, q.cols), q.row_idx[np.argsort(q.col_idx, kind="stable")]


def _is_irreducible(q: RateMatrix) -> bool:
    """Every state reaches state 0 and state 0 reaches every state.

    One search over a graph of 2n states: q's edges on states 0..n-1 and
    the reversed edges on n..2n-1, from states 0 and n, so that the two
    directions share their levels.
    """
    n = q.rows
    forward_ptr, forward_idx = edges(q)
    reverse_ptr, reverse_idx = reversed_edges(q)
    indptr = np.concatenate([forward_ptr[:-1], reverse_ptr + q.nnz])
    indices = np.concatenate([forward_idx, reverse_idx + n])
    return reachable(indptr, indices, [0, n]).all()


# BiCGSTAB iterations of a given-input solve before the chain goes to
# steady_state's LU. Converging solves need far fewer: 33-34 for the
# given-input systems of the map-large benchmark's 5,000-state tree and
# 2,916-state line. A stalled solve ends sooner, by the test below.
_KRYLOV_MAXITER = 1_000
# BiCGSTAB iterations without a new lowest residual norm before it gives up.
# Converging given-input solves of the tests' Erlang trees and MMPP line
# went at most 3 in a row; on Sigma caches with Erlang-50 and Erlang-100
# laws (2,550 and 10,100 states) none after the second iterate beats it.
_STAGNATION_ITERS = 100
# Largest componentwise backward error accepted from the iterative solve.
_BACKWARD_ERROR_MAX = 1e-10
# Jacobi sweeps allowed to bring a GTH vector or a BiCGSTAB iterate under
# that bound. Trees with fast TTLs, whose rarest states have probability
# ~1e-11, needed up to 24; a sweep costs one product, an iteration two.
_MAX_SWEEPS = 50


def _as_probabilities(x: np.ndarray) -> np.ndarray | None:
    """Clip roundoff negatives and normalize; None if x has a real negative entry."""
    if np.any(x < -1e-9 * max(1.0, np.max(np.abs(x)))):
        return None
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _residual(balance: np.ndarray, diagonal: np.ndarray) -> tuple[float, float]:
    """Balance residual max |x q| and the largest residual the gate accepts,
    from the balance vector x q and q's diagonal.

    `_lu_solve` forms x q by the product with q. `_gate` reads it from the
    Jacobi sweep that accepted x (`_relax`): x q = x q_off + diag(q) x is
    that sweep's inflow minus its outflow, so the gate needs no product with
    q itself. The bound scales with the largest exit rate max |q_ii|, which
    is the largest rate of a generator: every off-diagonal rate of row i is
    at most |q_ii|.
    """
    return np.abs(balance).max(), max(1e-10, 1e-13 * np.abs(diagonal).max())


def _relax(off_product, exit_rate: np.ndarray, x: np.ndarray) -> tuple | None:
    """Jacobi-sweep x until its componentwise backward error is small enough.

    The Oettli-Prager backward error of x >= 0 is
    omega = max_i |(x q)_i| / (|x| |q|)_i = max_i |in_i - out_i| / (in_i + out_i),
    where in_i is the probability flow into state i and out_i the flow out
    of it. Its bound holds every balance equation to a relative 1e-10, so
    small entries are as trustworthy as large ones; a normwise residual
    cannot tell when they are not. A sweep sets x_i = in_i / (exit rate of
    i), a subtraction-free update with the stationary vector as its fixed
    point: in_i is `off_product`, the product x -> x q_off with q's
    off-diagonal part, which is nonnegative (`_require_generator`). Returns
    the first vector within the bound with its balance vector in - out,
    which is x q, or None after _MAX_SWEEPS sweeps. Needs a positive exit
    rate in every state, which an irreducible chain of two or more states
    has.
    """
    for _ in range(_MAX_SWEEPS + 1):
        inflow = off_product(x)
        outflow = exit_rate * x
        balance = inflow - outflow
        total = inflow + outflow
        ratio = np.divide(np.abs(balance), total, out=np.zeros(x.size), where=total > 0)
        if ratio.max() <= _BACKWARD_ERROR_MAX:
            return x, balance
        x = inflow / exit_rate
        x /= x.sum()
    return None


def _dot(u: np.ndarray, w: np.ndarray) -> float:
    """Inner product on the calling thread.

    OpenBLAS runs a dot product of at most 10,000 entries on the calling
    thread and splits longer ones over its threads. On a 2-vCPU VM, 20,000
    dots took 0.07 s at 10,000 entries and 0.96 s at 10,001, where the
    BLAS worker thread's CPU time went from 0 to 0.52 s. So `ndarray.dot`
    up to that length (1.0 us at 100 entries, 3.2 us at 10,000), and
    `einsum`, which never threads, above it (3.9 and 8.7 us).
    """
    return u.dot(w) if u.size <= 10_000 else np.einsum("i,i", u, w)


# Most nonzeros that a `KronOperator` product multiplies by with numpy, set
# under the break-even with importing scipy.sparse. It bounds the
# operator's terms' nonzeros in all, assembled (one `np.bincount`,
# `_triplet_product`), then each factor's assembled term (`_axis_product`).
# Per product on the given-input systems of a 5,000-state tree, a
# 2,916-state line and a 10,368-state tree (Erlang-5 leaves), in us, best
# of 15 on a 2-vCPU host, two runs:
#
#     nonzeros           344   3,992   13,284   17,000   36,288
#     scipy `@`          5-6    8-12    16-23    21-31    34-51
#     numpy `bincount`   3-4   14-17    37-53    58-70   92-105
#
# numpy costs 1.5-2.3 ns more per nonzero. The bound is the break-even
# with the cheapest import measured: `import scipy.sparse` after numpy took
# 0.115-0.122 s and 22 MB of resident memory (8 cold interpreters on the
# same host, scipy 1.17), earlier 0.1 s, and 0.2-0.25 s on a loaded host.
# At 0.1 s, a solve pays no more for numpy's product than the import
# while n x 2,000 x 2.3 ns <= 0.1 s, n <= 21,700, even if it runs to
# `_KRYLOV_MAXITER` (2,000 products); such a solve ends in the LU fallback,
# which loads scipy.sparse as well, so it pays both. Converging
# solves take far fewer products (68 on the map-large systems: 3 ms more at
# the bound). Above the bound scipy's product stays, for the large trees
# whose run pays the import once: with numpy at every size the 80,000-state
# tree of Erlang-9 leaves took 0.36-0.44 s against 0.25-0.29 s, and the
# 228,488-state tree of Erlang-12 leaves 1.5 s against 0.92-0.98 s.
# Neither map-large network loads scipy. At seed 0 the tree root's -M has
# 22,000 assembled nonzeros (2,500 in its mu I term, 14,500 off the
# diagonal) and takes three dense per-factor steps; only the line's largest
# system (N6's, 15,228) takes one bincount.
_NUMPY_PRODUCT_MAX = 20_480


def _triplet_product(size: int, triplets: list):
    """The map y -> y A for the matrix A that is the sum of the unsorted
    triplet terms (r, c, v): one `np.bincount` over all of them, in term
    order. `KronOperator` passes the triplets of its off-diagonal terms and
    adds the diagonal itself; `_axis_product` and `_lu_solve` those of one matrix."""
    if not triplets:
        return lambda y: np.zeros(size)
    src, dst, w = (a[0] if len(a) == 1 else np.concatenate(a) for a in zip(*triplets))
    return lambda y: np.bincount(dst, weights=y[src] * w, minlength=size)


def _axis_product(dims: tuple, axis: int, f: RateMatrix):
    """The map y -> y (I (x) f (x) I) for f on axis `axis` of an operator over `dims`.

    For the assembled term I (x) f (x) I: at most `_NUMPY_PRODUCT_MAX`
    nonzeros, numpy; above it, scipy's product of
    f^T with y's axis as rows, which leaves the term unassembled. numpy
    holds whichever form of the term has fewer entries: f dense, applied
    by BLAS to y's blocks, or the term's triplets, for one `np.bincount`.
    Per product on the map-large shapes, best of 7 on a 2-vCPU host: a
    50-state factor with 195 nonzeros on 50 x 50 blocks (2,500 dense
    entries, 9,750 triplets) took 3-9 us dense and 15-17 us by bincount; a
    972-state factor with 6,154 nonzeros on two blocks (944,784 dense
    entries, 12,308 triplets) took 76-200 us dense and 16-21 us by
    bincount.
    """
    left, n, right = math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:])
    size = left * n * right
    triplets = left * f.nnz * right
    if n * n <= triplets <= _NUMPY_PRODUCT_MAX:
        dense = f.to_dense()
        if right == 1:
            return lambda y: (y.reshape(left, n) @ dense).ravel()
        dense_t = np.ascontiguousarray(dense.T)
        return lambda y: np.matmul(dense_t, y.reshape(left, n, right)).ravel()
    if triplets <= _NUMPY_PRODUCT_MAX:
        return _triplet_product(size, [kron_triplets((left, n, right), (None, f, None))])
    import scipy.sparse as sp  # deferred: small systems never load it

    f_t = sp.csr_matrix((f.data, (f.col_idx, f.row_idx)), shape=(n, n))

    def step(y):
        z = np.moveaxis(y.reshape(left, n, right), 1, 0).reshape(n, left * right)
        return np.moveaxis((f_t @ z).reshape(n, left, right), 0, 1).ravel()

    return step


def _bicgstab(product, inv_diag: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Solve a x = b by BiCGSTAB preconditioned by inv_diag, updating x in place.

    `product` is the map x -> a x: `_given_input_solve` passes the
    `KronOperator` product x -> x (-M), so a = (-M)^T is never assembled.
    The recurrence, breakdown tests and stopping test (||r|| < 1e-14 ||b||)
    are those of `scipy.sparse.linalg.bicgstab`, so the iterates are its
    own up to the rounding of the inner products; without its operator
    wrappers an iteration costs two products and some vector work. One
    more exit: the iteration gives up once the residual norm has not
    fallen below its best for `_STAGNATION_ITERS` iterations. Returns (x,
    info): info 0 on convergence, positive when out of iterations or
    stagnating, negative on a breakdown.
    """
    atol = 1e-14 * math.sqrt(_dot(b, b))
    rhotol = np.finfo(np.float64).eps ** 2
    r = b - product(x)
    rtilde = r.copy()
    best, best_at = math.inf, 0
    for iteration in range(_KRYLOV_MAXITER):
        r_norm = math.sqrt(_dot(r, r))
        if r_norm < atol:
            return x, 0
        if r_norm < best:
            best, best_at = r_norm, iteration
        elif iteration - best_at >= _STAGNATION_ITERS:
            return x, iteration
        rho = _dot(rtilde, r)
        if abs(rho) < rhotol:
            return x, -10
        if iteration > 0:
            if abs(omega) < rhotol:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = inv_diag * p
        v = product(phat)
        rv = _dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        if math.sqrt(_dot(r, r)) < atol:
            x += alpha * phat
            return x, 0
        shat = inv_diag * r
        t = product(shat)
        omega = _dot(t, r) / _dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, _KRYLOV_MAXITER


def _gate(off_product, diagonal: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """x, polished by `_relax`, if it passes the backward-error and residual
    gates of the generator q with the product x -> x q_off and the diagonal
    `diagonal`: the residual max |x q| is read from the accepting sweep's
    balance (see `_residual`)."""
    relaxed = _relax(off_product, -diagonal, x)
    if relaxed is None:
        return None
    x, balance = relaxed
    residual, bound = _residual(balance, diagonal)
    return x if residual <= bound else None


def _given_input_solve(
    q: KronOperator, neg_m: KronOperator, rhs: np.ndarray, p_in: np.ndarray
) -> np.ndarray | None:
    """Stationary vector of a cache's output chain from its input vector, or None.

    q is the irreducible generator Q' of a `cache_ops` output chain on its
    factors: axis 0 is the TTL phase, the OUT state 0 first, then the k
    transient phases (the IN blocks); the other axes are the request
    states, whose background chain has the stationary vector p_in and
    evolves on its own. x_T (-M) = rhs is the chain's system over its IN
    states T (`cache_ops.CacheChain.in_system`), and x_0 = p_in - sum_j x_j
    the OUT block. BiCGSTAB with Jacobi preconditioning (see `_bicgstab`)
    solves it on the factors, started from p_in spread evenly over the
    k + 1 blocks (from zero, a right-hand side with few nonzeros broke down
    on a 108-state chain). The full vector must then pass the sign test and
    both gates that `steady_state` holds a GTH vector to (`_gate`), on q's
    factors. None when any of these fails.
    """
    k, n = q.dims[0] - 1, p_in.size
    diagonal = neg_m.diagonal()
    if np.any(diagonal <= 0.0):
        return None
    x_t, info = _bicgstab(neg_m.product, 1.0 / diagonal, rhs, np.tile(p_in / (k + 1), k))
    if info != 0 or not np.all(np.isfinite(x_t)):
        return None
    x = _as_probabilities(np.concatenate([p_in - x_t.reshape(k, n).sum(axis=0), x_t]))
    return None if x is None else _gate(q.off_diagonal.product, q.diagonal(), x)


# Largest chain solved by GTH state reduction, which costs O(n^3), and
# largest operator assembled dense (`KronOperator.assemble`, a cache's dense
# pair in `cache_ops.CacheChain`). Whole solves against the routes that take
# the chains above it, best of 7, two runs on a loaded 2-vCPU host: a Sigma
# cache over a 2-state MMPP with an Erlang TTL took 0.06-0.09 ms by GTH and
# 0.8-0.9 ms by the given-input solve at 6 states, 0.5-0.9 and 1.9-3.8 ms at
# 64, 1.4-2.1 and 2.9-3.7 ms at 100; a lone ring-plus-edges chain took
# 0.04-0.07 ms by GTH and 0.09-0.10 ms by the dense bordered LU at 5 states,
# they tied near 20, and at 64 it was 0.6-1.1 ms to 0.4-0.5 ms. GTH keeps
# the bound for cache chains, and for lone chains its subtraction-free
# accuracy and its proof of irreducibility; moving the bound would change
# the bits of every chain it moves. A Sigma cache's Q' took 16 us dense and
# 29 us sorted at 10 states, 34 and 32 at 50, 52 and 33 at 64, 820 and 49
# at 300 (best of 7).
_GTH_MAX = 64
# Largest dense matrix factored or exponentiated: the bordered system of a
# lone chain (`_lu_solve`), a phase-type subintensity (`processes.ph_mean`),
# a MAP's d0 (`metrics.stationary_interval_moments`) and the renewal
# engine's blocks. At this size a renewal `_expm` takes 1.3-2.8 ms (1-norms
# 0.1 to 1e3) and a dense solve 0.16 ms (2-vCPU host). `_lu_solve` of a
# ring-plus-edges chain (about 4 nonzeros a row) with its refinement pass
# and gates took 0.26-0.28 ms dense against 0.39-0.40 ms by a warm sparse
# LU at 100 states, and they tie at 200: 1.01-1.04 against 0.99-1.44 ms
# (best of 31, three runs, 2-vCPU host); the sparse route first pays
# `import scipy.sparse`.
_DENSE_MAX = 200


def _gth(q: np.ndarray) -> np.ndarray | None:
    """Stationary vector of the dense generator q by Grassmann-Taksar-Heyman
    state reduction, or None.

    States n - 1, ..., 1 are censored out in turn; the pivot of state k is
    its total rate into states 0..k-1 of the chain censored to 0..k, and
    back-substitution from p_0 = 1 gives p_k = sum_{i<k} p_i a_ik / pivot_k.
    Every step adds, multiplies or divides nonnegative numbers (the
    diagonal is never read), so no digits cancel (Grassmann, Taksar &
    Heyman 1985). A positive pivot for every k and a positive p_k for every
    k mean that every state reaches state 0 and state 0 reaches every
    state: the chain is irreducible. Returns None when a pivot or an entry
    is zero: the chain may be reducible, or a rate product underflowed.
    """
    a = q.copy()
    n = q.shape[0]
    total = np.add.reduce  # `ndarray.sum` without its Python-level wrapper
    for k in range(n - 1, 0, -1):
        row = a[k, :k]
        pivot = total(row)
        if pivot == 0.0:
            return None
        col = a[:k, k]
        col /= pivot
        a[:k, :k] += col[:, None] * row
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
    if np.count_nonzero(x > 0.0) < n:
        return None
    return x / total(x)


def _lu_solve(q: RateMatrix) -> np.ndarray:
    """Stationary vector of the irreducible generator q by LU of its
    bordered system, held to the sign test and the residual gate.

    The system a p = e_n is p q = 0, p 1 = 1: q^T with its last row
    replaced by ones, built once and factored by `_solver`. One round of
    iterative refinement follows. Its residual e_n - a x and the gate both
    read the product x -> x q: a x is x q with its last entry x 1.
    """
    n = q.rows
    keep = q.col_idx != n - 1  # q's last column is the last row of q^T
    ones = (np.full(n, n - 1), np.arange(n), np.ones(n))
    a = RateMatrix.from_terms(n, n, [(q.col_idx[keep], q.row_idx[keep], q.data[keep]), ones])
    product = _triplet_product(n, [(q.row_idx, q.col_idx, q.data)])
    e = np.zeros(n)
    e[n - 1] = 1.0
    try:
        solve = _solver(a)
        x = solve(e)
        x += solve(e - np.append(product(x)[:-1], x.sum()))  # one refinement pass
    except ValueError as exc:  # pragma: no cover - guards exact singularity
        raise NoStationaryDistributionError(str(exc)) from exc
    x = _as_probabilities(x)
    if x is None:
        raise NoStationaryDistributionError("solver returned a non-probability vector")
    residual, bound = _residual(product(x), q.diagonal())
    if not residual <= bound:  # refuses a NaN residual too
        raise NoStationaryDistributionError(
            f"stationary residual too large ({residual:g}); generator may be defective"
        )
    return x


def _solver(a: RateMatrix):
    """The map b -> a^{-1} b of the square matrix a, for `_lu_solve`,
    `processes.ph_mean` and `metrics.stationary_interval_moments`: dense LU
    (`np.linalg.solve`, LAPACK) up to `_DENSE_MAX` rows, one sparse LU above.
    Raises ValueError (numpy's `LinAlgError` is one) when a is exactly singular."""
    if a.rows <= _DENSE_MAX:
        return functools.partial(np.linalg.solve, a._array())
    from scipy.sparse import linalg as spla  # deferred: only larger matrices need scipy

    try:
        return spla.splu(a.to_csr().tocsc()).solve
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc


def steady_state(q: RateMatrix) -> ProbabilityVector:
    """Stationary distribution p of a conservative irreducible generator.

    This solves a chain knowing nothing but q. `metrics.metrics_from_maps`
    solves a cache output chain of more than `_GTH_MAX` states on its
    Kronecker factors from its input vector (see `_given_input_solve`), and
    assembles it for this function only when that solve fails its gates.

    q is checked once, on its triplets, before either route:

    1. A chain of at most `_GTH_MAX` states is solved on one dense array by
       GTH state reduction (see `_gth`), whose positive pivots and entries
       also show it irreducible. The vector must have a componentwise
       backward error max_i |(p q)_i| / (|p| |q|)_i of at most 1e-10; while
       it does not, up to 50 Jacobi sweeps, dense products with q's
       off-diagonal part, polish its small entries (see `_relax`). It must
       then pass the residual gate below.
    2. Otherwise (a larger chain, a GTH pivot or entry that is zero, or a
       GTH vector that fails the gates), a graph search decides whether the
       chain is irreducible (see `_is_irreducible`), unless GTH has shown
       it. Then p q = 0, p 1 = 1, as the bordered system q^T with its last
       equation replaced by the normalization constraint, is built once and
       solved by LU, factored by `_solver` (dense up to `_DENSE_MAX`
       states, sparse above), with one round of iterative refinement (see
       `_lu_solve`). The vector is held to the sign test (no entry below
       -1e-9 times the largest) and the residual gate.

    The residual gate is max |p q| <= max(1e-10, 1e-13 * max |q_ii|), the
    largest exit rate being the largest rate of a generator. A one-state
    chain needs no solve: its only entry is zero up to roundoff.

    Raises
    ------
    ValidationError
        If q is not a conservative generator: an off-diagonal rate is
        negative, or a row sum is off zero by more than 1e-9.
    NoStationaryDistributionError
        If the chain is not irreducible (no unique stationary distribution),
        or the LU solution fails the sign test or the residual gate.
    """
    if not q.is_square:
        raise ValidationError("generator must be square")
    _require_generator(np.any((q.data < 0.0) & (q.row_idx != q.col_idx)), q.row_sums())
    n, x = q.rows, None
    if n == 1:
        return ProbabilityVector([1.0])
    if n <= _GTH_MAX:
        a = q._array()
        off = a - np.diag(a.diagonal())  # q's off-diagonal part
        x = _gth(a)
        if x is not None:  # q is irreducible
            p = _gate(lambda y: y @ off, a.diagonal(), x)
            if p is not None:
                return ProbabilityVector._solved(p)
    if x is None and not _is_irreducible(q):
        raise NoStationaryDistributionError(
            "generator is reducible: no unique stationary distribution"
        )
    return ProbabilityVector._solved(_lu_solve(q))
