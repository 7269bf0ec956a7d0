"""Sparse rate-matrix substrate: Kronecker algebra and steady-state solving.

Matrices are stored as canonical COO triplets (row-major order, duplicates
summed, exact zeros dropped) so that two matrices built from the same
literal rates compare equal entry-by-entry.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NoStationaryDistributionError, ValidationError

__all__ = [
    "RateMatrix",
    "ProbabilityVector",
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
        r, c, v = _canonicalize(rows, cols, r, c, v)
        return cls(rows, cols, r, c, v)

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
        r, c = np.nonzero(a)
        return cls.from_arrays(a.shape[0], a.shape[1], r, c, a[r, c])

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
        return RateMatrix.from_arrays(
            self.rows, self.cols, self.row_idx, self.col_idx, self.data * factor
        )

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
    """Dense stochastic vector: entries >= 0 summing to 1 within 1e-12."""

    entries: np.ndarray

    _SUM_TOL = 1e-12

    def __init__(self, entries):
        values = np.asarray(entries, dtype=np.float64).copy()
        values.flags.writeable = False
        if values.ndim != 1:
            raise ValidationError("probability vector must be one-dimensional")
        if values.size == 0:
            raise ValidationError("probability vector must be nonempty")
        if np.any(values < 0):
            raise ValidationError("probability vector has negative entries")
        if abs(values.sum() - 1.0) > self._SUM_TOL:
            raise ValidationError(
                f"probability vector sums to {values.sum()!r}, not 1"
            )
        object.__setattr__(self, "entries", values)

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


def kron_sum_terms(mats) -> list[tuple]:
    """Unsorted triplets of the terms I (x) M_i (x) I of the Kronecker sum of
    the square matrices `mats`, first outermost, for `RateMatrix.from_terms`."""
    if not all(m.is_square for m in mats):
        raise DimensionError("kron_sum requires square matrices")
    terms, left, right = [], 1, math.prod(m.rows for m in mats)
    for m in mats:
        right //= m.rows
        # axes (left block, entry of m, right block)
        outer = np.arange(left)[:, None, None] * m.rows
        inner = np.arange(right)
        r = ((outer + m.row_idx[:, None]) * right + inner).ravel()
        c = ((outer + m.col_idx[:, None]) * right + inner).ravel()
        v = np.empty((left, m.nnz, right))
        v[...] = m.data[:, None]
        terms.append((r, c, v.ravel()))
        left *= m.rows
    return terms


def kron_sum(a: RateMatrix, b: RateMatrix) -> RateMatrix:
    """Kronecker sum a (x) I_n + I_m (x) b for square a (m x m) and b (n x n)."""
    return RateMatrix.from_terms(a.rows * b.rows, a.rows * b.rows, kron_sum_terms([a, b]))


def _check_generator(q: RateMatrix, tol: float = 1e-9) -> None:
    if not q.is_square:
        raise ValidationError("generator must be square")
    off_diag = q.row_idx != q.col_idx
    if np.any(q.data[off_diag] < 0):
        raise ValidationError("generator has negative off-diagonal entries")
    sums = q.row_sums()
    worst = np.max(np.abs(sums)) if sums.size else 0.0
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
    while frontier.size:
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


# BiCGSTAB iterations before the LU fallback. Converging solves need far
# fewer: 33-34 for the given-input systems of the map-large benchmark's
# 5,000-state tree and 2,916-state line (the tree's bordered system, which
# only the fallback builds now, took 75). Where BiCGSTAB stalls (a
# 2,550-state Sigma cache with Erlang-50 laws), every 1,000 iterations
# cost about 0.1 s and LU takes milliseconds.
_KRYLOV_MAXITER = 1_000
# BiCGSTAB iterations without a new lowest residual norm before it gives up.
# Converging solves of the test suite and the benchmark went at most 24 in a
# row; on a 10,100-state Sigma cache with Erlang-100 laws no iterate ever
# beats the starting vector.
_STAGNATION_ITERS = 100
# Largest componentwise backward error accepted from the iterative solve.
_BACKWARD_ERROR_MAX = 1e-10
# Jacobi sweeps allowed to bring the Krylov iterate under that bound. Trees
# with fast TTLs, whose rarest states have probability ~1e-11, needed up to
# 24; a sweep costs one sparse product, a BiCGSTAB iteration two.
_MAX_SWEEPS = 50


def _as_probabilities(x: np.ndarray) -> np.ndarray | None:
    """Clip roundoff negatives and normalize; None if x has a real negative entry."""
    if np.any(x < -1e-9 * max(1.0, np.max(np.abs(x)))):
        return None
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _residual(q: RateMatrix, x: np.ndarray) -> tuple[float, float]:
    """Balance residual max |x q| and the largest residual the gate accepts."""
    xq = np.bincount(q.col_idx, weights=x[q.row_idx] * q.data, minlength=q.rows)
    residual = np.max(np.abs(xq))
    return residual, max(1e-10, 1e-13 * np.max(np.abs(q.data)))


def _relax(q: RateMatrix, x: np.ndarray) -> np.ndarray | None:
    """Jacobi-sweep x until its componentwise backward error is small enough.

    The Oettli-Prager backward error of x >= 0 is
    omega = max_i |(x q)_i| / (|x| |q|)_i = max_i |in_i - out_i| / (in_i + out_i),
    where in_i is the probability flow into state i and out_i the flow out
    of it. Its bound holds every balance equation to a relative 1e-10, so
    small entries are as trustworthy as large ones; a normwise residual
    cannot tell when they are not. A sweep sets x_i = in_i / (exit rate of
    i), a subtraction-free update with the stationary vector as its fixed
    point. Returns the first vector within the bound, or None after
    _MAX_SWEEPS sweeps. Needs a positive exit rate in every state, which
    an irreducible chain of two or more states has.
    """
    off = q.row_idx != q.col_idx
    src, dst, rate = q.row_idx[off], q.col_idx[off], q.data[off]
    exit_rate = -q.diagonal()
    for _ in range(_MAX_SWEEPS + 1):
        inflow = np.bincount(dst, weights=rate * x[src], minlength=q.rows)
        outflow = exit_rate * x
        total = inflow + outflow
        ratio = np.divide(
            np.abs(inflow - outflow), total, out=np.zeros(q.rows), where=total > 0
        )
        if np.max(ratio) <= _BACKWARD_ERROR_MAX:
            return x
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


# Most nonzeros of a system that `_bicgstab` multiplies by with numpy
# (`_product`), set under the break-even with importing scipy.sparse.
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
_NUMPY_PRODUCT_MAX = 20_480


def _product(a: tuple, n: int):
    """The map x -> a x for the n x n matrix with CSC arrays a = (data, indices, indptr).

    At most `_NUMPY_PRODUCT_MAX` nonzeros: one `np.bincount`, which adds the
    terms in the order scipy's `csc_matvec` does. Above it: a scipy matrix,
    built once per call.
    """
    data, indices, indptr = a
    if data.size > _NUMPY_PRODUCT_MAX:
        import scipy.sparse as sp  # deferred: small systems never load it

        return sp.csc_matrix(a, shape=(n, n)).__matmul__
    counts = np.diff(indptr)
    return lambda x: np.bincount(indices, weights=data * x.repeat(counts), minlength=n)


def _bicgstab(a: tuple, inv_diag: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Solve a x = b by BiCGSTAB preconditioned by inv_diag, updating x in place.

    a is the system's CSC arrays (data, indices, indptr), applied by
    `_product`. The recurrence, breakdown tests and stopping test
    (||r|| < 1e-14 ||b||) are those of `scipy.sparse.linalg.bicgstab`, so
    the iterates are its own up to the rounding of the inner products;
    without its operator wrappers an iteration costs two sparse products
    and some vector work. One more exit: the iteration gives up once the
    residual norm has not fallen below its best for `_STAGNATION_ITERS`
    iterations. Returns (x, info): info 0 on convergence, positive when out
    of iterations or stagnating, negative on a breakdown.
    """
    product = _product(a, b.size)
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


def _krylov_solve(q: RateMatrix, a: tuple, b: np.ndarray) -> np.ndarray | None:
    """Jacobi-preconditioned BiCGSTAB solution of `steady_state`'s bordered
    system with CSC arrays a, or None if any acceptance test fails."""
    n = q.rows
    # a's diagonal is q's, but for the 1 of the normalization row
    inv_diag = 1.0 / q.diagonal()
    inv_diag[-1] = 1.0
    x, info = _bicgstab(a, inv_diag, b, np.full(n, 1.0 / n))
    if info != 0 or not np.all(np.isfinite(x)):
        return None
    x = _as_probabilities(x)
    return None if x is None else _gate(q, x)


def _gate(q: RateMatrix, x: np.ndarray) -> np.ndarray | None:
    """x, polished by `_relax`, if it passes the backward-error and residual gates."""
    x = _relax(q, x)
    if x is None:
        return None
    residual, bound = _residual(q, x)
    return x if residual <= bound else None


def _given_input_solve(
    q: RateMatrix, p_in: np.ndarray, pi: np.ndarray, d1: RateMatrix
) -> np.ndarray | None:
    """Stationary vector of a cache's output chain from its input vector, or None.

    q is the irreducible generator Q' of a `cache_ops` miss process: the n
    OUT states, then one block of n states per transient TTL phase, for a
    TTL with initial vector pi and requests with active matrix d1 whose
    background chain has the stationary vector p_in. The request coordinate
    of Q' evolves on its own, so the blocks x_0 (OUT) and x_j (TTL phase j)
    of its stationary vector sum to p_in. Putting x_0 = p_in - sum_j x_j
    into the balance equations of the IN columns leaves the nonsingular
    system

        x_T (-M) = p_in (pi (x) d1),   M = Q'_TT - (1 pi) (x) d1,

    over the IN states T alone, with -M read from Q''s IN x IN triplets.
    BiCGSTAB with Jacobi preconditioning (see `_bicgstab`) solves it,
    started from p_in spread evenly over the k + 1 blocks (from zero, a
    right-hand side with few nonzeros broke down on a 108-state chain).
    The full vector must then pass the sign test and both gates of the
    Krylov route of `steady_state`. None when any of these fails.
    """
    n, m = p_in.size, q.rows - p_in.size
    start = np.searchsorted(q.row_idx, n)  # the IN rows are a suffix of the triplets
    inner = q.col_idx[start:] >= n
    phases = np.flatnonzero(pi)
    k = m // n
    # block (j, l) of (1 pi) (x) d1 is pi_l d1, in every IN block row j
    row = np.tile(d1.row_idx, phases.size)
    col = (phases[:, None] * n + d1.col_idx).ravel()
    val = (pi[phases, None] * d1.data).ravel()
    neg_m = RateMatrix.from_arrays(
        m,
        m,
        np.concatenate([q.row_idx[start:][inner] - n, (np.arange(k)[:, None] * n + row).ravel()]),
        np.concatenate([q.col_idx[start:][inner] - n, np.tile(col, k)]),
        np.concatenate([-q.data[start:][inner], np.tile(val, k)]),
    )
    diagonal = neg_m.diagonal()
    if np.any(diagonal <= 0.0):
        return None
    # -M's CSR arrays are the CSC arrays of its transpose, the system BiCGSTAB solves
    a = (neg_m.data, neg_m.col_idx, _indptr(neg_m.row_idx, m))
    p_d1 = np.bincount(d1.col_idx, weights=p_in[d1.row_idx] * d1.data, minlength=n)
    x_t, info = _bicgstab(a, 1.0 / diagonal, np.kron(pi, p_d1), np.tile(p_in / (k + 1), k))
    if info != 0 or not np.all(np.isfinite(x_t)):
        return None
    x = _as_probabilities(np.concatenate([p_in - x_t.reshape(k, n).sum(axis=0), x_t]))
    return None if x is None else _gate(q, x)


# Largest chain solved by GTH state reduction. Dense GTH costs O(n^3), the
# Krylov route (reachability search, BiCGSTAB) O(nnz) per level and
# iteration. A whole steady_state of a random ring-plus-edges chain on a
# 2-vCPU host took 0.12 ms by GTH and 0.70 ms by Krylov at 5 states, 0.9
# and 2.5 ms at 50; the two tie between 108 and 150 states, and GTH takes
# 37 ms at 324, against 3.6 ms.
_GTH_MAX = 64


def _gth(q: RateMatrix) -> np.ndarray | None:
    """Stationary vector by Grassmann-Taksar-Heyman state reduction, or None.

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
    a = q.to_dense()
    n = q.rows
    for k in range(n - 1, 0, -1):
        row = a[k, :k]
        pivot = row.sum()
        if pivot == 0.0:
            return None
        col = a[:k, k]
        col /= pivot
        a[:k, :k] += col[:, None] * row
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
    if not np.all(x > 0.0):
        return None
    return x / x.sum()


def _lu_solve(q: RateMatrix, a: tuple, b: np.ndarray) -> np.ndarray:
    """Sparse LU solution of the system with CSC arrays a, held to the sign
    test and the residual gate."""
    import scipy.sparse as sp  # deferred: only the LU fallback needs scipy here
    from scipy.sparse import linalg as spla

    a = sp.csc_matrix(a, shape=(q.rows, q.rows))
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:  # pragma: no cover - guards exact singularity
        raise NoStationaryDistributionError(str(exc)) from exc
    x = lu.solve(b)
    x += lu.solve(b - a @ x)  # one refinement pass
    x = _as_probabilities(x)
    if x is None:
        raise NoStationaryDistributionError("solver returned a non-probability vector")
    residual, bound = _residual(q, x)
    if residual > bound:
        raise NoStationaryDistributionError(
            f"stationary residual too large ({residual:g}); generator may be defective"
        )
    return x


def steady_state(q: RateMatrix) -> ProbabilityVector:
    """Stationary distribution p of a conservative irreducible generator.

    This solves a chain knowing nothing but q. `metrics.metrics_from_maps`
    solves a cache output chain of more than `_GTH_MAX` states from its
    known input vector instead (see `_given_input_solve`), and comes here
    only when that solve fails its gates.

    Chains of at most `_GTH_MAX` states are solved first by dense GTH state
    reduction (see `_gth`), whose positive pivots and entries also show the
    chain irreducible; when one is zero, a graph search decides. Larger
    chains are checked by the graph search (see `_is_irreducible`). A GTH
    vector that fails the gates below, or one that could not be formed,
    takes the route of a large chain: p q = 0, p 1 = 1 as the bordered
    system q^T with its last equation replaced by the normalization
    constraint, solved in this order:

    1. BiCGSTAB preconditioned by the system's diagonal (Jacobi), started
       from the uniform vector, to a relative residual of 1e-14 within
       `_KRYLOV_MAXITER` iterations. It is the package's own loop with
       scipy's recurrence (see `_bicgstab`), and it gives up early once the
       residual has stopped falling for `_STAGNATION_ITERS` iterations.
    2. If it converged and no entry is below -1e-9 times the largest, the
       iterate must have a componentwise backward error
       max_i |(p q)_i| / (|p| |q|)_i of at most 1e-10; while it does not,
       up to 50 Jacobi sweeps polish its small entries (see `_relax`). The
       result must then pass the residual gate below. On stiff chains
       (rates spread over many orders of magnitude) the iterate can pass
       the residual gate with small entries wrong in the third digit; the
       backward-error test is what rejects it. A GTH vector is held to the
       same two gates.
    3. Otherwise, a sparse LU factorization with one round of iterative
       refinement, held to the same sign test and residual gate.

    The residual gate is max |p q| <= max(1e-10, 1e-13 * max |q_ij|). A
    one-state chain needs no solve: its only entry is zero up to roundoff.

    Raises
    ------
    ValidationError
        If q is not a conservative generator.
    NoStationaryDistributionError
        If the chain is not irreducible (no unique stationary distribution),
        or the LU solution fails the sign test or the residual gate.
    """
    _check_generator(q)
    n = q.rows
    if n == 1:
        return ProbabilityVector([1.0])
    x = _gth(q) if n <= _GTH_MAX else None
    if x is not None:  # q is irreducible
        x = _gate(q, x)
        if x is not None:
            return ProbabilityVector(x)
    elif not _is_irreducible(q):
        raise NoStationaryDistributionError(
            "generator is reducible: no unique stationary distribution"
        )
    # Transpose of q with the last equation replaced by sum(p) = 1. Column j
    # of a is row j of q, whose triplets are in column order, then a 1 in
    # the last row: q's row-major triplets are a's CSC arrays once column
    # n - 1 of q is dropped and that 1 is slotted in after each column.
    keep = q.col_idx != (n - 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(q.row_idx[keep], minlength=n) + 1, out=indptr[1:])
    indices = np.full(indptr[-1], n - 1, dtype=np.int64)
    vals = np.ones(indptr[-1])
    slots = np.arange(np.count_nonzero(keep)) + q.row_idx[keep]
    indices[slots] = q.col_idx[keep]
    vals[slots] = q.data[keep]
    a = (vals, indices, indptr)
    b = np.zeros(n)
    b[n - 1] = 1.0
    x = _krylov_solve(q, a, b)
    if x is None:
        x = _lu_solve(q, a, b)
    return ProbabilityVector(x)
