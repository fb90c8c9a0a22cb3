"""Exact linear algebra over F_p (p prime) and Q, on dense or sparse matrices.

Every strandwise computation in the engine bottoms out here: reduced row
echelon forms, kernels, and induced maps on quotients k^n/W
(:class:`StrandSpace`).  One elimination kernel serves both fields: every
echelon form, kernel and rank comes from it, and a rank is its pivot count.
A strand space keeps only the projection onto its coset basis (dim x n), so
coset coordinates, well-definedness checks and induced maps are matrix
products with no further elimination.  A module map's induced map is
built projected (``modules._coset_map``); :func:`induced_map` projects the
ambient of any other map, such as a map of homology strands.
:func:`_mult_block` builds every multiplication block and its projection
onto a quotient strand, :meth:`ExactMatrix.assemble` places every block
matrix, and no other module reads how a matrix is stored.  A space's
coset basis is a set of coordinates, so no space stores a coset matrix.  The
projection is the reduced echelon basis of the annihilator of W, and it has
two routes: one elimination of the transposed sub basis, or, for
W = sum_j x_j W_j plus a few relations, Macaulay's inverse system over the
spaces of the W_j, which eliminates a system as wide as their dims and then
the dim x n basis it yields.  A reduced echelon basis is unique, so both
routes give the same bytes.  A direct sum of strand spaces runs none: it
keeps its summands and projects each block of coordinates with its own
summand.  Matrices over F_p hold numpy integers reduced into ``[0, p)``;
matrices over Q hold :class:`fractions.Fraction` entries (always in lowest
terms with positive denominator).  Values are immutable after construction,
so they are safe to share across threads: the engine's value types derive
from :class:`_Frozen`, which refuses every attribute write, and a matrix's
arrays are read-only.

One rule picks how a matrix is stored, from its shape and nonzero count
alone, over every field: a matrix of 4096 entries or more with at most one
in 32 of them nonzero is stored sparse, as the row pointers, column indices
and values of its nonzero entries (CSR; object values over Q); any other is
a dense array.  The strand maps of monomial data are monomial matrices, one
entry per column and term of a polynomial (Eisenbud, Mustata and Stillman,
*J. Symbolic Comput.* 29, 2000), so their multiplication blocks, presentation
strands, coset maps, kernels and projections are stored sparse, and every
cache holds only their nonzero entries.  Small and dense matrices are stored
dense, whose BLAS products and row updates cost less there than any index
arithmetic; below 4096 entries the rule needs no count.  The share is where
the two meet on Macaulay matrices: the transposed presentation strands of
two dense quadrics (six entries a row) eliminate faster dense at 5.7 % and
3.9 % nonzero, while monomial maps hold one entry in dim R_D per column.

Each operation has one code path for both storages but four forks, each
kept for the gain its docstring gives: :func:`_product_mod`'s float64 BLAS
for two dense operands mod p (over Q every product runs on the nonzero
entries), :func:`_known_pivots` for a dense elimination beside
:func:`_sparse_rref`, the dense assembly of :func:`_kernel`, and
:meth:`StrandSpace._from_below` beside one elimination.  Sums, products,
stacks, block matrices and column or row picks of sparse operands are
computed on their nonzero entries, exactly, with no dense array of the
result's shape unless the rule stores the result dense, and every dense
result is C-contiguous.

Mod-p products delay reduction while no sum of products can leave the range
in which its type is exact (Dumas, Giorgi and Pernet, *FFLAS-FFPACK*, ACM
TOMS 2008).  A product with inner dimension k runs as one float64 BLAS
product and one reduction when ``k (p-1)^2 < 2^53``; past that bound it sums
int64 products over chunks of the inner index, reducing after each chunk.
Elimination mod p reduces every rank-1 update at once: an update subtracts
one product of two reduced entries, below ``(p-1)^2 < 2^62``, from a reduced
entry, so it is exact in int64 for every p < 2^31.  Over Q it divides the
pivot row by the pivot and has nothing to reduce.

An elimination of 4096 entries or more, over either field, first takes the
pivots it knows (Faugere and Lachartre, PASCO 2010; Boyer, Eder, Faugere,
Lachartre and Martani, *GBLA*, ISSAC 2016).  Strand matrices are Macaulay
matrices: one row per distinct leading column gives a triangular pivot
block A, back substitution over its nonzero entries gives Z = A_L^-1 A_N,
and the other rows C reduce to the Schur complement S = C_N - C_L Z, the only
part that goes through the dense loop.  Smaller matrices take the dense loop
whole, as the front end costs more than it saves there.  Each product
``v z < (p-1)^2 < 2^62`` of the back substitution and of S is reduced before
it is added, so a sum stays below 2^63 for every p < 2^31; the correction of
Z by RREF(S) is a mod-p product with the bounds above.  A sparse matrix takes
the same known pivots off its stored entries (:func:`_sparse_rref`): Z and S
are kept as their nonzero entries, S is eliminated by the storage the rule
gives it, and the echelon form is stored by the rule, so no elimination of a
sparse matrix allocates its dense array.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import FieldMismatchError, InternalInvariantError, WellDefinednessError

__all__ = [
    "FieldSpec",
    "QQ",
    "DEFAULT_PRIME",
    "ExactMatrix",
    "rref_with_pivots",
    "rank",
    "kernel_basis",
    "column_basis",
    "solve_columns",
    "StrandSpace",
    "induced_map",
]

DEFAULT_PRIME = 32003
# A product of two reduced entries is below 2^62, exact in int64.  Sums of
# such products are exact below 2^53 in float64 and below 2^63 in int64;
# each mod-p kernel reduces early where a sum could pass its bound (see the
# module docstring), so every prime below 2^31 is exact.
MAX_PRIME = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class _Frozen:
    """Base of the immutable value types: an instance refuses every attribute
    write, so a constructor sets its slots with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class FieldSpec(_Frozen):
    """Coefficient field: characteristic 0 means Q, otherwise a prime p < 2^31."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        characteristic = int(characteristic)
        if characteristic >= MAX_PRIME:
            raise ValueError(f"characteristic must be below 2^31, got {characteristic}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        object.__setattr__(self, "characteristic", characteristic)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec) and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash(("FieldSpec", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def normalize(self, value):
        """Canonical representative of a scalar (Fraction, or int in [0, p))."""
        if self.characteristic == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        return int(value) % self.characteristic

    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic


QQ = FieldSpec(0)


def _dtype_for(p: int):
    # int32 products stay below 2^31 only for p < 46341
    return np.int32 if p < 46341 else np.int64


def _zeros(field: FieldSpec, rows: int, cols: int) -> np.ndarray:
    """A fresh writable zero array for matrices over ``field``."""
    if not field.characteristic:
        out = np.empty((rows, cols), dtype=object)
        out[...] = Fraction(0)
        return out
    return np.zeros((rows, cols), dtype=_dtype_for(field.characteristic))


def _same_field(a: "ExactMatrix", b: "ExactMatrix") -> FieldSpec:
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field} and {b.field}")
    return a.field


# From this many entries on, a matrix is stored sparse when at most one entry
# in _SPARSE_SHARE is nonzero, and an elimination takes its known pivots first.
_SPARSE_FROM = 4096
_SPARSE_SHARE = 32


def _is_sparse(rows: int, cols: int, nnz: int) -> bool:
    """The storage rule: sparse from 4096 entries with at most 1/32 of them nonzero."""
    size = rows * cols
    return size >= _SPARSE_FROM and nnz * _SPARSE_SHARE <= size


def _nnz(m: "ExactMatrix") -> int:
    return m._data.size if m._indptr is not None else int(np.count_nonzero(m._data))


def _coo(m: "ExactMatrix"):
    """Rows, columns and values of the nonzero entries of m, in row-major order."""
    if m._indptr is None:
        r, c = m._data.nonzero()
        return r, c, m._data[r, c]
    return np.repeat(np.arange(m.rows), np.diff(m._indptr)), m._indices, m._data


def _csr(m: "ExactMatrix"):
    """Values, row pointers and columns of the nonzero entries of m."""
    if m._indptr is not None:
        return m._data, m._indptr, m._indices
    r, c, v = _coo(m)
    return v, np.searchsorted(r, np.arange(m.rows + 1)), c


def _as_array(m: "ExactMatrix") -> np.ndarray:
    """The entries of m as a 2-D array (read-only where m is dense)."""
    if m._indptr is None:
        return m._data
    out = _zeros(m.field, m.rows, m.cols)
    r, c, v = _coo(m)
    out[r, c] = v
    return out


def _summed(key: np.ndarray, v: np.ndarray, p: int):
    """The distinct keys in increasing order, each with the sum of its values
    (reduced over F_p), zero sums dropped.  Over F_p the values are int64 of
    absolute value below 2^31, so a sum of fewer than 2^32 stays exact."""
    if key.size > 1:
        step = np.diff(key)
        if (step <= 0).any():
            order = np.argsort(key, kind="stable")
            key, v = key[order], v[order]
            step = np.diff(key)
        if not step.all():
            start = np.flatnonzero(np.diff(key, prepend=-1))
            key, v = key[start], np.add.reduceat(v, start)
    if p:
        v = v % p
    keep = v != 0
    return key[keep], v[keep]


def _from_coo(field: FieldSpec, rows: int, cols: int, r, c, v) -> "ExactMatrix":
    """The rows x cols matrix with values v summed at (r, c), stored by the rule.

    Over F_p each value is an int of absolute value below 2^31, such as a
    reduced entry, its negative, or a reduced product.
    """
    p = field.characteristic
    if p:
        v = v.astype(np.int64, copy=False)
    key, v = _summed(np.asarray(r, dtype=np.int64) * cols + c, v, p)
    if not _is_sparse(rows, cols, key.size):
        out = _zeros(field, rows, cols)
        out.reshape(-1)[key] = v
        return ExactMatrix._stored(field, rows, cols, out)
    r, c = np.divmod(key, cols)
    v = v.astype(_dtype_for(p) if p else object, copy=False)
    return ExactMatrix._stored(field, rows, cols, v, np.searchsorted(r, np.arange(rows + 1)), c)


def _product_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for reduced operands.

    The float64 route is BLAS: a 512 x 512 product mod 32003 takes about
    21 ms there against 367 ms as one int64 product (numpy 2.4.6, 2 vCPUs).
    """
    if a.shape[1] * (p - 1) ** 2 < 2**53:
        # every partial sum is an integer below 2^53, so BLAS sums exactly
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    else:
        # a chunk of `step` int64 products sums below 2^62
        a = a.astype(np.int64)
        b = b.astype(np.int64)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        step = (2**62) // (p - 1) ** 2
        for start in range(0, a.shape[1], step):
            out = out % p + a[:, start : start + step].dot(b[start : start + step])
    out %= p
    return out


class ExactMatrix:
    """Matrix with exact entries over a fixed field, stored dense or sparse.

    A dense matrix keeps its row-major array in ``_data`` and None in
    ``_indptr``, and leaves ``_indices`` unset.  A sparse one keeps its
    nonzero entries only, in row-major order: their values in ``_data``, their
    columns in ``_indices``, and in ``_indptr`` where each row starts.
    :func:`_is_sparse` picks the storage from the shape and the nonzero count,
    so equal matrices are stored alike.
    """

    __slots__ = ("field", "rows", "cols", "_data", "_indptr", "_indices")

    def __init__(self, field: FieldSpec, data: np.ndarray):
        """The matrix of a 2-D array of reduced entries, stored by the rule."""
        self.field = field
        self.rows, self.cols = data.shape
        self._indptr = None
        if data.size >= _SPARSE_FROM and _is_sparse(self.rows, self.cols, np.count_nonzero(data)):
            r, indices = data.nonzero()
            data, indptr = data[r, indices], np.searchsorted(r, np.arange(self.rows + 1))
            indptr.flags.writeable = indices.flags.writeable = False
            self._indptr, self._indices = indptr, indices
        data.flags.writeable = False
        self._data = data

    @classmethod
    def _stored(cls, field, rows: int, cols: int, data, indptr=None, indices=None) -> "ExactMatrix":
        """The matrix of the given storage, as it is: dense where ``indptr`` is None."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols, m._indptr = field, rows, cols, indptr
        data.flags.writeable = False
        m._data = data
        if indptr is not None:
            indptr.flags.writeable = indices.flags.writeable = False
            m._indices = indices
        return m

    # -- construction -----------------------------------------------------
    @classmethod
    def from_rows(cls, field: FieldSpec, rows, cols: int | None = None) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                cols = 0
            return cls.zeros(field, 0, cols)
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != ncols:
            raise ValueError("explicit column count disagrees with data")
        if field.characteristic == 0:
            data = np.empty((nrows, ncols), dtype=object)
            for i, r in enumerate(rows):
                for j, v in enumerate(r):
                    data[i, j] = field.normalize(v)
        else:
            p = field.characteristic
            data = np.array(
                [[int(v) % p for v in r] for r in rows], dtype=_dtype_for(p)
            ).reshape(nrows, ncols)
        return cls(field, data)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        if not cols or rows * cols < _SPARSE_FROM:
            return cls(field, _zeros(field, rows, cols))
        none = np.zeros(0, dtype=np.int64)
        return _from_coo(field, rows, cols, none, none, none)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "ExactMatrix":
        """I_n, the block of multiplication by 1 on a full strand."""
        return _mult_block(field, n, n, [(np.arange(n), field.one())])

    # -- inspection --------------------------------------------------------
    @property
    def entries(self):
        """Row-major tuple-of-tuples of canonical scalars."""
        return tuple(map(tuple, _as_array(self).tolist()))

    def entry(self, i: int, j: int):
        if self._indptr is None:
            return self._data.item(i, j)
        lo, hi = self._indptr[i], self._indptr[i + 1]
        at = lo + np.searchsorted(self._indices[lo:hi], j)
        if at < hi and self._indices[at] == j:
            return self._data.item(at)
        return self.field.normalize(0)

    def is_zero(self) -> bool:
        if self.rows == 0 or self.cols == 0:
            return True
        return not self._data.any()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            return False
        if self.rows == 0 or self.cols == 0:
            return True
        if self._indptr is None and other._indptr is None:
            return bool((self._data == other._data).all())
        return all(map(np.array_equal, _coo(self), _coo(other)))

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, np.add, "addition")

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._entrywise(other, np.subtract, "subtraction")

    def _entrywise(self, other: "ExactMatrix", op, what: str) -> "ExactMatrix":
        field = _same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {what}")
        if self._indptr is None and other._indptr is None:
            return _reduced(field, op(self._data, other._data))
        (r, c, v), (r2, c2, v2) = _coo(self), _coo(other)
        return _from_coo(field, self.rows, self.cols, np.concatenate([r, r2]),
                         np.concatenate([c, c2]), np.concatenate([v, op(0, v2)]))

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        field, c = self.field, self.field.normalize(c)
        if self._indptr is None:
            return _reduced(field, self._data * c)
        if not c:
            return ExactMatrix.zeros(field, self.rows, self.cols)
        v = self._data * c % field.characteristic if field.characteristic else self._data * c
        return ExactMatrix._stored(field, self.rows, self.cols, v, self._indptr, self._indices)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        field = _same_field(self, other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if not (self.rows and self.cols and other.cols):
            return ExactMatrix.zeros(field, self.rows, other.cols)
        if self._indptr is not None or other._indptr is not None or field.is_rational:
            return _sparse_product(self, other)
        p = field.characteristic
        return ExactMatrix(field, _product_mod(self._data, other._data, p).astype(_dtype_for(p)))

    # -- slicing / stacking --------------------------------------------------
    def columns(self, indices) -> "ExactMatrix":
        if self._indptr is None:
            return ExactMatrix(self.field, self._data.take(indices, axis=1))
        # the entries by column, then the spans of the columns picked
        idx = np.arange(self.cols).take(indices)
        r, c, v = _coo(self)
        order = np.argsort(c, kind="stable")
        at, lens = _ranges(np.searchsorted(c[order], np.arange(self.cols + 1)), idx)
        at = order[at]
        return _from_coo(self.field, self.rows, idx.size, r[at], np.repeat(np.arange(idx.size), lens), v[at])

    def take_rows(self, indices) -> "ExactMatrix":
        if self._indptr is None:
            return ExactMatrix(self.field, self._data.take(indices, axis=0))
        idx = np.arange(self.rows).take(indices)
        at, lens = _ranges(self._indptr, idx)
        return _from_coo(self.field, idx.size, self.cols, np.repeat(np.arange(idx.size), lens),
                         self._indices[at], self._data[at])

    @staticmethod
    def hstack(mats) -> "ExactMatrix":
        return _stack(mats, 1)

    @staticmethod
    def vstack(mats) -> "ExactMatrix":
        return _stack(mats, 0)

    @staticmethod
    def assemble(field: FieldSpec, blocks: dict, row_dims, col_dims) -> "ExactMatrix":
        """Block matrix from a dict (i, j) -> ExactMatrix of the blocks present,
        block (i, j) being row_dims[i] x col_dims[j]; a missing block is zero."""
        r0, c0 = [0, *accumulate(row_dims)], [0, *accumulate(col_dims)]
        placed = [(blk, r0[i], c0[j]) for (i, j), blk in blocks.items()
                  if blk.rows == row_dims[i] and blk.cols == col_dims[j] and blk.field == field]
        if len(placed) != len(blocks):
            raise ValueError("block shape or field mismatch")
        return _placed(field, r0[-1], c0[-1], placed)


def _placed(field: FieldSpec, rows: int, cols: int, placed) -> ExactMatrix:
    """The rows x cols matrix holding each (block, r0, c0) of ``placed`` with
    its top left entry at (r0, c0), zero elsewhere; the blocks do not overlap."""
    if len(placed) == 1 and (placed[0][0].rows, placed[0][0].cols) == (rows, cols):
        # one block filling the matrix is the matrix
        return placed[0][0]
    if rows * cols >= _SPARSE_FROM and _is_sparse(rows, cols, sum(_nnz(b) for b, _, _ in placed)):
        r, c, v = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], []
        for blk, r0, c0 in placed:
            br, bc, bv = _coo(blk)
            r.append(br + r0)
            c.append(bc + c0)
            v.append(bv)
        v = np.concatenate(v) if v else np.zeros(0, dtype=np.int64)
        return _from_coo(field, rows, cols, np.concatenate(r), np.concatenate(c), v)
    out = _zeros(field, rows, cols)
    for blk, r0, c0 in placed:
        out[r0 : r0 + blk.rows, c0 : c0 + blk.cols] = _as_array(blk)
    return ExactMatrix._stored(field, rows, cols, out)


def _reduced(field: FieldSpec, data: np.ndarray) -> ExactMatrix:
    """``data`` as a matrix over ``field``, its entries reduced into [0, p) over F_p."""
    if field.characteristic:
        data = data % field.characteristic
    return ExactMatrix(field, data)


def _stack(mats, axis: int) -> ExactMatrix:
    """``mats`` over one field stacked along ``axis``: 0 for vstack, 1 for hstack."""
    mats = list(mats)
    name = ("vstack", "hstack")[axis]
    if not mats:
        raise ValueError(f"{name} of nothing")
    for m in mats[1:]:
        _same_field(mats[0], m)
    if len({(m.cols, m.rows)[axis] for m in mats}) > 1:
        raise ValueError(f"{('column', 'row')[axis]} mismatch in {name}")
    offsets = [0, *accumulate((m.rows, m.cols)[axis] for m in mats)]
    if axis:
        placed = [(m, 0, o) for m, o in zip(mats, offsets)]
        return _placed(mats[0].field, mats[0].rows, offsets[-1], placed)
    placed = [(m, o, 0) for m, o in zip(mats, offsets)]
    return _placed(mats[0].field, offsets[-1], mats[0].cols, placed)


# -- elimination kernel ------------------------------------------------------

def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p entrywise, by squaring; every product is below 2^62."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x, e = x * x % p, e >> 1
    return out


def _spans(first, lens):
    """The positions first[t] .. first[t]+lens[t]-1 of each t, in order."""
    starts = np.cumsum(lens) - lens
    return np.arange(lens.sum()) + np.repeat(first - starts, lens)


def _ranges(ptr, rows):
    """The positions ptr[r] .. ptr[r+1]-1 of each r in ``rows``, in order,
    and how many each r has."""
    lens = ptr[rows + 1] - ptr[rows]
    return _spans(ptr[rows], lens), lens


def _ones(field: FieldSpec, n: int) -> np.ndarray:
    return np.full(n, Fraction(1), dtype=object) if field.is_rational else np.ones(n, dtype=np.int64)


def _minus_products(v, counts, z, p):
    """-v[t] z for each t and each of the next counts[t] values z, each reduced over F_p."""
    out = np.repeat(v, counts) * z
    return -(out % p) if p else -out


def _sparse_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a @ b over the nonzero entries only: each a[i, k] meets the row k of b.

    Over F_p each product of two reduced entries is reduced before the sum.
    """
    p = a.field.characteristic
    r, k, v = _coo(a)
    bv, bptr, bc = _csr(b)
    at, counts = _ranges(bptr, k)
    v = -_minus_products(v.astype(np.int64) if p else v, counts, bv[at], p)
    return _from_coo(a.field, a.rows, b.cols, np.repeat(r, counts), bc[at], v)


def _subtract_products(target, rows, starts, j, v, z, p):
    """target[rows[t]] -= the sum of v[e] z[j[e]] over the entries e from starts[t] on.

    Over F_p each term is reduced before the sum, so a row of fewer than 2^32
    terms sums below 2^63.
    """
    terms = z[j]
    terms *= v[:, None]
    if p:
        terms %= p
    target[rows] -= np.add.reduceat(terms, starts, axis=0)
    if p:
        target[rows] %= p


def _pivot_block(rows, cols, vals, nrows: int, ncols: int, p: int):
    """The known pivots of a matrix with the nonzero entries (rows, cols, vals)
    in row-major order.

    One row per distinct leading (first nonzero) column forms the pivot
    block A, its pivot columns L and the other columns N.  Returns L, N,
    ``in_a`` (the row of A of each row, -1 for the other rows C), and for each
    entry k (``in_a`` of its row), ``on_l`` (its column is in L), c (its
    column's place in L or N) and ``lead`` (it leads a row of A).  Each row of
    A is scaled to a leading 1, in ``vals`` in place.
    """
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    # any one row with leading column c may be the pivot row of c
    owner = np.full(ncols, -1)
    owner[cols[first]] = rows[first]
    is_l = owner >= 0
    L, N = np.flatnonzero(is_l), np.flatnonzero(~is_l)
    in_a = np.full(nrows, -1)
    in_a[owner[L]] = np.arange(L.size)
    at = np.where(is_l, np.cumsum(is_l), np.cumsum(~is_l)) - 1
    k, on_l, c = in_a[rows], is_l[cols], at[cols]
    in_block = k >= 0
    lead = in_block & on_l & (c == k)
    scale = np.empty(L.size, dtype=vals.dtype)
    scale[k[lead]] = _inverse_mod(vals[lead], p) if p else 1 / vals[lead]
    vals[in_block] *= scale[k[in_block]]
    if p:
        vals %= p
    return L, N, in_a, k, on_l, c, lead


def _known_pivots(a: np.ndarray, p: int):
    """The known pivot columns L of ``a``, the other columns N, Z and S.

    One row per distinct leading column forms the pivot block A (see
    :func:`_pivot_block`); Z = A_L^-1 A_N, and S = C_N - C_L Z for the other
    rows C.  It is the dense front end beside :func:`_sparse_rref`: taking a
    dense array through the stored entries of :func:`_sparse_rref` took
    lc-dense-fp's four such eliminations from 6.4 to 10.5 ms a job, about
    5 % of the job.
    """
    nrows, ncols = a.shape
    rows, cols = a.nonzero()
    vals = a[rows, cols].astype(np.int64) if p else a[rows, cols]
    L, N, in_a, k, on_l, c, lead = _pivot_block(rows, cols, vals, nrows, ncols, p)
    in_block = k >= 0
    z, s = (np.zeros((r, N.size), dtype=np.int64) if p else _zeros(QQ, r, N.size)
            for r in (L.size, nrows - L.size))
    if not N.size:
        return L, N, z, s
    right = in_block & ~on_l
    z[k[right], c[right]] = vals[right]
    # Back substitution, one level at a time: row r of Z is solved once the
    # rows of Z at every other pivot column of A's row r are.
    off = in_block & on_l & ~lead
    order = np.argsort(k[off], kind="stable")
    i, j, v = k[off][order], c[off][order], vals[off][order]
    by_j = np.argsort(j, kind="stable")
    marks = np.arange(L.size + 1)
    i_ptr, j_ptr = np.searchsorted(i, marks), np.searchsorted(j[by_j], marks)
    pending = np.diff(i_ptr)
    ready = np.flatnonzero(pending == 0)
    while ready.size:
        hits = np.bincount(i[by_j[_ranges(j_ptr, ready)[0]]], minlength=L.size)
        pending -= hits
        ready = np.flatnonzero((hits > 0) & (pending == 0))
        if ready.size:
            e, lens = _ranges(i_ptr, ready)
            _subtract_products(z, ready, np.cumsum(lens) - lens, j[e], v[e], z, p)
    c_row = np.cumsum(in_a < 0) - 1
    right, left = ~in_block & ~on_l, ~in_block & on_l
    s[c_row[rows[right]], c[right]] = vals[right]
    if left.any():
        i = c_row[rows[left]]
        starts = np.flatnonzero(np.diff(i, prepend=-1))
        _subtract_products(s, i[starts], starts, c[left], vals[left], z, p)
    return L, N, z, s


def _sparse_z(k, c, vals, right, off, n_l: int, n_n: int, p: int):
    """Z = A_L^-1 A_N of :func:`_pivot_block`'s entries, as its values, row
    pointers and columns.

    Back substitution, one level at a time as in :func:`_known_pivots`: row r
    of Z is A_N[r] minus v Z[j] for each entry v of A's row r at another pivot
    column j, and each row is kept as its nonzero entries.
    """
    marks = np.arange(n_l + 1)
    order = np.argsort(k[right], kind="stable")
    a_k, a_c, a_v = k[right][order], c[right][order], vals[right][order]
    a_ptr = np.searchsorted(a_k, marks)
    order = np.argsort(k[off], kind="stable")
    i, j, v = k[off][order], c[off][order], vals[off][order]
    by_j = np.argsort(j, kind="stable")
    i_ptr, j_ptr = np.searchsorted(i, marks), np.searchsorted(j[by_j], marks)
    pending = np.diff(i_ptr)
    # row r of Z is z_col/z_val[first[r] : first[r] + lens[r]], once solved
    first, lens = np.zeros(n_l, dtype=np.int64), np.zeros(n_l, dtype=np.int64)
    z_col, z_val = np.zeros(0, dtype=np.int64), vals[:0]
    ready = np.flatnonzero(pending == 0)
    while ready.size:
        e = _ranges(a_ptr, ready)[0]
        t = _ranges(i_ptr, ready)[0]
        at, counts = _spans(first[j[t]], lens[j[t]]), lens[j[t]]
        key, val = _summed(
            np.concatenate([a_k[e], np.repeat(i[t], counts)]) * n_n
            + np.concatenate([a_c[e], z_col[at]]),
            np.concatenate([a_v[e], _minus_products(v[t], counts, z_val[at], p)]), p)
        row = key // n_n
        start = np.searchsorted(row, ready)
        first[ready] = z_col.size + start
        lens[ready] = np.searchsorted(row, ready, side="right") - start
        z_col, z_val = np.concatenate([z_col, key % n_n]), np.concatenate([z_val, val])
        hits = np.bincount(i[by_j[_ranges(j_ptr, ready)[0]]], minlength=n_l)
        pending -= hits
        ready = np.flatnonzero((hits > 0) & (pending == 0))
    at = _spans(first, lens)
    return z_val[at], np.concatenate([[0], np.cumsum(lens)]), z_col[at]


def _sparse_rref(m: ExactMatrix):
    """The known pivots of :func:`_rref` for a sparse matrix, read off its
    stored nonzeros, with a form stored by the rule: Z (:func:`_sparse_z`)
    and S are kept as their nonzero entries, and S is eliminated by
    :func:`_eliminate`.  No dense array of the matrix's shape is allocated."""
    field, nrows, ncols = m.field, m.rows, m.cols
    p = field.characteristic
    rows, cols, vals = _coo(m)
    vals = vals.astype(np.int64) if p else vals.copy()
    L, N, in_a, k, on_l, c, lead = _pivot_block(rows, cols, vals, nrows, ncols, p)
    if not N.size:
        return _from_coo(field, nrows, ncols, np.arange(L.size), L, _ones(field, L.size)), L.tolist()
    in_block = k >= 0
    z_val, z_ptr, z_col = _sparse_z(k, c, vals, in_block & ~on_l, in_block & on_l & ~lead,
                                    L.size, N.size, p)
    # S = C_N - C_L Z
    c_row = (np.cumsum(in_a < 0) - 1)[rows]
    right, left = ~in_block & ~on_l, ~in_block & on_l
    at, counts = _ranges(z_ptr, c[left])
    s = _from_coo(field, nrows - L.size, N.size,
                  np.concatenate([c_row[right], np.repeat(c_row[left], counts)]),
                  np.concatenate([c[right], z_col[at]]),
                  np.concatenate([vals[right], _minus_products(vals[left], counts, z_val[at], p)]))
    red, piv_s = _eliminate(s) if not s.is_zero() else (s, [])
    # the pivot row of L[t] is e_L[t] plus Z[t] on the free columns, minus
    # Z[t] on the pivots of S times RREF(S) on the free columns
    piv_s = np.array(piv_s, dtype=np.int64)
    is_free = np.ones(N.size, dtype=bool)
    is_free[piv_s] = False
    pivots = np.sort(np.concatenate([L, N[piv_s]]))
    pos = np.searchsorted(pivots, L)
    z_row = np.repeat(pos, np.diff(z_ptr))
    free = is_free[z_col]
    slot = np.full(N.size, -1)
    slot[piv_s] = np.arange(piv_s.size)
    s_row, s_col, s_val = _coo(red)
    keep = is_free[s_col]
    at, counts = _ranges(np.searchsorted(s_row[keep], np.arange(piv_s.size + 1)),
                         slot[z_col[~free]])
    out = _from_coo(
        field, nrows, ncols,
        np.concatenate([pos, z_row[free], np.repeat(z_row[~free], counts),
                        np.searchsorted(pivots, N[piv_s])[s_row]]),
        np.concatenate([L, N[z_col[free]], N[s_col[keep][at]], N[s_col]]),
        np.concatenate([_ones(field, L.size), z_val[free],
                        _minus_products(z_val[~free], counts, s_val[keep][at], p), s_val]))
    return out, pivots.tolist()


def _eliminate(m: ExactMatrix):
    """The reduced row echelon form of m and its pivot columns, by
    :func:`_sparse_rref` for a sparse matrix and :func:`_rref` for a dense one;
    the Schur complement of a sparse elimination takes it, as it is part of
    one elimination, not a call of :func:`rref_with_pivots`."""
    if m._indptr is not None:
        red, pivots = _sparse_rref(m)
    else:
        red, pivots = _rref(m._data, m.field.characteristic)
        red = ExactMatrix(m.field, red.astype(m._data.dtype, copy=False))
    return red, tuple(pivots)


def _rref(a: np.ndarray, p: int):
    """Reduced row echelon form of the array ``a`` and its pivot columns; p = 0 means Q.

    From 4096 entries on, only the Schur complement S of the known pivots
    (:func:`_known_pivots`) goes through the dense loop.  The pivot columns
    are L and those of RREF(S); the pivot row of c in L is e_c plus Z K_S on
    the free columns (K_S the kernel of S), and the others are the rows of
    RREF(S).  The output is written once, in the input dtype.
    """
    if a.size < _SPARSE_FROM:
        return _dense_rref(a, p)
    L, N, z, s = _known_pivots(a, p)
    red, piv_s = _dense_rref(s, p) if s.size else (s, [])
    rank_s = len(piv_s)
    is_free = np.ones(N.size, dtype=bool)
    is_free[piv_s] = False
    free = np.flatnonzero(is_free)
    pivots = np.sort(np.concatenate([L, N[piv_s]]))
    out = np.zeros(a.shape, dtype=a.dtype) if p else _zeros(QQ, *a.shape)
    pos = np.searchsorted(pivots, L)
    out[pos, L] = 1 if p else Fraction(1)
    if free.size:
        zk = z[:, free]
        if rank_s:
            zk = zk - (_product_mod(z[:, piv_s], red[:rank_s, free], p) if p
                       else z[:, piv_s] @ red[:rank_s, free])
            if p:
                zk %= p
        out[np.ix_(pos, N[free])] = zk
    if rank_s:
        out[np.ix_(np.searchsorted(pivots, N[piv_s]), N)] = red[:rank_s]
    return out, pivots.tolist()


def _dense_rref(a: np.ndarray, p: int):
    """The dense loop of :func:`_rref`.

    A pivot touches only the columns from its own rightward and only the rows
    with a nonzero entry in its column.
    """
    rational = p == 0
    m = a.copy() if rational else a.astype(np.int64)
    nrows, ncols = m.shape
    # every entry stays reduced: an update subtracts one product below
    # (p-1)^2 < 2^62 from an entry below p, so int64 holds it exactly
    pivots = []
    r = 0
    for c in range(ncols):
        col = m[:, c].copy()
        nz = col[r:].nonzero()[0]
        if not nz.size:
            continue
        # rows r and below vanish left of c, so only columns c: change
        i = r + int(nz[0])
        if i != r:
            m[[r, i], c:] = m[[i, r], c:]
            col[[r, i]] = col[[i, r]]
        if rational:
            row = m[r, c:] / col[r]
        else:
            row = m[r, c:] * pow(int(col[r]), p - 2, p) % p
        m[r, c:] = row
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            update = m[hit, c:]
            update -= col[hit, None] * row
            m[hit, c:] = update if rational else update % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rref_with_pivots(m: ExactMatrix):
    """Reduced row echelon form together with its pivot columns."""
    return _eliminate(m) if m.rows and m.cols else (m, ())


def rank(m: ExactMatrix) -> int:
    """The pivot count of the elimination kernel."""
    return len(_eliminate(m)[1]) if m.rows and m.cols else 0


def _kernel(m: ExactMatrix):
    """Kernel basis K of m and its free columns; K[free] is the identity.

    K holds -RREF(m) on the free columns at the pivot rows and the identity
    at the free rows, so its nonzero count, and with it its storage, is known
    before K is built.  A dense echelon form assembles K dense in place:
    building every kernel from the entries of the echelon form made
    lh-towers-fp, thousands of small kernels, about 18 % slower."""
    red, pivots = rref_with_pivots(m)
    field = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    if red._indptr is None:
        block = red._data[: len(pivots), free]
        if m.cols * len(free) < _SPARSE_FROM or not _is_sparse(
                m.cols, len(free), len(free) + np.count_nonzero(block)):
            out = _zeros(field, m.cols, len(free))
            out[free, range(len(free))] = field.one()
            if pivots:
                out[list(pivots)] = -block % field.characteristic if field.characteristic else -block
            return ExactMatrix(field, out), free
    is_free = np.ones(m.cols, dtype=bool)
    is_free[list(pivots)] = False
    r, c, v = _coo(red)
    keep = is_free[c]
    at = np.cumsum(is_free) - 1
    kernel = _from_coo(field, m.cols, len(free),
                       np.concatenate([np.array(pivots, dtype=np.int64)[r[keep]], free]),
                       np.concatenate([at[c[keep]], np.arange(len(free))]),
                       np.concatenate([-v[keep], _ones(field, len(free))]))
    return kernel, free


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns form a basis of the right kernel;  rank + kernel dim = cols."""
    return _kernel(m)[0]


def column_basis(m: ExactMatrix) -> ExactMatrix:
    """Deterministic basis of the column space: the pivot columns of m."""
    _, pivots = rref_with_pivots(m)
    return m.columns(pivots)


def span_contains(basis: ExactMatrix, vectors: ExactMatrix) -> bool:
    """True iff every column of ``vectors`` lies in the span of ``basis`` columns.

    The package itself tests containment through StrandSpace.project;
    ``bench/spans.py`` still traces this function by name.
    """
    if vectors.cols == 0:
        return True
    if vectors.rows != basis.rows:
        raise ValueError("ambient dimension mismatch")
    if basis.cols == 0:
        return vectors.is_zero()
    return rank(ExactMatrix.hstack([basis, vectors])) == rank(basis)


def solve_columns(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """One solution X of A X = B (free coordinates set to zero).

    Raises InternalInvariantError when some column of B is outside col(A);
    callers are expected to have checked containment already.
    """
    field = _same_field(a, b)
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    red, pivots = rref_with_pivots(ExactMatrix.hstack([a, b])) if a.cols else (None, ())
    if a.cols == 0:
        if not b.is_zero():
            raise InternalInvariantError("inconsistent system with empty matrix")
        return ExactMatrix.zeros(field, 0, b.cols)
    if any(p >= a.cols for p in pivots):
        raise InternalInvariantError("inconsistent linear system")
    out = _zeros(field, a.cols, b.cols)
    out[list(pivots)] = _as_array(red)[: len(pivots), a.cols :]
    return ExactMatrix(field, out)


def _transposed(m: ExactMatrix, flip_rows: bool = False, flip_cols: bool = False) -> ExactMatrix:
    """The transpose of m, its rows and columns first reversed where asked."""
    if m._indptr is None:
        data = m._data[::-1] if flip_rows else m._data
        data = data[:, ::-1] if flip_cols else data
        return ExactMatrix(m.field, np.ascontiguousarray(data.T))
    r, c, v = _coo(m)
    r = m.rows - 1 - r if flip_rows else r
    c = m.cols - 1 - c if flip_cols else c
    return _from_coo(m.field, m.cols, m.rows, c, r, v)


# -- strand spaces -----------------------------------------------------------

class StrandSpace:
    """A quotient k^n/W of a coordinate space with a chosen coset basis.

    ``sub_basis`` columns span W.  The coset basis is the cosets of the unit
    vectors e_c, c in ``coset_cols``: the leftmost coordinates whose unit
    vectors are independent modulo W.  A space keeps one matrix, the
    projection Q (dim x n) with Q W = 0 whose columns ``coset_cols`` form the
    identity, so :meth:`project` gives the coset coordinates of a vector, and
    a vector lies in W when they vanish.  Q is the reduced echelon basis of
    the annihilator of W, and one elimination gives it: the kernel of sub^T
    with its coordinates reversed.  Coordinate c is not a coset coordinate
    when some vector of W has its last nonzero entry at c, that is when
    n-1-c is a pivot of the reversed echelon form; so the coset coordinates
    are n-1-f for the free columns f, and kernel vector f has its first
    nonzero entry, a 1, at n-1-f.  With W = 0 the coset basis is every
    coordinate, Q is the identity, and the space keeps no matrix.

    :meth:`_from_below` reaches the same Q another way, for W = sum_j x_j W_j
    plus a few relations, from the spaces of the W_j: any rows spanning the
    annihilator have Q as their reduced echelon form, and its pivots are the
    coset coordinates, as the echelon form is unique.

    :meth:`direct_sum` builds the space of a block-diagonal ``sub`` from the
    spaces of its blocks, with no elimination.  Independence modulo a
    block-diagonal W is decided block by block, so the sum has the coset
    coordinates one elimination of the whole matrix gives, and its Q is
    block-diagonal: the sum keeps its summands and projects each block of
    coordinates with its own summand.

    Q is read by columns too: :func:`_mult_block` sums its columns at the
    rows the terms of a polynomial scatter to, the projected block from
    which every module map's coset map is built, with no strand matrix
    assembled (``modules._coset_map``); :func:`_coset_columns` then checks
    Q A and picks its columns.
    """

    __slots__ = ("field", "ambient_dim", "coset_cols", "_proj", "_parts")

    def __init__(self, sub_basis: ExactMatrix):
        field, n = sub_basis.field, sub_basis.rows
        if sub_basis.cols == 0:
            self._fill(field, n, range(n))
            return
        kernel, free = _kernel(_transposed(sub_basis, flip_rows=True))
        proj = _transposed(kernel, flip_rows=True, flip_cols=True)
        self._fill(field, n, (n - 1 - c for c in reversed(free)), proj)

    def _fill(self, field, n: int, coset_cols, proj=None, parts=()) -> "StrandSpace":
        """Set the slots and return the space.  Q is kept exactly when some
        coordinate is not a coset coordinate (a direct sum's summands keep theirs)."""
        self.field, self.ambient_dim, self.coset_cols = field, n, tuple(coset_cols)
        self._proj = proj if len(self.coset_cols) < n else None
        self._parts = parts
        return self

    @classmethod
    def _from_below(cls, below, sources, checks, relations: ExactMatrix) -> "StrandSpace":
        """k^n/W for W = sum_j x_j W_j + span(relations), by Macaulay's inverse system.

        ``below[j]`` is the space k^{n_j}/W_j one variable down, ``sources[j]``
        gives for each coordinate c of k^n the coordinate of c / x_j in k^{n_j}
        (-1 where x_j does not divide c), and the n x r matrix ``relations``
        spans the rest of W.  A functional phi on k^n kills W exactly when it
        kills the relations and each phi o x_j kills W_j, that is
        phi o x_j = c_j Q_j for the projection Q_j of ``below[j]``.  The
        unknowns are the c_j and phi at the coordinates no variable divides,
        and the gather G (n x U) reads phi off them through the first variable
        dividing each coordinate.  The constraints are that phi kills the
        relations and that for each ``(j, k, coords)`` in ``checks`` x_j and
        x_k give phi the same value at ``coords``; the caller picks coords at
        which agreement implies agreement wherever x_j and x_k both divide.
        G maps their kernel K one to one onto ann(W) (phi o x_j fixes c_j),
        so the rows of (G K)^T span it and their reduced echelon form is the
        Q one elimination of W gives.  It pays: with every strand eliminated
        directly, lc-dense-fp took 0.152 s a job instead of 0.075 s.
        """
        field = relations.field
        n = relations.rows
        divides = sources >= 0
        owner = divides.argmax(axis=0)
        units = np.flatnonzero(~divides.any(axis=0))
        starts = [0, *accumulate(sp.dim for sp in below)]
        width = starts[-1] + units.size

        def block(j, coords):
            # phi at ``coords`` through c_j: the columns of c_j in rows of G
            terms = [(sources[j, coords], field.one())]
            return _transposed(_mult_block(field, below[j].ambient_dim, coords.size, terms, below[j]))

        firsts = [np.flatnonzero(divides[j] & (owner == j)) for j in range(len(below))]
        # G with its rows grouped (units, then the coordinates each x_j reads
        # first), put back in order
        placed = [(ExactMatrix.identity(field, units.size), 0, starts[-1])]
        top = [0, *accumulate(map(len, firsts))]
        placed += [(block(j, first), units.size + t, starts[j])
                   for j, (first, t) in enumerate(zip(firsts, top))]
        order = np.argsort(np.concatenate([units, *firsts]))
        gather = _placed(field, n, width, placed).take_rows(order)
        # phi through x_j minus phi through x_k, at ``coords``
        constraints = [_placed(field, coords.size, width,
                               [(block(j, coords), 0, starts[j]), (-block(k, coords), 0, starts[k])])
                       for j, k, coords in checks]
        constraints.append(_transposed(relations) @ gather)
        kernel = _kernel(ExactMatrix.vstack(constraints))[0]
        phi = gather @ kernel
        red, pivots = rref_with_pivots(_transposed(phi))
        return cls.__new__(cls)._fill(field, n, pivots, red)

    @classmethod
    def direct_sum(cls, spaces) -> "StrandSpace":
        """(+)_p k^{n_p}/W_p, summands in order."""
        spaces = tuple(spaces)
        if len(spaces) == 1:
            return spaces[0]
        coset_cols, offset = [], 0
        for sp in spaces:
            coset_cols += [c + offset for c in sp.coset_cols]
            offset += sp.ambient_dim
        parts = tuple(part for sp in spaces for part in sp._parts or (sp,))
        parts = () if all(part.is_full for part in parts) else parts
        return cls.__new__(cls)._fill(spaces[0].field, offset, coset_cols, parts=parts)

    @classmethod
    def _zero(cls, field: FieldSpec, n: int) -> "StrandSpace":
        """k^n/k^n, as the elimination of any sub basis of rank n gives it."""
        return cls.__new__(cls)._fill(field, n, (), ExactMatrix.zeros(field, 0, n))

    @property
    def dim(self) -> int:
        return len(self.coset_cols)

    @property
    def is_full(self) -> bool:
        return self._proj is None and not self._parts

    def _summands(self):
        """(summand, start, stop) for each summand and its block of coordinates."""
        start = 0
        for part in self._parts or (self,):
            yield part, start, start + part.ambient_dim
            start += part.ambient_dim

    def project(self, vectors: ExactMatrix) -> ExactMatrix:
        """Q v: the coordinates of the cosets of the columns of ``vectors``."""
        if self._parts:
            return ExactMatrix.vstack(
                part.project(vectors.take_rows(range(start, stop)))
                for part, start, stop in self._summands()
            )
        return vectors if self._proj is None else self._proj @ vectors

    def __repr__(self):
        return (
            f"StrandSpace(dim={self.dim}, ambient={self.ambient_dim}, "
            f"sub_rank={self.ambient_dim - self.dim})"
        )


def _mult_block(field: FieldSpec, n: int, cols: int, terms, space: StrandSpace | None = None) -> ExactMatrix:
    """The sum of c Q[:, rows] over the pairs (rows, c) of ``terms``, Q the
    projection of ``space``, a quotient of k^n with no summands (one term at
    least), or I_n, scattered with no identity built, where ``space`` is None
    or full.  A term c x^a sends monomial k of R_s to c times row rows[k] of
    k^n (distinct rows in a column: lex order is multiplicative), so this is
    the projected block of multiplication by the polynomial."""
    if space is None or space.is_full:
        # each term puts one nonzero entry in each column
        if not terms:
            return ExactMatrix.zeros(field, n, cols)
        if _is_sparse(n, cols, len(terms) * cols):
            values = np.array([c for _, c in terms], dtype=object if field.is_rational else np.int64)
            return _from_coo(field, n, cols, np.concatenate([rows for rows, _ in terms]),
                             np.tile(np.arange(cols), len(terms)), np.repeat(values, cols))
        out = _zeros(field, n, cols)
        at = np.arange(cols)
        for rows, c in terms:
            out[rows, at] = c
        return ExactMatrix(field, out)
    proj, block = space._proj, None
    for rows, c in terms:
        term = proj.columns(rows)
        term = term if c == 1 else term.scale(c)
        block = term if block is None else block + term
    return block


def induced_map(src: StrandSpace, dst: StrandSpace, ambient: ExactMatrix) -> ExactMatrix:
    """Matrix of the map induced on coset bases by an ambient matrix.

    It projects, qa = dst.project(ambient), and hands qa to
    :func:`_coset_columns`, which checks it and picks the columns
    ``src.coset_cols``.  It serves maps that are no module map, such as
    homology maps; every module map's coset map, a resolution's augmentation
    too, is built projected (``modules._coset_map``) and takes the same check.
    """
    if src.field != dst.field or ambient.field != src.field:
        raise FieldMismatchError("induced_map operands over different fields")
    if ambient.cols != src.ambient_dim or ambient.rows != dst.ambient_dim:
        raise ValueError("ambient matrix shape mismatch")
    return _coset_columns(src, dst.project(ambient))


def _coset_columns(src: StrandSpace, qa: ExactMatrix) -> ExactMatrix:
    """The columns ``src.coset_cols`` of qa = Q_dst A, once A is checked well defined.

    A must send src's W into dst's W; failure raises WellDefinednessError
    (the signature of a non-homogeneous or wrong-degree map upstream).  As
    W = ker Q for src's projection Q, qa vanishes on W exactly when
    qa = qa[:, coset_cols] Q, which is checked one summand of src at a time.
    """
    if src.is_full:
        return qa
    for part, start, stop in src._summands():
        if part._proj is not None:
            block = qa if stop - start == qa.cols else qa.columns(range(start, stop))
            if block.columns(part.coset_cols) @ part._proj != block:
                raise WellDefinednessError("image of sub space leaves the target sub space")
    return qa.columns(src.coset_cols)
