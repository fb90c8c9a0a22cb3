"""Exact dense linear algebra over F_p (p prime) and Q.

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
summand.  Matrices over F_p are stored as numpy integer arrays with entries
reduced into ``[0, p)``; matrices over Q hold :class:`fractions.Fraction`
entries (always in lowest terms with positive denominator).  Values are
immutable after construction, so they are safe to share across threads: the
engine's value types derive from :class:`_Frozen`, which refuses every
attribute write, and a matrix's array is read-only.

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
Z by RREF(S) is a mod-p product with the bounds above.
"""

from __future__ import annotations

from fractions import Fraction

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
    if field.is_rational:
        out = np.empty((rows, cols), dtype=object)
        out[...] = Fraction(0)
        return out
    return np.zeros((rows, cols), dtype=_dtype_for(field.characteristic))


def _same_field(a: "ExactMatrix", b: "ExactMatrix") -> FieldSpec:
    if a.field != b.field:
        raise FieldMismatchError(f"mixed fields {a.field} and {b.field}")
    return a.field


def _product_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for reduced operands."""
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
    """Dense row-major matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: FieldSpec, data: np.ndarray):
        self.field = field
        self.rows, self.cols = data.shape
        data.flags.writeable = False
        self._data = data

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
        return cls(field, _zeros(field, rows, cols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "ExactMatrix":
        """I_n, the block of multiplication by 1 on a full strand."""
        return _mult_block(field, n, n, [(np.arange(n), field.one())])

    # -- inspection --------------------------------------------------------
    @property
    def entries(self):
        """Row-major tuple-of-tuples of canonical scalars."""
        return tuple(map(tuple, self._data.tolist()))

    def entry(self, i: int, j: int):
        return self._data.item(i, j)

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
        return bool((self._data == other._data).all())

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
        return _reduced(field, op(self._data, other._data))

    def __neg__(self) -> "ExactMatrix":
        return _reduced(self.field, -self._data)

    def scale(self, c) -> "ExactMatrix":
        return _reduced(self.field, self._data * self.field.normalize(c))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        field = _same_field(self, other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if not (self.rows and self.cols and other.cols):
            return ExactMatrix.zeros(field, self.rows, other.cols)
        if field.is_rational:
            # sum of outer products over the inner index, nonzero entries only
            data = _zeros(field, self.rows, other.cols)
            for k in range(self.cols):
                rows = np.flatnonzero(self._data[:, k] != 0)
                cols = np.flatnonzero(other._data[k] != 0)
                if rows.size and cols.size:
                    data[np.ix_(rows, cols)] += np.multiply.outer(
                        self._data[rows, k], other._data[k, cols]
                    )
            return ExactMatrix(field, data)
        p = field.characteristic
        return ExactMatrix(field, _product_mod(self._data, other._data, p).astype(_dtype_for(p)))

    # -- slicing / stacking --------------------------------------------------
    def columns(self, indices) -> "ExactMatrix":
        idx = list(indices)
        data = self._data[:, idx].copy() if idx else _zeros(self.field, self.rows, 0)
        return ExactMatrix(self.field, data)

    def take_rows(self, indices) -> "ExactMatrix":
        idx = list(indices)
        data = self._data[idx].copy() if idx else _zeros(self.field, 0, self.cols)
        return ExactMatrix(self.field, data)

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
        out = _zeros(field, sum(row_dims), sum(col_dims))
        for (i, j), blk in blocks.items():
            if blk.rows != row_dims[i] or blk.cols != col_dims[j] or blk.field != field:
                raise ValueError("block shape or field mismatch")
            r0, c0 = sum(row_dims[:i]), sum(col_dims[:j])
            out[r0 : r0 + blk.rows, c0 : c0 + blk.cols] = blk._data
        return ExactMatrix(field, out)


def _reduced(field: FieldSpec, data: np.ndarray) -> ExactMatrix:
    """``data`` as a matrix over ``field``, its entries reduced into [0, p) over F_p."""
    if not field.is_rational:
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
    if len({m._data.shape[1 - axis] for m in mats}) > 1:
        raise ValueError(f"{('column', 'row')[axis]} mismatch in {name}")
    return ExactMatrix(mats[0].field, np.concatenate([m._data for m in mats], axis=axis))


# -- elimination kernel ------------------------------------------------------

def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p entrywise, by squaring; every product is below 2^62."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x, e = x * x % p, e >> 1
    return out


def _ranges(ptr, rows):
    """The positions ptr[r] .. ptr[r+1]-1 of each r in ``rows``, in order,
    and where the positions of each r start among them."""
    lens = ptr[rows + 1] - ptr[rows]
    starts = np.cumsum(lens) - lens
    return np.arange(lens.sum()) + np.repeat(ptr[rows] - starts, lens), starts


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


def _known_pivots(a: np.ndarray, p: int):
    """The known pivot columns L of ``a``, the other columns N, Z and S.

    One row per distinct leading (first nonzero) column forms the pivot
    block A; Z = A_L^-1 A_N, and S = C_N - C_L Z for the other rows C.
    """
    nrows, ncols = a.shape
    rows, cols = a.nonzero()
    vals = a[rows, cols].astype(np.int64) if p else a[rows, cols]
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
    # scale each pivot row to a leading 1
    in_block = k >= 0
    lead = in_block & on_l & (c == k)
    scale = np.empty(L.size, dtype=vals.dtype)
    scale[k[lead]] = _inverse_mod(vals[lead], p) if p else 1 / vals[lead]
    vals[in_block] *= scale[k[in_block]]
    if p:
        vals %= p
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
            e, starts = _ranges(i_ptr, ready)
            _subtract_products(z, ready, starts, j[e], v[e], z, p)
    c_row = np.cumsum(in_a < 0) - 1
    right, left = ~in_block & ~on_l, ~in_block & on_l
    s[c_row[rows[right]], c[right]] = vals[right]
    if left.any():
        i = c_row[rows[left]]
        starts = np.flatnonzero(np.diff(i, prepend=-1))
        _subtract_products(s, i[starts], starts, c[left], vals[left], z, p)
    return L, N, z, s


def _rref(a: np.ndarray, p: int):
    """Reduced row echelon form of ``a`` and its pivot columns; p = 0 means Q.

    From 4096 entries on, only the Schur complement S of the known pivots
    (:func:`_known_pivots`) goes through the dense loop.  The pivot columns
    are L and those of RREF(S); the pivot row of c in L is e_c plus Z K_S on
    the free columns (K_S the kernel of S), and the others are the rows of
    RREF(S).  The output is written once, in the input dtype.
    """
    if a.size < 4096:
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
    if m.rows == 0 or m.cols == 0:
        return m, ()
    data, pivots = _rref(m._data, m.field.characteristic)
    return ExactMatrix(m.field, data.astype(m._data.dtype, copy=False)), tuple(pivots)


def rank(m: ExactMatrix) -> int:
    """The pivot count of the elimination kernel."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_rref(m._data, m.field.characteristic)[1])


def _kernel(m: ExactMatrix):
    """Kernel basis K of m and its free columns; K[free] is the identity."""
    red, pivots = rref_with_pivots(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    out = _zeros(m.field, m.cols, len(free))
    out[free, range(len(free))] = m.field.one()
    if pivots:
        out[list(pivots)] = (-ExactMatrix(m.field, red._data[: len(pivots), free]))._data
    return ExactMatrix(m.field, out), free


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
    out[list(pivots)] = red._data[: len(pivots), a.cols :]
    return ExactMatrix(field, out)


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
        kernel, free = _kernel(ExactMatrix(field, np.ascontiguousarray(sub_basis._data[::-1].T)))
        proj = ExactMatrix(field, np.ascontiguousarray(kernel._data[::-1, ::-1].T))
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
        Q one elimination of W gives.
        """
        field = relations.field
        n = relations.rows
        divides = sources >= 0
        owner = divides.argmax(axis=0)
        units = np.flatnonzero(~divides.any(axis=0))
        starts = np.cumsum([0] + [sp.dim for sp in below])
        width = int(starts[-1]) + units.size

        def read(j, coords):
            # rows of G: phi at ``coords`` through c_j
            out = _zeros(field, coords.size, width)
            terms = [(sources[j, coords], field.one())]
            q = _mult_block(field, below[j].ambient_dim, coords.size, terms, below[j])
            out[:, starts[j] : starts[j + 1]] = q._data.T
            return out

        gather = _zeros(field, n, width)
        gather[units, starts[-1] + np.arange(units.size)] = field.one()
        for j in range(len(below)):
            first = np.flatnonzero(divides[j] & (owner == j))
            gather[first] = read(j, first)
        gather = ExactMatrix(field, gather)
        constraints = [
            ExactMatrix(field, read(j, coords)) - ExactMatrix(field, read(k, coords))
            for j, k, coords in checks
        ]
        constraints.append(ExactMatrix(field, np.ascontiguousarray(relations._data.T)) @ gather)
        kernel = _kernel(ExactMatrix.vstack(constraints))[0]
        phi = gather @ kernel
        red, pivots = rref_with_pivots(ExactMatrix(field, np.ascontiguousarray(phi._data.T)))
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
            return ExactMatrix(self.field, np.vstack([
                part.project(ExactMatrix(self.field, vectors._data[start:stop]))._data
                for part, start, stop in self._summands()
            ]))
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
        out = _zeros(field, n, cols)
        at = np.arange(cols)
        for rows, c in terms:
            out[rows, at] = c
        return ExactMatrix(field, out)
    block = None
    for rows, c in terms:
        term = ExactMatrix(field, space._proj._data[:, rows])
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
            block = ExactMatrix(qa.field, qa._data[:, start:stop])
            if block.columns(part.coset_cols) @ part._proj != block:
                raise WellDefinednessError("image of sub space leaves the target sub space")
    return qa.columns(src.coset_cols)
