"""Exact dense linear algebra over F_p (p prime) and Q.

Every strandwise computation in the engine bottoms out here: reduced row
echelon forms, kernels, and induced maps on quotients k^n/W
(:class:`StrandSpace`).  One elimination kernel serves both fields: every
echelon form, kernel and rank comes from it, and a rank is its pivot count.
A strand space runs one elimination when it is built, of the transposed
sub basis, and keeps only the projection onto its coset basis (dim x n), so
coset coordinates, well-definedness checks and induced maps are matrix
products with no further elimination.  Its coset basis is a set of
coordinates, so no space stores a coset matrix.  A direct sum of strand
spaces runs none: it keeps its summands and projects each block of
coordinates with its own summand.
Matrices over F_p are stored as numpy integer arrays
with entries reduced into ``[0, p)``; matrices over Q hold
:class:`fractions.Fraction` entries (always in lowest terms with positive
denominator).  All values are immutable after construction, so they are safe
to share across threads.

Mod-p kernels delay reduction while no sum of products can leave the range
in which its type is exact (Dumas, Giorgi and Pernet, *FFLAS-FFPACK*, ACM
TOMS 2008).  A product with inner dimension k runs as one float64 BLAS
product and one reduction when ``k (p-1)^2 < 2^53``; past that bound it sums
int64 products over chunks of the inner index, reducing after each chunk.
Elimination mod p leaves its rank-1 updates unreduced in int64 when
``min(rows, cols) (p-1)^2 < 2^63``, as an entry takes at most one update of
at most ``(p-1)^2`` per pivot; past that bound, and on matrices of fewer than
4096 entries, it reduces after every update.  Over Q it divides the pivot
row by the pivot and has nothing to reduce.
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


class FieldSpec:
    """Coefficient field: characteristic 0 means Q, otherwise a prime p < 2^31."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int):
        characteristic = int(characteristic)
        if characteristic >= MAX_PRIME:
            raise ValueError(f"characteristic must be below 2^31, got {characteristic}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.characteristic == other.characteristic

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

    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

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

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        data = _zeros(field, n, n)
        data[range(n), range(n)] = field.one()
        return cls(field, data)

    # -- inspection --------------------------------------------------------
    @property
    def entries(self):
        """Row-major tuple-of-tuples of canonical scalars."""
        return tuple(tuple(row) for row in self._data.tolist()) if self.field.is_rational \
            else tuple(tuple(int(v) for v in row) for row in self._data.tolist())

    def entry(self, i: int, j: int):
        v = self._data[i, j]
        return v if self.field.is_rational else int(v)

    def is_zero(self) -> bool:
        if self.rows == 0 or self.cols == 0:
            return True
        if self.field.is_rational:
            return all(v == 0 for v in self._data.flat)
        return not self._data.any()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            return False
        if self.rows == 0 or self.cols == 0:
            return True
        if self.field.is_rational:
            return bool(np.equal(self._data, other._data).all())
        return bool((self._data == other._data).all())

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        field = _same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        data = self._data + other._data
        if not field.is_rational:
            data = data % field.characteristic
        return ExactMatrix(field, data)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        field = _same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        data = self._data - other._data
        if not field.is_rational:
            data = data % field.characteristic
        return ExactMatrix(field, data)

    def __neg__(self) -> "ExactMatrix":
        data = -self._data
        if not self.field.is_rational:
            data = data % self.field.characteristic
        return ExactMatrix(self.field, data)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.normalize(c)
        data = self._data * c
        if not self.field.is_rational:
            data = data % self.field.characteristic
        return ExactMatrix(self.field, data)

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
        if self.cols * (p - 1) ** 2 < 2**53:
            # every partial sum is an integer below 2^53, so BLAS sums exactly
            data = (self._data.astype(np.float64) @ other._data.astype(np.float64)).astype(np.int64)
        else:
            # a chunk of `step` int64 products sums below 2^62
            a = self._data.astype(np.int64)
            b = other._data.astype(np.int64)
            data = np.zeros((self.rows, other.cols), dtype=np.int64)
            step = (2**62) // (p - 1) ** 2
            for start in range(0, self.cols, step):
                data = data % p + a[:, start : start + step].dot(b[start : start + step])
        data %= p
        return ExactMatrix(field, data.astype(_dtype_for(p)))

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
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of nothing")
        field = mats[0].field
        for m in mats[1:]:
            _same_field(mats[0], m)
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("row mismatch in hstack")
        return ExactMatrix(field, np.hstack([m._data for m in mats]))

    @staticmethod
    def vstack(mats) -> "ExactMatrix":
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        field = mats[0].field
        for m in mats[1:]:
            _same_field(mats[0], m)
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column mismatch in vstack")
        return ExactMatrix(field, np.vstack([m._data for m in mats]))

    @staticmethod
    def assemble(field: FieldSpec, grid, row_dims, col_dims) -> "ExactMatrix":
        """Block matrix from grid[i][j] in (ExactMatrix | None); None blocks are zero."""
        nr = sum(row_dims)
        nc = sum(col_dims)
        out = _zeros(field, nr, nc)
        r0 = 0
        for bi, rd in enumerate(row_dims):
            c0 = 0
            for bj, cd in enumerate(col_dims):
                blk = grid[bi][bj]
                if blk is not None:
                    if blk.rows != rd or blk.cols != cd or blk.field != field:
                        raise ValueError("block shape or field mismatch")
                    out[r0 : r0 + rd, c0 : c0 + cd] = blk._data
                c0 += cd
            r0 += rd
        return ExactMatrix(field, out)


# -- elimination kernel ------------------------------------------------------

def _rref(a: np.ndarray, p: int):
    """Reduced row echelon form of ``a`` and its pivot columns; p = 0 means Q.

    A pivot touches only the columns from its own rightward and only the rows
    with a nonzero entry in its column.
    """
    rational = p == 0
    m = a.copy() if rational else a.astype(np.int64)
    nrows, ncols = m.shape
    # An update subtracts at most (p-1)^2 from an entry, once per pivot.  While
    # min(nrows, ncols) of them cannot overflow int64 the updates stay
    # unreduced until the end; below 4096 entries the extra reductions of the
    # pivot column and row cost more than that saves.
    delayed = not rational and nrows * ncols >= 4096 and min(nrows, ncols) * (p - 1) ** 2 < 2**63
    pivots = []
    r = 0
    for c in range(ncols):
        col = m[:, c] % p if delayed else m[:, c].copy()
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
            row = m[r, c:] % p if delayed else m[r, c:]
            row = row * pow(int(col[r]), p - 2, p) % p
        m[r, c:] = row
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            update = m[hit, c:]
            update -= col[hit, None] * row
            m[hit, c:] = update if delayed or rational else update % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if delayed:
        m %= p
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

    :meth:`direct_sum` builds the space of a block-diagonal ``sub`` from the
    spaces of its blocks, with no elimination.  Independence modulo a
    block-diagonal W is decided block by block, so the sum has the coset
    coordinates one elimination of the whole matrix gives, and its Q is
    block-diagonal: the sum keeps its summands and projects each block of
    coordinates with its own summand.
    """

    __slots__ = ("field", "ambient_dim", "coset_cols", "_proj", "_parts")

    def __init__(self, sub_basis: ExactMatrix):
        field = self.field = sub_basis.field
        n = self.ambient_dim = sub_basis.rows
        self.coset_cols, self._proj, self._parts = tuple(range(n)), None, ()
        if sub_basis.cols == 0:
            return
        kernel, free = _kernel(ExactMatrix(field, np.ascontiguousarray(sub_basis._data[::-1].T)))
        if len(free) < n:
            self.coset_cols = tuple(n - 1 - c for c in reversed(free))
            self._proj = ExactMatrix(field, np.ascontiguousarray(kernel._data[::-1, ::-1].T))

    @classmethod
    def direct_sum(cls, spaces) -> "StrandSpace":
        """(+)_p k^{n_p}/W_p, summands in order."""
        spaces = tuple(spaces)
        if len(spaces) == 1:
            return spaces[0]
        space = cls.__new__(cls)
        space.field = spaces[0].field
        coset_cols, offset = [], 0
        for sp in spaces:
            coset_cols += [c + offset for c in sp.coset_cols]
            offset += sp.ambient_dim
        space.ambient_dim = offset
        space.coset_cols = tuple(coset_cols)
        space._proj = None
        parts = tuple(part for sp in spaces for part in sp._parts or (sp,))
        space._parts = () if all(part.is_full for part in parts) else parts
        return space

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


def induced_map(src: StrandSpace, dst: StrandSpace, ambient: ExactMatrix) -> ExactMatrix:
    """Matrix of the map induced on coset bases by an ambient matrix.

    With qa = dst.project(ambient), the matrix is the columns
    ``src.coset_cols`` of qa.  The ambient matrix must send src's W into
    dst's W; failure raises WellDefinednessError (the signature of a
    non-homogeneous or wrong-degree map upstream).  As W = ker Q for src's
    projection Q, qa vanishes on W exactly when qa = qa[:, coset_cols] Q,
    which is checked one summand of src at a time.
    """
    if src.field != dst.field or ambient.field != src.field:
        raise FieldMismatchError("induced_map operands over different fields")
    if ambient.cols != src.ambient_dim or ambient.rows != dst.ambient_dim:
        raise ValueError("ambient matrix shape mismatch")
    qa = dst.project(ambient)
    if src.is_full:
        return qa
    for part, start, stop in src._summands():
        if part._proj is not None:
            block = ExactMatrix(qa.field, qa._data[:, start:stop])
            if block.columns(part.coset_cols) @ part._proj != block:
                raise WellDefinednessError("image of sub space leaves the target sub space")
    return qa.columns(src.coset_cols)
