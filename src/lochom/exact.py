"""Exact dense linear algebra over F_p (p prime) and Q.

Every strandwise computation in the engine bottoms out here: reduced row
echelon forms, kernels, and induced maps on subquotients W <= U <= k^n
(:class:`StrandSpace`).  A strand space runs one elimination when it is built
and keeps the inverse of the basis it picks, so coordinates, containment
checks and induced maps are matrix products with no further elimination.
Matrices over F_p are stored as numpy integer arrays
with entries reduced into ``[0, p)``; matrices over Q hold
:class:`fractions.Fraction` entries (always in lowest terms with positive
denominator).  All values are immutable after construction, so they are safe
to share across threads.
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
# Mod-p elimination multiplies reduced entries in int64, which is exact only
# while (p - 1)^2 < 2^63; the bound keeps every product below 2^62.
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
        if field.characteristic == 0:
            data = np.empty((rows, cols), dtype=object)
            data[...] = Fraction(0)
        else:
            data = np.zeros((rows, cols), dtype=_dtype_for(field.characteristic))
        return cls(field, data)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        m = cls.zeros(field, n, n)
        data = m._mutable_copy()
        one = field.one()
        for i in range(n):
            data[i, i] = one
        return cls(field, data)

    def _mutable_copy(self) -> np.ndarray:
        out = self._data.copy()
        out.flags.writeable = True
        return out

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
        if field.is_rational:
            # sum of outer products over the inner index, nonzero entries only
            data = self._empty_like(self.rows, other.cols)
            for k in range(self.cols):
                rows = np.flatnonzero(self._data[:, k] != 0)
                cols = np.flatnonzero(other._data[k] != 0)
                if rows.size and cols.size:
                    data[np.ix_(rows, cols)] += np.multiply.outer(
                        self._data[rows, k], other._data[k, cols]
                    )
            return ExactMatrix(field, data)
        p = field.characteristic
        a = self._data.astype(np.int64)
        b = other._data.astype(np.int64)
        # guard against int64 overflow in the dot accumulation
        if self.cols and (p - 1) ** 2 > (2**62) // max(self.cols, 1):
            out = np.zeros((self.rows, other.cols), dtype=np.int64)
            step = max(1, (2**62) // max((p - 1) ** 2, 1))
            for start in range(0, self.cols, step):
                out = (out + a[:, start : start + step].dot(b[start : start + step])) % p
            data = out
        else:
            data = a.dot(b) % p if self.cols else np.zeros((self.rows, other.cols), dtype=np.int64)
        return ExactMatrix(field, data.astype(_dtype_for(p)))

    # -- slicing / stacking --------------------------------------------------
    def columns(self, indices) -> "ExactMatrix":
        idx = list(indices)
        data = self._data[:, idx].copy() if idx else self._empty_like(self.rows, 0)
        return ExactMatrix(self.field, data)

    def _empty_like(self, r: int, c: int) -> np.ndarray:
        if self.field.is_rational:
            out = np.empty((r, c), dtype=object)
            out[...] = Fraction(0)
            return out
        return np.zeros((r, c), dtype=self._data.dtype)

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
        data = np.hstack([m._data for m in mats]) if mats else None
        return ExactMatrix(field, data.copy())

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
        data = np.vstack([m._data for m in mats])
        return ExactMatrix(field, data.copy())

    @staticmethod
    def assemble(field: FieldSpec, grid, row_dims, col_dims) -> "ExactMatrix":
        """Block matrix from grid[i][j] in (ExactMatrix | None); None blocks are zero."""
        nr = sum(row_dims)
        nc = sum(col_dims)
        out = ExactMatrix.zeros(field, nr, nc)._mutable_copy()
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


# -- elimination kernels ----------------------------------------------------

def _rref_fp(a: np.ndarray, p: int):
    m = a.astype(np.int64, copy=True)
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _rank_fp(a: np.ndarray, p: int) -> int:
    """Forward elimination only; cheaper than full reduction."""
    m = a.astype(np.int64, copy=True)
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        below = m[r + 1 :, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            inv = pow(int(m[r, c]), p - 2, p)
            factors = (below[hit] * inv) % p
            m[r + 1 + hit] = (m[r + 1 + hit] - np.outer(factors, m[r])) % p
        r += 1
    return r


def _rref_qq(a: np.ndarray):
    m = a.copy()
    m.flags.writeable = True
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        i = None
        for k in range(r, nrows):
            if m[k, c] != 0:
                i = k
                break
        if i is None:
            continue
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = m[r] / m[r, c]
        for k in range(nrows):
            if k != r and m[k, c] != 0:
                m[k] = m[k] - m[k, c] * m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def rref_with_pivots(m: ExactMatrix):
    """Reduced row echelon form together with its pivot columns."""
    if m.rows == 0 or m.cols == 0:
        return m, ()
    if m.field.is_rational:
        data, pivots = _rref_qq(m._data)
    else:
        data, pivots = _rref_fp(m._data, m.field.characteristic)
        data = data.astype(m._data.dtype)
    return ExactMatrix(m.field, data), tuple(pivots)


def rank(m: ExactMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.field.is_rational:
        return len(_rref_qq(m._data)[1])
    return _rank_fp(m._data, m.field.characteristic)


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns form a basis of the right kernel;  rank + kernel dim = cols."""
    red, pivots = rref_with_pivots(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    out = ExactMatrix.zeros(m.field, m.cols, len(free))._mutable_copy()
    out[free, range(len(free))] = m.field.one()
    if pivots:
        out[list(pivots)] = (-ExactMatrix(m.field, red._data[: len(pivots), free]))._data
    return ExactMatrix(m.field, out)


def column_basis(m: ExactMatrix) -> ExactMatrix:
    """Deterministic basis of the column space: the pivot columns of m."""
    _, pivots = rref_with_pivots(m)
    return m.columns(pivots)


def span_contains(basis: ExactMatrix, vectors: ExactMatrix) -> bool:
    """True iff every column of ``vectors`` lies in the span of ``basis`` columns.

    The package itself tests containment through StrandSpace.coordinates;
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
    out = ExactMatrix.zeros(field, a.cols, b.cols)._mutable_copy()
    out[list(pivots)] = red._data[: len(pivots), a.cols :]
    return ExactMatrix(field, out)


# -- strand spaces -----------------------------------------------------------

class StrandSpace:
    """A subquotient U/W of a coordinate space k^n with a chosen coset basis.

    ``sub_basis`` columns span W and the super basis columns span U; with no
    super basis U is all of k^n.  One reduced echelon form of
    ``[sub | super | I_n]`` (``[sub | I_n]`` when U = k^n) fixes everything:
    its pivots in the sub block pick a basis of W (the leftmost independent
    sub columns), its pivots in the super block pick ``coset_reps`` (the
    greedy super columns independent modulo W, a basis of U/W), its pivots in
    the identity block complete these to a basis B of k^n, and its last n
    columns are B^-1.  :meth:`coordinates` reads every query off B^-1: a
    vector lies in U when its coordinates past the W and coset blocks vanish,
    and in W when those past the W block do.
    """

    __slots__ = ("field", "ambient_dim", "sub_basis", "coset_reps", "_sub_cb", "_inverse")

    def __init__(self, sub_basis: ExactMatrix, super_basis: ExactMatrix | None = None):
        field = self.field = sub_basis.field
        n = self.ambient_dim = sub_basis.rows
        self.sub_basis = sub_basis
        if super_basis is not None and (super_basis.rows != n or super_basis.field != field):
            raise ValueError("super basis shape or field mismatch")
        identity = ExactMatrix.identity(field, n)
        if super_basis is None and sub_basis.cols == 0:
            # U = k^n, W = 0: B is the identity and coordinates are the vectors
            self._sub_cb, self.coset_reps, self._inverse = sub_basis, identity, None
            return
        # with U = k^n the identity block is the super block as well
        sup = identity if super_basis is None else super_basis
        blocks = [sub_basis, sup] + ([] if super_basis is None else [identity])
        red, pivots = rref_with_pivots(ExactMatrix.hstack(blocks))
        s, u = sub_basis.cols, sup.cols
        sub_pivots = [c for c in pivots if c < s]
        super_pivots = [c - s for c in pivots if s <= c < s + u]
        if (
            super_basis is not None
            and sub_pivots
            and rank(super_basis) != len(sub_pivots) + len(super_pivots)
        ):
            raise WellDefinednessError("sub space is not contained in super space")
        self._sub_cb = sub_basis.columns(sub_pivots)
        self.coset_reps = sup.columns(super_pivots)
        self._inverse = red.columns(range(red.cols - n, red.cols))

    @property
    def dim(self) -> int:
        return self.coset_reps.cols

    @property
    def is_full(self) -> bool:
        return self._inverse is None

    def sub_column_basis(self) -> ExactMatrix:
        return self._sub_cb

    def coordinates(self, vectors: ExactMatrix) -> ExactMatrix:
        """Coordinates B^-1 v: W block, then coset block, then the rest of k^n."""
        return vectors if self._inverse is None else self._inverse @ vectors

    def __repr__(self):
        return (
            f"StrandSpace(dim={self.dim}, ambient={self.ambient_dim}, "
            f"sub_rank={self._sub_cb.cols})"
        )


def induced_map(src: StrandSpace, dst: StrandSpace, ambient: ExactMatrix) -> ExactMatrix:
    """Matrix of the map induced on coset bases by an ambient matrix.

    Checks that the ambient matrix sends src's super space into dst's super
    space and src's sub space into dst's sub space; failure of either raises
    WellDefinednessError (the signature of a non-homogeneous or wrong-degree
    map upstream).  Both checks and the matrix are read off the target
    coordinates of the images of src's W basis and coset representatives.
    """
    if src.field != dst.field or ambient.field != src.field:
        raise FieldMismatchError("induced_map operands over different fields")
    if ambient.cols != src.ambient_dim or ambient.rows != dst.ambient_dim:
        raise ValueError("ambient matrix shape mismatch")
    if src.is_full and dst.is_full:
        return ambient
    w_src = src._sub_cb.cols
    images = ambient if src.is_full else ambient @ ExactMatrix.hstack([src._sub_cb, src.coset_reps])
    y = dst.coordinates(images)._data
    w_dst = dst._sub_cb.cols
    top = w_dst + dst.dim
    if not ExactMatrix(dst.field, y[top:]).is_zero():
        raise WellDefinednessError("image leaves the target super space")
    if not ExactMatrix(dst.field, y[w_dst:, :w_src]).is_zero():
        raise WellDefinednessError("image of sub space leaves the target sub space")
    return ExactMatrix(dst.field, y[w_dst:top, w_src:].copy())
