"""Exact linear algebra kernel: echelon forms, kernels, strand spaces."""

import collections
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import exact
from lochom.errors import FieldMismatchError, WellDefinednessError
from lochom.exact import (
    QQ,
    ExactMatrix,
    FieldSpec,
    StrandSpace,
    column_basis,
    induced_map,
    kernel_basis,
    rank,
    rref_with_pivots,
    solve_columns,
)

FP = FieldSpec(32003)


def M(field, rows):
    return ExactMatrix.from_rows(field, rows)


def test_fieldspec_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        FieldSpec(6)
    FieldSpec(2)
    FieldSpec(0)


def test_fieldspec_bounds_the_characteristic():
    # 4294967311 is prime, but int64 products of its residues overflow
    with pytest.raises(ValueError):
        FieldSpec(4294967311)
    with pytest.raises(ValueError):
        FieldSpec(2**31)
    FieldSpec(2**31 - 1)


def _reference_rank(rows, p):
    """Gaussian elimination on Python ints, exact for any p."""
    m = [[v % p for v in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_at_the_largest_prime_matches_reference():
    p = 2**31 - 1
    field = FieldSpec(p)
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randint(1, 5)
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(7)]
        right = [[rng.randrange(p) for _ in range(6)] for _ in range(k)]
        rows = [
            [sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left
        ]
        assert rank(M(field, rows)) == _reference_rank(rows, p)
        assert len(rref_with_pivots(M(field, rows))[1]) == _reference_rank(rows, p)


def test_rref_identity():
    m = ExactMatrix.identity(QQ, 2)
    red, piv = rref_with_pivots(m)
    assert red == m
    assert piv == (0, 1)


def test_rref_zero_matrix():
    m = ExactMatrix.zeros(FP, 3, 2)
    red, piv = rref_with_pivots(m)
    assert red == m
    assert piv == ()


def test_rref_rank_one_hand_reduction():
    m = M(QQ, [[1, 2], [2, 4]])
    red, piv = rref_with_pivots(m)
    assert red.entries == ((1, 2), (0, 0))
    assert piv == (0,)


def test_rref_idempotent():
    rng = random.Random(7)
    for field in (QQ, FP):
        for _ in range(10):
            m = M(field, [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)])
            red, _ = rref_with_pivots(m)
            red2, _ = rref_with_pivots(red)
            assert red == red2


def test_kernel_identity_and_zero():
    assert kernel_basis(ExactMatrix.identity(FP, 4)).cols == 0
    k = kernel_basis(ExactMatrix.zeros(QQ, 3, 3))
    assert k == ExactMatrix.identity(QQ, 3)


def test_kernel_rank_one():
    k = kernel_basis(M(QQ, [[1, 2], [2, 4]]))
    assert k.cols == 1
    # proportional to (2, -1)
    a, b = k.entry(0, 0), k.entry(1, 0)
    assert a * (-1) == b * 2


def test_rank_nullity_random():
    rng = random.Random(11)
    for field in (QQ, FP):
        for _ in range(15):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            m = ExactMatrix.from_rows(
                field,
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            ker = kernel_basis(m)
            assert rank(m) + ker.cols == cols
            if ker.cols and rows:
                assert (m @ ker).is_zero()


def test_matmul_mod_p_matches_fractions():
    rng = random.Random(3)
    p = 32003
    for _ in range(5):
        a_rows = [[rng.randint(0, 50) for _ in range(3)] for _ in range(2)]
        b_rows = [[rng.randint(0, 50) for _ in range(4)] for _ in range(3)]
        over_q = (M(QQ, a_rows) @ M(QQ, b_rows)).entries
        over_p = (M(FP, a_rows) @ M(FP, b_rows)).entries
        assert tuple(tuple(int(v) % p for v in row) for row in over_q) == over_p


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        M(QQ, [[1]]) @ M(FP, [[1]])


def test_solve_columns_roundtrip():
    a = M(FP, [[1, 1], [0, 1], [2, 0]])
    x = M(FP, [[3, 1], [4, 0]])
    b = a @ x
    sol = solve_columns(a, b)
    assert a @ sol == b


def test_column_basis_picks_leftmost_pivots():
    m = M(QQ, [[1, 2, 0], [2, 4, 1]])
    cb = column_basis(m)
    assert cb.entries == ((1, 0), (2, 1))


def test_strand_space_full_and_quotient():
    full = StrandSpace(ExactMatrix.zeros(FP, 3, 0))
    assert full.dim == 3
    assert full.coset_cols == (0, 1, 2) and full.is_full
    quot = StrandSpace(M(FP, [[1], [2], [0]]))
    assert quot.dim == 2
    assert quot.ambient_dim == 3
    # e_0 and e_2 complete W = <(1, 2, 0)> to k^3; e_1 is then dependent
    assert quot.coset_cols == (0, 2)


def test_induced_map_identity_and_zero_target():
    sp = StrandSpace(M(FP, [[1], [0]]))
    ident = induced_map(sp, sp, ExactMatrix.identity(FP, 2))
    assert ident == ExactMatrix.identity(FP, 1)
    # src = k^2/k^2: zero-dimensional source, mapped onto the target's W
    degenerate = StrandSpace(ExactMatrix.identity(FP, 2))
    mat = induced_map(degenerate, sp, M(FP, [[1, 1], [0, 0]]))
    assert mat.cols == 0 and mat.rows == 1


def test_induced_map_rejects_ill_defined():
    # ambient does not preserve the sub space: swap on W = <e1>
    sp = StrandSpace(M(QQ, [[1], [0]]))
    swap = M(QQ, [[0, 1], [1, 0]])
    with pytest.raises(WellDefinednessError):
        induced_map(sp, sp, swap)


def test_induced_map_composes():
    sub = M(FP, [[1], [1], [0]])
    spaces = [StrandSpace(sub) for _ in range(3)]
    # maps preserving <(1,1,0)>: scalar + something fixing the line
    f = M(FP, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])
    g = M(FP, [[1, 1, 0], [1, 1, 0], [0, 0, 3]])
    assert (g @ f) @ sub == g @ (f @ sub)  # sanity
    left = induced_map(spaces[1], spaces[2], g) @ induced_map(spaces[0], spaces[1], f)
    right = induced_map(spaces[0], spaces[2], g @ f)
    assert left == right


# -- strand spaces against a pure-Python reference ------------------------------

class _RefField:
    """Scalar arithmetic on Python ints mod p, or on Fractions for p = 0."""

    def __init__(self, p):
        self.p = p

    def norm(self, v):
        return Fraction(v) if self.p == 0 else v % self.p

    def inv(self, v):
        return 1 / v if self.p == 0 else pow(v, self.p - 2, self.p)


def _ref_rref(rows, ncols, f):
    """Reduced rows and pivot columns, by hand."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.norm(x * inv) for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                fac = m[k][c]
                m[k] = [f.norm(a - fac * b) for a, b in zip(m[k], m[r])]
        pivots.append(c)
    return m, pivots


def _ref_solve(basis, vec, n, f):
    """Coordinates of vec in independent columns ``basis``, or None if outside the span."""
    rows = [[b[i] for b in basis] + [vec[i]] for i in range(n)]
    red, pivots = _ref_rref(rows, len(basis) + 1, f)
    if len(basis) in pivots:
        return None
    coords = [f.norm(0)] * len(basis)
    for r, c in enumerate(pivots):
        coords[c] = red[r][len(basis)]
    return coords


def _ref_greedy(vectors, start, n, f):
    """Leftmost vectors independent modulo the span of ``start``."""
    chosen = []
    for v in vectors:
        if _ref_solve(start + chosen, v, n, f) is None:
            chosen.append(v)
    return chosen


def _units(f, n):
    return [[f.norm(int(i == j)) for i in range(n)] for j in range(n)]


def _ref_space(sub, n, f):
    """(W basis, coset reps) as StrandSpace picks them; the reps are unit vectors."""
    w = _ref_greedy(sub, [], n, f)
    return w, _ref_greedy(_units(f, n), w, n, f)


def _ref_apply(a, v, f):
    return [f.norm(sum(x * y for x, y in zip(row, v))) for row in a]


def _ref_induced(src, dst, a, n_dst, f):
    (w_src, r_src), (w_dst, r_dst) = src, dst
    coords = [_ref_solve(w_dst + r_dst, _ref_apply(a, v, f), n_dst, f) for v in w_src + r_src]
    if any(any(x != 0 for x in c[len(w_dst):]) for c in coords[: len(w_src)]):
        raise WellDefinednessError("image of sub space leaves the target sub space")
    return [c[len(w_dst):] for c in coords[len(w_src):]]


def _from_columns(field, n, cols):
    if n == 0:
        return ExactMatrix.zeros(field, 0, len(cols))
    return ExactMatrix.from_rows(field, [[c[i] for c in cols] for i in range(n)], cols=len(cols))


def _columns_of(m):
    return [list(col) for col in zip(*m.entries)] if m.rows else [[] for _ in range(m.cols)]


REF_PRIMES = (2, 3, 32003, 2**31 - 1, 0)


@st.composite
def _vectors(draw, f, n, count):
    entries = st.integers(-3, 3) if f.p != 2**31 - 1 else st.sampled_from([0, 1, -1, 2**30, 12345])
    return [[f.norm(draw(entries)) for _ in range(n)] for _ in range(count)]


@st.composite
def _combos(draw, f, basis, n, count):
    """``count`` random linear combinations of ``basis`` columns."""
    out = []
    for coeffs in draw(_vectors(f, len(basis), count)):
        out.append([f.norm(sum(c * b[i] for c, b in zip(coeffs, basis))) for i in range(n)])
    return out


@st.composite
def _space_data(draw, f, n):
    """Sub columns: up to three vectors, then up to two combinations of them."""
    sub = draw(_vectors(f, n, draw(st.integers(0, 3))))
    return sub + draw(_combos(f, sub, n, draw(st.integers(0, 2))))


@st.composite
def _ambient(draw, f, src, dst, n_src, n_dst):
    """A map sending each src W basis vector into dst's W or anywhere."""
    if draw(st.integers(0, 4)) == 0:
        cols = draw(_vectors(f, n_dst, n_src))
        return [[c[r] for c in cols] for r in range(n_dst)]
    (w_src, r_src), (w_dst, _) = src, dst
    basis = w_src + r_src
    images = []
    for j in range(n_src):
        if j < len(w_src) and draw(st.booleans()):
            images += draw(_combos(f, w_dst, n_dst, 1))
        else:
            images += draw(_vectors(f, n_dst, 1))
    # A = images @ basis^-1, one row of A at a time
    inverse_t = [_ref_solve(basis, [f.norm(int(i == k)) for i in range(n_src)], n_src, f)
                 for k in range(n_src)]
    return [[f.norm(sum(img[r] * inverse_t[k][j] for j, img in enumerate(images)))
             for k in range(n_src)] for r in range(n_dst)]


def _coset_cols(ref, n, f):
    """The coordinates of a reference space's unit coset reps."""
    units = _units(f, n)
    return tuple(units.index(v) for v in ref[1])


def _ref_projection(ref, n, f):
    """The coset rows of B^-1 for the reference basis B = [W basis | coset reps]."""
    w, reps = ref
    coords = [_ref_solve(w + reps, e, n, f) for e in _units(f, n)]
    return [[c[len(w) + j] for c in coords] for j in range(len(reps))]


def _rows_of(m):
    return [list(row) for row in m.entries]


@settings(max_examples=200)
@given(data=st.data(), p=st.sampled_from(REF_PRIMES))
def test_strand_spaces_and_induced_maps_match_reference(data, p):
    f = _RefField(p)
    field = FieldSpec(p)
    n_src, n_dst = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    spaces, refs = [], []
    for n in (n_src, n_dst):
        sub = data.draw(_space_data(f, n))
        ref = _ref_space(sub, n, f)
        sp = StrandSpace(_from_columns(field, n, sub))
        assert sp.dim == len(ref[1])
        assert sp.coset_cols == _coset_cols(ref, n, f)
        assert _rows_of(sp.project(ExactMatrix.identity(field, n))) == _ref_projection(ref, n, f)
        spaces.append(sp)
        refs.append(ref)
    a_rows = data.draw(_ambient(f, refs[0], refs[1], n_src, n_dst))
    a = ExactMatrix.from_rows(field, a_rows, cols=n_src) if n_dst else ExactMatrix.zeros(
        field, 0, n_src)
    try:
        want = _ref_induced(refs[0], refs[1], a_rows, n_dst, f)
    except WellDefinednessError as err:
        with pytest.raises(WellDefinednessError, match=str(err)):
            induced_map(spaces[0], spaces[1], a)
        return
    got = induced_map(spaces[0], spaces[1], a)
    assert (got.rows, got.cols) == (spaces[1].dim, spaces[0].dim)
    assert _columns_of(got) == want


def _block_columns(f, blocks, n):
    """The columns of block-diagonal blocks, each block a list of columns."""
    out, start = [], 0
    for size, cols in blocks:
        out += [[f.norm(0)] * start + c + [f.norm(0)] * (n - start - size) for c in cols]
        start += size
    return out


@settings(max_examples=150)
@given(data=st.data(), p=st.sampled_from(REF_PRIMES))
def test_direct_sum_space_matches_one_elimination_of_the_block_matrix(data, p):
    f = _RefField(p)
    field = FieldSpec(p)
    sums, wholes, refs = [], [], []
    for _ in range(2):  # source and target of an induced map
        sizes = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
        parts = [data.draw(_space_data(f, n)) for n in sizes]
        n = sum(sizes)
        sub = _block_columns(f, list(zip(sizes, parts)), n)
        spaces = [StrandSpace(_from_columns(field, k, s)) for k, s in zip(sizes, parts)]
        whole, direct = StrandSpace(_from_columns(field, n, sub)), StrandSpace.direct_sum(spaces)
        ref = _ref_space(sub, n, f)
        assert (direct.dim, direct.ambient_dim, direct.is_full) == (
            whole.dim, whole.ambient_dim, whole.is_full)
        assert direct.coset_cols == whole.coset_cols == _coset_cols(ref, n, f)
        projection = direct.project(ExactMatrix.identity(field, n))
        assert projection == whole.project(ExactMatrix.identity(field, n))
        assert _rows_of(projection) == _ref_projection(ref, n, f)
        vectors = _from_columns(field, n, data.draw(_vectors(f, n, 3)))
        assert direct.project(vectors) == whole.project(vectors)
        sums.append(direct)
        wholes.append(whole)
        refs.append(ref)
    n_src, n_dst = sums[0].ambient_dim, sums[1].ambient_dim
    a_rows = data.draw(_ambient(f, refs[0], refs[1], n_src, n_dst))
    a = ExactMatrix.from_rows(field, a_rows, cols=n_src) if n_dst else ExactMatrix.zeros(
        field, 0, n_src)
    try:
        want = induced_map(wholes[0], wholes[1], a)
    except WellDefinednessError as err:
        with pytest.raises(WellDefinednessError, match=str(err)):
            induced_map(sums[0], sums[1], a)
        return
    assert induced_map(sums[0], sums[1], a) == want


@settings(max_examples=100)
@given(data=st.data(), p=st.sampled_from(REF_PRIMES))
def test_kernel_and_solve_match_reference(data, p):
    f = _RefField(p)
    field = FieldSpec(p)
    n, m, r = (data.draw(st.integers(1, 6)) for _ in range(3))
    a_cols = data.draw(_vectors(f, n, m))
    a = _from_columns(field, n, a_cols)
    red, pivots = _ref_rref([[c[i] for c in a_cols] for i in range(n)], m, f)
    kernel = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [f.norm(int(c == fc)) for c in range(m)]
        for i, pc in enumerate(pivots):
            v[pc] = f.norm(-red[i][fc])
        kernel.append(v)
    assert _columns_of(kernel_basis(a)) == kernel
    b_cols = data.draw(_combos(f, a_cols, n, r))
    want = [[f.norm(0)] * m for _ in b_cols]
    for j, b in enumerate(b_cols):
        coords = _ref_solve([a_cols[c] for c in pivots], b, n, f)
        for c, x in zip(pivots, coords):
            want[j][c] = x
    assert _columns_of(solve_columns(a, _from_columns(field, n, b_cols))) == want


@pytest.mark.parametrize("field", [FP, QQ], ids=repr)
def test_strand_space_and_induced_map_elimination_budget(field, monkeypatch):
    calls = collections.Counter()
    for name in ("rref_with_pivots", "rank"):
        def counted(m, _fn=getattr(exact, name), _name=name):
            calls[_name] += 1
            return _fn(m)
        monkeypatch.setattr(exact, name, counted)

    def spent():
        out = (calls["rref_with_pivots"], calls["rank"])
        calls.clear()
        return out

    # W = <(1, 0, 2)> twice over
    sub = M(field, [[1, 2], [0, 0], [2, 4]])
    quotient = StrandSpace(sub)
    assert spent() == (1, 0)
    # neither a full space nor a direct sum eliminates
    full = StrandSpace(ExactMatrix.zeros(field, 3, 0))
    total = StrandSpace.direct_sum([quotient, full])
    assert spent() == (0, 0)
    assert (quotient.dim, full.dim, total.dim) == (2, 3, 5)
    induced_map(full, quotient, ExactMatrix.identity(field, 3))
    induced_map(quotient, quotient, ExactMatrix.identity(field, 3).scale(2))
    induced_map(total, total, ExactMatrix.identity(field, 6))
    assert spent() == (0, 0)


@pytest.mark.parametrize("field", [FP, QQ], ids=repr)
def test_induced_map_into_a_quotient_multiplies_by_no_square_target_matrix(field, monkeypatch):
    shapes = []
    product = ExactMatrix.__matmul__

    def recorded(a, b):
        shapes.append((a.rows, a.cols, b.rows, b.cols))
        return product(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", recorded)
    # W_dst: four independent vectors of k^6, so dst has dim 2
    w_dst = M(field, [[1, 0, 0, 2], [0, 1, 0, 3], [0, 0, 1, 5], [4, 0, 0, 1], [0, 6, 1, 0], [1, 1, 1, 1]])
    dst = StrandSpace(w_dst)
    # W_src = <e_0, e_1, e_2> in k^5, sent onto three vectors of W_dst
    src = StrandSpace(ExactMatrix.identity(field, 5).columns(range(3)))
    ambient = ExactMatrix.hstack([w_dst.columns(range(3)), M(field, [[1, 2]] * 6)])
    for source, amb in ((src, ambient), (StrandSpace.direct_sum([src, src]),
                                         ExactMatrix.hstack([ambient, ambient]))):
        shapes.clear()
        got = induced_map(source, dst, amb)
        assert (dst.dim, got.rows, got.cols) == (2, 2, source.dim)
        assert shapes and all(rows <= dst.dim for rows, _, _, _ in shapes)
        assert all((rows, cols) != (6, 6) for rows, cols, _, _ in shapes)


# -- mod-p kernels at their exactness bounds ------------------------------------

def _ref_product(a_rows, b_rows, inner, cols, f):
    return tuple(
        tuple(f.norm(sum(row[k] * b_rows[k][j] for k in range(inner))) for j in range(cols))
        for row in a_rows
    )


@st.composite
def _product_operands(draw, p):
    """(a rows, b rows, inner, cols), with extreme entries mixed in; any dimension may be 0."""
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    if p == 0:
        entries = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    else:
        entries = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1, p - 2]))
    a = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
    return a, b, inner, cols


@settings(max_examples=200)
@given(data=st.data(), p=st.sampled_from(REF_PRIMES))
def test_product_matches_reference(data, p):
    a_rows, b_rows, inner, cols = data.draw(_product_operands(p))
    field = FieldSpec(p)
    a = ExactMatrix.from_rows(field, a_rows, cols=inner)
    b = ExactMatrix.from_rows(field, b_rows, cols=cols)
    got = a @ b
    assert (got.rows, got.cols) == (len(a_rows), cols)
    assert got.entries == _ref_product(a_rows, b_rows, inner, cols, _RefField(p))
    if p:
        assert got._data.dtype == exact._dtype_for(p)


@pytest.mark.parametrize("inner", [63, 64, 65])
def test_product_at_the_float64_bound(inner):
    # inner (p-1)^2 < 2^53 holds up to inner 64 here: 64 runs on float64 BLAS
    # and 65 on int64.  Sums of (p-2)^2 past 2^53 are odd, so float64 would round them.
    p = 11863279
    assert 64 * (p - 1) ** 2 < 2**53 <= 65 * (p - 1) ** 2
    field = FieldSpec(p)
    for v in (p - 1, p - 2):
        a = ExactMatrix.from_rows(field, [[v] * inner] * 3)
        b = ExactMatrix.from_rows(field, [[v] * 2] * inner)
        got = a @ b
        assert got.entries == ((inner * v * v % p,) * 2,) * 3
        assert got._data.dtype == exact._dtype_for(p) == np.int64


# 0 is Q, which shares the kernel's loop with F_p and never reduces
ELIMINATION_PRIMES = (2, 3, 32003, 1270249, 1073741789, 2**31 - 1, 0)


def _elimination_case(p, rows, cols, kind, seed):
    """Rows of a test matrix: random, all p-1, or a rank-deficient product with zero columns."""
    rng = random.Random(seed)
    f = _RefField(p)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if p == 0 else rng.randrange(p)

    if kind == "random":
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "top":
        return [[f.norm(p - 1)] * cols for _ in range(rows)]
    k = max(1, min(rows, cols) - 2)
    left = [[rng.choice((entry(), p - 1)) for _ in range(k)] for _ in range(rows)]
    right = [[rng.choice((entry(), p - 1)) for _ in range(cols)] for _ in range(k)]
    zero = set(rng.sample(range(cols), cols // 4))
    return [
        [0 if j in zero else f.norm(sum(x * right[t][j] for t, x in enumerate(row)))
         for j in range(cols)]
        for row in left
    ]


# Shapes on both sides of each switch of the mod-p kernel: 4096 entries
# (63x64, 64x64), and min(rows, cols) (p-1)^2 < 2^63, which holds up to 8 rows
# at p = 1073741789 (8x512, 9x456) and 2 rows at 2^31 - 1 (2x2048, 3x1366).  A
# pivot row scaled before its reduction would need min(rows, cols) (p-1)^3 <
# 2^63, which at p = 1270249 holds up to 4 rows (4x1024, 5x820).  Over Q the
# switches do not apply, and exact fractions grow with the rank, so Q takes
# small shapes.
ELIMINATION_SHAPES = [(5, 7), (7, 5), (63, 64), (64, 64), (2, 2048), (3, 1366),
                      (4, 1024), (5, 820), (8, 512), (9, 456), (4, 41)]
RATIONAL_SHAPES = [(5, 7), (7, 5), (4, 41), (12, 16), (16, 12)]


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@pytest.mark.parametrize("kind", ["random", "top", "low-rank"])
def test_elimination_matches_reference(p, kind):
    field = FieldSpec(p)
    ref_field = _RefField(p)
    for seed, (rows, cols) in enumerate(ELIMINATION_SHAPES if p else RATIONAL_SHAPES):
        data = _elimination_case(p, rows, cols, kind, seed)
        want, pivots = _ref_rref(data, cols, ref_field)
        red, got_pivots = rref_with_pivots(M(field, data))
        assert got_pivots == tuple(pivots), (rows, cols)
        assert red.entries == tuple(tuple(r) for r in want), (rows, cols)
        assert red._data.dtype == (exact._dtype_for(p) if p else object)
        assert rank(M(field, data)) == len(pivots), (rows, cols)
