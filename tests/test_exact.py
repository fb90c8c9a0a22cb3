"""Exact linear algebra kernel: echelon forms, kernels, strand spaces."""

import collections
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import complexes, exact
from lochom.complexes import ModuleChainMap, StrandContext, homology_induced_matrix
from lochom.duality import dualizing_module_check
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
from lochom.koszul import DIRECT, KoszulSpec, koszul_complex
from lochom.rings import GradedRing, parse_poly

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


def _monomials(nvars, degree):
    """Exponent vectors of the given degree, lexicographically descending."""
    if nvars == 1:
        return [(degree,)]
    return [(a, *rest) for a in range(degree, -1, -1) for rest in _monomials(nvars - 1, degree - a)]


def _macaulay_case(p, nvars, degree, form_degrees, seed):
    """Rows of a Macaulay matrix: the monomial multiples of sparse forms, plus zero rows.

    Multiples of one form have distinct leading columns, the known pivots;
    multiples of different forms collide, and past the sum of two form
    degrees their Koszul syzygies make the rows dependent.
    """
    rng = random.Random(seed)
    f = _RefField(p)
    columns = {m: i for i, m in enumerate(_monomials(nvars, degree))}
    rows = [[f.norm(0)] * len(columns) for _ in range(3)]
    for e in form_degrees:
        support = rng.sample(_monomials(nvars, e), 3)
        form = [(m, f.norm(rng.choice((rng.randint(1, 9), -1, p - 2)))) for m in support]
        for shift in _monomials(nvars, degree - e):
            row = [f.norm(0)] * len(columns)
            for m, v in form:
                row[columns[tuple(a + b for a, b in zip(m, shift))]] = v
            rows.append(row)
    rng.shuffle(rows)
    return rows


def _unit_row_case(p, rows, cols, seed):
    """One nonzero entry per row, in columns that repeat and columns left empty."""
    rng = random.Random(seed)
    f = _RefField(p)
    hit = rng.sample(range(cols), cols * 3 // 4)
    out = [[f.norm(0)] * cols for _ in range(rows)]
    for row in out:
        row[rng.choice(hit)] = f.norm(rng.choice((1, -1, rng.randint(2, 9))))
    return out


# Shapes on both sides of the 4096 entries from which the kernel takes known
# pivots first (63x64, 64x64), and wide shapes of a few rows (2x2048 up to
# 9x456) whose updates, at the largest primes, subtract products of two
# reduced entries close to 2^62: each is reduced at once, so int64 stays exact
# for every p < 2^31.  Exact fractions grow with the rank, so Q takes small
# shapes.
ELIMINATION_SHAPES = [(5, 7), (7, 5), (63, 64), (64, 64), (2, 2048), (3, 1366),
                      (4, 1024), (5, 820), (8, 512), (9, 456), (4, 41)]
RATIONAL_SHAPES = [(5, 7), (7, 5), (4, 41), (12, 16), (16, 12)]
# From 4096 entries on, the kernel eliminates only the Schur complement of the
# rows with distinct leading columns, over F_p and Q alike.  Macaulay cases
# are (variables, degree, form degrees); each shape pair straddles 4096
# entries: 81x41 and 121x61 (tall), 48x66 and 69x91 (wide), 73x120 (wide,
# with syzygies) and 95x45 (three forms, tall).
MACAULAY_SHAPES = [(2, 40, (2, 2)), (2, 60, (2, 2)), (3, 10, (2,)), (3, 12, (2,)),
                   (4, 7, (3, 3)), (3, 8, (1, 2, 2))]
UNIT_ROW_SHAPES = [(60, 64), (100, 64), (64, 100)]


def _structured_cases(p, kind):
    """Rows of each Macaulay or unit-row test matrix."""
    if kind == "macaulay":
        return [_macaulay_case(p, *shape, seed) for seed, shape in enumerate(MACAULAY_SHAPES)]
    return [_unit_row_case(p, *shape, seed) for seed, shape in enumerate(UNIT_ROW_SHAPES)]


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@pytest.mark.parametrize("kind", ["random", "top", "low-rank", "macaulay", "unit-rows"])
def test_elimination_matches_reference(p, kind):
    field = FieldSpec(p)
    ref_field = _RefField(p)
    if kind in ("macaulay", "unit-rows"):
        cases = _structured_cases(p, kind)
    else:
        cases = [_elimination_case(p, rows, cols, kind, seed)
                 for seed, (rows, cols) in enumerate(ELIMINATION_SHAPES if p else RATIONAL_SHAPES)]
    for data in cases:
        rows, cols = len(data), len(data[0])
        want, pivots = _ref_rref(data, cols, ref_field)
        red, got_pivots = rref_with_pivots(M(field, data))
        assert got_pivots == tuple(pivots), (rows, cols)
        assert red.entries == tuple(tuple(r) for r in want), (rows, cols)
        assert red._data.dtype == (exact._dtype_for(p) if p else object)
        assert rank(M(field, data)) == len(pivots), (rows, cols)


# -- sparse storage ---------------------------------------------------------------

STORAGE_PRIMES = (2, 3, 32003, 0)
# 64 x 64 and more reach the 4096 entries from which sparse storage starts
STORAGE_DIMS = (0, 1, 3, 64, 70)


def _stored_as(m, sparse):
    """m kept in the given storage, whatever the storage rule would pick."""
    if sparse:
        return ExactMatrix._stored(m.field, m.rows, m.cols, *exact._csr(m))
    return ExactMatrix._stored(m.field, m.rows, m.cols, exact._as_array(m))


def _is_rule_stored(m):
    nnz = len(exact._coo(m)[0])
    return (m._indptr is not None) == exact._is_sparse(m.rows, m.cols, nnz)


@st.composite
def _sparse_matrices(draw, field, rows=None, cols=None):
    """A matrix with at most 200 nonzero entries, stored by the rule: at 64 x 64
    and up, sparse up to 128 to 140 of them."""
    rows = draw(st.sampled_from(STORAGE_DIMS)) if rows is None else rows
    cols = draw(st.sampled_from(STORAGE_DIMS)) if cols is None else cols
    p = field.characteristic
    value = (st.fractions(min_value=-9, max_value=9, max_denominator=4) if p == 0
             else st.integers(0, p - 1))
    data = [[0] * cols for _ in range(rows)]
    if rows and cols:
        for i, j, v in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                                               value), max_size=200)):
            data[i][j] = v
    return ExactMatrix.from_rows(field, data, cols=cols)


def _outcomes(field, a, b, c, d, picks, scalar):
    """Every ExactMatrix operation and strand space reading on the operands:
    a and b of one shape, c with a.cols rows, d square with a.rows rows."""
    red, pivots = rref_with_pivots(a)
    kernel, free = exact._kernel(a)
    space = StrandSpace(a)
    twice = StrandSpace.direct_sum([space, space])
    rows, cols = picks
    out = {
        "sum": a + b, "difference": a - b, "negative": -a, "scale": a.scale(scalar),
        "product": a @ c, "columns": a.columns(cols), "take_rows": a.take_rows(rows),
        "hstack": ExactMatrix.hstack([a, b]), "vstack": ExactMatrix.vstack([a, b]),
        "assemble": ExactMatrix.assemble(field, {(0, 0): a, (1, 1): b, (1, 0): b},
                                         [a.rows] * 2, [a.cols] * 2),
        "rref": red, "pivots": pivots, "rank": rank(a), "kernel": kernel, "free": free,
        "coset_cols": space.coset_cols,
        "projection": space.project(ExactMatrix.identity(field, a.rows)),
        "project": space.project(b), "project_sum": twice.project(ExactMatrix.vstack([b, b])),
        "equal": (a == b, a == a), "zero": (a.is_zero(), b.is_zero()), "entries": a.entries,
        "entry": [a.entry(i, j) for i, j in zip(rows, cols)],
    }
    for name, ambient in (("induced", ExactMatrix.identity(field, a.rows).scale(scalar)),
                          ("induced_d", d)):
        try:
            out[name] = induced_map(space, StrandSpace(b), ambient)
        except WellDefinednessError as err:
            out[name] = str(err)
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from(STORAGE_PRIMES))
def test_every_operation_gives_the_same_result_whichever_storage(data, p):
    field = FieldSpec(p)
    a = data.draw(_sparse_matrices(field))
    b = data.draw(_sparse_matrices(field, a.rows, a.cols))
    c = data.draw(_sparse_matrices(field, a.cols))
    d = data.draw(_sparse_matrices(field, a.rows, a.rows))
    n = data.draw(st.integers(0, 6)) if a.rows and a.cols else 0
    picks = [data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)) if n else []
             for size in (a.rows, a.cols)]
    scalar = data.draw(st.integers(0, 5))
    want = _outcomes(field, a, b, c, d, picks, scalar)
    # operands in the rule's storage give results in the rule's storage
    assert all(_is_rule_stored(m) for m in want.values() if isinstance(m, ExactMatrix))
    for sparse in ((False,) * 4, (True,) * 4, (True, False, True, False), (False, True, False, True)):
        operands = [_stored_as(m, s) for m, s in zip((a, b, c, d), sparse)]
        got = _outcomes(field, *operands, picks, scalar)
        for name, value in want.items():
            if isinstance(value, ExactMatrix):
                assert (got[name].rows, got[name].cols, got[name].entries) == (
                    value.rows, value.cols, value.entries), (name, sparse)
            else:
                assert got[name] == value, (name, sparse)


def _koszul_context(d):
    """K(x^2, xy) over k[x,y,z] in internal degree d, whose coset-level maps
    are sparse from d = 10 on (H_1 has dim 12 there)."""
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    gens = [parse_poly(r, "x^2"), parse_poly(r, "x*y")]
    return StrandContext(koszul_complex(KoszulSpec(r, gens, 1, DIRECT)), d)


def _unit(field, rows, cols, i, j):
    return exact._from_coo(field, rows, cols, np.array([i]), np.array([j]), np.array([1]))


def test_the_d_squared_check_catches_a_fault_in_sparse_maps():
    ctx = _koszul_context(10)
    assert ctx.op(1)._indptr is not None and ctx.op(2)._indptr is not None
    assert ctx.homology(1).dim == 12
    faulty = _koszul_context(10)
    m = faulty.op(2)
    faulty._ops[2] = m + _unit(FP, m.rows, m.cols, 0, 0)
    assert faulty._ops[2]._indptr is not None
    with pytest.raises(WellDefinednessError, match="d_1 d_2 != 0"):
        faulty.homology(1)


def test_the_cycle_check_catches_a_fault_in_sparse_maps(monkeypatch):
    ctx = _koszul_context(10)
    identity = ModuleChainMap.identity(ctx.complex)
    clean = homology_induced_matrix(identity, ctx, ctx, 1)
    assert clean == ExactMatrix.identity(FP, 12)
    original = complexes.coset_level_map
    free = ctx._kernel_of(1)[1]

    def perturbed(f, ctx_src, ctx_dst, i):
        # sends the first kernel basis vector off the kernel: column 0 of d_1 is nonzero
        m = original(f, ctx_src, ctx_dst, i)
        return m + _unit(FP, m.rows, m.cols, 0, free[0])

    assert original(identity, ctx, ctx, 1)._indptr is not None
    monkeypatch.setattr(complexes, "coset_level_map", perturbed)
    with pytest.raises(WellDefinednessError, match="cycle off the target kernel"):
        homology_induced_matrix(identity, ctx, ctx, 1)


def test_the_well_definedness_check_catches_a_fault_in_sparse_maps():
    # W = <e_0, ..., e_9> in k^100: its projection and the ambients are sparse
    n = 100
    identity = ExactMatrix.identity(FP, n)
    space = StrandSpace(identity.columns(range(10)))
    assert space._proj._indptr is not None and identity._indptr is not None
    for src, ambient in ((space, identity), (StrandSpace.direct_sum([space, space]),
                                             ExactMatrix.identity(FP, 2 * n))):
        assert induced_map(src, src, ambient) == ExactMatrix.identity(FP, src.dim)
        # e_0 in W goes to e_0 + e_50, which leaves W
        faulty = ambient + _unit(FP, ambient.rows, ambient.cols, 50, 0)
        assert faulty._indptr is not None
        with pytest.raises(WellDefinednessError, match="leaves the target sub space"):
            induced_map(src, src, faulty)


def test_the_multiplication_cache_holds_only_nonzeros():
    # the blocks dualizing_module_check caches on k[x,y,z] held 86.3 MB dense
    # for 57,165 nonzero entries; stored sparse they take 39 bytes each
    ring = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    assert dualizing_module_check(ring, (-8, 8), k_max=10, s=2).passed
    blocks = list(ring._mult_cache.values())
    nnz = sum(len(exact._coo(b)[0]) for b in blocks)
    stored = sum(a.nbytes for b in blocks
                 for a in (exact._csr(b) if b._indptr is not None else (b._data,)))
    assert nnz == 57165
    assert stored <= 48 * nnz


def test_a_sparse_elimination_allocates_no_dense_array():
    # 3000 x 5000 with two nonzero entries per row: 60 MB as a dense int32 array
    rows, cols = 3000, 5000
    r = np.repeat(np.arange(rows), 2)
    c = np.stack([np.arange(rows), np.arange(rows) * 5 // 3 + 1]).T.reshape(-1) % cols
    m = exact._from_coo(FP, rows, cols, r, c, np.arange(1, 2 * rows + 1))
    assert m._indptr is not None
    tracemalloc.start()
    try:
        red, pivots = rref_with_pivots(m)
        kernel, _ = exact._kernel(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(pivots) == rank(m) and red._indptr is not None and kernel._indptr is not None
    assert (m @ kernel).is_zero()
