"""Exact linear algebra kernel: echelon forms, kernels, strand spaces."""

import collections
import random
from fractions import Fraction

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
    assert full.coset_reps == ExactMatrix.identity(FP, 3)
    quot = StrandSpace(M(FP, [[1], [2], [0]]))
    assert quot.dim == 2
    assert quot.ambient_dim == 3


def test_strand_space_sub_inside_super_checked():
    sub = M(QQ, [[1], [0]])
    super_ = M(QQ, [[0], [1]])
    with pytest.raises(WellDefinednessError):
        StrandSpace(sub, super_)


def test_strand_space_subquotient_dim():
    # U = <e1, e2>, W = <e1> inside Q^3: dim U/W = 1
    sub = M(QQ, [[1], [0], [0]])
    super_ = M(QQ, [[1, 0], [0, 1], [0, 0]])
    sp = StrandSpace(sub, super_)
    assert sp.dim == 1
    assert sp.coset_reps.entries == ((0,), (1,), (0,))


def test_induced_map_identity_and_zero_target():
    sp = StrandSpace(M(FP, [[1], [0]]))
    ident = induced_map(sp, sp, ExactMatrix.identity(FP, 2))
    assert ident == ExactMatrix.identity(FP, 1)
    # src = U/W with U = W: zero-dimensional source
    w = M(FP, [[1], [0]])
    degenerate = StrandSpace(w, w)
    mat = induced_map(degenerate, sp, ExactMatrix.identity(FP, 2))
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


def _ref_space(sub, sup, n, f):
    """(W basis, coset reps) as StrandSpace picks them; raises on W not inside U."""
    w = _ref_greedy(sub, [], n, f)
    if sup is None:
        sup = [[f.norm(int(i == j)) for i in range(n)] for j in range(n)]
    elif any(_ref_solve(_ref_greedy(sup, [], n, f), v, n, f) is None for v in w):
        raise WellDefinednessError("sub space is not contained in super space")
    return w, _ref_greedy(sup, w, n, f)


def _ref_apply(a, v, f):
    return [f.norm(sum(x * y for x, y in zip(row, v))) for row in a]


def _ref_induced(src, dst, a, n_dst, f):
    (w_src, r_src), (w_dst, r_dst) = src, dst
    coords = [_ref_solve(w_dst + r_dst, _ref_apply(a, v, f), n_dst, f) for v in w_src + r_src]
    if any(c is None for c in coords):
        raise WellDefinednessError("image leaves the target super space")
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
    """(sub columns, super columns or None); W sits inside U unless one column strays."""
    if draw(st.booleans()):
        return draw(_vectors(f, n, draw(st.integers(0, 4)))), None
    sup = draw(_vectors(f, n, draw(st.integers(0, 4))))
    sub = draw(_combos(f, sup, n, draw(st.integers(0, 3))))
    if draw(st.integers(0, 5)) == 0:
        sub += draw(_vectors(f, n, 1))
    return sub, sup


@st.composite
def _ambient(draw, f, src, dst, n_src, n_dst):
    """A map sending each src basis vector into dst's W, dst's U or anywhere."""
    if draw(st.integers(0, 4)) == 0:
        cols = draw(_vectors(f, n_dst, n_src))
        return [[c[r] for c in cols] for r in range(n_dst)]
    (w_src, r_src), (w_dst, r_dst) = src, dst
    basis = w_src + r_src
    basis += _ref_greedy([[f.norm(int(i == j)) for i in range(n_src)] for j in range(n_src)],
                         basis, n_src, f)
    images = []
    for j in range(n_src):
        level = draw(st.sampled_from(["sub", "super", "any"] if j < len(w_src) else ["super", "any"]))
        target = {"sub": w_dst, "super": w_dst + r_dst}.get(level)
        if target is None:
            images += draw(_vectors(f, n_dst, 1))
        else:
            images += draw(_combos(f, target, n_dst, 1))
    # A = images @ basis^-1, one row of A at a time
    inverse_t = [_ref_solve(basis, [f.norm(int(i == k)) for i in range(n_src)], n_src, f)
                 for k in range(n_src)]
    return [[f.norm(sum(img[r] * inverse_t[k][j] for j, img in enumerate(images)))
             for k in range(n_src)] for r in range(n_dst)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), p=st.sampled_from(REF_PRIMES))
def test_strand_spaces_and_induced_maps_match_reference(data, p):
    f = _RefField(p)
    field = FieldSpec(p)
    n_src, n_dst = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    spaces, refs = [], []
    for n in (n_src, n_dst):
        sub, sup = data.draw(_space_data(f, n))
        try:
            ref = _ref_space(sub, sup, n, f)
        except WellDefinednessError as err:
            with pytest.raises(WellDefinednessError, match=str(err)):
                StrandSpace(_from_columns(field, n, sub),
                            None if sup is None else _from_columns(field, n, sup))
            return
        sp = StrandSpace(_from_columns(field, n, sub),
                         None if sup is None else _from_columns(field, n, sup))
        assert sp.dim == len(ref[1])
        assert _columns_of(sp.coset_reps) == ref[1]
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
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


def test_induced_map_rejects_image_outside_target_super_space():
    # src = Q^2 / <e1>; dst = <e1>/0 inside Q^2; the identity sends e2 outside <e1>
    src = StrandSpace(M(QQ, [[1], [0]]))
    dst = StrandSpace(ExactMatrix.zeros(QQ, 2, 0), M(QQ, [[1], [0]]))
    with pytest.raises(WellDefinednessError, match="image leaves the target super space"):
        induced_map(src, dst, ExactMatrix.identity(QQ, 2))


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

    # W = <(1, 0, 2)> twice over, U = <(1, 0, 2), e2>
    sub = M(field, [[1, 2], [0, 0], [2, 4]])
    quotient = StrandSpace(sub)
    assert spent() == (1, 0)
    subquotient = StrandSpace(sub, M(field, [[1, 0], [0, 1], [2, 0]]))
    assert spent() == (1, 1)
    assert (quotient.dim, subquotient.dim) == (2, 1)
    induced_map(subquotient, quotient, ExactMatrix.identity(field, 3))
    induced_map(quotient, quotient, ExactMatrix.identity(field, 3).scale(2))
    assert spent() == (0, 0)
