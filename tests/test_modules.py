"""Free modules, graded maps, presented modules, strand functor."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import complexes, exact, modules
from lochom.errors import NonHomogeneousError, WellDefinednessError
from lochom.exact import QQ, ExactMatrix, FieldSpec, induced_map, kernel_basis, rank
from lochom.koszul import DIRECT
from lochom.localcoh import KoszulTowerSystem
from lochom.modules import (
    FreeModule,
    GradedMap,
    PresentedModule,
    annihilator_strand,
    hilbert_row,
    module_sum,
    module_sum_twisted,
    mult_operator,
    strand,
)
from lochom.rings import GradedRing, Poly, monomial_basis, parse_poly

FP = FieldSpec(32003)
FIELDS = (FieldSpec(2), FieldSpec(3), FP, FieldSpec(2**31 - 1), QQ)


def ring2():
    return GradedRing(FP, ["x", "y"], [1, 1])


def quotient(r, *texts):
    return PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, t)] for t in texts])


def test_twist_convention():
    # R(a)_d = R_{a+d}: the generator of R(-t) lives in degree t
    r = ring2()
    f = FreeModule(r, [-3])
    assert f.strand_dim(3) == 1
    assert f.strand_dim(2) == 0
    assert f.strand_dim(4) == 2


def test_graded_map_homogeneity_enforced():
    r = ring2()
    x = r.variable(0)
    src = FreeModule(r, [-1])
    tgt = FreeModule(r, [0])
    GradedMap(src, tgt, [[x]])  # degree 1 entry matches twists
    with pytest.raises(NonHomogeneousError):
        GradedMap(src, tgt, [[x * x]])
    with pytest.raises(NonHomogeneousError):
        GradedMap(src, tgt, [[parse_poly(r, "x + x^2")]])


def test_strand_of_free_module():
    r = ring2()
    free = PresentedModule.free(FreeModule(r, [0]))
    assert strand(free, 2).dim == 3


def test_strand_of_quotient():
    r = ring2()
    m = quotient(r, "x^2", "x*y")
    dims = [strand(m, d).dim for d in (0, 1, 2, 3, 5)]
    assert dims == [1, 2, 1, 1, 1]


def test_strand_of_zero_presentation_identity():
    r = ring2()
    f = FreeModule(r, [0])
    m = PresentedModule(GradedMap.identity(f))
    assert all(strand(m, d).dim == 0 for d in range(-2, 5))


def test_strand_dim_formula():
    r = ring2()
    m = quotient(r, "x^2 - y^2", "x*y^2")
    for d in range(0, 7):
        pres = m.presentation.strand_matrix(d)
        assert strand(m, d).dim == m.generators.strand_dim(d) - rank(pres)


def test_mult_operator_cases():
    r1 = GradedRing(FP, ["x"], [1])
    m = PresentedModule.quotient(
        FreeModule(r1, [0]), [[parse_poly(r1, "x^2")]]
    )
    x = r1.variable(0)
    assert mult_operator(m, r1.one(), 0).entries == ((1,),)
    assert mult_operator(m, x, 0).entries == ((1,),)
    op = mult_operator(m, x, 1)
    assert op.rows == 0 and op.cols == 1  # M_2 = 0


def test_mult_operator_free_reduces_to_ring():
    from lochom.rings import mult_matrix

    r = ring2()
    x = r.variable(0)
    free = PresentedModule.free(FreeModule(r, [0]))
    assert mult_operator(free, x, 1) == mult_matrix(x, 1)


def test_mult_operator_functorial():
    r = ring2()
    x, y = r.variables()
    m = quotient(r, "x^2", "x*y^2")
    for d in range(0, 4):
        lhs = mult_operator(m, x * y, d)
        rhs = mult_operator(m, y, d + 1) @ mult_operator(m, x, d)
        assert lhs == rhs


def test_annihilator_strand_cases():
    r1 = GradedRing(FP, ["x"], [1])
    x = r1.variable(0)
    m = PresentedModule.quotient(FreeModule(r1, [0]), [[parse_poly(r1, "x^2")]])
    # x^2 kills everything
    assert annihilator_strand(m, x * x, 0).dim == 1
    assert annihilator_strand(m, x * x, 1).dim == 1
    # free module: no torsion
    r = ring2()
    free = PresentedModule.free(FreeModule(r, [0]))
    assert all(annihilator_strand(free, r.variable(0), d).dim == 0 for d in range(0, 4))


def test_annihilator_strand_socle_of_monomial_quotient():
    # M = k[x,y]/(x^2, xy): x kills both x and y in degree 1, so the kernel of
    # multiplication by x on M_1 is all of M_1 (two-dimensional)
    r = ring2()
    m = quotient(r, "x^2", "x*y")
    x = r.variable(0)
    assert annihilator_strand(m, x, 1).dim == 2
    assert annihilator_strand(m, x, 0).dim == 0
    y = r.variable(1)
    # y kills x but not y
    assert annihilator_strand(m, y, 1).dim == 1


def test_annihilator_rank_identity():
    r = ring2()
    x, y = r.variables()
    m = quotient(r, "x^3", "x*y^2")
    for f in (x, y, x * y):
        for d in range(0, 5):
            total = strand(m, d).dim
            assert annihilator_strand(m, f, d).dim + rank(mult_operator(m, f, d)) == total


def test_hilbert_row_cases():
    r = ring2()
    free = PresentedModule.free(FreeModule(r, [0]))
    row = hilbert_row(free, (-1, 3))
    assert [row.dim(0, d) for d in range(-1, 4)] == [0, 1, 2, 3, 4]
    m = quotient(r, "x^2")
    row2 = hilbert_row(m, (0, 3))
    assert [row2.dim(0, d) for d in range(0, 4)] == [1, 2, 2, 2]
    zero = PresentedModule.quotient(FreeModule(r, [0]), [[r.one()]])
    assert all(e.dim == 0 for _, e in hilbert_row(zero, (0, 3)).items())


def test_quotient_infers_source_twists():
    r = ring2()
    m = PresentedModule.quotient(
        FreeModule(r, [0]), [[parse_poly(r, "x^2")], [parse_poly(r, "x*y")]]
    )
    assert m.relations.twists == (-2, -2)


def test_quotient_rejects_mixed_degree_column():
    r = ring2()
    with pytest.raises(NonHomogeneousError):
        PresentedModule.quotient(
            FreeModule(r, [0, -1]),
            [[parse_poly(r, "x^2"), parse_poly(r, "x^2")]],
        )


def test_graded_map_rejects_a_key_outside_the_matrix():
    r = ring2()
    x = r.variable(0)
    src, tgt = FreeModule(r, [-1]), FreeModule(r, [0, 0])
    assert GradedMap(src, tgt, {(1, 0): x}).entries == {(1, 0): x}
    for key in [(2, 0), (0, 1), (-1, 0)]:
        with pytest.raises(ValueError, match="outside"):
            GradedMap(src, tgt, {key: x})


def test_zero_maps_build_and_scan_no_polynomials(monkeypatch):
    r = ring2()
    f30 = FreeModule(r, [0] * 30)
    cx = complexes.ModuleComplex(r, {1: FreeModule(r, [-1] * 30), 0: f30}, {})
    counts = {"built": 0, "scanned": 0}
    init, is_zero = Poly.__init__, Poly.is_zero

    def counting_init(self, *args):
        counts["built"] += 1
        init(self, *args)

    def counting_is_zero(self):
        counts["scanned"] += 1
        return is_zero(self)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(Poly, "is_zero", counting_is_zero)
    zero = GradedMap.zero(f30, f30)
    missing = cx.differential(1)
    assert counts == {"built": 0, "scanned": 0}
    assert zero.is_zero_map() and missing.is_zero_map()
    assert (missing.source.rank, missing.target.rank) == (30, 30)


# -- sparse graded maps against a dense reference -------------------------------

def _dense(f):
    """The full matrix of f, zero entries included."""
    zero = f.ring.zero()
    return [[f.entries.get((i, j), zero) for j in range(f.source.rank)] for i in range(f.target.rank)]


def _assert_matches(f, want):
    """f stores exactly the nonzero entries of the dense reference ``want``."""
    assert _dense(f) == want
    assert not any(e.is_zero() for e in f.entries.values())
    assert f.is_zero_map() == all(e.is_zero() for row in want for e in row)


def _ref_product(a, b, zero, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(cols)] for i in range(len(a))]


def _ref_kronecker(a, b, a_cols, b_cols):
    return [
        [a[p][p2] * b[q][q2] for p2 in range(a_cols) for q2 in range(b_cols)]
        for p in range(len(a))
        for q in range(len(b))
    ]


def _ref_strand_matrix(ring, rows, src_twists, tgt_twists, degree, d):
    """Column by column: each monomial of F_d times the entries of its column."""
    src = [(j, m) for j, a in enumerate(src_twists) for m in monomial_basis(ring, d + a)]
    tgt = [(i, m) for i, b in enumerate(tgt_twists) for m in monomial_basis(ring, d + degree + b)]
    row_of = {key: r for r, key in enumerate(tgt)}
    dense = [[0] * len(src) for _ in tgt]
    for col, (j, m) in enumerate(src):
        for i in range(len(tgt_twists)):
            for exp, c in (rows[i][j] * Poly(ring, {m: 1})).terms.items():
                dense[row_of[i, exp]][col] = c
    return ExactMatrix.from_rows(ring.field, dense, cols=len(src))


@st.composite
def _dense_maps(draw, ring, src_twists, tgt_twists, degree):
    """Rows of a random homogeneous map; an entry is zero where its degree is
    negative, and now and then elsewhere."""
    return [[draw(_forms(ring, degree + b - a)) for a in src_twists] for b in tgt_twists]


@settings(max_examples=60)
@given(data=st.data(), field=st.sampled_from((FieldSpec(2), FieldSpec(3), FP, QQ)))
def test_sparse_graded_maps_match_a_dense_reference(data, field):
    ring = GradedRing(field, ["x", "y"], data.draw(st.sampled_from([[1, 1], [1, 2]])))
    zero = ring.zero()
    twists = st.lists(st.integers(-1, 1), max_size=3)
    f_tw, h_tw = data.draw(twists), data.draw(twists)
    g_tw = data.draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
    t1, t2 = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    b = data.draw(_dense_maps(ring, f_tw, g_tw, t1))
    a = data.draw(_dense_maps(ring, g_tw, h_tw, t2))
    cancel = data.draw(st.booleans())
    if cancel:
        # [A | A] after [B ; -B]: every product term meets its negative
        a = [row + row for row in a]
        b = b + [[-e for e in row] for row in b]
        g_tw = g_tw + g_tw
    F, G, H = FreeModule(ring, f_tw), FreeModule(ring, g_tw), FreeModule(ring, h_tw)
    fa, fb = GradedMap(G, H, a, t2), GradedMap(F, G, b, t1)
    _assert_matches(fa, a)
    _assert_matches(fb, b)
    ab = fa.compose(fb)
    _assert_matches(ab, _ref_product(a, b, zero, F.rank))
    if cancel:
        assert ab.is_zero_map()

    # f + (-f) cancels entry by entry
    c = [[-e for e in row] for row in b] if cancel else data.draw(_dense_maps(ring, f_tw, g_tw, t1))
    fc = GradedMap(F, G, c, t1)
    total = fb + fc
    sums = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(b, c)]
    _assert_matches(total, sums)
    if cancel:
        assert total.is_zero_map()
    k = data.draw(st.integers(-3, 3))
    _assert_matches(fb.scale(k), [[e.scale(k) for e in row] for row in b])
    n = data.draw(st.integers(-2, 2))
    shifted = fb.twisted(n)
    _assert_matches(shifted, b)
    assert (shifted.source, shifted.target) == (F.twisted(n), G.twisted(n))
    _assert_matches(fa.tensor(fb), _ref_kronecker(a, b, G.rank, F.rank))

    # blocks (0, 0) = B, (1, 1) = C and (0, 1) = B + C, each F -> G
    blocks = {(0, 0): fb, (1, 1): fc, (0, 1): total}
    glued = modules.graded_map_from_blocks([F, F], [G, G], blocks, t1)
    _assert_matches(glued, [r1 + r2 for r1, r2 in zip(b, sums)] + [[zero] * F.rank + r for r in c])

    d = data.draw(st.integers(-1, 3))
    for f, rows in ((fb, b), (ab, _ref_product(a, b, zero, F.rank))):
        got = f.strand_matrix(d)
        assert got == _ref_strand_matrix(ring, rows, f.source.twists, f.target.twists, f.internal_degree, d)


# -- strands of twists and direct sums ----------------------------------------

def _plain(module):
    """The same presentation with no recorded summands: one elimination per strand."""
    return PresentedModule(module.presentation)


def _random_matrix(data, field, rows, cols):
    if rows == 0:
        return ExactMatrix.zeros(field, 0, cols)
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return ExactMatrix.from_rows(
        field, data.draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols
    )


@st.composite
def _forms(draw, ring, degree):
    """A random form of the given degree, possibly zero."""
    basis = monomial_basis(ring, degree) if degree >= 0 else ()
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    return Poly(ring, dict(zip(basis, coeffs)))


@st.composite
def _base_modules(draw, ring):
    """A free module, a quotient, or a quotient by zero relation columns only."""
    kind = draw(st.sampled_from(["free", "quotient", "zero relations"]))
    twists = draw(st.lists(st.integers(-2, 1), min_size=1, max_size=2))
    target = FreeModule(ring, twists)
    if kind == "free":
        return PresentedModule.free(target)
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if kind == "zero relations":
            columns.append([ring.zero()] * len(twists))
        else:
            source = draw(st.integers(min(twists) - 2, min(twists)))
            columns.append([draw(_forms(ring, a - source)) for a in twists])
    return PresentedModule.quotient(target, columns)


@st.composite
def _sums(draw, ring, depth=1):
    """Direct sums of twisted, twice-twisted and nested summands."""
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["base", "twist", "sum"] if depth else ["base", "twist"]))
        m = draw(_sums(ring, depth - 1)) if kind == "sum" else draw(_base_modules(ring))
        if kind != "base":
            m = m.twisted(draw(st.integers(-2, 2))).twisted(draw(st.integers(-1, 1)))
        summands.append(m)
    return module_sum(summands)


def _same_induced_map(src, dst, src_ref, dst_ref, ambient):
    try:
        want = induced_map(src_ref, dst_ref, ambient)
    except WellDefinednessError as err:
        with pytest.raises(WellDefinednessError, match=str(err)):
            induced_map(src, dst, ambient)
        return
    assert induced_map(src, dst, ambient) == want


@settings(max_examples=80)
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_strand_of_a_sum_equals_one_elimination_of_its_presentation(data, field):
    ring = GradedRing(field, ["x", "y"], data.draw(st.sampled_from([[1, 1], [1, 2]])))
    m = data.draw(_sums(ring))
    plain = _plain(m)
    assert m == plain and hash(m) == hash(plain)
    d = data.draw(st.integers(-2, 3))
    got, want = strand(m, d), strand(plain, d)
    assert (got.dim, got.ambient_dim, got.is_full) == (want.dim, want.ambient_dim, want.is_full)
    assert got.coset_cols == want.coset_cols
    identity = ExactMatrix.identity(field, got.ambient_dim)
    assert got.project(identity) == want.project(identity)
    vectors = _random_matrix(data, field, got.ambient_dim, 2)
    assert got.project(vectors) == want.project(vectors)
    # multiplication by a form, perturbed or not, from M_d to M_{d+e}
    e = data.draw(st.integers(0, 2))
    g = data.draw(_forms(ring, e))
    gens = m.generators
    diagonal = [[g if i == j else ring.zero() for j in range(gens.rank)] for i in range(gens.rank)]
    ambient = GradedMap(gens, gens, diagonal, e).strand_matrix(d)
    if data.draw(st.booleans()):
        ambient = ambient + _random_matrix(data, field, ambient.rows, ambient.cols)
    _same_induced_map(got, strand(m, d + e), want, strand(plain, d + e), ambient)


@pytest.mark.parametrize("field", [FP, QQ], ids=repr)
def test_annihilator_strand_matches_the_whole_presentation_reference(field):
    r = GradedRing(field, ["x", "y"], [1, 1])
    x, y = r.variables()

    def cyclic(*relations):
        return PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, t)] for t in relations])

    # the last two relations are dependent on the first two
    dependent = cyclic("x^2", "x*y", "x^2 + x*y", "x^2")
    summed = module_sum([dependent, cyclic("y^2").twisted(1), PresentedModule.free(FreeModule(r, [-1]))])
    for m in (dependent, summed):
        for f in (x, y, x * y):
            for d in range(-1, 4):
                got = annihilator_strand(m, f, d)
                assert got.dim == kernel_basis(mult_operator(_plain(m), f, d)).cols
                assert got.is_full and got.ambient_dim == got.dim


def test_strand_of_a_sum_of_free_modules_stores_no_square_matrix():
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    m = module_sum_twisted(PresentedModule.free(FreeModule(r, [0])), (0, 1, 2))
    n = sum(len(monomial_basis(r, d)) for d in (40, 41, 42))
    assert n == 2710
    tracemalloc.start()
    try:
        space = strand(m, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n
    assert space.coset_cols == tuple(range(n)) and space.is_full


def test_strand_of_a_quotient_keeps_no_square_matrix():
    # two dense quadrics in k[x,y,z]: a quotient of dim 4 in k^n
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    m = quotient(r, "x^2 + 2*x*y + 3*y^2 + 5*x*z + 7*y*z + 11*z^2",
                 "13*x^2 + 17*x*y + 19*y^2 + 23*x*z + 29*y*z + 31*z^2")
    d = 39
    n = len(monomial_basis(r, d))
    assert n == 820
    m.presentation.strand_matrix(d)  # the relation strand, cached on the presentation
    tracemalloc.start()
    try:
        space = strand(m, d)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < n * n
    assert (space.dim, space.ambient_dim) == (4, n)


def test_strand_matrix_is_assembled_per_call_from_cached_blocks():
    r = ring2()
    entries = [[parse_poly(r, "x^2 + y^2"), parse_poly(r, "x - 3*y")]]
    f = GradedMap(FreeModule(r, [0, 1]), FreeModule(r, [2]), entries)
    first = f.strand_matrix(3)
    blocks = len(r._mult_cache)
    second = f.strand_matrix(3)
    assert second is not first and second == first
    assert len(r._mult_cache) == blocks


def test_strand_eliminates_each_base_module_and_degree_once(monkeypatch):
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    m = PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, "x^2 + y*z")]])
    system = KoszulTowerSystem(r.variables(), m, 4, DIRECT)
    eliminations = []
    needed = set()  # (base module, degree) pairs whose strand takes an elimination
    depth = [0]
    real_rref, real_strand = exact.rref_with_pivots, modules.strand
    real_strand_matrix = GradedMap.strand_matrix

    def counted_rref(matrix):
        if depth[0]:
            eliminations.append(matrix.rows * matrix.cols)
        return real_rref(matrix)

    def counted_strand(module, d):
        if not module.parts and module.presentation.strand_matrix(d).cols:
            needed.add((module, d))
        depth[0] += 1
        try:
            return real_strand(module, d)
        finally:
            depth[0] -= 1

    assembled = []  # every GradedMap whose strand matrix is built

    def recorded_strand_matrix(f, d):
        assembled.append(f)
        return real_strand_matrix(f, d)

    monkeypatch.setattr(exact, "rref_with_pivots", counted_rref)
    monkeypatch.setattr(GradedMap, "strand_matrix", recorded_strand_matrix)
    for owner in (modules, complexes):
        monkeypatch.setattr(owner, "strand", counted_strand)
    for d in range(-6, 3):
        contexts = system.contexts(d)
        for h in range(0, 4):
            system.homology_tower(contexts, h)
    assert {base for base, _ in needed} == {m}
    assert len(eliminations) == len(needed)
    # no term builds the block-diagonal strand of its presentation
    for c in system.complexes:
        for term in c.terms.values():
            assert all(base is m for base, _ in term.parts)
            assert not any(f is term.presentation for f in assembled)
    twice = m.twisted(2).twisted(-5)
    assert twice.parts == ((m, -3),)
    assert all(real_strand(twice, d) is real_strand(m, d - 3) for d in range(-2, 6))
