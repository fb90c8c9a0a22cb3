"""Free modules, graded maps, presented modules, strand functor."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import complexes, exact, modules
from lochom.errors import NonHomogeneousError, WellDefinednessError
from lochom.exact import QQ, ExactMatrix, FieldSpec, induced_map, kernel_basis, rank
from lochom.koszul import DIRECT, KoszulSpec, koszul_complex
from lochom.localcoh import KoszulTowerSystem
from lochom.modules import (
    FreeModule,
    GradedMap,
    PresentedModule,
    TableEntry,
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


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_monomial_entry_of_the_wrong_degree_is_rejected(field):
    # entries built by the arithmetic carry their kept degree into the check
    r = GradedRing(field, ["x", "y"], [1, 2])
    x, y = r.variables()
    src, tgt = FreeModule(r, [-2, -3]), FreeModule(r, [0])
    GradedMap(src, tgt, {(0, 0): y, (0, 1): -(x * y)})
    for wrong in (x, x**4, -(y * y), x.scale(5) * y * y, r.one()):
        for i, j in ((0, 0), (0, 1)):
            with pytest.raises(NonHomogeneousError, match=rf"entry \({i},{j}\)"):
                GradedMap(src, tgt, {(i, j): wrong})


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


def test_built_tables_maps_and_complexes_refuse_item_writes():
    # their mappings are read-only, so no write can pass the constructors' checks
    r = ring2()
    t = hilbert_row(PresentedModule.free(FreeModule(r, [0])), (-1, 3))
    with pytest.raises(TypeError):
        t.entries[(0, 1)] = TableEntry(-1, True, 0)
    assert t.dim(0, 1) == 2
    x = parse_poly(r, "x")
    c = complexes.ModuleComplex(
        r, {0: FreeModule(r, [0]), 1: FreeModule(r, [-1])},
        {1: GradedMap(FreeModule(r, [-1]), FreeModule(r, [0]), [[x]])},
    )
    f = complexes.ModuleChainMap.identity(c)
    for mapping in (c.differentials[1].entries, c.terms, c.differentials, f.components):
        with pytest.raises(TypeError):
            mapping[0] = None
    assert c.differentials[1].entries == {(0, 0): x} and set(f.components) == {0, 1}


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


@settings(max_examples=40)
@given(data=st.data(), field=st.sampled_from((FieldSpec(2), FieldSpec(3), FP, QQ)))
def test_a_twisted_map_equals_the_checked_constructor_on_its_entries(data, field):
    ring = GradedRing(field, ["x", "y"], data.draw(st.sampled_from([[1, 1], [1, 2]])))
    twists = st.lists(st.integers(-1, 1), max_size=3)
    src_tw, tgt_tw, degree = data.draw(twists), data.draw(twists), data.draw(st.integers(0, 2))
    f = GradedMap(
        FreeModule(ring, src_tw),
        FreeModule(ring, tgt_tw),
        data.draw(_dense_maps(ring, src_tw, tgt_tw, degree)),
        degree,
    )
    n = data.draw(st.integers(-3, 3))
    got = f.twisted(n)
    want = GradedMap(f.source.twisted(n), f.target.twisted(n), f.entries, f.internal_degree)
    assert got == want
    assert (got.source.twists, got.target.twists) == (want.source.twists, want.target.twists)
    d = data.draw(st.integers(-1, 3))
    assert got.strand_matrix(d) == want.strand_matrix(d)
    with pytest.raises(AttributeError):
        got.entries = {}


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
def _base_modules(draw, ring, min_rank=1):
    """A free module, a quotient, or a quotient by zero relation columns only."""
    kind = draw(st.sampled_from(["free", "quotient", "zero relations"]))
    twists = draw(st.lists(st.integers(-2, 1), min_size=min_rank, max_size=min_rank + 1))
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
def _sums(draw, ring, depth=1, min_rank=1):
    """Direct sums of twisted, twice-twisted and nested summands."""
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["base", "twist", "sum"] if depth else ["base", "twist"]))
        if kind == "sum":
            m = draw(_sums(ring, depth - 1, min_rank))
        else:
            m = draw(_base_modules(ring, min_rank))
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


def _same_coset_map(f, source, target, d):
    """The coset map built block by block from projected multiplication
    blocks equals ``induced_map`` of the assembled strand matrix of f, or
    raises the same error; the reference raises only into a nonzero target
    strand out of a nonzero source ambient, a zero source strand included."""
    src, dst = strand(source, d), strand(target, d + f.internal_degree)
    try:
        want = induced_map(src, dst, f.strand_matrix(d))
    except WellDefinednessError as err:
        assert dst.dim and src.ambient_dim
        with pytest.raises(WellDefinednessError, match=str(err)):
            modules._coset_map(f, source, target, d)
        return
    assert modules._coset_map(f, source, target, d) == want


def _map_between(data, ring, source, target, degree):
    """A random map of the given internal degree: each entry zero, plus or
    minus one monomial, or a form with coefficients in -2..2 (one draw of a
    seeded generator, as a map between sums can have many entries)."""
    rnd = data.draw(st.randoms(use_true_random=False))

    def entry(deg):
        basis = monomial_basis(ring, deg) if deg >= 0 else ()
        kind = rnd.randrange(3)
        if not basis or kind == 0:
            return ring.zero()
        if kind == 1:
            return Poly(ring, {rnd.choice(basis): rnd.choice((1, -1))})
        return Poly(ring, {m: rnd.randint(-2, 2) for m in basis})

    rows = [[entry(degree + b - a) for a in source.twists] for b in target.twists]
    return GradedMap(source, target, rows, degree)


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
    # the same multiplication, and a perturbation of it, built from projected blocks
    multiplication = GradedMap(gens, gens, diagonal, e)
    _same_coset_map(multiplication, m, m, d)
    _same_coset_map(multiplication + _map_between(data, ring, gens, gens, e), m, m, d)
    # off-diagonal maps into a second drawn sum, of bases of rank 2 or 3, and back
    other = data.draw(_sums(ring, depth=0, min_rank=2))
    _same_coset_map(_map_between(data, ring, gens, other.generators, e), m, other, d)
    _same_coset_map(_map_between(data, ring, other.generators, gens, e), other, m, d)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_entries_meeting_in_one_quotient_part_are_summed(field):
    # M = R^2 / (x e_1 + y e_2) twice, once twisted: each column of the map
    # R(-1) (+) R -> M(1) (+) M sends its generator into both generators of
    # one part, whose two projected blocks are summed
    r = GradedRing(field, ["x", "y"], [1, 1])
    x, y = r.variables()
    m = PresentedModule.quotient(FreeModule(r, [0, 0]), [[x, y]])
    source = PresentedModule.free(FreeModule(r, [-1, 0]))
    target = module_sum([m.twisted(1), m])
    two = parse_poly(r, "x^2 - 2*x*y")
    f = GradedMap(source.generators, target.generators, [
        [two, x - y],
        [-(y * y), y],
        [x - y, r.one()],
        [y, -r.one()],
    ])
    for d in range(-1, 4):
        _same_coset_map(f, source, target, d)
    assert modules._coset_map(f, source, target, 2).rows == strand(target, 2).dim > 0


@pytest.mark.parametrize("field", [FieldSpec(2), FP, QQ], ids=repr)
def test_a_map_out_of_a_zero_source_strand_is_checked(field, monkeypatch):
    # over k[x], (R/(x))_1 = 0 and (R/(x^2))_1 = <x>: the identity of R sends
    # x, which is 0 in R/(x), to x, which is not 0 in R/(x^2)
    r = GradedRing(field, ["x"], [1])
    x = r.variable(0)
    gens = FreeModule(r, [0])
    r_x, r_x2, free = quotient(r, "x"), quotient(r, "x^2"), PresentedModule.free(gens)
    identity, times_x = GradedMap.identity(gens), GradedMap(gens, gens, {(0, 0): x}, 1)
    assert strand(r_x, 1).dim == 0 < strand(r_x, 1).ambient_dim
    with pytest.raises(WellDefinednessError):
        modules._coset_map(identity, r_x, r_x2, 1)
    # into a zero target strand, or out of a zero source ambient, there is
    # nothing to check, and no block is built
    assert (strand(r_x2, 1).dim, strand(free, -1).ambient_dim, strand(r_x2, 0).dim) == (1, 0, 1)

    def build(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(modules, "mult_matrix", build)
    monkeypatch.setattr(modules, "_projected_block", build)
    assert modules._coset_map(identity, r_x2, r_x, 1) == ExactMatrix.zeros(field, 0, 1)
    assert modules._coset_map(times_x, free, r_x2, -1) == ExactMatrix.zeros(field, 1, 0)


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


def test_coset_map_into_a_quotient_strand_keeps_no_dense_ambient():
    # d_1 of K(x^2, y^2, z^2) (x) R/(two dense quadrics) in degree 20: from
    # M_18^3 into M_20, a 4 x 12 coset map of a 231 x 570 strand matrix
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    m = quotient(r, "x^2 + 2*x*y + 3*y^2 + 5*x*z + 7*y*z + 11*z^2",
                 "13*x^2 + 17*x*y + 19*y^2 + 23*x*z + 29*y*z + 31*z^2")
    c = complexes.tensor(koszul_complex(KoszulSpec(r, r.variables(), 2)), m)
    ctx = complexes.StrandContext(c, 20)
    src, dst = ctx.space(1), ctx.space(0)  # the strands, with their eliminations
    assert (dst.dim, dst.ambient_dim, src.dim, src.ambient_dim) == (4, 231, 12, 570)
    ambient_bytes = dst.ambient_dim * src.ambient_dim * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        op = ctx.op(1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the ring's three dense multiplication blocks alone would hold ambient_bytes
    assert kept < ambient_bytes // 8
    assert op == induced_map(src, dst, c.differential(1).strand_matrix(20))


def test_strand_matrix_is_assembled_per_call_from_cached_blocks():
    r = ring2()
    entries = [[parse_poly(r, "x^2 + y^2"), parse_poly(r, "x - 3*y")]]
    f = GradedMap(FreeModule(r, [0, 1]), FreeModule(r, [2]), entries)
    first = f.strand_matrix(3)
    blocks = len(r._mult_cache)
    second = f.strand_matrix(3)
    assert second is not first and second == first
    assert len(r._mult_cache) == blocks


def _record_top_eliminations(monkeypatch, record):
    """Patch ``exact._eliminate`` to call record(matrix) for each elimination
    that is not part of another: a Schur complement re-enters it."""
    real, depth = exact._eliminate, [0]

    def recorded(matrix):
        if not depth[0]:
            record(matrix)
        depth[0] += 1
        try:
            return real(matrix)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(exact, "_eliminate", recorded)


def test_big_quotient_strand_hands_the_dense_loop_only_the_schur_complement(monkeypatch):
    # R/(two dense quadrics) in degree 10: the elimination of the transposed
    # presentation strand is 90 x 66, and its rows with distinct leading
    # columns are pivots known before any elimination
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    m = quotient(r, "-9*x^2 - 4*x*y + 2*x*z + 3*y^2 - 5*y*z - 8*z^2",
                 "x^2 + 4*x*y + 7*x*z - 6*y^2 - 8*y*z - 5*z^2")
    eliminated, dense = [], []
    real_dense = exact._dense_rref

    def recorded(matrix):
        leads = {next(j for j, v in enumerate(row) if v) for row in matrix.entries if any(row)}
        eliminated.append(((matrix.rows, matrix.cols), len(leads)))

    def recorded_dense(a, p):
        dense.append(a.shape)
        return real_dense(a, p)

    _record_top_eliminations(monkeypatch, recorded)
    monkeypatch.setattr(exact, "_dense_rref", recorded_dense)
    assert strand(m, 10).dim == 4
    [((rows, cols), known)] = eliminated
    assert rows * cols >= 4096 and known > cols // 2
    assert dense and all(c <= cols - known and n <= rows - known for n, c in dense)


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
            tower = system.homology_tower(contexts, h)  # built at each first read
            tuple(tower.stages), tuple(tower.transitions)
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


# -- quotient strands read off the strands below them --------------------------

def _direct(module, d):
    """The space one elimination of the presentation strand gives."""
    return exact.StrandSpace(module.presentation.strand_matrix(d))


def _same_space(got, want):
    assert (got.ambient_dim, got.coset_cols) == (want.ambient_dim, want.coset_cols)
    assert got.is_full == want.is_full
    unit = ExactMatrix.identity(want.field, want.ambient_dim)
    assert got.project(unit) == want.project(unit)


@st.composite
def _presented_modules(draw, field):
    """A quotient of 1-3 twisted generators over 2-3 variables of weight 1-3 by
    dense forms of mixed degrees and powers of the variables."""
    nvars = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    ring = GradedRing(field, ["x", "y", "z"][:nvars], weights)
    twists = draw(st.lists(st.integers(-2, 1), min_size=1, max_size=3))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            # a power of a variable on one generator
            i, j = draw(st.integers(0, len(twists) - 1)), draw(st.integers(0, nvars - 1))
            power = ring.variable(j) ** draw(st.integers(1, 3))
            columns.append([power if g == i else ring.zero() for g in range(len(twists))])
        else:
            source = draw(st.integers(min(twists) - 4, max(twists)))
            columns.append([draw(_forms(ring, a - source)) for a in twists])
    return PresentedModule.quotient(FreeModule(ring, twists), columns)


@settings(max_examples=60)
@given(data=st.data(), field=st.sampled_from([FieldSpec(2), FieldSpec(3), FP, QQ]))
def test_strands_read_off_the_strands_below_equal_one_elimination(data, field):
    m = data.draw(_presented_modules(field))
    degrees = list(range(-3, 10))
    orders = (degrees, degrees[::-1], data.draw(st.permutations(degrees)))
    for order in orders:
        fresh = PresentedModule(m.presentation)
        for d in order:
            _same_space(strand(fresh, d), _direct(m, d))


def test_a_top_strand_over_cached_strands_runs_only_small_eliminations(monkeypatch):
    # R/(two dense quadrics) in degree 26: dim M_e = 4 from e = 3 on, so the
    # inverse system has 3 x 4 unknowns where the direct route eliminates the
    # 650 x 378 presentation strand
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    m = quotient(r, "-9*x^2 - 4*x*y + 2*x*z + 3*y^2 - 5*y*z - 8*z^2",
                 "x^2 + 4*x*y + 7*x*z - 6*y^2 - 8*y*z - 5*z^2")
    for d in range(26):
        strand(m, d)
    shapes = []
    _record_top_eliminations(monkeypatch, lambda matrix: shapes.append((matrix.rows, matrix.cols)))
    space = strand(m, 26)
    assert (space.dim, space.ambient_dim) == (4, 378)
    assert shapes and all(min(shape) <= 12 for shape in shapes)
    constraints, final = shapes
    assert constraints[1] <= 12 and final == (4, 378)
    _same_space(space, _direct(m, 26))


def test_a_strand_far_above_the_cache_is_eliminated_without_recursion():
    # R_{10^4} is spanned by x^100 alone
    r = GradedRing(FP, ["x", "y"], [100, 101])
    m = quotient(r, "y")
    assert strand(m, 10**4).dim == 1
    assert list(m._strand_cache) == [10**4]
