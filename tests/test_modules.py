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


def test_strand_eliminates_each_base_module_and_degree_once(monkeypatch):
    r = GradedRing(FP, ["x", "y", "z"], [1, 1, 1])
    m = PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, "x^2 + y*z")]])
    system = KoszulTowerSystem(r.variables(), m, 4, DIRECT)
    eliminations = []
    needed = set()  # (base module, degree) pairs whose strand takes an elimination
    depth = [0]
    real_rref, real_strand = exact.rref_with_pivots, modules.strand

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

    monkeypatch.setattr(exact, "rref_with_pivots", counted_rref)
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
            assert not term.presentation._strand_cache
    twice = m.twisted(2).twisted(-5)
    assert twice.parts == ((m, -3),)
    assert all(real_strand(twice, d) is real_strand(m, d - 3) for d in range(-2, 6))
