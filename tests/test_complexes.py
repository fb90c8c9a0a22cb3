"""Chain complex calculus: shift, cone, tensor, Hom, homology strands."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import complexes, exact
from lochom.complexes import (
    ChainMap,
    FreeComplex,
    ModuleChainMap,
    ModuleComplex,
    StrandContext,
    cone,
    hom_complex,
    hom_generators,
    hom_into_module,
    hom_summands,
    homology_table,
    quasi_iso_check,
    shift,
    tensor,
    tensor_chain_maps,
    tensor_generators,
    tensor_summands,
    tensor_with_module,
)
from lochom.errors import InternalInvariantError, NotFreeError, WellDefinednessError
from lochom.exact import ExactMatrix, FieldSpec, StrandSpace
from lochom.koszul import DIRECT, INVERSE, KoszulSpec, koszul_complex
from lochom.localcoh import KoszulTowerSystem
from lochom.modules import (
    FreeModule,
    GradedMap,
    PresentedModule,
    graded_map_from_blocks,
    hilbert_row,
    module_sum,
    module_sum_twisted,
)
from lochom.rings import GradedRing, Poly, monomial_basis, parse_poly

FP = FieldSpec(32003)


def ring2():
    return GradedRing(FP, ["x", "y"], [1, 1])


def two_term(r, poly_text, src_twist):
    p = parse_poly(r, poly_text)
    return FreeComplex.two_term(
        GradedMap(FreeModule(r, [src_twist]), FreeModule(r, [0]), [[p]])
    )


def koszul_xy(r):
    return tensor(two_term(r, "x", -1), two_term(r, "y", -1))


def test_d_squared_enforced():
    r = ring2()
    x, y = r.variables()
    f1 = FreeModule(r, [-2])
    f0 = FreeModule(r, [-1])
    fm = FreeModule(r, [0])
    with pytest.raises(InternalInvariantError):
        FreeComplex(
            r,
            {2: f1, 1: f0, 0: fm},
            {2: GradedMap(f1, f0, [[x]]), 1: GradedMap(f0, fm, [[x]])},
        )


def test_shift_zero_and_inverse():
    r = ring2()
    k = koszul_xy(r)
    assert shift(k, 0) == k
    assert shift(shift(k, 3), -3) == k


def test_shift_homology_reindexes():
    r = ring2()
    x = r.variable(0)
    xy = x * r.variable(1)
    c = tensor(two_term(r, "x", -1), two_term(r, "x*y", -2))
    t = homology_table(c, (0, 2), (-1, 5))
    ts = homology_table(shift(c, 2), (2, 4), (-1, 5))
    for (i, d), e in t.items():
        assert ts.dim(i + 2, d) == e.dim
    del x, xy


def test_cone_of_identity_is_exact():
    r = ring2()
    k = koszul_xy(r)
    c = cone(ChainMap.identity(k))
    t = homology_table(c, (-1, 3), (-3, 4))
    assert all(e.dim == 0 for _, e in t.items())


def test_cone_of_multiplication_realizes_quotient():
    r1 = GradedRing(FP, ["x"], [1])
    x = r1.variable(0)
    src = FreeComplex.stalk(FreeModule(r1, [-1]))
    tgt = FreeComplex.stalk(FreeModule(r1, [0]))
    f = ChainMap(src, tgt, {0: GradedMap(FreeModule(r1, [-1]), FreeModule(r1, [0]), [[x]])})
    c = cone(f)
    quot = PresentedModule.quotient(FreeModule(r1, [0]), [[x]])
    row = hilbert_row(quot, (0, 4))
    for d in range(0, 5):
        assert StrandContext(c, d).homology(0).dim == row.dim(0, d)
        assert StrandContext(c, d).homology(1).dim == 0


def test_cone_of_zero_map_splits():
    r = ring2()
    kx = two_term(r, "x", -1)
    ky = two_term(r, "y", -1)
    zero = ChainMap(
        kx, ky, {i: GradedMap.zero(kx.term(i), ky.term(i)) for i in kx.support}
    )
    c = cone(zero)
    expected = homology_table(shift(kx, 1), (0, 2), (-2, 3))
    got = homology_table(c, (0, 2), (-2, 3))
    direct = homology_table(ky, (0, 2), (-2, 3))
    for (i, d), e in got.items():
        assert e.dim == expected.dim(i, d) + direct.dim(i, d)


def test_tensor_with_unit_is_identity():
    r = ring2()
    k = koszul_xy(r)
    unit = FreeComplex.stalk(FreeModule(r, [0]))
    t1 = homology_table(tensor(unit, k), (0, 2), (-2, 3))
    t2 = homology_table(k, (0, 2), (-2, 3))
    assert t1.same_dims(t2)


def test_tensor_koszul_realizes_residue_field():
    r = ring2()
    t = homology_table(koszul_xy(r), (0, 2), (-3, 4))
    nonzero = {k: e.dim for k, e in t.items() if e.dim}
    assert nonzero == {(0, 0): 1}


def test_tensor_detects_non_regularity():
    r = ring2()
    c = tensor(two_term(r, "x", -1), two_term(r, "x*y", -2))
    dims = {d: StrandContext(c, d).homology(1).dim for d in range(-1, 6)}
    assert dims == {-1: 0, 0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}


def test_tensor_associative_on_tables():
    r = ring2()
    a = two_term(r, "x", -1)
    b = two_term(r, "y", -1)
    c = two_term(r, "x+y", -1)
    left = homology_table(tensor(tensor(a, b), c), (0, 3), (-2, 3))
    right = homology_table(tensor(a, tensor(b, c)), (0, 3), (-2, 3))
    assert left.same_dims(right)


def test_tensor_commutative_on_tables():
    r = ring2()
    a = two_term(r, "x^2", -2)
    b = two_term(r, "x*y", -2)
    left = homology_table(tensor(a, b), (0, 2), (-2, 5))
    right = homology_table(tensor(b, a), (0, 2), (-2, 5))
    assert left.same_dims(right)


def test_euler_characteristic_per_degree():
    r = ring2()
    c = tensor(two_term(r, "x", -1), two_term(r, "x*y", -2))
    for d in range(-2, 6):
        chi_terms = sum((-1) ** i * c.term(i).strand_dim(d) for i in range(0, 3))
        chi_homology = sum(
            (-1) ** i * StrandContext(c, d).homology(i).dim for i in range(0, 3)
        )
        assert chi_terms == chi_homology


def test_hom_with_unit_target():
    r = ring2()
    k = koszul_xy(r)
    unit = FreeComplex.stalk(FreeModule(r, [0]))
    h = hom_complex(unit, k)
    assert homology_table(h, (0, 2), (-2, 3)).same_dims(
        homology_table(k, (0, 2), (-2, 3))
    )


def test_hom_of_koszul_is_shifted_twisted_koszul():
    r1 = GradedRing(FP, ["x"], [1])
    kx = FreeComplex.two_term(
        GradedMap(FreeModule(r1, [-1]), FreeModule(r1, [0]), [[r1.variable(0)]])
    )
    h = hom_complex(kx, FreeComplex.stalk(FreeModule(r1, [0])))
    assert sorted(h.terms) == [-1, 0]
    # Sigma^{-1} K(x) up to twist: ranks match degreewise
    assert h.term(-1).rank == 1 and h.term(0).rank == 1
    assert h.term(-1).twists == (1,)


def test_double_dual_preserves_strand_dims():
    r = ring2()
    k = koszul_xy(r)
    unit = FreeComplex.stalk(FreeModule(r, [0]))
    dd = hom_complex(hom_complex(k, unit), unit)
    for i in k.support:
        for d in range(-2, 4):
            assert dd.term(i).strand_dim(d) == k.term(i).strand_dim(d)


def test_hom_into_module_matches_free_route():
    r = ring2()
    k = koszul_xy(r)
    free = PresentedModule.free(FreeModule(r, [0]))
    via_module = homology_table(hom_into_module(k, free), (-2, 0), (-4, 4))
    via_complex = homology_table(
        hom_complex(k, FreeComplex.stalk(FreeModule(r, [0]))), (-2, 0), (-4, 4)
    )
    assert via_module.same_dims(via_complex)


def test_tensor_with_module_matches_free_route():
    r = ring2()
    k = koszul_xy(r)
    free = PresentedModule.free(FreeModule(r, [-1]))
    via_module = homology_table(tensor_with_module(k, free), (0, 2), (-2, 4))
    via_complex = homology_table(
        tensor(k, FreeComplex.stalk(FreeModule(r, [-1]))), (0, 2), (-2, 4)
    )
    assert via_module.same_dims(via_complex)


def test_cone_triangle_dimension_constraints():
    # long exact sequence of X -> Y -> Cone(f) -> SX, strandwise dims
    r = ring2()
    x = r.variable(0)
    kx2 = two_term(r, "x^2", -2)
    kx = two_term(r, "x", -1)
    f = ChainMap(
        kx2,
        kx,
        {
            1: GradedMap(kx2.term(1), kx.term(1), [[x]]),
            0: GradedMap.identity(kx.term(0)),
        },
    )
    c = cone(f)
    for d in range(-2, 5):
        hx = [StrandContext(kx2, d).homology(i).dim for i in range(-1, 3)]
        hy = [StrandContext(kx, d).homology(i).dim for i in range(-1, 3)]
        hc = [StrandContext(c, d).homology(i).dim for i in range(-1, 3)]
        # alternating sum over the triangle vanishes
        assert sum((-1) ** i * (hx[i] - hy[i] + hc[i]) for i in range(4)) == 0
        # exactness bounds each cone dim by its neighbours in the sequence
        for i in range(1, 3):
            assert hc[i] <= hy[i] + hx[i - 1]


def test_hom_complex_dispatches_presented_modules():
    r = ring2()
    k = koszul_xy(r)
    m = PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, "x^2")]])
    via_dispatch = hom_complex(k, m)
    assert isinstance(via_dispatch, ModuleComplex)
    assert homology_table(via_dispatch, (-2, 0), (-3, 3)).same_dims(
        homology_table(hom_into_module(k, m), (-2, 0), (-3, 3))
    )


def test_quasi_iso_check_identity_and_zero():
    r = ring2()
    k = koszul_xy(r)
    assert quasi_iso_check(ChainMap.identity(k), (0, 2), (-2, 2)).passed
    zero = ChainMap(k, k, {i: GradedMap.zero(k.term(i), k.term(i)) for i in k.support})
    report = quasi_iso_check(zero, (0, 2), (-2, 2))
    assert not report.passed
    assert (0, 0) in report.mismatches


def test_operand_types_of_tensor_and_hom():
    r = ring2()
    k = koszul_xy(r)
    m = PresentedModule.quotient(FreeModule(r, [0]), [[parse_poly(r, "x^2")]])
    with pytest.raises(NotFreeError):
        tensor(m, k)
    with pytest.raises(NotFreeError):
        hom_complex(tensor(k, m), k)
    # on the right a presented module is its stalk, and terms stay presented
    cx = tensor(k, m)
    assert cx.module(0) == m and cx.term(0) == m.generators
    assert cx.differential(1).source == cx.term(1)
    with pytest.raises(TypeError):
        tensor(k, FreeModule(r, [0]))


# -- homology in kernel coordinates: its checks and its elimination budget ------

def test_homology_checks_d_squared_on_the_coset_level(monkeypatch):
    r = ring2()
    k = koszul_xy(r)
    original = StrandContext.op

    def perturbed(self, i):
        m = original(self, i)
        return ExactMatrix.from_rows(FP, [[1] * m.cols] * m.rows, cols=m.cols)

    monkeypatch.setattr(StrandContext, "op", perturbed)
    with pytest.raises(WellDefinednessError, match="d_1 d_2 != 0"):
        StrandContext(k, 2).homology(1)


def test_induced_homology_checks_that_cycles_stay_cycles(monkeypatch):
    # K(x, x) over k[x, y]: H_1 in degree 1 is spanned by e_1 - e_2, and the
    # identity plus E_00 sends it to 2e_1 - e_2, whose boundary is x
    r = ring2()
    c = tensor(two_term(r, "x", -1), two_term(r, "x", -1))
    assert StrandContext(c, 1).homology(1).dim == 1
    original = complexes.coset_level_map

    def perturbed(f, ctx_src, ctx_dst, i):
        m = original(f, ctx_src, ctx_dst, i)
        return m + ExactMatrix.from_rows(
            FP, [[int(a == b == 0) for b in range(m.cols)] for a in range(m.rows)], cols=m.cols
        )

    monkeypatch.setattr(complexes, "coset_level_map", perturbed)
    with pytest.raises(WellDefinednessError, match="cycle off the target kernel"):
        quasi_iso_check(ChainMap.identity(c), (1, 1), (1, 1))


def test_homology_eliminates_the_kernel_once_and_the_quotient_in_kernel_coordinates(monkeypatch):
    r = ring2()
    ctx = StrandContext(koszul_xy(r), 3)
    # degree 3: V_2 = R_1, V_1 = R_2^2, V_0 = R_3; d_1 is onto, so dim ker d_1 = 2
    assert (ctx.op(2).rows, ctx.op(2).cols, ctx.op(1).rows) == (6, 2, 4)
    calls = []
    for name in ("rref_with_pivots", "rank"):
        def counted(m, _fn=getattr(exact, name), _name=name):
            calls.append((_name, m.rows))
            return _fn(m)
        monkeypatch.setattr(exact, name, counted)
        monkeypatch.setattr(complexes, name, counted, raising=False)
    assert ctx.homology(1).dim == 0
    assert calls == [("rref_with_pivots", 4), ("rref_with_pivots", 2)]


def _counted_eliminations(monkeypatch):
    calls = []
    for name in ("rref_with_pivots", "rank"):
        def counted(m, _fn=getattr(exact, name), _name=name):
            calls.append((_name, m.rows))
            return _fn(m)
        monkeypatch.setattr(exact, name, counted)
        monkeypatch.setattr(complexes, name, counted, raising=False)
    return calls


def _eliminated_homology(ctx, i):
    """H_i as the quotient elimination builds it, on a fresh context."""
    ref = StrandContext(ctx.complex, ctx.d)
    if ref.space(i).dim == 0:
        return StrandSpace(ExactMatrix.zeros(ctx.complex.ring.field, 0, 0))
    return StrandSpace(ref.op(i + 1).take_rows(ref._kernel_of(i)[1]))


def _assert_same_space(got, want):
    assert (got.dim, got.ambient_dim, got.coset_cols) == (want.dim, want.ambient_dim, want.coset_cols)
    unit = ExactMatrix.identity(want.field, want.ambient_dim)
    assert got.project(unit) == want.project(unit)


def test_a_zero_homology_read_below_its_neighbour_eliminates_only_its_kernel(monkeypatch):
    r = ring2()
    ctx = StrandContext(koszul_xy(r), 3)
    # degree 3: d_2 is one to one, so H_1 = ker d_1 / im d_2 is 2 / 2 = 0
    assert ctx.homology(2).dim == 0
    calls = _counted_eliminations(monkeypatch)
    h = ctx.homology(1)
    assert calls == [("rref_with_pivots", 4)]
    _assert_same_space(h, _eliminated_homology(ctx, 1))
    q = h.project(ExactMatrix.identity(h.field, h.ambient_dim))
    assert (h.ambient_dim, h.is_full, q.rows, q.cols) == (2, False, 0, 2)


def test_a_zero_image_leaves_the_whole_kernel_with_no_quotient_elimination(monkeypatch):
    # K(x, x) (x) R/(x): every differential is a multiple of x, so d_2 is zero
    # on the coset level though V_2 is not
    r = ring2()
    x = parse_poly(r, "x")
    c = tensor(tensor(two_term(r, "x", -1), two_term(r, "x", -1)),
               PresentedModule.quotient(FreeModule(r, [0]), [[x]]))
    ctx = StrandContext(c, 3)
    # degree 3: V_2 = (R/x)_1, V_1 = (R/x)_2^2, V_0 = (R/x)_3, each y-power only
    assert (ctx.op(2).rows, ctx.op(2).cols, ctx.op(1).rows) == (2, 1, 1) and ctx.op(2).is_zero()
    calls = _counted_eliminations(monkeypatch)
    h = ctx.homology(1)
    assert calls == [("rref_with_pivots", 1)]
    assert h.dim == h.ambient_dim == 2 and h.is_full
    _assert_same_space(h, _eliminated_homology(ctx, 1))


def test_a_homology_the_ranks_decide_still_checks_d_squared():
    r = ring2()
    ctx = StrandContext(koszul_xy(r), 3)
    ctx.homology(2)  # the kernel of d_2 is now known, and with it rank d_2
    m = ctx.op(2)
    ctx._ops[2] = ExactMatrix.from_rows(FP, [[1] * m.cols] * m.rows, cols=m.cols)
    with pytest.raises(WellDefinednessError, match="d_1 d_2 != 0"):
        ctx.homology(1)


@st.composite
def _tower_systems(draw):
    """Koszul complexes K(a^k) of one to three forms, regular or not, tensored
    with a presented module, and the maps between their two stages."""
    r = draw(_rings())
    gens = draw(st.lists(_forms(r), min_size=1, max_size=3))
    stalk = draw(_module_stalks(r))
    convention = draw(st.sampled_from((DIRECT, INVERSE)))
    return KoszulTowerSystem(gens, stalk, 2, convention)


def _eliminated_induced(f, ctx_src, ctx_dst, i):
    """The induced matrix on the quotient-eliminated homology spaces."""
    hsrc, hdst = _eliminated_homology(ctx_src, i), _eliminated_homology(ctx_dst, i)
    if hsrc.dim == 0 or hdst.dim == 0:
        return ExactMatrix.zeros(hsrc.field, hdst.dim, hsrc.dim)
    cycles = complexes.coset_level_map(f, ctx_src, ctx_dst, i) @ ctx_src._kernel_of(i)[0]
    return exact.induced_map(hsrc, hdst, cycles.take_rows(ctx_dst._kernel_of(i)[1]))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_homology_in_any_read_order_equals_the_quotient_elimination(data):
    system = data.draw(_tower_systems())
    r = system.complexes[0].ring
    extra = tensor(data.draw(_free_complexes(r, max_gens=2, max_ops=1)), data.draw(_module_stalks(r)))
    degrees = range(-1, 4)
    for c in system.complexes + (extra,):
        lo, hi = min(c.support, default=0) - 1, max(c.support, default=0) + 1
        orders = (
            list(range(lo, hi + 1)),
            list(range(hi, lo - 1, -1)),
            data.draw(st.permutations(range(lo, hi + 1))),
        )
        for d in degrees:
            for order in orders:
                ctx = StrandContext(c, d)
                for i in order:
                    _assert_same_space(ctx.homology(i), _eliminated_homology(ctx, i))
    src, tgt = (0, 1) if system.convention == DIRECT else (1, 0)
    lo, hi = system.homological_support()
    shuffled = data.draw(st.permutations(range(lo, hi + 1)))
    for d in degrees:
        for order in (range(lo, hi + 1), range(hi, lo - 1, -1), shuffled):
            contexts = system.contexts(d)
            for i in order:
                got = complexes.homology_induced_matrix(system.maps[0], contexts[src], contexts[tgt], i)
                assert got == _eliminated_induced(system.maps[0], contexts[src], contexts[tgt], i)


# -- the label layout against the block construction ---------------------------
#
# The reference builds each differential and chain-map component the way the
# constructors did before they read the generator labels: Kronecker products
# with identity maps, and the pre-/post-composition blocks of Hom, assembled by
# graded_map_from_blocks from the (s, t) and s summands.

def _kron_module(a, b):
    return FreeModule(a.ring, [p + q for p in a.twists for q in b.twists])


def _hom_module(a, b):
    return FreeModule(a.ring, [q - p for p in a.twists for q in b.twists])


def _post_compose_block(x_s, dt):
    """Hom(X_s, dt) as identity (x) dt."""
    return GradedMap.identity(FreeModule(x_s.ring, [-a for a in x_s.twists])).tensor(dt)


def _pre_compose_block(dx, values):
    """Hom(dx, V): f -> f o dx."""
    rv = values.rank
    entries = {
        (q * rv + p, q2 * rv + p): e for (q2, q), e in dx.entries.items() for p in range(rv)
    }
    return GradedMap(_hom_module(dx.target, values), _hom_module(dx.source, values), entries)


def _block_differentials(terms, summands, block, images):
    """d_i assembled from the blocks images(i, j) -> [(target summand, block)] of
    the summands j of degree i, each of generator module block(i, j); the
    all-zero blocks, and the all-zero differentials, are dropped."""
    diffs = {}
    for i in terms:
        src, tgt = summands(i), summands(i - 1)
        if not tgt:
            continue
        index = {key: b for b, key in enumerate(tgt)}
        blocks = {
            (index[key], bj): blk
            for bj, j in enumerate(src)
            for key, blk in images(i, j)
            if key in index and not blk.is_zero_map()
        }
        if blocks:
            diffs[i] = graded_map_from_blocks(
                [block(i, j) for j in src], [block(i - 1, j) for j in tgt], blocks
            )
    return diffs


def reference_tensor(x, y):
    terms = {
        i: module_sum([module_sum_twisted(y.module(t), x.term(s).twists)
                       for s, t in tensor_summands(x, y, i)])
        for i in sorted({s + t for s in x.terms for t in y.terms})
    }

    def images(_, pair):
        s, t = pair
        blk = GradedMap.identity(x.term(s)).tensor(y.differential(t))
        return [
            ((s - 1, t), x.differential(s).tensor(GradedMap.identity(y.term(t)))),
            ((s, t - 1), -blk if s % 2 else blk),
        ]

    def block(_, pair):
        return _kron_module(x.term(pair[0]), y.term(pair[1]))

    diffs = _block_differentials(terms, lambda i: tensor_summands(x, y, i), block, images)
    return ModuleComplex(x.ring, terms, diffs)


def reference_hom(x, t):
    terms = {
        i: module_sum([module_sum_twisted(t.module(s + i), [-a for a in x.term(s).twists])
                       for s in hom_summands(x, t, i)])
        for i in sorted({u - s for s in x.terms for u in t.terms})
    }

    def images(i, s):
        pre = _pre_compose_block(x.differential(s + 1), t.term(s + i))
        return [
            (s, _post_compose_block(x.term(s), t.differential(s + i))),
            (s + 1, pre if i % 2 else -pre),
        ]

    def block(i, s):
        return _hom_module(x.term(s), t.term(s + i))

    diffs = _block_differentials(terms, lambda i: hom_summands(x, t, i), block, images)
    return ModuleComplex(x.ring, terms, diffs)


def reference_tensor_chain_maps(f, g):
    sx, sy, tx, ty = f.source, g.source, f.target, g.target
    source, target = reference_tensor(sx, sy), reference_tensor(tx, ty)
    comps = {}
    for i in source.support:
        src, tgt = tensor_summands(sx, sy, i), tensor_summands(tx, ty, i)
        if not tgt:
            continue
        index = {pair: b for b, pair in enumerate(tgt)}
        blocks = {
            (index[s, t], bj): f.component(s).tensor(g.component(t))
            for bj, (s, t) in enumerate(src)
            if (s, t) in index
        }
        comps[i] = graded_map_from_blocks(
            [_kron_module(sx.term(s), sy.term(t)) for s, t in src],
            [_kron_module(tx.term(s), ty.term(t)) for s, t in tgt],
            blocks,
        )
    return ModuleChainMap(source, target, comps)


ORACLE_FIELDS = (FieldSpec(2), FieldSpec(3), FP, FieldSpec(0))


@st.composite
def _rings(draw):
    weights = draw(st.sampled_from(((1, 1), (1, 2))))
    return GradedRing(draw(st.sampled_from(ORACLE_FIELDS)), ["x", "y"], weights)


@st.composite
def _forms(draw, r, degree=None):
    """A nonzero form, of the given degree or of degree 1 or 2."""
    degree = draw(st.integers(1, 2)) if degree is None else degree
    picked = draw(st.lists(st.sampled_from(monomial_basis(r, degree)), min_size=1, max_size=3,
                           unique=True))
    p = r.field.characteristic
    coeffs = st.integers(1, p - 1) if p else st.sampled_from((-2, -1, 1, 3))
    return Poly(r, {m: draw(coeffs) for m in picked})


def _twisted(x, n):
    return ModuleComplex(
        x.ring,
        {i: x.term(i).twisted(n) for i in x.support},
        {i: f.twisted(n) for i, f in x.differentials.items()},
    )


def _multiplication(x, f):
    """Multiplication by the form f, X(-deg f) -> X."""
    src = _twisted(x, -f.degree())
    comps = {
        i: GradedMap(src.term(i), x.term(i), {(a, a): f for a in range(x.term(i).rank)})
        for i in x.support
    }
    return ModuleChainMap(src, x, comps)


@st.composite
def _free_complexes(draw, r, max_gens=3, max_ops=2):
    """A Koszul complex of forms (regular or not), then shifts, twists and cones
    of multiplication maps."""
    gens = draw(st.lists(_forms(r), min_size=1, max_size=max_gens))
    spec = KoszulSpec(r, gens, draw(st.integers(1, 2)), draw(st.sampled_from((DIRECT, INVERSE))))
    x = koszul_complex(spec)
    for op in draw(st.lists(st.sampled_from(("shift", "twist", "cone")), max_size=max_ops)):
        if op == "shift":
            x = shift(x, draw(st.sampled_from((-1, 1, 2))))
        elif op == "twist":
            x = _twisted(x, draw(st.integers(-2, 2)))
        else:
            x = cone(_multiplication(x, draw(_forms(r))))
    return x


@st.composite
def _module_stalks(draw, r):
    """The stalk, in degree -1, 0 or 1, of a module on one or two generators
    with up to two relations."""
    twists = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2))
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        j, f = draw(st.integers(0, len(twists) - 1)), draw(_forms(r))
        relations.append([f if i == j else r.zero() for i in range(len(twists))])
    module = PresentedModule.quotient(FreeModule(r, twists), relations)
    return ModuleComplex.stalk(module, draw(st.integers(-1, 1)))


def _right_factors(r):
    return st.one_of(_module_stalks(r), _free_complexes(r, max_gens=2, max_ops=1))


@settings(max_examples=40)
@given(data=st.data())
def test_tensor_and_hom_write_every_entry_at_its_label(data):
    r = data.draw(_rings())
    x, y = data.draw(_free_complexes(r)), data.draw(_right_factors(r))
    out, ref = tensor(x, y), reference_tensor(x, y)
    assert out.terms == ref.terms
    assert out.differentials == ref.differentials
    for i in out.support:
        labels = tensor_generators(x, y, i)
        want = [x.term(s).twists[a] + y.term(t).twists[b] for s, a, t, b in labels]
        assert list(out.term(i).twists) == want
    out, ref = hom_complex(x, y), reference_hom(x, y)
    assert out.terms == ref.terms
    assert out.differentials == ref.differentials
    for i in out.support:
        labels = hom_generators(x, y, i)
        want = [y.term(s + i).twists[p] - x.term(s).twists[q] for s, q, p in labels]
        assert list(out.term(i).twists) == want


@st.composite
def _free_stalk_maps(draw, r):
    """A random homogeneous matrix between two free stalks in one degree."""
    src, tgt = (FreeModule(r, draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2)))
                for _ in range(2))
    entries = {}
    for a, u in enumerate(tgt.twists):
        for b, v in enumerate(src.twists):
            if u > v and draw(st.booleans()):
                entries[a, b] = draw(_forms(r, u - v))
            elif u == v and draw(st.booleans()):
                entries[a, b] = r.constant(draw(st.integers(1, 2)))
    degree = draw(st.integers(-1, 1))
    source, target = ModuleComplex.stalk(src, degree), ModuleComplex.stalk(tgt, degree)
    return ModuleChainMap(source, target, {degree: GradedMap(src, tgt, entries)})


@settings(max_examples=30)
@given(data=st.data())
def test_tensor_chain_maps_write_every_entry_at_its_label(data):
    r = data.draw(_rings())
    x = data.draw(_free_complexes(r, max_ops=1))
    kind = data.draw(st.sampled_from(("identity", "multiplication", "differential")))
    if kind == "identity":
        f = ModuleChainMap.identity(x)
    elif kind == "multiplication":
        f = _multiplication(x, data.draw(_forms(r)))
    else:  # d : X -> S^1 X, a chain map with off-diagonal entries
        f = ModuleChainMap(x, shift(x, 1), {i: x.differential(i) for i in x.support})
    if data.draw(st.booleans()):
        g = data.draw(_free_stalk_maps(r))
    else:
        g = ModuleChainMap.identity(data.draw(_right_factors(r)))
    assert tensor_chain_maps(f, g) == reference_tensor_chain_maps(f, g)


def _one_variable_transition(r, g, k, l, convention):
    """K(g^k) -> K(g^l) on the two-term complexes: g^|k-l| in the degree that
    carries the twist of the convention, the identity in the other."""
    def two_term(power):
        w = power * g.degree()
        src, tgt = ([0], [w]) if convention == DIRECT else ([-w], [0])
        return ModuleComplex.two_term(
            GradedMap(FreeModule(r, src), FreeModule(r, tgt), [[g**power]])
        )

    ck, cl = two_term(k), two_term(l)
    factor = g ** abs(k - l)
    diagonal = {1: r.one(), 0: factor} if convention == DIRECT else {1: factor, 0: r.one()}
    comps = {i: GradedMap(ck.term(i), cl.term(i), [[e]]) for i, e in diagonal.items()}
    return ModuleChainMap(ck, cl, comps)


@settings(max_examples=15)
@given(data=st.data(), k_max=st.integers(2, 3), convention=st.sampled_from((DIRECT, INVERSE)))
def test_koszul_stage_maps_match_the_block_reference(data, k_max, convention):
    r = data.draw(_rings())
    gens = data.draw(st.lists(_forms(r), min_size=1, max_size=3))
    x = data.draw(_right_factors(r))
    system = KoszulTowerSystem(gens, x, k_max, convention)
    for j, f in enumerate(system.maps):
        k, l = (j + 1, j + 2) if convention == DIRECT else (j + 2, j + 1)
        on_k = reduce(reference_tensor_chain_maps,
                      [_one_variable_transition(r, g, k, l, convention) for g in gens])
        assert f == reference_tensor_chain_maps(on_k, ModuleChainMap.identity(x))
