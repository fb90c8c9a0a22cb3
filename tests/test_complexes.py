"""Chain complex calculus: shift, cone, tensor, Hom, homology strands."""

import pytest

from lochom import complexes, exact
from lochom.complexes import (
    ChainMap,
    FreeComplex,
    StrandContext,
    cone,
    hom_complex,
    hom_into_module,
    homology_strand,
    homology_table,
    quasi_iso_check,
    shift,
    tensor,
    tensor_with_module,
)
from lochom.errors import InternalInvariantError, NotFreeError, WellDefinednessError
from lochom.exact import ExactMatrix, FieldSpec
from lochom.modules import FreeModule, GradedMap, PresentedModule, hilbert_row
from lochom.rings import GradedRing, parse_poly

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
        assert homology_strand(c, 0, d).dim == row.dim(0, d)
        assert homology_strand(c, 1, d).dim == 0


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
    dims = {d: homology_strand(c, 1, d).dim for d in range(-1, 6)}
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
            (-1) ** i * homology_strand(c, i, d).dim for i in range(0, 3)
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
        hx = [homology_strand(kx2, i, d).dim for i in range(-1, 3)]
        hy = [homology_strand(kx, i, d).dim for i in range(-1, 3)]
        hc = [homology_strand(c, i, d).dim for i in range(-1, 3)]
        # alternating sum over the triangle vanishes
        assert sum((-1) ** i * (hx[i] - hy[i] + hc[i]) for i in range(4)) == 0
        # exactness bounds each cone dim by its neighbours in the sequence
        for i in range(1, 3):
            assert hc[i] <= hy[i] + hx[i - 1]


def test_hom_complex_dispatches_presented_modules():
    from lochom.complexes import ModuleComplex

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
    assert homology_strand(c, 1, 1).dim == 1
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
