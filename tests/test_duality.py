"""Matlis dual tables, resolutions, Ext, local duality, and the adjunction."""

import pytest

from lochom.complexes import FreeComplex
from lochom.duality import (
    dualizing_module_check,
    ext_table,
    gm_adjunction_check,
    koszul_resolution,
    local_duality_check,
    matlis_dual_table,
    trivial_resolution,
    validate_resolution,
)
from lochom.errors import NotRegularError, ResolutionValidationError
from lochom.exact import FieldSpec
from lochom.koszul import INVERSE, KoszulSpec, koszul_complex
from lochom.localcoh import local_cohomology_table
from lochom.modules import (
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    TableEntry,
    hilbert_row,
)
from lochom.rings import GradedRing, parse_poly

FP = FieldSpec(32003)


def ring(n):
    return GradedRing(FP, ["x", "y", "z"][:n], [1] * n)


def P(r, text):
    return parse_poly(r, text)


def test_matlis_dual_is_involution():
    table = HilbertTable()
    table.set(0, -2, TableEntry(1, True, 3))
    table.set(1, 4, TableEntry(5, False, 8))
    twice = matlis_dual_table(matlis_dual_table(table))
    assert twice == table


def test_matlis_dual_reflects():
    table = HilbertTable()
    table.set(2, -2, TableEntry(1, True, 0))
    table.set(2, -3, TableEntry(2, True, 0))
    dual = matlis_dual_table(table)
    assert dual.dim(2, 2) == 1 and dual.dim(2, 3) == 2
    # total dimension along each anti-diagonal i + d is preserved under i - d
    def antidiagonal_totals(t, key):
        totals = {}
        for (i, d), e in t.items():
            totals[key(i, d)] = totals.get(key(i, d), 0) + e.dim
        return totals

    assert antidiagonal_totals(table, lambda i, d: i + d) == antidiagonal_totals(
        dual, lambda i, d: i - d
    )


def test_koszul_resolution_principal():
    r = ring(2)
    res = koszul_resolution([P(r, "x^2")], (-6, 6))
    assert res.complex.term(1).twists == (-2,)
    assert res.complex.term(0).twists == (0,)
    assert res.length == 1


def test_koszul_resolution_regular_pair():
    r = ring(2)
    res = koszul_resolution([r.variable(0), r.variable(1)], (-6, 6))
    assert [res.complex.term(i).rank for i in (0, 1, 2)] == [1, 2, 1]
    assert res.complex.term(1).twists == (-1, -1)
    assert res.complex.term(2).twists == (-2,)


def test_koszul_resolution_rejects_non_regular():
    r = ring(2)
    x, y = r.variables()
    with pytest.raises(NotRegularError) as err:
        koszul_resolution([x, x * y], (-4, 6))
    assert err.value.witness is not None
    i, d, dim = err.value.witness
    assert i == 1 and dim >= 1


def test_validate_resolution_accepts_nonminimal():
    # 0 -> R(-3) -> R(-2) (+) R(-1) is not exact; use the honest non-minimal
    # resolution 0 -> R(-3) --(-x, 1)--> R(-2) (+) R(-3) --(x^2, x^3)--> R
    r = ring(1)
    x = r.variable(0)
    f1 = FreeModule(r, [-2, -3])
    f2 = FreeModule(r, [-3])
    d1 = GradedMap(f1, FreeModule(r, [0]), [[x * x, x * x * x]])
    d2 = GradedMap(f2, f1, [[-x], [r.one()]])
    cx = FreeComplex(r, {0: FreeModule(r, [0]), 1: f1, 2: f2}, {1: d1, 2: d2})
    module = PresentedModule.quotient(FreeModule(r, [0]), [[x * x]])
    res = validate_resolution(cx, GradedMap.identity(FreeModule(r, [0])), module, (-4, 6))
    # Ext tables agree with the minimal Koszul resolution on the window
    minimal = koszul_resolution([x * x], (-4, 6))
    left = ext_table(res, -1, (0, 2), (-3, 4))
    right = ext_table(minimal, -1, (0, 2), (-3, 4))
    assert left.same_dims(right)


def test_validate_resolution_rejects_wrong_module():
    r = ring(1)
    x = r.variable(0)
    cx = koszul_complex(KoszulSpec(r, (x,), 2, INVERSE))
    wrong = PresentedModule.quotient(FreeModule(r, [0]), [[x]])
    with pytest.raises(ResolutionValidationError):
        validate_resolution(cx, GradedMap.identity(FreeModule(r, [0])), wrong, (-3, 3))


def test_ext_of_free_module_is_hilbert_row():
    r = ring(2)
    res = trivial_resolution(FreeModule(r, [0]), (-6, 6))
    t = ext_table(res, -2, (0, 0), (-4, 4))
    row = hilbert_row(PresentedModule.free(FreeModule(r, [-2])), (-4, 4))
    for d in range(-4, 5):
        assert t.dim(0, d) == row.dim(0, d)


def test_ext_one_of_hypersurface():
    r = ring(2)
    res = koszul_resolution([P(r, "x^2")], (-6, 8))
    t = ext_table(res, -2, (0, 1), (-3, 4))
    for d in range(-3, 5):
        expected = 1 if d == 0 else (2 if d >= 1 else 0)
        assert t.dim(1, d) == expected
        # Hom(R/(x^2), R(-2)) = 0: the target is torsion-free
        assert t.dim(0, d) == 0


def test_ext_vanishes_beyond_length():
    r = ring(2)
    res = koszul_resolution([P(r, "x^2")], (-6, 6))
    t = ext_table(res, -2, (2, 3), (-4, 4))
    assert all(e.dim == 0 for _, e in t.items())


def test_local_duality_free_module():
    r = ring(2)
    res = trivial_resolution(FreeModule(r, [0]), (-9, 9))
    rep = local_duality_check(res, (0, 2), (-6, 3), k_max=10)
    assert rep.passed and rep.compared > 0
    assert rep.twist == -2


def test_local_duality_hypersurface_closed_form():
    r = ring(2)
    res = koszul_resolution([P(r, "x^2")], (-9, 9))
    rep = local_duality_check(res, (0, 2), (-5, 3), k_max=10)
    assert rep.passed
    # and the closed form itself: H^1 dims 1 at d=0, 2 for d <= -1, 0 for d >= 1
    lhs = local_cohomology_table(r.variables(), res.module, (1, 1), (-5, 3), k_max=10)
    for d in range(-5, 4):
        expected = 1 if d == 0 else (2 if d <= -1 else 0)
        assert lhs.dim(1, d) == expected


def test_local_duality_zero_module_vacuous():
    r = ring(2)
    zero = PresentedModule.quotient(FreeModule(r, [0]), [[r.one()]])
    cx = FreeComplex(
        r,
        {0: FreeModule(r, [0]), 1: FreeModule(r, [0])},
        {1: GradedMap(FreeModule(r, [0]), FreeModule(r, [0]), [[r.one()]])},
    )
    res = validate_resolution(cx, GradedMap.identity(FreeModule(r, [0])), zero, (-4, 4))
    rep = local_duality_check(res, (0, 2), (-3, 3), k_max=8)
    assert rep.passed
    assert all(m == () for m in (rep.mismatches,))


def test_dualizing_module_line_and_plane():
    assert dualizing_module_check(ring(1), (-6, 6), k_max=10).passed
    rep = dualizing_module_check(ring(2), (-6, 6), k_max=10)
    assert rep.passed and rep.compared > 0


def test_dualizing_module_vacuous_window():
    # window where both sides vanish identically still passes
    rep = dualizing_module_check(ring(2), (0, 1), k_max=8)
    assert rep.passed


def test_gm_adjunction_trivial_case():
    r = ring(2)
    x, y = r.variables()
    stalk = FreeComplex.stalk(FreeModule(r, [0]))
    rep = gm_adjunction_check((x, y), stalk, stalk, 3, (-4, 4), (-4, 4))
    assert rep.passed


def test_gm_adjunction_koszul_case():
    r = ring(2)
    x, y = r.variables()
    kc = koszul_complex(KoszulSpec(r, (x, y), 1, INVERSE))
    stalk = FreeComplex.stalk(FreeModule(r, [0]))
    rep = gm_adjunction_check((x, y), kc, stalk, 4, (-6, 6), (-6, 6))
    assert rep.chain_map_valid and rep.strandwise_iso and rep.tables_agree


def test_gm_left_homology_reproduces_ext_data():
    r = ring(2)
    x, y = r.variables()
    res = koszul_resolution([P(r, "x^2")], (-8, 8))
    rep = gm_adjunction_check(
        (x, y), res.complex, FreeComplex.stalk(FreeModule(r, [-2])), 6, (-6, 6), (-6, 6)
    )
    assert rep.passed
    ext = ext_table(res, -2, (1, 1), (0, 5))
    for d in range(0, 6):
        assert rep.left_table.dim(-1, d) == ext.dim(1, d)
