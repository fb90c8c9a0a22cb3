"""Matlis dual tables, resolutions, Ext, local duality, and the adjunction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom.complexes import (
    FreeComplex,
    ModuleChainMap,
    ModuleComplex,
    direct_sum,
    hom_complex,
    hom_summands,
    shift,
    tensor,
    tensor_summands,
)
from lochom.duality import (
    _adjunction_chain_map,
    dualizing_module_check,
    ext_table,
    gm_adjunction_check,
    koszul_resolution,
    local_duality_check,
    matlis_dual_table,
    trivial_resolution,
    validate_resolution,
)
from lochom.errors import NotRegularError, ResolutionValidationError, WellDefinednessError
from lochom.exact import FieldSpec
from lochom.koszul import INVERSE, KoszulSpec, koszul_complex, stable_cech_truncated
from lochom.localcoh import local_cohomology_table
from lochom.modules import (
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    TableEntry,
    hilbert_row,
    module_sum,
)
from lochom.rings import GradedRing, parse_poly

FP = FieldSpec(32003)


def ring(n):
    return GradedRing(FP, ["x", "y", "z"][:n], [1] * n)


def P(r, text):
    return parse_poly(r, text)


def test_matlis_dual_is_involution():
    table = HilbertTable({(0, -2): TableEntry(1, True, 3), (1, 4): TableEntry(5, False, 8)})
    twice = matlis_dual_table(matlis_dual_table(table))
    assert twice == table


def test_matlis_dual_reflects():
    table = HilbertTable({(2, -2): TableEntry(1, True, 0), (2, -3): TableEntry(2, True, 0)})
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


FIELDS = (FieldSpec(2), FP, FieldSpec(0))


def koszul_of(f):
    return koszul_complex(KoszulSpec(f.ring, (f,), 1, INVERSE))


def quotient(r, *gens):
    return PresentedModule.quotient(FreeModule(r, [0]), [[g] for g in gens])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_validate_resolution_refuses_an_augmentation_that_does_not_descend(field):
    # R -> R/(y) does not kill x, and at d = 1 both R/(x)_1 = <y> and
    # (R/(y))_1 = <x> are nonzero, so the well-definedness check sees it
    r = GradedRing(field, ["x", "y"], [1, 1])
    x, y = r.variables()
    identity = GradedMap.identity(FreeModule(r, [0]))
    with pytest.raises(WellDefinednessError):
        validate_resolution(koszul_of(x), identity, quotient(r, y), (0, 2))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_validate_resolution_refuses_a_zero_cokernel_strand_as_no_isomorphism(field):
    # K(x) resolves R/(x), whose strand at d = 1 is 0, while (R/(x^2))_1 = <x>:
    # the dims are compared before the coset map is checked, so the
    # augmentation is refused as not onto rather than as not well defined
    r = GradedRing(field, ["x"], [1])
    x = r.variable(0)
    identity = GradedMap.identity(FreeModule(r, [0]))
    with pytest.raises(ResolutionValidationError, match="not an isomorphism .* at degree 1"):
        validate_resolution(koszul_of(x), identity, quotient(r, x * x), (0, 2))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_validate_resolution_of_a_direct_sum_checks_each_summand(field):
    r = GradedRing(field, ["x", "y"], [1, 1])
    x, y = r.variables()
    cx = direct_sum([koszul_of(x), koszul_of(y)])
    augmentation = GradedMap.identity(FreeModule(r, [0, 0]))
    module = module_sum([quotient(r, x), quotient(r, y)])
    res = validate_resolution(cx, augmentation, module, (-2, 4))
    both = ext_table(res, -2, (0, 2), (-2, 2))
    parts = [ext_table(koszul_resolution([f], (-2, 4)), -2, (0, 2), (-2, 2)) for f in (x, y)]
    assert both.dims() == {key: parts[0].dim(*key) + parts[1].dim(*key) for key in both.dims()}
    # R/(y) -> R/(x, y) is well defined and onto, but kills x at d = 1
    onto = module_sum([quotient(r, x), quotient(r, x, y)])
    with pytest.raises(ResolutionValidationError, match="not an isomorphism"):
        validate_resolution(cx, augmentation, onto, (-2, 4))
    # R/(y) -> R/(x) does not kill y
    swapped = module_sum([quotient(r, x), quotient(r, x)])
    with pytest.raises(WellDefinednessError):
        validate_resolution(cx, augmentation, swapped, (-2, 4))


# (complex, augmentation, module) over k[x, y] that validate_resolution
# refuses before it compares a strand, and the refusal
REFUSED_RESOLUTIONS = {
    "term-below-degree-0": (
        lambda r, x, y: (shift(koszul_complex(KoszulSpec(r, (x, y), 1, INVERSE)), -1),
                         GradedMap.identity(FreeModule(r, [0])), quotient(r, x, y)),
        "resolutions live in homological degrees >= 0",
    ),
    "augmentation-endpoints": (
        lambda r, x, y: (koszul_of(x), GradedMap.identity(FreeModule(r, [1])), quotient(r, x)),
        "augmentation endpoints do not match",
    ),
    "augmentation-of-degree-1": (
        lambda r, x, y: (koszul_of(x), GradedMap(FreeModule(r, [0]), FreeModule(r, [0]), [[y]], 1),
                         quotient(r, x)),
        "augmentation must preserve internal degree",
    ),
    # K(x, x) is not exact: H_1 = R/(x)(-1), first nonzero at d = 1
    "not-exact": (
        lambda r, x, y: (koszul_complex(KoszulSpec(r, (x, x), 1, INVERSE)),
                         GradedMap.identity(FreeModule(r, [0])), quotient(r, x)),
        "homology of the resolution is nonzero at (i=1, d=1): dim 1",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_RESOLUTIONS))
def test_validate_resolution_refuses_what_is_no_resolution(case):
    build, message = REFUSED_RESOLUTIONS[case]
    r = ring(2)
    complex_, augmentation, module = build(r, *r.variables())
    with pytest.raises(ResolutionValidationError) as err:
        validate_resolution(complex_, augmentation, module, (0, 2))
    assert str(err.value) == message


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
    assert rep.iso_failures == () and rep.tables.passed and rep.tables.compared > 0


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


# -- theta entry by entry against a layout computed with running offsets -------

def _reference_adjunction_chain_map(a, x, y):
    """theta with the generator layouts of tensor and hom_complex re-derived
    by running offsets: (A (x) X)_u is (s asc; alpha-major, chi-minor) and
    Hom(S, T)_i is (s asc; source-generator-major, target-generator-minor)."""
    ring = a.ring
    ax = tensor(a, x)
    left = hom_complex(ax, y)
    ha = hom_complex(a, y)
    right = hom_complex(x, ha)
    plus = ring.one()
    minus = ring.constant(-1 if ring.field.is_rational else ring.field.characteristic - 1)
    components = {}
    for i in sorted(set(left.terms) | set(right.terms)):
        entries = {}
        left_offset = 0
        left_index = {}
        for u in hom_summands(ax, y, i):
            ry = y.term(u + i).rank
            q_offset = 0
            for (s, t) in tensor_summands(a, x, u):
                ra = a.term(s).rank
                rx = x.term(t).rank
                for alpha in range(ra):
                    for chi in range(rx):
                        q = q_offset + alpha * rx + chi
                        for p in range(ry):
                            left_index[(s, alpha, t, chi, p)] = left_offset + q * ry + p
                q_offset += ra * rx
            left_offset += ax.term(u).rank * ry
        right_offset = 0
        for t in hom_summands(x, ha, i):
            rha = ha.term(t + i).rank
            for chi in range(x.term(t).rank):
                g_offset = 0
                for s in hom_summands(a, y, t + i):
                    ra = a.term(s).rank
                    ry = y.term(s + t + i).rank
                    for alpha in range(ra):
                        for p in range(ry):
                            lidx = left_index.get((s, alpha, t, chi, p))
                            if lidx is None:
                                continue
                            ridx = right_offset + chi * rha + g_offset + alpha * ry + p
                            entries[ridx, lidx] = plus if (s * t) % 2 == 0 else minus
                    g_offset += ra * ry
            right_offset += x.term(t).rank * rha
        components[i] = GradedMap(left.term(i), right.term(i), entries)
    return ModuleChainMap(left, right, components)


_GEN_TEXTS = ("x", "y", "x+y", "x*y", "x^2", "y^2 - x*y")


@st.composite
def _adjunction_case(draw):
    """A the stable Cech complex (K 1..3, 1-2 generators); X a twisted stalk, a
    Koszul complex or a two-term complex; Y a twisted stalk."""
    r = GradedRing(draw(st.sampled_from((FieldSpec(3), FP, FieldSpec(0)))), ["x", "y"], [1, 1])
    gens = [P(r, t) for t in draw(st.lists(st.sampled_from(_GEN_TEXTS), min_size=1, max_size=2))]
    twists = st.lists(st.integers(-2, 2), min_size=1, max_size=2)
    kind = draw(st.sampled_from(("stalk", "koszul", "two-term")))
    if kind == "stalk":
        x = ModuleComplex.stalk(FreeModule(r, draw(twists)), draw(st.integers(-1, 1)))
    elif kind == "koszul":
        x_gens = [P(r, t) for t in draw(st.lists(st.sampled_from(_GEN_TEXTS), min_size=1, max_size=2))]
        x = koszul_complex(KoszulSpec(r, x_gens, 1, INVERSE))
    else:
        f = P(r, draw(st.sampled_from(_GEN_TEXTS)))
        entry = GradedMap(FreeModule(r, [-f.degree()]), FreeModule(r, [0]), [[f]])
        x = ModuleComplex.two_term(entry, draw(st.integers(0, 2)))
    y = ModuleComplex.stalk(FreeModule(r, draw(twists)), draw(st.integers(-1, 1)))
    a = stable_cech_truncated(gens, draw(st.integers(1, 3)))
    return a, x, y


@settings(max_examples=40)
@given(case=_adjunction_case())
def test_adjunction_map_matches_the_offset_reference(case):
    a, x, y = case
    theta = _adjunction_chain_map(a, x, y)
    want = _reference_adjunction_chain_map(a, x, y)
    assert theta.source == want.source and theta.target == want.target
    assert set(theta.components) == set(want.components)
    for i, f in want.components.items():
        assert theta.component(i).entries == f.entries
