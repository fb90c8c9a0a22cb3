"""Local cohomology and local homology tables against closed forms."""

import pytest

from lochom.complexes import (
    FreeComplex,
    ModuleChainMap,
    ModuleComplex,
    homology_table,
    hom_complex,
    shift,
    tensor_chain_maps,
)
from lochom.errors import EmptyGeneratorsError, NonHomogeneousError
from lochom.exact import FieldSpec
from lochom.koszul import DIRECT, INVERSE, KoszulSpec, koszul_complex, transition
from lochom.localcoh import (
    KoszulTowerSystem,
    generator_independence_check,
    hom_stable_cech_table,
    local_cohomology_table,
    local_homology_table,
)
from lochom.modules import FreeModule, PresentedModule, TableEntry, hilbert_row
from lochom.rings import GradedRing, parse_poly
from lochom.towers import lim_lim1_truncated

FP = FieldSpec(32003)


def ring(n):
    return GradedRing(FP, ["x", "y", "z"][:n], [1] * n)


def free(r, twist=0):
    return PresentedModule.free(FreeModule(r, [twist]))


def quotient(r, *texts):
    return PresentedModule.quotient(
        FreeModule(r, [0]), [[parse_poly(r, t)] for t in texts]
    )


def test_principal_ideal_on_polynomial_line():
    r = ring(1)
    x = r.variable(0)
    t = local_cohomology_table((x,), free(r), (0, 1), (-6, 2), k_max=8)
    for d in range(-6, 3):
        assert t.dim(1, d) == (1 if d <= -1 else 0)
        assert t.dim(0, d) == 0
        assert t.get(1, d).stabilized


def test_maximal_ideal_plane_top_cohomology():
    r = ring(2)
    x, y = r.variables()
    t = local_cohomology_table((x, y), free(r), (0, 2), (-6, 2), k_max=8)
    for d in range(-6, 3):
        assert t.dim(2, d) == max(-d - 1, 0)
        assert t.dim(1, d) == 0 and t.dim(0, d) == 0
        assert all(t.get(i, d).stabilized for i in (0, 1, 2))


def test_torsion_submodule_detected():
    r = ring(2)
    x, y = r.variables()
    m = quotient(r, "x^2", "x*y")
    t = local_cohomology_table((x, y), m, (0, 2), (-3, 4), k_max=8)
    expected = {1: 1}
    for d in range(-3, 5):
        assert t.dim(0, d) == expected.get(d, 0)


def test_outside_support_is_zero():
    r = ring(2)
    x, y = r.variables()
    t = local_cohomology_table((x, y), free(r), (-2, 5), (-4, 1), k_max=6)
    for (i, d), e in t.items():
        if i < 0 or i > 2:
            assert e.dim == 0


def test_non_primary_ideal_unstabilized_entries_are_flagged():
    # H^1_(x)(k[x,y]) strands are infinite-dimensional: truncation must say so
    r = ring(2)
    x, _ = r.variables()
    t = local_cohomology_table((x,), free(r), (1, 1), (-3, 0), k_max=6)
    for d in range(-3, 1):
        assert not t.get(1, d).stabilized


def test_complex_coefficients_match_module_route():
    r = ring(2)
    x, y = r.variables()
    stalk = FreeComplex.stalk(FreeModule(r, [0]))
    via_complex = local_cohomology_table((x, y), stalk, (0, 2), (-5, 1), k_max=8)
    via_module = local_cohomology_table((x, y), free(r), (0, 2), (-5, 1), k_max=8)
    assert via_complex.same_dims(via_module)


def test_local_cohomology_of_shifted_complex():
    # H^i of S^1 X at d equals H^{i+1} of X at d
    r = ring(2)
    x, y = r.variables()
    stalk = FreeComplex.stalk(FreeModule(r, [0]))
    shifted = shift(stalk, 1)
    t_stalk = local_cohomology_table((x, y), stalk, (0, 2), (-5, 0), k_max=8)
    t_shift = local_cohomology_table((x, y), shifted, (-1, 1), (-5, 0), k_max=8)
    for d in range(-5, 1):
        for i in (0, 1, 2):
            assert t_shift.dim(i - 1, d) == t_stalk.dim(i, d)


def test_empty_generators_rejected():
    r = ring(1)
    with pytest.raises(EmptyGeneratorsError):
        local_cohomology_table((), free(r), (0, 1), (0, 1))
    with pytest.raises(NonHomogeneousError):
        local_cohomology_table((r.one(),), free(r), (0, 1), (0, 1))


def test_local_homology_finitely_generated():
    r = ring(2)
    x, y = r.variables()
    for module in (free(r), quotient(r, "x^2"), quotient(r, "x^2", "x*y")):
        lh = local_homology_table((x, y), module, (0, 2), (-2, 6), k_max=10)
        hr = hilbert_row(module, (-2, 6))
        for d in range(-2, 7):
            assert lh.dim(0, d) == hr.dim(0, d)
            assert lh.get(0, d).stabilized
            assert lh.dim(1, d) == 0 and lh.dim(2, d) == 0


def test_local_homology_flag_is_gated_by_the_next_tower():
    # row 0 takes its dim from the H_0 tower, but its flag and k_used from
    # both the H_0 and the H_1 towers
    r = ring(2)
    x = r.variable(0)
    module = quotient(r, "x^2")
    lh = local_homology_table((x,), module, (0, 1), (2, 4), k_max=4, s=2)
    system = KoszulTowerSystem((x,), module, 4, INVERSE)
    for d in range(2, 5):
        contexts = system.contexts(d)
        assert lh.get(0, d) == TableEntry(2, False, 4)
        assert lim_lim1_truncated(system.homology_tower(contexts, 0), 2) == TableEntry(2, True, 2)
        assert lim_lim1_truncated(system.homology_tower(contexts, 1), 2) == TableEntry(0, False, 4)


def test_local_homology_outside_the_support():
    # a row whose tower lies outside the homological support reads a zero,
    # settled tower; row -1 is still gated by the H_0 tower
    r = ring(2)
    x, y = r.variables()
    lh = local_homology_table((x, y), quotient(r, "x^2"), (-1, 3), (0, 1), k_max=1, s=2)
    for d in (0, 1):
        assert lh.get(3, d) == TableEntry(0, True, 1)
        assert lh.get(-1, d) == TableEntry(0, False, 1)


def test_local_cohomology_outside_the_support():
    # lc reports what the top isomorphism run of an all-zero tower gives: at
    # k_max <= s that is unstabilized at the top stage
    r = ring(2)
    x, y = r.variables()
    lc = local_cohomology_table((x, y), quotient(r, "x^2"), (-1, -1), (-2, -1), k_max=1, s=2)
    for d in (-2, -1):
        assert lc.get(-1, d) == TableEntry(0, False, 1)


def test_local_homology_zero_module():
    r = ring(2)
    x, y = r.variables()
    zero = PresentedModule.quotient(FreeModule(r, [0]), [[r.one()]])
    lh = local_homology_table((x, y), zero, (0, 2), (-2, 3))
    assert all(e.dim == 0 for _, e in lh.items())


def test_hom_stable_cech_agrees_with_local_homology():
    r = ring(2)
    x, y = r.variables()
    module = free(r)
    lh = local_homology_table((x, y), module, (0, 2), (-2, 6), k_max=10)
    hsc = hom_stable_cech_table((x, y), module, 6, (0, 2), (-2, 6))
    compared = 0
    for (i, d), e in lh.items():
        if e.stabilized and e.k_used <= 6:
            compared += 1
            assert hsc.dim(i, d) == e.dim
    assert compared > 0


def test_hom_stable_cech_single_stage_reduces_to_koszul():
    r = ring(2)
    x, y = r.variables()
    got = hom_stable_cech_table(
        (x, y), FreeComplex.stalk(FreeModule(r, [0])), 1, (-1, 2), (-4, 4)
    )
    from lochom.koszul import DIRECT

    stage = shift(koszul_complex(KoszulSpec(r, (x, y), 1, DIRECT)), -2)
    want = homology_table(
        hom_complex(stage, FreeComplex.stalk(FreeModule(r, [0]))), (-1, 2), (-4, 4)
    )
    assert got.same_dims(want)


def test_hom_stable_cech_zero_coefficients():
    r = ring(2)
    x, y = r.variables()
    zero = PresentedModule.quotient(FreeModule(r, [0]), [[r.one()]])
    t = hom_stable_cech_table((x, y), zero, 4, (0, 2), (-3, 3))
    assert all(e.dim == 0 for _, e in t.items())


def test_h0_equals_colimit_of_annihilators():
    # dim Gamma_a(M)_d = colim dim (0 :_M (a^k))_d on stabilized entries
    from lochom.exact import ExactMatrix, kernel_basis
    from lochom.modules import mult_operator

    r = ring(2)
    x, y = r.variables()
    m = quotient(r, "x^3", "x*y")
    t = local_cohomology_table((x, y), m, (0, 0), (-1, 5), k_max=8)
    for d in range(-1, 6):
        entry = t.get(0, d)
        assert entry.stabilized
        stacked = ExactMatrix.vstack(
            [mult_operator(m, x**8, d), mult_operator(m, y**8, d)]
        )
        assert entry.dim == kernel_basis(stacked).cols


def test_generator_independence_same_ideal():
    r = ring(2)
    x, y = r.variables()
    rep = generator_independence_check(
        (x, y), (x, y, x + y), free(r), (0, 3), (-5, 2), k_max=8
    )
    assert rep.passed and rep.compared > 0


def test_generator_independence_identical_lists():
    r = ring(2)
    x, y = r.variables()
    rep = generator_independence_check((x, y), (x, y), free(r), (0, 2), (-3, 1), k_max=6)
    assert rep.passed and not rep.mismatches


def test_generator_independence_same_radical_powers():
    r = ring(1)
    x = r.variable(0)
    rep = generator_independence_check(
        (x,), (x * x,), free(r), (0, 1), (-6, 2), k_max=8
    )
    assert rep.passed and rep.compared > 0


@pytest.mark.parametrize("convention", [DIRECT, INVERSE])
def test_tower_system_builds_each_stage_once(convention, monkeypatch):
    built = {ModuleComplex: 0, ModuleChainMap: 0}
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    r = ring(3)
    x, y, z = r.variables()
    gens = (x, y * z, x * x)
    # two generators, so that the layout of e_S (x) v inside a term matters
    module = PresentedModule.quotient(FreeModule(r, [0, 1]), [[x, y * z]])
    k_max = 4
    system = KoszulTowerSystem(gens, module, k_max, convention)
    # one Koszul complex and one tensor per stage, one stalk for the module
    assert built[ModuleComplex] <= 2 * k_max + 1
    assert built[ModuleChainMap] == k_max - 1
    for j, f in enumerate(system.maps):
        src, tgt = (j, j + 1) if convention == DIRECT else (j + 1, j)
        assert f.source is system.complexes[src] and f.target is system.complexes[tgt]
        spec_src, spec_tgt = (KoszulSpec(r, gens, k + 1, convention) for k in (src, tgt))
        assert f == tensor_chain_maps(transition(spec_src, spec_tgt), ModuleChainMap.identity(module))
