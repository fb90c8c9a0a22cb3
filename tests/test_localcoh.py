"""Local cohomology and local homology tables against closed forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom import complexes, localcoh
from lochom.complexes import (
    FreeComplex,
    ModuleChainMap,
    ModuleComplex,
    StrandContext,
    homology_induced_matrix,
    homology_table,
    hom_complex,
    shift,
    tensor_chain_maps,
)
from lochom.errors import EmptyGeneratorsError, NonHomogeneousError, WellDefinednessError
from lochom.exact import ExactMatrix, FieldSpec, rank
from lochom.koszul import DIRECT, INVERSE, KoszulSpec, koszul_complex, transition
from lochom.localcoh import (
    KoszulTowerSystem,
    generator_independence_check,
    hom_stable_cech_table,
    local_cohomology_table,
    local_homology_table,
)
from lochom.modules import FreeModule, PresentedModule, TableEntry, hilbert_row
from lochom.rings import GradedRing, Poly, monomial_basis, parse_poly
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


def test_outside_support_flags():
    # every stage is 0-dimensional and every transition 0x0, so each of them is
    # an isomorphism: the cell is settled from stage 1 once s transitions exist
    r = ring(2)
    x, y = r.variables()
    for k_max in range(1, 5):
        for s in range(1, 4):
            t = local_cohomology_table((x, y), free(r), (-2, 4), (-4, 1), k_max=k_max, s=s)
            want = TableEntry(0, True, 1) if k_max - 1 >= s else TableEntry(0, False, k_max)
            outside = [e for (i, d), e in t.items() if i < 0 or i > 2]
            assert len(outside) == 4 * 6
            assert all(e == want for e in outside), (k_max, s)


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


# -- lazy towers: what the stabilization walk builds ----------------------------

def _weighted_quotient():
    """k[x,y,z], weights 1, 2, 3, modulo a form of degree 6."""
    r = GradedRing(FP, ["x", "y", "z"], [1, 2, 3])
    return r, quotient(r, "3*x^6 + 2*x^4*y - x^3*z + 5*x^2*y^2 - 7*x*y*z + y^3 + 4*z^2")


def _computed_homology(monkeypatch):
    """(context, i) of every StrandContext.homology computed, not read from its cache."""
    computed = []
    real = StrandContext.homology

    def counted(self, i):
        if i not in self._homology:
            computed.append((self, i))
        return real(self, i)

    monkeypatch.setattr(StrandContext, "homology", counted)
    return computed


def _is_iso(t):
    return t.rows == t.cols and rank(t) == t.rows


def _walk_stop(tower, s):
    """The lowest stage a truncated colim or lim reads.

    The walk goes from the top down to the first transition that is not an
    isomorphism and reads both its stages; an unstabilized lim reads down to
    level K - s, and a tower too short to stabilize reads no transition for
    a colim.
    """
    k = tower.length
    run = 0
    for t in reversed(tower.transitions):
        if not _is_iso(t):
            break
        run += 1
    if k - 1 >= s and run >= s:
        return max(k - run - 1, 1)
    if tower.direction == "inverse":
        return max(1, k - s)
    return k if k - 1 < s else k - run - 1


@pytest.mark.parametrize("command", ["lc", "lh"])
def test_tables_compute_no_stage_below_the_walk_stop(command, monkeypatch):
    r, module = _weighted_quotient()
    k_max, s = 8, 2
    towers = []
    real_tower = KoszulTowerSystem.homology_tower

    def recorded(self, contexts, h):
        tower = real_tower(self, contexts, h)
        towers.append((contexts, h, tower))
        return tower

    monkeypatch.setattr(KoszulTowerSystem, "homology_tower", recorded)
    computed = _computed_homology(monkeypatch)
    if command == "lh":
        local_homology_table(r.variables(), module, (0, 3), (-2, 8), k_max=k_max, s=s)
    else:
        local_cohomology_table(r.variables(), module, (0, 3), (-12, 0), k_max=k_max, s=s)
    computed = set(computed)  # before the towers are forced below
    stops = []
    for contexts, h, tower in towers:
        stages = {k + 1 for k, ctx in enumerate(contexts) if (ctx, h) in computed}
        stop = _walk_stop(tower, s)
        assert stages == set(range(stop, k_max + 1)), (h, contexts[0].d)
        stops.append(stop)
    assert min(stops) == 1 and max(stops) > 2


def test_composite_builds_no_stage_below_its_target(monkeypatch):
    r, module = _weighted_quotient()
    k_max = 6
    system = KoszulTowerSystem(r.variables(), module, k_max, INVERSE)
    computed = _computed_homology(monkeypatch)
    contexts = system.contexts(6)
    tower = system.homology_tower(contexts, 0)
    assert computed == []
    for l in range(k_max, 1, -1):
        tower.composite(k_max, l)
        assert {ctx for ctx, _ in computed} == set(contexts[l - 1:])
    tower.composite(k_max, 1)
    assert {ctx for ctx, _ in computed} == set(contexts)


def test_a_walked_transition_keeps_its_chain_map_check(monkeypatch):
    # the walk reads the top transition of the H_1 tower first; a chain map
    # bumped there sends a kernel basis vector of the source off the target kernel
    r = ring(2)
    x, y = r.variables()
    module = quotient(r, "x^2")
    job = ((x, y), module, (0, 1), (6, 6), 4)
    local_homology_table(*job)
    real = complexes.coset_level_map
    bumped = []

    def perturbed(f, ctx_src, ctx_dst, i):
        m = real(f, ctx_src, ctx_dst, i)
        kernel, op = ctx_src._kernel_of(i)[0], ctx_dst.op(i)
        if kernel.cols and not op.is_zero():
            row = next(a for a in range(op.cols) if not op.columns([a]).is_zero())
            col = next(b for b in range(kernel.rows) if kernel.entry(b, 0))
            unit = [[int((a, b) == (row, col)) for b in range(m.cols)] for a in range(m.rows)]
            m = m + ExactMatrix.from_rows(m.field, unit, m.cols)
            bumped.append(i)
        return m

    monkeypatch.setattr(complexes, "coset_level_map", perturbed)
    with pytest.raises(WellDefinednessError, match="cycle off the target kernel"):
        local_homology_table(*job)
    assert len(bumped) == 1


def test_a_lazy_transition_of_the_wrong_shape_fails_at_its_first_read(monkeypatch):
    r = ring(2)
    x, y = r.variables()
    system = KoszulTowerSystem((x, y), quotient(r, "x^2"), 4, INVERSE)

    def one_row_too_many(f, ctx_src, ctx_dst, i):
        m = homology_induced_matrix(f, ctx_src, ctx_dst, i)
        return ExactMatrix.zeros(m.field, m.rows + 1, m.cols)

    monkeypatch.setattr(localcoh, "homology_induced_matrix", one_row_too_many)
    tower = system.homology_tower(system.contexts(4), 0)  # nothing is built yet
    for j in (2, 0):
        with pytest.raises(ValueError, match=f"transition {j} has shape"):
            tower.transitions[j]
    with pytest.raises(ValueError, match="transition 2 has shape"):
        lim_lim1_truncated(system.homology_tower(system.contexts(4), 0), 2)


# -- lazy towers against towers built in full -------------------------------------

ORACLE_FIELDS = (FieldSpec(2), FieldSpec(3), FP, FieldSpec(0))


@st.composite
def _form(draw, r):
    """A nonzero homogeneous polynomial of degree 1, 2 or 3."""
    degree = draw(st.sampled_from([d for d in (1, 2, 3) if monomial_basis(r, d)]))
    monomials = draw(st.lists(
        st.sampled_from(monomial_basis(r, degree)), min_size=1, max_size=3, unique=True,
    ))
    p = r.field.characteristic
    coeffs = st.integers(1, p - 1) if p else st.sampled_from((-3, -2, -1, 1, 2, 3))
    return Poly(r, {m: draw(coeffs) for m in monomials})


@st.composite
def _oracle_jobs(draw):
    """A presented module, an ideal, k_max and s small enough for exact runs over Q."""
    nvars = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    r = GradedRing(draw(st.sampled_from(ORACLE_FIELDS)), ["x", "y", "z"][:nvars], weights)
    relations = draw(st.lists(_form(r), max_size=2))
    module = PresentedModule.quotient(
        FreeModule(r, [draw(st.integers(-1, 1))]), [[f] for f in relations]
    )
    gens = tuple(draw(st.lists(_form(r), min_size=1, max_size=2)))
    # the top stage reads degrees k_max * (sum of the generator degrees) away
    k_max = draw(st.integers(1, min(6, 12 // sum(g.degree() for g in gens))))
    return gens, module, k_max, draw(st.integers(1, 3))


def _reference_entry(stages, transitions, s, inverse):
    """Truncated colim (directed) or lim (inverse) of a tower given in full."""
    k = len(stages)
    run = 0
    for t in reversed(transitions):
        if not _is_iso(t):
            break
        run += 1
    stabilized = k - 1 >= s and run >= s
    k_used = k - run if stabilized else k
    if not inverse:
        return TableEntry(stages[-1].dim, stabilized, k_used)
    level = k if stabilized else max(1, k - s)
    composite = ExactMatrix.identity(stages[-1].field, stages[-1].dim)
    for t in reversed(transitions[level - 1:]):
        composite = t @ composite
    return TableEntry(rank(composite), stabilized, k_used)


def _forced_entries(gens, module, k_max, s, convention, hs, d):
    """Entries of the H_h towers at degree d, every stage and transition built first."""
    system = KoszulTowerSystem(gens, module, k_max, convention)
    contexts = system.contexts(d)
    entries = {}
    for h in hs:
        stages = tuple(ctx.homology(h) for ctx in contexts)
        transitions = []
        for j, f in enumerate(system.maps):
            src, tgt = (j, j + 1) if convention == DIRECT else (j + 1, j)
            transitions.append(homology_induced_matrix(f, contexts[src], contexts[tgt], h))
        entries[h] = _reference_entry(stages, tuple(transitions), s, convention == INVERSE)
    return entries


@settings(max_examples=40)
@given(job=_oracle_jobs(), lc_lo=st.integers(-4, 0), lh_lo=st.integers(-1, 3))
def test_lazy_tables_match_towers_built_in_full(job, lc_lo, lh_lo):
    gens, module, k_max, s = job
    n = len(gens)
    i_range = (-1, n + 1)
    lo, hi = KoszulTowerSystem(gens, module, 1, DIRECT).homological_support()

    lc = local_cohomology_table(gens, module, i_range, (lc_lo, lc_lo + 2), k_max, s)
    for d in range(lc_lo, lc_lo + 3):
        want = _forced_entries(gens, module, k_max, s, DIRECT, range(-1, n + 2), d)
        for i in range(-1, n + 2):
            assert lc.get(i, d) == want[n - i], (i, d)

    lh = local_homology_table(gens, module, i_range, (lh_lo, lh_lo + 2), k_max, s)
    outside = TableEntry(0, True, 1)  # a tower outside the homological support
    hs = range(max(-1, lo), min(n + 2, hi) + 1)
    for d in range(lh_lo, lh_lo + 3):
        lims = _forced_entries(gens, module, k_max, s, INVERSE, hs, d)
        for i in range(-1, n + 2):
            lim, gate = lims.get(i, outside), lims.get(i + 1, outside)
            want = TableEntry(lim.dim, lim.stabilized and gate.stabilized,
                              max(lim.k_used, gate.k_used))
            assert lh.get(i, d) == want, (i, d)


@settings(max_examples=30)
@given(
    job=_oracle_jobs(),
    data=st.data(),
    convention=st.sampled_from((DIRECT, INVERSE)),
    stages=st.integers(2, 6),
)
def test_one_stage_has_the_homological_support_of_every_stage(job, data, convention, stages):
    # term i of K(a^k) (x) X is C(n, i) twisted copies of the terms of X for
    # every k, so criterion 5 reads the support off a one-stage system
    gens, module, _, _ = job
    x = module
    if data.draw(st.booleans()):
        r = module.ring
        forms = data.draw(st.lists(_form(r), min_size=1, max_size=2))
        x = shift(koszul_complex(KoszulSpec(r, forms, 1, INVERSE)), data.draw(st.integers(-2, 2)))
    one = KoszulTowerSystem(gens, x, 1, convention).homological_support()
    assert KoszulTowerSystem(gens, x, stages, convention).homological_support() == one
