"""Koszul complexes, transition systems, self-duality, stable Cech truncation."""

from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lochom.complexes import (
    ChainMap,
    ModuleChainMap,
    ModuleComplex,
    StrandContext,
    coset_level_map,
    homology_table,
    quasi_iso_check,
    shift,
    tensor,
    tensor_chain_maps,
    tensor_with_module,
)
from lochom.duality import gm_adjunction_check, koszul_resolution
from lochom.errors import (
    ConventionMismatchError,
    EmptyGeneratorsError,
    InternalInvariantError,
    NonHomogeneousError,
    OrderError,
    ZeroGeneratorError,
)
from lochom.exact import (
    ExactMatrix,
    FieldSpec,
    StrandSpace,
    induced_map,
    kernel_basis,
    rank,
    solve_columns,
)
from lochom.koszul import (
    DIRECT,
    INVERSE,
    KoszulSpec,
    koszul_complex,
    koszul_homology_table,
    self_duality_check,
    stable_cech_truncated,
    transition,
)
from lochom.localcoh import (
    KoszulTowerSystem,
    generator_independence_check,
    hom_stable_cech_table,
    local_cohomology_table,
    local_homology_table,
)
from lochom.modules import FreeModule, GradedMap, PresentedModule, mult_operator, strand
from lochom.rings import GradedRing, Poly, monomial_basis, parse_poly

FP = FieldSpec(32003)


def ring(n):
    return GradedRing(FP, ["x", "y", "z"][:n], [1] * n)


def free(r, twist=0):
    return PresentedModule.free(FreeModule(r, [twist]))


def quotient(r, *texts):
    return PresentedModule.quotient(
        FreeModule(r, [0]), [[parse_poly(r, t)] for t in texts]
    )


def test_spec_validation():
    r = ring(1)
    x = r.variable(0)
    with pytest.raises(EmptyGeneratorsError):
        KoszulSpec(r, (), 1)
    with pytest.raises(ZeroGeneratorError):
        KoszulSpec(r, (r.zero(),), 1)
    with pytest.raises(NonHomogeneousError):
        KoszulSpec(r, (parse_poly(r, "1 + x"),), 1)
    with pytest.raises(NonHomogeneousError):
        KoszulSpec(r, (r.one(),), 1)  # degree zero
    KoszulSpec(r, (x,), 3, DIRECT)


# each entry point that takes an ideal, called on k[x] with the generators given
IDEAL_ENTRY_POINTS = {
    "KoszulSpec": lambda r, gens: KoszulSpec(r, gens, 1),
    "local_cohomology_table": lambda r, gens: local_cohomology_table(gens, free(r), (0, 1), (0, 1)),
    "local_homology_table": lambda r, gens: local_homology_table(gens, free(r), (0, 1), (0, 1)),
    "hom_stable_cech_table": lambda r, gens: hom_stable_cech_table(gens, free(r), 1, (0, 1), (0, 1)),
    "generator_independence_check": lambda r, gens: generator_independence_check(
        gens, r.variables(), free(r), (0, 1), (0, 1)
    ),
    "stable_cech_truncated": lambda r, gens: stable_cech_truncated(gens, 1),
    "koszul_resolution": lambda r, gens: koszul_resolution(gens, (0, 1)),
    "gm_adjunction_check": lambda r, gens: gm_adjunction_check(
        gens, free_stalk(r), free_stalk(r), 1, (0, 1), (0, 1)
    ),
}
BAD_GENERATORS = {
    "none": ((), EmptyGeneratorsError),
    "zero": (("0",), ZeroGeneratorError),
    "inhomogeneous": (("1 + x",), NonHomogeneousError),
    "degree-0": (("1",), NonHomogeneousError),
}


def free_stalk(r):
    return ModuleComplex.stalk(FreeModule(r, [0]))


@pytest.mark.parametrize("entry", sorted(IDEAL_ENTRY_POINTS))
@pytest.mark.parametrize("gens", sorted(BAD_GENERATORS))
def test_every_entry_point_applies_the_same_generator_check(entry, gens):
    r = ring(1)
    texts, error = BAD_GENERATORS[gens]
    with pytest.raises(error):
        IDEAL_ENTRY_POINTS[entry](r, tuple(parse_poly(r, t) for t in texts))


def test_one_generator_inverse_shape():
    r = ring(1)
    x = r.variable(0)
    k = koszul_complex(KoszulSpec(r, (x,), 1, INVERSE))
    assert k.term(1).twists == (-1,)
    assert k.term(0).twists == (0,)
    assert k.differential(1).entries[0, 0] == x


def test_binomial_ranks_and_twists():
    r = ring(2)
    x, y = r.variables()
    for conv in (DIRECT, INVERSE):
        k = koszul_complex(KoszulSpec(r, (x, y), 2, conv))
        assert [k.term(i).rank for i in (0, 1, 2)] == [1, 2, 1]
    k_inv = koszul_complex(KoszulSpec(r, (x, y), 2, INVERSE))
    assert k_inv.term(2).twists == (-4,)
    assert k_inv.term(0).twists == (0,)
    k_dir = koszul_complex(KoszulSpec(r, (x, y), 2, DIRECT))
    assert k_dir.term(0).twists == (4,)
    assert k_dir.term(2).twists == (0,)
    n3 = koszul_complex(KoszulSpec(ring(3), ring(3).variables(), 1, INVERSE))
    assert [n3.term(i).rank for i in range(4)] == [comb(3, i) for i in range(4)]


def test_repeated_generator_homology():
    # H_1(K(x,x) (x) k[x]) is k[x]/(x) shifted by one internal degree
    r = ring(1)
    x = r.variable(0)
    k = koszul_complex(KoszulSpec(r, (x, x), 1, INVERSE))
    t = homology_table(tensor_with_module(k, free(r)), (0, 2), (-1, 4))
    assert {d: t.dim(1, d) for d in range(-1, 5)} == {-1: 0, 0: 0, 1: 1, 2: 0, 3: 0, 4: 0}


def test_transition_identity_and_paper_entries():
    r = ring(1)
    x = r.variable(0)
    s1 = KoszulSpec(r, (x,), 1, DIRECT)
    assert transition(s1, s1) == ChainMap.identity(koszul_complex(s1))
    s3 = s1.at_power(3)
    t = transition(s1, s3)
    # degree-0 component multiplies by a^{l-k} = x^2; degree-1 is the identity
    assert t.component(0).entries[0, 0] == x * x
    assert t.component(1).entries[0, 0] == r.one()
    si3, si1 = (KoszulSpec(r, (x,), k, INVERSE) for k in (3, 1))
    u = transition(si3, si1)
    # inverse: degree-1 component multiplies by a^{k-l} = x^2; degree-0 identity
    assert u.component(1).entries[0, 0] == x * x
    assert u.component(0).entries[0, 0] == r.one()


def test_transition_errors():
    r = ring(1)
    x = r.variable(0)
    with pytest.raises(OrderError):
        transition(KoszulSpec(r, (x,), 3, DIRECT), KoszulSpec(r, (x,), 1, DIRECT))
    with pytest.raises(OrderError):
        transition(KoszulSpec(r, (x,), 1, INVERSE), KoszulSpec(r, (x,), 3, INVERSE))
    with pytest.raises(ConventionMismatchError):
        transition(KoszulSpec(r, (x,), 1, DIRECT), KoszulSpec(r, (x,), 2, INVERSE))


def _compose(f: ModuleChainMap, g: ModuleChainMap) -> ModuleChainMap:
    """f after g, degree by degree."""
    degrees = set(f.components) | set(g.components)
    return ModuleChainMap(
        g.source, f.target, {i: f.component(i).compose(g.component(i)) for i in degrees}
    )


def test_transition_functoriality():
    r = ring(2)
    x, y = r.variables()
    base = KoszulSpec(r, (x, y), 1, DIRECT)
    t12 = transition(base, base.at_power(2))
    t24 = transition(base.at_power(2), base.at_power(4))
    t14 = transition(base, base.at_power(4))
    assert _compose(t24, t12) == t14
    inv = KoszulSpec(r, (x, y), 4, INVERSE)
    u42 = transition(inv, inv.at_power(2))
    u21 = transition(inv.at_power(2), inv.at_power(1))
    assert _compose(u21, u42) == transition(inv, inv.at_power(1))


@pytest.mark.parametrize("field", (FieldSpec(3), FP, FieldSpec(0)), ids=str)
@pytest.mark.parametrize("convention", (DIRECT, INVERSE))
def test_a_koszul_differential_with_one_sign_flipped_fails_d_squared(field, convention):
    # monomial entries +-x_j^k: the d o d check still sees every single flip
    r = GradedRing(field, ["x", "y", "z"], [1, 2, 1])
    kc = koszul_complex(KoszulSpec(r, r.variables(), 2, convention))
    ModuleComplex(r, kc.terms, kc.differentials)
    flips = 0
    for i, f in kc.differentials.items():
        for key, e in f.entries.items():
            diffs = {**kc.differentials, i: GradedMap(f.source, f.target, {**f.entries, key: -e})}
            with pytest.raises(InternalInvariantError, match="d o d"):
                ModuleComplex(r, kc.terms, diffs)
            flips += 1
    assert flips == 3 * 2**2


@pytest.mark.parametrize("convention", (DIRECT, INVERSE))
def test_a_stage_map_with_one_factor_changed_fails_to_commute(convention):
    # the diagonal factors c_S are monomials; changing any one of them, alone,
    # breaks the commutation check
    r = ring(2)
    x, y = r.variables()
    k, l = (1, 3) if convention == DIRECT else (3, 1)
    spec = KoszulSpec(r, (x, y), k, convention)
    system = KoszulTowerSystem((x, y), quotient(r, "x^2"), 2, convention)
    changed = 0
    for t in (transition(spec, spec.at_power(l)), system.maps[0]):
        ModuleChainMap(t.source, t.target, t.components)
        for i, f in t.components.items():
            for key, c in f.entries.items():
                wrong = GradedMap(f.source, f.target, {**f.entries, key: c.scale(2)})
                comps = {**t.components, i: wrong}
                with pytest.raises(InternalInvariantError, match="commute"):
                    ModuleChainMap(t.source, t.target, comps)
                changed += 1
    assert changed == 4 + 4


def test_regular_sequence_table():
    r = ring(2)
    x, y = r.variables()
    t = koszul_homology_table(KoszulSpec(r, (x, y), 1, INVERSE), free(r), (-3, 4))
    nonzero = {k: e.dim for k, e in t.items() if e.dim}
    assert nonzero == {(0, 0): 1}


def test_zero_module_table():
    r = ring(2)
    x, y = r.variables()
    zero = PresentedModule.quotient(FreeModule(r, [0]), [[r.one()]])
    t = koszul_homology_table(KoszulSpec(r, (x, y), 2, INVERSE), zero, (-3, 3))
    assert all(e.dim == 0 for _, e in t.items())


def _annihilator_intersection_dim(module, gens, power, d):
    """Independent oracle: dim of the common kernel of the multiplications."""
    ops = [mult_operator(module, g**power, d) for g in gens]
    stacked = ExactMatrix.vstack(ops)
    return kernel_basis(stacked).cols


def test_top_homology_is_annihilator():
    r = ring(2)
    x, y = r.variables()
    m = quotient(r, "x^2", "x*y")
    power = 1
    spec = KoszulSpec(r, (x, y), power, INVERSE)
    cx = tensor_with_module(koszul_complex(spec), m)
    twist = spec.global_twist
    for d in range(0, 6):
        expected = _annihilator_intersection_dim(m, (x, y), power, d - twist)
        assert StrandContext(cx, d).homology(2).dim == expected


def test_self_duality_small_cases():
    r1 = ring(1)
    x1 = r1.variable(0)
    assert self_duality_check(KoszulSpec(r1, (x1,), 1, INVERSE), free(r1), (-4, 4)).passed
    r = ring(2)
    x, y = r.variables()
    m = quotient(r, "x^2")
    rep = self_duality_check(KoszulSpec(r, (x, y), 2, INVERSE), m, (-4, 6))
    assert rep.passed and rep.twist == 4
    zero = PresentedModule.quotient(FreeModule(r, [0]), [[r.one()]])
    assert self_duality_check(KoszulSpec(r, (x, y), 1, DIRECT), zero, (-3, 3)).passed


def _comb0(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def test_stable_cech_ranks():
    r = ring(2)
    x, y = r.variables()
    for k_max in (1, 3, 6):
        sc = stable_cech_truncated((x, y), k_max)
        n = 2
        for i in range(-n, 2):
            want = (k_max - 1) * _comb0(n, i - 1 + n) + k_max * _comb0(n, i + n)
            assert sc.term(i).rank == want


def test_stable_cech_single_stage():
    r = ring(2)
    x, y = r.variables()
    sc = stable_cech_truncated((x, y), 1)
    stage = shift(koszul_complex(KoszulSpec(r, (x, y), 1, DIRECT)), -2)
    assert homology_table(sc, (-2, 0), (-3, 3)).same_dims(
        homology_table(stage, (-2, 0), (-3, 3))
    )


def test_stable_cech_matches_terminal_stage():
    r = ring(2)
    x, y = r.variables()
    m = quotient(r, "x^2")
    for k_max in (2, 4):
        sc = stable_cech_truncated((x, y), k_max)
        stage = shift(koszul_complex(KoszulSpec(r, (x, y), k_max, DIRECT)), -2)
        left = homology_table(tensor_with_module(sc, m), (-2, 1), (-4, 5))
        right = homology_table(tensor_with_module(stage, m), (-2, 1), (-4, 5))
        assert left.same_dims(right)


# -- the exterior-basis construction against the iterated tensor ---------------

FIELDS = (FieldSpec(2), FieldSpec(3), FP, FieldSpec(0))


@st.composite
def _homogeneous(draw, r, max_exp=2):
    """A nonzero homogeneous polynomial of positive degree: a few monomials of one degree."""
    exps = draw(st.lists(st.integers(0, max_exp), min_size=r.nvars, max_size=r.nvars))
    if not any(exps):
        exps[0] = 1
    monomials = monomial_basis(r, r.exponent_degree(exps))
    picked = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
    p = r.field.characteristic
    coeffs = draw(st.lists(
        st.integers(1, p - 1) if p else st.sampled_from((-3, -2, -1, 1, 2, 3)),
        min_size=len(picked), max_size=len(picked),
    ))
    return Poly(r, dict(zip(picked, coeffs)))


@st.composite
def _ring_and_gens(draw, max_gens=4, max_exp=2, max_vars=3):
    """A weighted ring in two or more variables and up to max_gens generators, repeats allowed."""
    nvars = draw(st.integers(2, max_vars))
    weights = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=nvars, max_size=nvars))
    r = GradedRing(draw(st.sampled_from(FIELDS)), ["x", "y", "z"][:nvars], weights)
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        if gens and draw(st.booleans()):
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(draw(_homogeneous(r, max_exp)))
    return r, tuple(gens)


def _one_variable_complex(r, g, k, convention):
    w = k * g.degree()
    if convention == DIRECT:
        src, tgt = FreeModule(r, [0]), FreeModule(r, [w])
    else:
        src, tgt = FreeModule(r, [-w]), FreeModule(r, [0])
    return ModuleComplex.two_term(GradedMap(src, tgt, [[g**k]]))


def _one_variable_transition(r, g, k, l, convention):
    ck = _one_variable_complex(r, g, k, convention)
    cl = _one_variable_complex(r, g, l, convention)
    if convention == DIRECT:  # identity in degree 1, a^{l-k} in degree 0
        entries = {1: r.one(), 0: g ** (l - k)}
    else:  # a^{k-l} in degree 1, identity in degree 0
        entries = {1: g ** (k - l), 0: r.one()}
    comps = {i: GradedMap(ck.term(i), cl.term(i), [[e]]) for i, e in entries.items()}
    return ModuleChainMap(ck, cl, comps)


@settings(max_examples=60)
@given(data=_ring_and_gens(), powers=st.lists(st.integers(1, 3), min_size=2, max_size=2),
       convention=st.sampled_from((DIRECT, INVERSE)))
def test_koszul_complex_and_transition_match_iterated_tensor(data, powers, convention):
    r, gens = data
    k, l = sorted(powers, reverse=convention == INVERSE)
    spec_k = KoszulSpec(r, gens, k, convention)
    want = reduce(tensor, [_one_variable_complex(r, g, k, convention) for g in gens])
    assert koszul_complex(spec_k) == want
    want_map = reduce(
        tensor_chain_maps, [_one_variable_transition(r, g, k, l, convention) for g in gens]
    )
    assert transition(spec_k, spec_k.at_power(l)) == want_map


@st.composite
def _small_module(draw, r):
    """R(t) modulo at most two homogeneous relations."""
    twist = draw(st.integers(-1, 1))
    relations = draw(st.lists(_homogeneous(r, 1), max_size=2))
    return PresentedModule.quotient(FreeModule(r, [twist]), [[f] for f in relations])


@settings(max_examples=40)
@given(data=st.data(), k_max=st.integers(1, 3))
def test_stable_cech_tensor_module_matches_terminal_stage(data, k_max):
    # three generators too: for odd n the stable Cech stages K(a^k) (x) R, R in
    # degree -n, differ from S^{-n} K(a^k) in the sign of their differential
    r, gens = data.draw(_ring_and_gens(max_gens=3, max_exp=1, max_vars=2))
    module = data.draw(_small_module(r))
    n = len(gens)
    stage = shift(koszul_complex(KoszulSpec(r, gens, k_max, DIRECT)), -n)
    window = (-3, 3)
    left = homology_table(tensor(stable_cech_truncated(gens, k_max), module), (-n, 0), window)
    right = homology_table(tensor(stage, module), (-n, 0), window)
    assert left == right


# -- homology in kernel coordinates against a solved reference -------------------

class _Reference:
    """H_h of each context as the image of d_{h+1}, solved for in a kernel basis of d_h."""

    def __init__(self):
        self._spaces = {}

    def kernel_and_homology(self, ctx, h):
        key = (ctx, h)
        if key not in self._spaces:
            kernel = kernel_basis(ctx.op(h))
            self._spaces[key] = kernel, StrandSpace(solve_columns(kernel, ctx.op(h + 1)))
        return self._spaces[key]

    def dim(self, ctx, h):
        return self.kernel_and_homology(ctx, h)[1].dim

    def induced(self, f, ctx_src, ctx_dst, h):
        k_src, h_src = self.kernel_and_homology(ctx_src, h)
        k_dst, h_dst = self.kernel_and_homology(ctx_dst, h)
        cycles = coset_level_map(f, ctx_src, ctx_dst, h) @ k_src
        return induced_map(h_src, h_dst, solve_columns(k_dst, cycles))


@settings(max_examples=40)
@given(data=st.data(), k_max=st.integers(2, 3), convention=st.sampled_from((DIRECT, INVERSE)))
def test_homology_towers_match_the_solved_kernel_reference(data, k_max, convention):
    r, gens = data.draw(_ring_and_gens(max_gens=3, max_exp=1))
    f = data.draw(_homogeneous(r, 2))
    module = PresentedModule.quotient(FreeModule(r, [0]), [[f]])
    system = KoszulTowerSystem(gens, module, k_max, convention)
    lo, hi = system.homological_support()
    window = (-2, 3)
    ref = _Reference()
    for d in range(window[0], window[1] + 1):
        contexts = system.contexts(d)
        for h in range(lo, hi + 1):
            tower = system.homology_tower(contexts, h)
            assert tower.dims() == tuple(ref.dim(c, h) for c in contexts)
            for j, f_j in enumerate(system.maps):
                src, tgt = (j, j + 1) if convention == DIRECT else (j + 1, j)
                assert tower.transitions[j] == ref.induced(f_j, contexts[src], contexts[tgt], h)
    # a chain map between two stages, against the reference's quasi-isomorphism test
    f_0 = system.maps[0]
    mismatches = []
    for d in range(window[0], window[1] + 1):
        ctx_src, ctx_dst = StrandContext(f_0.source, d), StrandContext(f_0.target, d)
        for h in range(lo, hi + 1):
            dims = (ref.dim(ctx_src, h), ref.dim(ctx_dst, h))
            if dims[0] != dims[1] or (
                dims[0] and rank(ref.induced(f_0, ctx_src, ctx_dst, h)) != dims[0]
            ):
                mismatches.append((h, d))
    report = quasi_iso_check(f_0, (lo, hi), window)
    assert report.mismatches == tuple(mismatches)
    assert report.compared == (hi - lo + 1) * (window[1] - window[0] + 1)
