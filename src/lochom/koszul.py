"""Koszul complexes on power sequences, their transition systems, and the
truncated stable Cech complex.

Two twist conventions coexist because the two transition systems need
homogeneous components in different spots:

* direct   K(a^k) = [R -> R(k deg a)]   (twist on homological degree 0);
  the maps phi^{k,l} (k <= l) are the identity in degree 1 and
  multiplication by a^{l-k} in degree 0, giving a direct system;
* inverse  K(a^k) = [R(-k deg a) -> R]  (twist on homological degree 1);
  the maps psi^{k,l} (k >= l) are multiplication by a^{k-l} in degree 1 and
  the identity in degree 0, giving an inverse system.

The conventions differ by the global twist R(k * sum deg a_i), recorded by
``KoszulSpec.global_twist``.  For n generators the transitions are tensor
products of the one-variable maps.
"""

from __future__ import annotations

from .complexes import (
    ModuleChainMap,
    ModuleComplex,
    cone,
    direct_sum,
    hom_complex,
    homology_table,
    shift,
    tensor,
    tensor_chain_maps,
)
from .errors import (
    ConventionMismatchError,
    NonHomogeneousError,
    OrderError,
    ZeroGeneratorError,
)
from .modules import (
    CheckReport,
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    graded_map_from_blocks,
)
from .rings import GradedRing, Poly

__all__ = [
    "KoszulSpec",
    "koszul_complex",
    "transition",
    "koszul_homology_table",
    "self_duality_check",
    "stable_cech_truncated",
]

DIRECT = "direct"
INVERSE = "inverse"


class KoszulSpec:
    """Generators a_1..a_n, a power k, and a twist convention."""

    __slots__ = ("ring", "gens", "power", "convention")

    def __init__(self, ring: GradedRing, gens, power: int, convention: str = INVERSE):
        gens = tuple(gens)
        if not gens:
            raise ZeroGeneratorError("a Koszul spec needs at least one generator")
        for g in gens:
            if not isinstance(g, Poly) or g.ring != ring:
                raise ValueError("generators must be polynomials over the spec ring")
            if g.is_zero():
                raise ZeroGeneratorError("zero polynomial as Koszul generator")
            if not g.is_homogeneous():
                raise NonHomogeneousError(f"generator {g} is not homogeneous")
            if g.degree() <= 0:
                raise NonHomogeneousError(f"generator {g} must have positive degree")
        if power < 1:
            raise ValueError("power must be >= 1")
        if convention not in (DIRECT, INVERSE):
            raise ValueError(f"unknown convention {convention!r}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "power", int(power))
        object.__setattr__(self, "convention", convention)

    def __setattr__(self, name, value):
        raise AttributeError("KoszulSpec is immutable")

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def global_twist(self) -> int:
        """k * sum deg a_i: the twist separating the two conventions."""
        return self.power * sum(g.degree() for g in self.gens)

    def at_power(self, k: int) -> "KoszulSpec":
        return KoszulSpec(self.ring, self.gens, k, self.convention)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.gens)
        return f"KoszulSpec(({gens})^{self.power}, {self.convention})"


def _one_variable_complex(spec: KoszulSpec, idx: int) -> ModuleComplex:
    ring = spec.ring
    g = spec.gens[idx]
    w = spec.power * g.degree()
    f = g ** spec.power
    if spec.convention == DIRECT:
        src = FreeModule(ring, [0])
        tgt = FreeModule(ring, [w])
    else:
        src = FreeModule(ring, [-w])
        tgt = FreeModule(ring, [0])
    return ModuleComplex.two_term(GradedMap(src, tgt, [[f]]))


def koszul_complex(spec: KoszulSpec) -> ModuleComplex:
    """n-fold tensor of the two-term complexes; term i has rank C(n, i)."""
    result = _one_variable_complex(spec, 0)
    for idx in range(1, spec.n):
        result = tensor(result, _one_variable_complex(spec, idx))
    return result


def _one_variable_transition(spec_k: KoszulSpec, spec_l: KoszulSpec, idx: int) -> ModuleChainMap:
    ring = spec_k.ring
    g = spec_k.gens[idx]
    k, l = spec_k.power, spec_l.power
    ck = _one_variable_complex(spec_k, idx)
    cl = _one_variable_complex(spec_l, idx)
    one = ring.one()
    if spec_k.convention == DIRECT:
        # identity in degree 1, multiplication by a^{l-k} in degree 0
        comp1 = GradedMap(ck.term(1), cl.term(1), [[one]])
        comp0 = GradedMap(ck.term(0), cl.term(0), [[g ** (l - k)]])
    else:
        # multiplication by a^{k-l} in degree 1, identity in degree 0
        comp1 = GradedMap(ck.term(1), cl.term(1), [[g ** (k - l)]])
        comp0 = GradedMap(ck.term(0), cl.term(0), [[one]])
    return ModuleChainMap(ck, cl, {1: comp1, 0: comp0})


def transition(spec_k: KoszulSpec, spec_l: KoszulSpec) -> ModuleChainMap:
    """phi^{k,l} (direct, k <= l) or psi^{k,l} (inverse, k >= l) on K(a^k) -> K(a^l)."""
    if (
        spec_k.ring != spec_l.ring
        or spec_k.gens != spec_l.gens
        or spec_k.convention != spec_l.convention
    ):
        raise ConventionMismatchError("transition endpoints disagree on ring, gens, or convention")
    if spec_k.convention == DIRECT and spec_k.power > spec_l.power:
        raise OrderError("direct transitions need k <= l")
    if spec_k.convention == INVERSE and spec_k.power < spec_l.power:
        raise OrderError("inverse transitions need k >= l")
    result = _one_variable_transition(spec_k, spec_l, 0)
    for idx in range(1, spec_k.n):
        result = tensor_chain_maps(result, _one_variable_transition(spec_k, spec_l, idx))
    return result


def koszul_homology_table(spec: KoszulSpec, module: PresentedModule, window) -> HilbertTable:
    """Dims of H_i(a^k; M)_d for i in [0, n] and d in the window."""
    cx = tensor(koszul_complex(spec), module)
    return homology_table(cx, (0, spec.n), window, k_used=spec.power)


def self_duality_check(spec: KoszulSpec, module: PresentedModule, window) -> CheckReport:
    """Compare H_i(K (x) M)_d with H_{i-n}(Hom(K, M))_{d'} under the twist.

    The internal twist is T = k * sum deg a_i; the correspondence is
    d' = d - T for the inverse convention and d' = d + T for the direct one.
    """
    kc = koszul_complex(spec)
    n = spec.n
    t = spec.global_twist
    sign = -1 if spec.convention == INVERSE else 1
    lo, hi = int(window[0]), int(window[1])
    tensor_side = homology_table(tensor(kc, module), (0, n), (lo, hi))
    hom_side = homology_table(hom_complex(kc, module), (-n, 0), (lo + sign * t, hi + sign * t))
    mismatches = []
    for d in range(lo, hi + 1):
        for i in range(0, n + 1):
            lhs = tensor_side.dim(i, d)
            rhs = hom_side.dim(i - n, d + sign * t)
            if lhs != rhs:
                mismatches.append((i, d, lhs, rhs))
    return CheckReport(mismatches, compared=(hi - lo + 1) * (n + 1), twist=t)


def stable_cech_truncated(gens, k_max: int, ring: GradedRing | None = None) -> ModuleComplex:
    """Truncated homotopy colimit of S^{-n} K(a^k), k = 1..k_max (direct convention).

    Built as Cone(theta) for the finite telescope map
    theta : (+)_{k<k_max} S^{-n} K(a^k) -> (+)_{k<=k_max} S^{-n} K(a^k),
    x_k -> i_k(x_k) - i_{k+1}(phi^{k,k+1}(x_k)).  theta is injective with
    cokernel the terminal stage (degreewise split), so the homology of the
    cone, tensored with any module, equals the stage-k_max Koszul homology.
    """
    gens = tuple(gens)
    if ring is None:
        if not gens:
            raise ZeroGeneratorError("no generators and no ring given")
        ring = gens[0].ring
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    specs = [KoszulSpec(ring, gens, k, DIRECT) for k in range(1, k_max + 1)]
    n = specs[0].n
    stages = [shift(koszul_complex(s), -n) for s in specs]
    b = direct_sum(stages)
    if k_max == 1:
        return cone(ModuleChainMap(ModuleComplex.zero(ring), b, {}))
    sources = stages[:-1]
    b_src = direct_sum(sources)
    transitions = [
        _shifted_transition(specs[k], specs[k + 1], n) for k in range(k_max - 1)
    ]
    neg_one = -1 if ring.field.is_rational else ring.field.characteristic - 1
    components = {}
    for i in b_src.support:
        src_blocks = [st.term(i) for st in sources]
        tgt_blocks = [st.term(i) for st in stages]
        blocks = {}
        for k, st in enumerate(sources):
            if st.term(i).rank == 0:
                continue
            blocks[(k, k)] = GradedMap.identity(st.term(i))
            comp = transitions[k].component(i)
            if comp.source.rank and comp.target.rank:
                blocks[(k + 1, k)] = comp.scale(neg_one)
        components[i] = graded_map_from_blocks(src_blocks, tgt_blocks, blocks)
    theta = ModuleChainMap(b_src, b, components)
    return cone(theta)


def _shifted_transition(spec_k: KoszulSpec, spec_l: KoszulSpec, n: int) -> ModuleChainMap:
    f = transition(spec_k, spec_l)
    src = shift(f.source, -n)
    tgt = shift(f.target, -n)
    comps = {i - n: g for i, g in f.components.items()}
    return ModuleChainMap(src, tgt, comps)
