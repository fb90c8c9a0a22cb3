"""Koszul complexes on power sequences, their transition systems, and the
truncated stable Cech complex.

K(a^k) is built on the exterior basis e_S, S = {S_0 < S_1 < ...} a set of
generator indices, with d(e_S) = sum_p (-1)^p a_{S_p}^k e_{S - S_p}.  Two
twist conventions coexist because the two transition systems need
homogeneous components in different spots:

* direct   e_S has twist k * sum_{j not in S} deg a_j, and phi^{k,l} (k <= l)
  multiplies e_S by prod_{j not in S} a_j^{l-k}: a direct system;
* inverse  e_S has twist -k * sum_{j in S} deg a_j, and psi^{k,l} (k >= l)
  multiplies e_S by prod_{j in S} a_j^{k-l}: an inverse system.

The conventions differ by the global twist R(k * sum deg a_i), recorded by
``KoszulSpec.global_twist``.  The transitions are diagonal, so they are built
between stages that already exist, also when the stages are tensored with X.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .complexes import (
    ModuleChainMap,
    ModuleComplex,
    cone,
    direct_sum,
    hom_complex,
    homology_table,
    shift,
    tensor,
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


def _exterior_basis(n: int):
    """The sets S by size, each size in the X-major order of the iterated tensor:
    the sets holding the last generator first, and so on down."""
    return [
        sorted(combinations(range(n), i), key=lambda s: -sum(1 << j for j in s))
        for i in range(n + 1)
    ]


def koszul_complex(spec: KoszulSpec) -> ModuleComplex:
    """K(a^k) on the exterior basis; term i has rank C(n, i)."""
    ring = spec.ring
    direct = spec.convention == DIRECT
    k = spec.power if direct else -spec.power
    basis = _exterior_basis(spec.n)
    terms = {}
    for i, sets in enumerate(basis):
        # j runs over the generators outside S (direct) or inside S (inverse)
        twists = [
            k * sum(g.degree() for j, g in enumerate(spec.gens) if (j in s) != direct) for s in sets
        ]
        terms[i] = FreeModule(ring, twists)
    powers = [g**spec.power for g in spec.gens]
    diffs = {}
    for i in range(1, spec.n + 1):
        row_of = {s: r for r, s in enumerate(basis[i - 1])}
        entries = {
            (row_of[s[:p] + s[p + 1:]], col): -powers[j] if p % 2 else powers[j]
            for col, s in enumerate(basis[i])
            for p, j in enumerate(s)
        }
        diffs[i] = GradedMap(terms[i], terms[i - 1], entries)
    return ModuleComplex(ring, terms, diffs)


def _stage_map(spec_k: KoszulSpec, spec_l: KoszulSpec, source, target, x_ranks) -> ModuleChainMap:
    """The transition K(a^k) (x) X -> K(a^l) (x) X between two built stages.

    ``x_ranks[t]`` is the rank of X_t.  Term i lists e_S (x) X_t, |S| + t = i,
    by ascending |S| and e_S-major, as ``tensor`` lays it out.  The map is
    diagonal: e_S (x) v goes to c_S e_S (x) v.
    """
    direct = spec_k.convention == DIRECT
    one = spec_k.ring.one()
    powers = [g ** abs(spec_l.power - spec_k.power) for g in spec_k.gens]
    factors = [  # c_S: the product of powers[j] over the j that the twist of e_S runs over
        [prod((f for j, f in enumerate(powers) if (j in s) != direct), start=one) for s in sets]
        for sets in _exterior_basis(spec_k.n)
    ]
    components = {}
    for i in source.support:
        diagonal = [
            c for size, cs in enumerate(factors) for c in cs for _ in range(x_ranks.get(i - size, 0))
        ]
        entries = {(r, r): c for r, c in enumerate(diagonal)}
        components[i] = GradedMap(source.term(i), target.term(i), entries)
    return ModuleChainMap(source, target, components)


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
    return _stage_map(spec_k, spec_l, koszul_complex(spec_k), koszul_complex(spec_l), {0: 1})


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
        _stage_map(specs[k], specs[k + 1], stages[k], stages[k + 1], {-n: 1})
        for k in range(k_max - 1)
    ]
    components = {}
    for i in b_src.support:
        src_blocks = [st.term(i) for st in sources]
        tgt_blocks = [st.term(i) for st in stages]
        blocks = {}
        for k, st in enumerate(sources):
            blocks[(k, k)] = GradedMap.identity(st.term(i))
            blocks[(k + 1, k)] = -transitions[k].component(i)
        components[i] = graded_map_from_blocks(src_blocks, tgt_blocks, blocks)
    theta = ModuleChainMap(b_src, b, components)
    return cone(theta)

