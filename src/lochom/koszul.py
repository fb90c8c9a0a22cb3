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

A convention is named by the direction of its system, ``towers.DIRECT`` or
``towers.INVERSE``, and its towers take that name as their direction.  The
conventions differ by the global twist R(k * sum deg a_i), recorded by
``KoszulSpec.global_twist``.  The transitions are diagonal, so they are built
between stages that already exist, also when the stages are tensored with X:
the factor of each generator is read off its ``tensor_generators`` label.
One builder, ``_stage_system``, gives the stages K(a^k) (x) X, k = 1..k_max,
and their transitions to both systems that read them: ``KoszulTowerSystem``
as towers, X the coefficients, and ``stable_cech_truncated`` as a
telescope, X = R placed in degree -n.

Every construction here, and every table and check built on it, takes an
ideal a = (a_1, ..., a_r) with r >= 1 nonzero homogeneous generators of
positive degree, and ``_checked_gens`` alone checks that: no generators
raise ``EmptyGeneratorsError``, a zero generator ``ZeroGeneratorError``, and
a non-homogeneous one or one of degree <= 0 ``NonHomogeneousError``.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .complexes import (
    ModuleChainMap,
    ModuleComplex,
    _complex,
    cone,
    direct_sum,
    hom_complex,
    homology_table,
    tensor,
    tensor_generators,
)
from .errors import (
    ConventionMismatchError,
    EmptyGeneratorsError,
    NonHomogeneousError,
    OrderError,
    ZeroGeneratorError,
)
from .exact import _Frozen
from .modules import (
    CheckReport,
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    graded_map_from_blocks,
)
from .rings import GradedRing, Poly
from .towers import DIRECT, INVERSE

__all__ = [
    "KoszulSpec",
    "koszul_complex",
    "transition",
    "koszul_homology_table",
    "self_duality_check",
    "stable_cech_truncated",
]


def _checked_gens(gens) -> tuple:
    """``gens`` as a tuple, once there is at least one and each is nonzero,
    homogeneous and of positive degree (see the module docstring)."""
    gens = tuple(gens)
    if not gens:
        raise EmptyGeneratorsError("the ideal needs at least one generator")
    for g in gens:
        if g.is_zero():
            raise ZeroGeneratorError("an ideal generator is the zero polynomial")
        if not g.is_homogeneous() or g.degree() <= 0:
            raise NonHomogeneousError(
                f"ideal generators must be homogeneous of positive degree, got {g}"
            )
    return gens


class KoszulSpec(_Frozen):
    """Generators a_1..a_n, a power k, and a twist convention."""

    __slots__ = ("ring", "gens", "power", "convention")

    def __init__(self, ring: GradedRing, gens, power: int, convention: str = INVERSE):
        gens = tuple(gens)
        if any(not isinstance(g, Poly) or g.ring != ring for g in gens):
            raise ValueError("generators must be polynomials over the spec ring")
        gens = _checked_gens(gens)
        if power < 1:
            raise ValueError("power must be >= 1")
        if convention not in (DIRECT, INVERSE):
            raise ValueError(f"unknown convention {convention!r}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "power", int(power))
        object.__setattr__(self, "convention", convention)

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
    """The sets S by size, each size by descending sum of 2^j over j in S:
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


def _stage_map(
    spec_k: KoszulSpec, spec_l: KoszulSpec, koszul_k, x, source, target
) -> ModuleChainMap:
    """The transition K(a^k) (x) X -> K(a^l) (x) X between two built stages.

    The map is diagonal: e_S (x) v goes to c_S e_S (x) v, at the row of its
    label (|S|, a, t, b) in ``tensor_generators(koszul_k, x, i)``, where e_S is
    generator a of K_{|S|} and v generator b of X_t.
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
        labels = tensor_generators(koszul_k, x, i)
        entries = {(r, r): factors[size][s] for r, (size, s, _, _) in enumerate(labels)}
        components[i] = GradedMap(source.term(i), target.term(i), entries)
    return ModuleChainMap(source, target, components)


def _stage_system(gens, x, k_max: int, convention: str):
    """The stages K(a^k) (x) X, k = 1..k_max, of checked ``gens``, X a complex
    or a module's stalk, and maps[j] from stage j to j + 1 (direct) or from
    j + 1 to j (inverse), counting from 0."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    x = _complex(x)
    specs = [KoszulSpec(gens[0].ring, gens, k, convention) for k in range(1, k_max + 1)]
    koszuls = [koszul_complex(spec) for spec in specs]
    stages = [tensor(kc, x) for kc in koszuls]
    pairs = [(k, k + 1) if convention == DIRECT else (k + 1, k) for k in range(k_max - 1)]
    maps = [_stage_map(specs[s], specs[t], koszuls[s], x, stages[s], stages[t]) for s, t in pairs]
    return stages, maps


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
    source, unit = koszul_complex(spec_k), ModuleComplex.stalk(FreeModule(spec_k.ring, [0]))
    return _stage_map(spec_k, spec_l, source, unit, source, koszul_complex(spec_l))


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
    return CheckReport.compare(tensor_side, lambda i, d: hom_side.dim(i - n, d + sign * t), t)


def stable_cech_truncated(gens, k_max: int) -> ModuleComplex:
    """Truncated homotopy colimit of the stages C_k = K(a^k) (x) R, with R
    placed in degree -n, for k = 1..k_max (direct convention).

    Built as Cone(theta) for the finite telescope map
    theta : (+)_{k<k_max} C_k -> (+)_{k<=k_max} C_k,
    x_k -> i_k(x_k) - i_{k+1}(phi^{k,k+1}(x_k)).  theta is injective with
    cokernel the terminal stage (degreewise split), so the homology of the
    cone, tensored with any module, equals the stage-k_max Koszul homology.
    C_k is S^{-n} K(a^k) up to the sign (-1)^n of its differential, which
    changes no homology.
    """
    gens = _checked_gens(gens)
    ring = gens[0].ring
    unit = ModuleComplex.stalk(FreeModule(ring, [0]), -len(gens))
    stages, transitions = _stage_system(gens, unit, k_max, DIRECT)
    b = direct_sum(stages)
    if k_max == 1:
        return cone(ModuleChainMap(ModuleComplex.zero(ring), b, {}))
    sources = stages[:-1]
    b_src = direct_sum(sources)
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
