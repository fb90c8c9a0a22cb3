"""Bounded complexes of presented modules and their functorial calculus.

Sign conventions, fixed once for the whole engine (only homology dimensions
are contractual, but every constructor checks d(d(x)) = 0 as a polynomial
identity, so the conventions must be coherent):

* shift:   (S^n X)_i = X_{i-n}, differential multiplied by (-1)^n;
* cone:    Cone(f)_i = X_{i-1} (+) Y_i, differential [[-dX, 0], [f, dY]];
* tensor:  d(x (x) y) = dx (x) y + (-1)^s x (x) dy for x in X_s;
* Hom:     (df)(x) = d(f(x)) - (-1)^{|f|} f(dx), Hom(R(a), R(b)) = R(b-a).

There is one complex type, :class:`ModuleComplex`, whose terms are presented
modules (a free term is the cokernel of the empty presentation).  A
differential is carried by a polynomial matrix between the generator modules,
and all strandwise homology runs through :class:`StrandContext`.  Wherever a
complex is expected, a presented module stands for its stalk in degree 0.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InternalInvariantError, NotFreeError, WellDefinednessError
from .exact import ExactMatrix, StrandSpace, _kernel, induced_map, rank
from .modules import (
    CheckReport,
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    TableEntry,
    _tensor_module,
    degree_window,
    graded_map_from_blocks,
    module_sum,
    module_sum_twisted,
    strand,
)
from .rings import GradedRing

__all__ = [
    "FreeComplex",
    "ChainMap",
    "ModuleComplex",
    "ModuleChainMap",
    "shift",
    "cone",
    "tensor",
    "hom_complex",
    "direct_sum",
    "tensor_chain_maps",
    "tensor_with_module",
    "hom_into_module",
    "tensor_map_with_module",
    "StrandContext",
    "homology_strand",
    "homology_table",
    "homology_induced_matrix",
    "quasi_iso_check",
]


def _sign_of(ring: GradedRing, n: int):
    return 1 if n % 2 == 0 else (-1 if ring.field.is_rational else ring.field.characteristic - 1)


class ModuleComplex:
    """Finitely supported complex {terms[i]} with differentials term i -> term i-1.

    Terms are presented modules; a free module given as a term is stored as
    the cokernel of its empty presentation.  Differentials are polynomial
    matrices between the generator modules, so ``term(i)`` (the generators)
    is what every differential and chain-map component is typed against, and
    ``module(i)`` is the presented term that strands are taken of.
    """

    __slots__ = ("ring", "terms", "differentials", "_empty")

    def __init__(self, ring: GradedRing, terms: dict, differentials: dict):
        clean_terms = {}
        for i, m in terms.items():
            if isinstance(m, FreeModule):
                m = PresentedModule.free(m)
            if m.ring != ring:
                raise ValueError("term over the wrong ring")
            if m.generators.rank > 0:
                clean_terms[int(i)] = m
        clean_diffs = {}
        for i, f in differentials.items():
            i = int(i)
            if f is None or f.source.rank == 0 or f.target.rank == 0:
                continue
            if f.internal_degree != 0:
                raise ValueError("differentials must have internal degree 0")
            src = clean_terms.get(i)
            tgt = clean_terms.get(i - 1)
            if src is None or tgt is None or f.source != src.generators or f.target != tgt.generators:
                raise ValueError(f"differential at {i} does not match adjacent terms")
            clean_diffs[i] = f
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean_terms)
        object.__setattr__(self, "differentials", clean_diffs)
        object.__setattr__(self, "_empty", PresentedModule.free(FreeModule(ring, ())))
        for i, f in clean_diffs.items():
            g = clean_diffs.get(i + 1)
            if g is not None and not f.compose(g).is_zero_map():
                raise InternalInvariantError(f"d o d != 0 at homological degree {i + 1}")

    def __setattr__(self, name, value):
        raise AttributeError("ModuleComplex is immutable")

    @property
    def support(self):
        return tuple(sorted(self.terms))

    def module(self, i: int) -> PresentedModule:
        """The presented term in degree i."""
        return self.terms.get(i, self._empty)

    def term(self, i: int) -> FreeModule:
        """The generators of the term in degree i."""
        return self.module(i).generators

    def differential(self, i: int) -> GradedMap:
        f = self.differentials.get(i)
        if f is None:
            return GradedMap.zero(self.term(i), self.term(i - 1))
        return f

    def __eq__(self, other):
        return (
            isinstance(other, ModuleComplex)
            and self.ring == other.ring
            and self.terms == other.terms
            and self.differentials == other.differentials
        )

    def __repr__(self):
        ranks = {i: m.generators.rank for i, m in sorted(self.terms.items())}
        return f"ModuleComplex(ranks {ranks})"

    @classmethod
    def stalk(cls, module, degree: int = 0) -> "ModuleComplex":
        return cls(module.ring, {degree: module}, {})

    @classmethod
    def zero(cls, ring: GradedRing) -> "ModuleComplex":
        return cls(ring, {}, {})

    @classmethod
    def two_term(cls, entry_map: GradedMap, top_degree: int = 1) -> "ModuleComplex":
        """[source -> target] with the source in homological degree top_degree."""
        return cls(
            entry_map.ring,
            {top_degree: entry_map.source, top_degree - 1: entry_map.target},
            {top_degree: entry_map},
        )


def _complex(c) -> ModuleComplex:
    """A presented module stands for its stalk complex in degree 0."""
    if isinstance(c, PresentedModule):
        return ModuleComplex.stalk(c)
    if isinstance(c, ModuleComplex):
        return c
    raise TypeError(f"expected a complex or a presented module, got {type(c).__name__}")


def _require_free(x: ModuleComplex, operation: str) -> None:
    for i, m in x.terms.items():
        if m.relations.rank:
            raise NotFreeError(f"{operation} needs free terms on the left; term {i} is presented")


class ModuleChainMap:
    """Degree-0 morphism of complexes carried by generator-level matrices."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: ModuleComplex, target: ModuleComplex, components: dict):
        comps = {}
        for i, f in components.items():
            i = int(i)
            if f is None or (f.source.rank == 0 and f.target.rank == 0):
                continue
            if f.source != source.term(i) or f.target != target.term(i):
                raise ValueError(f"component at {i} does not match the complexes")
            if f.internal_degree != 0:
                raise ValueError("chain map components must have internal degree 0")
            comps[i] = f
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", comps)
        for i in source.support:
            left = self.component(i - 1).compose(source.differential(i))
            right = target.differential(i).compose(self.component(i))
            if left.entries != right.entries:
                raise InternalInvariantError(f"chain map fails to commute at degree {i}")

    def __setattr__(self, name, value):
        raise AttributeError("ModuleChainMap is immutable")

    def component(self, i: int) -> GradedMap:
        f = self.components.get(i)
        if f is None:
            return GradedMap.zero(self.source.term(i), self.target.term(i))
        return f

    @classmethod
    def identity(cls, x) -> "ModuleChainMap":
        x = _complex(x)
        return cls(x, x, {i: GradedMap.identity(x.term(i)) for i in x.support})

    def compose(self, other: "ModuleChainMap") -> "ModuleChainMap":
        if other.target != self.source:
            raise ValueError("chain map composition endpoint mismatch")
        degrees = set(self.components) | set(other.components)
        return ModuleChainMap(
            other.source,
            self.target,
            {i: self.component(i).compose(other.component(i)) for i in degrees},
        )

    def __eq__(self, other):
        if not isinstance(other, ModuleChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        degrees = set(self.components) | set(other.components)
        return all(self.component(i) == other.component(i) for i in degrees)


# Older names of the one complex type and the one chain-map type, kept
# resolvable for code that imports them.
FreeComplex = ModuleComplex
ChainMap = ModuleChainMap


# -- constructors ------------------------------------------------------------

def shift(x: ModuleComplex, n: int) -> ModuleComplex:
    """(S^n X)_i = X_{i-n} with differential scaled by (-1)^n."""
    sign = _sign_of(x.ring, n)
    terms = {i + n: m for i, m in x.terms.items()}
    diffs = {i + n: (f if sign == 1 else f.scale(sign)) for i, f in x.differentials.items()}
    return ModuleComplex(x.ring, terms, diffs)


def cone(f: ModuleChainMap) -> ModuleComplex:
    """Mapping cone: Cone(f)_i = X_{i-1} (+) Y_i, d = [[-dX, 0], [f, dY]]."""
    x, y = f.source, f.target
    ring = x.ring
    neg = _sign_of(ring, 1)
    degrees = sorted(set(i + 1 for i in x.terms) | set(y.terms))
    terms = {i: module_sum([x.module(i - 1), y.module(i)]) for i in degrees}
    diffs = {}
    for i in degrees:
        src = (x.term(i - 1), y.term(i))
        tgt = (x.term(i - 2), y.term(i - 1))
        blocks = {}
        dx = x.differential(i - 1)
        if dx.source.rank and dx.target.rank:
            blocks[(0, 0)] = dx.scale(neg)
        comp = f.component(i - 1)
        if comp.source.rank and comp.target.rank:
            blocks[(1, 0)] = comp
        dy = y.differential(i)
        if dy.source.rank and dy.target.rank:
            blocks[(1, 1)] = dy
        if blocks:
            diffs[i] = graded_map_from_blocks(list(src), list(tgt), blocks)
    return ModuleComplex(ring, terms, diffs)


def tensor_summands(x: ModuleComplex, y: ModuleComplex, i: int):
    """Ordered (s, t) pairs with s+t=i contributing to (X (x) Y)_i."""
    return [(s, i - s) for s in x.support if (i - s) in y.terms]


def tensor(x, y) -> ModuleComplex:
    """X (x) Y with the Koszul sign (-1)^s on the second differential.

    X must have free terms; Y may have presented ones, and a presented module
    for Y means its stalk.  (X_s (x) Y_t) = (+)_p Y_t(a_p) over the twists a_p
    of X_s, generators X-major.
    """
    x, y = _complex(x), _complex(y)
    if x.ring != y.ring:
        raise ValueError("tensor over different rings")
    _require_free(x, "tensor")
    ring = x.ring
    degrees = sorted({s + t for s in x.terms for t in y.terms})
    terms = {}
    for i in degrees:
        mods = [module_sum_twisted(y.module(t), x.term(s).twists) for s, t in tensor_summands(x, y, i)]
        if mods:
            terms[i] = module_sum(mods)
    diffs = {}
    for i in degrees:
        src_pairs = tensor_summands(x, y, i)
        tgt_pairs = tensor_summands(x, y, i - 1)
        if not src_pairs or not tgt_pairs:
            continue
        src_blocks = [_tensor_module(x.term(s), y.term(t)) for s, t in src_pairs]
        tgt_blocks = [_tensor_module(x.term(s), y.term(t)) for s, t in tgt_pairs]
        tgt_index = {pair: b for b, pair in enumerate(tgt_pairs)}
        blocks = {}
        for bj, (s, t) in enumerate(src_pairs):
            bi = tgt_index.get((s - 1, t))
            if bi is not None:
                dx = x.differential(s)
                blk = dx.tensor(GradedMap.identity(y.term(t)))
                if not blk.is_zero_map():
                    blocks[(bi, bj)] = blk
            bi = tgt_index.get((s, t - 1))
            if bi is not None:
                dy = y.differential(t)
                blk = GradedMap.identity(x.term(s)).tensor(dy)
                sign = _sign_of(ring, s)
                if sign != 1:
                    blk = blk.scale(sign)
                if not blk.is_zero_map():
                    blocks[(bi, bj)] = blk
        if blocks:
            diffs[i] = graded_map_from_blocks(src_blocks, tgt_blocks, blocks)
    return ModuleComplex(ring, terms, diffs)


def _hom_module_pair(a: FreeModule, b: FreeModule) -> FreeModule:
    """Hom(A, B) with generator (q, p) at index q*rank(B)+p and twist b_p - a_q."""
    return FreeModule(a.ring, tuple(bp - aq for aq in a.twists for bp in b.twists))


def hom_summands(x: ModuleComplex, t: ModuleComplex, i: int):
    """Ordered s with Hom(X_s, T_{s+i}) contributing to Hom(X, T)_i."""
    return [s for s in x.support if (s + i) in t.terms]


def hom_complex(x, t) -> ModuleComplex:
    """Hom(X, T)_i = (+)_s Hom(X_s, T_{s+i}) with (df)(v) = d(f(v)) - (-1)^i f(dv).

    X must have free terms; T may have presented ones, and a presented module
    for T means its stalk.  Hom(X_s, T_u) = (+)_q T_u(-a_q) over the twists
    a_q of X_s, generators X-major.
    """
    x, t = _complex(x), _complex(t)
    if x.ring != t.ring:
        raise ValueError("hom over different rings")
    _require_free(x, "hom")
    ring = x.ring
    degrees = sorted({u - s for s in x.terms for u in t.terms})
    terms = {}
    for i in degrees:
        mods = [
            module_sum_twisted(t.module(s + i), tuple(-a for a in x.term(s).twists))
            for s in hom_summands(x, t, i)
        ]
        if mods:
            terms[i] = module_sum(mods)
    diffs = {}
    for i in degrees:
        src_list = hom_summands(x, t, i)
        tgt_list = hom_summands(x, t, i - 1)
        if not src_list or not tgt_list:
            continue
        src_blocks = [_hom_module_pair(x.term(s), t.term(s + i)) for s in src_list]
        tgt_blocks = [_hom_module_pair(x.term(s), t.term(s + i - 1)) for s in tgt_list]
        tgt_index = {s: b for b, s in enumerate(tgt_list)}
        sign = _sign_of(ring, i + 1)  # -(-1)^i
        blocks = {}
        for bj, s in enumerate(src_list):
            bi = tgt_index.get(s)
            if bi is not None:
                blk = _post_compose_block(x.term(s), t.differential(s + i))
                if not blk.is_zero_map():
                    blocks[(bi, bj)] = blk
            bi = tgt_index.get(s + 1)
            if bi is not None:
                blk = _pre_compose_block(x.differential(s + 1), t.term(s + i))
                if sign != 1:
                    blk = blk.scale(sign)
                if not blk.is_zero_map():
                    blocks[(bi, bj)] = blk
        if blocks:
            diffs[i] = graded_map_from_blocks(src_blocks, tgt_blocks, blocks)
    return ModuleComplex(ring, terms, diffs)


def _post_compose_block(x_s: FreeModule, dt: GradedMap) -> GradedMap:
    """Hom(X_s, dt): the map E_{qp} -> sum_r dt[r,p] E_{qr} in q-major layout."""
    left = FreeModule(x_s.ring, tuple(-a for a in x_s.twists))
    return GradedMap.identity(left).tensor(dt)


def _pre_compose_block(dx: GradedMap, values: FreeModule) -> GradedMap:
    """Hom(dx, values): f -> f o dx, from Hom(dx.target, V) to Hom(dx.source, V)."""
    src = _hom_module_pair(dx.target, values)
    tgt = _hom_module_pair(dx.source, values)
    rv = values.rank
    entries = {
        (q * rv + p, q2 * rv + p): e for (q2, q), e in dx.entries.items() for p in range(rv)
    }
    return GradedMap(src, tgt, entries)


def direct_sum(complexes: Iterable[ModuleComplex]) -> ModuleComplex:
    complexes = list(complexes)
    if not complexes:
        raise ValueError("direct sum of nothing")
    ring = complexes[0].ring
    degrees = sorted({i for c in complexes for i in c.terms})
    terms = {}
    diffs = {}
    for i in degrees:
        terms[i] = module_sum([c.module(i) for c in complexes])
        parts = [c.term(i) for c in complexes]
        tgt_parts = [c.term(i - 1) for c in complexes]
        blocks = {}
        for b, c in enumerate(complexes):
            f = c.differentials.get(i)
            if f is not None:
                blocks[(b, b)] = f
        if blocks:
            diffs[i] = graded_map_from_blocks(parts, tgt_parts, blocks)
    return ModuleComplex(ring, terms, diffs)


def tensor_chain_maps(f: ModuleChainMap, g: ModuleChainMap) -> ModuleChainMap:
    """f (x) g : X (x) Y -> X' (x) Y' for degree-0 chain maps (no signs needed)."""
    sx, sy = f.source, g.source
    tx, ty = f.target, g.target
    source = tensor(sx, sy)
    target = tensor(tx, ty)
    comps = {}
    for i in source.support:
        src_pairs = tensor_summands(sx, sy, i)
        tgt_pairs = tensor_summands(tx, ty, i)
        if not tgt_pairs:
            continue
        src_blocks = [_tensor_module(sx.term(s), sy.term(t)) for s, t in src_pairs]
        tgt_blocks = [_tensor_module(tx.term(s), ty.term(t)) for s, t in tgt_pairs]
        tgt_index = {pair: b for b, pair in enumerate(tgt_pairs)}
        blocks = {}
        for bj, (s, t) in enumerate(src_pairs):
            bi = tgt_index.get((s, t))
            if bi is None:
                continue
            blocks[(bi, bj)] = f.component(s).tensor(g.component(t))
        comps[i] = graded_map_from_blocks(src_blocks, tgt_blocks, blocks)
    return ModuleChainMap(source, target, comps)


# Older names of tensor and Hom with a presented module on the right, kept
# resolvable for code that imports them.
tensor_with_module = tensor
hom_into_module = hom_complex


def tensor_map_with_module(f: ModuleChainMap, module: PresentedModule) -> ModuleChainMap:
    return tensor_chain_maps(f, ModuleChainMap.identity(module))


# -- strandwise homology -------------------------------------------------------

class StrandContext:
    """Caches coset-level differentials, their kernels and homology at one degree."""

    __slots__ = ("complex", "d", "_ops", "_kernels", "_homology")

    def __init__(self, c, d: int):
        object.__setattr__(self, "complex", _complex(c))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "_ops", {})
        object.__setattr__(self, "_kernels", {})
        object.__setattr__(self, "_homology", {})

    def __setattr__(self, name, value):
        raise AttributeError("StrandContext is immutable")

    def space(self, i: int) -> StrandSpace:
        return strand(self.complex.module(i), self.d)

    def op(self, i: int) -> ExactMatrix:
        """Coset-level differential V_i -> V_{i-1}."""
        m = self._ops.get(i)
        if m is None:
            src = self.space(i)
            dst = self.space(i - 1)
            if src.dim == 0 or dst.dim == 0:
                m = ExactMatrix.zeros(self.complex.ring.field, dst.dim, src.dim)
            else:
                ambient = self.complex.differential(i).strand_matrix(self.d)
                m = induced_map(src, dst, ambient)
            self._ops[i] = m
        return m

    def _kernel_of(self, i: int):
        """(K, free): a kernel basis of d_i with K[free] = I; a cycle v has coordinates v[free]."""
        kf = self._kernels.get(i)
        if kf is None:
            kf = _kernel(self.op(i))
            self._kernels[i] = kf
        return kf

    def homology(self, i: int) -> StrandSpace:
        """ker d_i / im d_{i+1} in the coordinates of the kernel basis of d_i.

        Its ambient space is k^m, m = dim ker d_i, and the image enters as
        the kernel coordinates of the columns of d_{i+1}.
        """
        h = self._homology.get(i)
        if h is None:
            if self.space(i).dim == 0:
                h = StrandSpace(ExactMatrix.zeros(self.complex.ring.field, 0, 0))
            else:
                image = self.op(i + 1)
                if not (self.op(i) @ image).is_zero():
                    raise WellDefinednessError(f"d_{i} d_{i + 1} != 0 in internal degree {self.d}")
                h = StrandSpace(image.take_rows(self._kernel_of(i)[1]))
            self._homology[i] = h
        return h

    def homology_dim(self, i: int) -> int:
        return self.homology(i).dim


def homology_strand(c, i: int, d: int) -> StrandSpace:
    """ker(d_i)_d / im(d_{i+1})_d as a strand space in the coordinates of the
    kernel basis of d_i (see :meth:`StrandContext.homology`)."""
    return StrandContext(c, d).homology(i)


def homology_table(c, i_range, window, *, stabilized: bool = True, k_used: int = 0) -> HilbertTable:
    table = HilbertTable()
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    for d in degree_window(window):
        ctx = StrandContext(c, d)
        for i in range(i_lo, i_hi + 1):
            table.set(i, d, TableEntry(ctx.homology_dim(i), stabilized, k_used))
    return table


def coset_level_map(f, ctx_src: StrandContext, ctx_dst: StrandContext, i: int) -> ExactMatrix:
    src = ctx_src.space(i)
    dst = ctx_dst.space(i)
    if src.dim == 0 or dst.dim == 0:
        return ExactMatrix.zeros(ctx_src.complex.ring.field, dst.dim, src.dim)
    return induced_map(src, dst, f.component(i).strand_matrix(ctx_src.d))


def homology_induced_matrix(f, ctx_src: StrandContext, ctx_dst: StrandContext, i: int) -> ExactMatrix:
    """Matrix induced on homology strands by a chain map.

    The chain map sends the kernel basis of the source to cycles of the
    target, which are checked and then read in target kernel coordinates.
    """
    hsrc = ctx_src.homology(i)
    hdst = ctx_dst.homology(i)
    if hsrc.dim == 0 or hdst.dim == 0:
        return ExactMatrix.zeros(ctx_src.complex.ring.field, hdst.dim, hsrc.dim)
    cycles = coset_level_map(f, ctx_src, ctx_dst, i) @ ctx_src._kernel_of(i)[0]
    if not (ctx_dst.op(i) @ cycles).is_zero():
        raise WellDefinednessError("the chain map sends a cycle off the target kernel")
    return induced_map(hsrc, hdst, cycles.take_rows(ctx_dst._kernel_of(i)[1]))


def quasi_iso_check(f: ModuleChainMap, i_range, window) -> CheckReport:
    """Passes iff the induced maps on homology strands are isomorphisms on the window."""
    mismatches = []
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    for d in degree_window(window):
        ctx_src = StrandContext(f.source, d)
        ctx_dst = StrandContext(f.target, d)
        for i in range(i_lo, i_hi + 1):
            hs = ctx_src.homology(i)
            ht = ctx_dst.homology(i)
            if hs.dim != ht.dim:
                mismatches.append((i, d))
                continue
            if hs.dim == 0:
                continue
            mat = homology_induced_matrix(f, ctx_src, ctx_dst, i)
            if rank(mat) != hs.dim:
                mismatches.append((i, d))
    return CheckReport(mismatches, compared=(i_hi - i_lo + 1) * len(degree_window(window)))
