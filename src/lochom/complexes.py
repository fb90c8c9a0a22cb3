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

The generator labels are the layout: :func:`tensor_generators` lists the
labels (s, a, t, b) of the generators of (X (x) Y)_i and :func:`hom_generators`
the labels (s, q, p) of those of Hom(X, T)_i, in order.  ``tensor``,
``hom_complex`` and ``tensor_chain_maps`` walk the source labels and write
each entry at the row of its target label, and the Koszul transitions read
their diagonals off the same labels.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable

from .errors import InternalInvariantError, NotFreeError, WellDefinednessError
from .exact import ExactMatrix, StrandSpace, _Frozen, _kernel, induced_map, rank
from .modules import (
    CheckReport,
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    TableEntry,
    _coset_map,
    _product_entries,
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
    "homology_table",
    "homology_induced_matrix",
    "quasi_iso_check",
]


class ModuleComplex(_Frozen):
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
        object.__setattr__(self, "terms", MappingProxyType(clean_terms))
        object.__setattr__(self, "differentials", MappingProxyType(clean_diffs))
        object.__setattr__(self, "_empty", PresentedModule.free(FreeModule(ring, ())))
        for i, f in clean_diffs.items():
            if _product_entries(f, clean_diffs.get(i + 1)):
                raise InternalInvariantError(f"d o d != 0 at homological degree {i + 1}")

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


class ModuleChainMap(_Frozen):
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
        object.__setattr__(self, "components", MappingProxyType(comps))
        for i in source.support:
            left = _product_entries(comps.get(i - 1), source.differentials.get(i))
            right = _product_entries(target.differentials.get(i), comps.get(i))
            if left != right:
                raise InternalInvariantError(f"chain map fails to commute at degree {i}")

    def component(self, i: int) -> GradedMap:
        f = self.components.get(i)
        if f is None:
            return GradedMap.zero(self.source.term(i), self.target.term(i))
        return f

    @classmethod
    def identity(cls, x) -> "ModuleChainMap":
        x = _complex(x)
        return cls(x, x, {i: GradedMap.identity(x.term(i)) for i in x.support})

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
    terms = {i + n: m for i, m in x.terms.items()}
    diffs = {i + n: (-f if n % 2 else f) for i, f in x.differentials.items()}
    return ModuleComplex(x.ring, terms, diffs)


def cone(f: ModuleChainMap) -> ModuleComplex:
    """Mapping cone: Cone(f)_i = X_{i-1} (+) Y_i, d = [[-dX, 0], [f, dY]]."""
    x, y = f.source, f.target
    ring = x.ring
    degrees = sorted(set(i + 1 for i in x.terms) | set(y.terms))
    terms = {i: module_sum([x.module(i - 1), y.module(i)]) for i in degrees}
    diffs = {}
    for i in degrees:
        src = (x.term(i - 1), y.term(i))
        tgt = (x.term(i - 2), y.term(i - 1))
        blocks = {}
        dx = x.differential(i - 1)
        if dx.source.rank and dx.target.rank:
            blocks[(0, 0)] = -dx
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


def tensor_generators(x: ModuleComplex, y: ModuleComplex, i: int):
    """Labels (s, a, t, b) of the generators of (X (x) Y)_i, in the order
    ``tensor`` lays them out: generator a of X_s times generator b of Y_t."""
    return [
        (s, a, t, b)
        for s, t in tensor_summands(x, y, i)
        for a in range(x.term(s).rank)
        for b in range(y.term(t).rank)
    ]


def _columns(maps: dict, transpose: bool = False) -> dict:
    """The entries of the maps f_i of a dict by column, (i, c) -> [(r, f_i[r, c]), ...],
    or by row, (i, r) -> [(c, f_i[r, c]), ...], if transposed."""
    out: dict = {}
    for i, f in maps.items():
        for (r, c), e in f.entries.items():
            if transpose:
                r, c = c, r
            out.setdefault((i, c), []).append((r, e))
    return out


def tensor(x, y) -> ModuleComplex:
    """X (x) Y with the Koszul sign (-1)^s on the second differential.

    X must have free terms; Y may have presented ones, and a presented module
    for Y means its stalk.  (X_s (x) Y_t) = (+)_a Y_t(x_a) over the twists x_a
    of X_s; each entry is written at the row of its ``tensor_generators`` label.
    """
    x, y = _complex(x), _complex(y)
    if x.ring != y.ring:
        raise ValueError("tensor over different rings")
    _require_free(x, "tensor")
    terms = {
        i: module_sum([
            module_sum_twisted(y.module(t), x.term(s).twists) for s, t in tensor_summands(x, y, i)
        ])
        for i in sorted({s + t for s in x.terms for t in y.terms})
    }
    dx, dy = _columns(x.differentials), _columns(y.differentials)
    diffs = {}
    for i in terms:
        row = {label: r for r, label in enumerate(tensor_generators(x, y, i - 1))}
        entries = {}
        for col, (s, a, t, b) in enumerate(tensor_generators(x, y, i)):
            for a2, e in dx.get((s, a), ()):
                entries[row[s - 1, a2, t, b], col] = e
            for b2, e in dy.get((t, b), ()):
                entries[row[s, a, t - 1, b2], col] = -e if s % 2 else e
        if entries:
            diffs[i] = GradedMap(terms[i].generators, terms[i - 1].generators, entries)
    return ModuleComplex(x.ring, terms, diffs)


def hom_summands(x: ModuleComplex, t: ModuleComplex, i: int):
    """Ordered s with Hom(X_s, T_{s+i}) contributing to Hom(X, T)_i."""
    return [s for s in x.support if (s + i) in t.terms]


def hom_generators(x: ModuleComplex, t: ModuleComplex, i: int):
    """Labels (s, q, p) of the generators of Hom(X, T)_i, in the order
    ``hom_complex`` lays them out: generator q of X_s sent to generator p of
    T_{s+i}."""
    return [
        (s, q, p)
        for s in hom_summands(x, t, i)
        for q in range(x.term(s).rank)
        for p in range(t.term(s + i).rank)
    ]


def hom_complex(x, t) -> ModuleComplex:
    """Hom(X, T)_i = (+)_s Hom(X_s, T_{s+i}) with (df)(v) = d(f(v)) - (-1)^i f(dv).

    X must have free terms; T may have presented ones, and a presented module
    for T means its stalk.  Hom(X_s, T_u) = (+)_q T_u(-x_q) over the twists
    x_q of X_s; each entry is written at the row of its ``hom_generators`` label.
    """
    x, t = _complex(x), _complex(t)
    if x.ring != t.ring:
        raise ValueError("hom over different rings")
    _require_free(x, "hom")
    terms = {
        i: module_sum([
            module_sum_twisted(t.module(s + i), tuple(-a for a in x.term(s).twists))
            for s in hom_summands(x, t, i)
        ])
        for i in sorted({u - s for s in x.terms for u in t.terms})
    }
    dt, dx_rows = _columns(t.differentials), _columns(x.differentials, transpose=True)
    diffs = {}
    for i in terms:
        row = {label: r for r, label in enumerate(hom_generators(x, t, i - 1))}
        entries = {}
        for col, (s, q, p) in enumerate(hom_generators(x, t, i)):
            for p2, e in dt.get((s + i, p), ()):  # d(f(v))
                entries[row[s, q, p2], col] = e
            for q2, e in dx_rows.get((s + 1, q), ()):  # -(-1)^i f(dv)
                entries[row[s + 1, q2, p], col] = e if i % 2 else -e
        if entries:
            diffs[i] = GradedMap(terms[i].generators, terms[i - 1].generators, entries)
    return ModuleComplex(x.ring, terms, diffs)


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
    sx, sy, tx, ty = f.source, g.source, f.target, g.target
    source, target = tensor(sx, sy), tensor(tx, ty)
    fc, gc = _columns(f.components), _columns(g.components)
    comps = {}
    for i in source.support:
        row = {label: r for r, label in enumerate(tensor_generators(tx, ty, i))}
        entries = {}
        for col, (s, a, t, b) in enumerate(tensor_generators(sx, sy, i)):
            for a2, e in fc.get((s, a), ()):
                for b2, e2 in gc.get((t, b), ()):
                    entries[row[s, a2, t, b2], col] = e * e2
        comps[i] = GradedMap(source.term(i), target.term(i), entries)
    return ModuleChainMap(source, target, comps)


# Older names of tensor and Hom with a presented module on the right, kept
# resolvable for code that imports them.
tensor_with_module = tensor
hom_into_module = hom_complex


def tensor_map_with_module(f: ModuleChainMap, module: PresentedModule) -> ModuleChainMap:
    return tensor_chain_maps(f, ModuleChainMap.identity(module))


# -- strandwise homology -------------------------------------------------------

class StrandContext(_Frozen):
    """Caches coset-level differentials, their kernels and homology at one degree."""

    __slots__ = ("complex", "d", "_ops", "_kernels", "_homology")

    def __init__(self, c, d: int):
        object.__setattr__(self, "complex", _complex(c))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "_ops", {})
        object.__setattr__(self, "_kernels", {})
        object.__setattr__(self, "_homology", {})

    def space(self, i: int) -> StrandSpace:
        return strand(self.complex.module(i), self.d)

    def op(self, i: int) -> ExactMatrix:
        """Coset-level differential V_i -> V_{i-1}."""
        m = self._ops.get(i)
        if m is None:
            c = self.complex
            m = self._ops[i] = _coset_map(c.differential(i), c.module(i), c.module(i - 1), self.d)
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
        the kernel coordinates of the columns of d_{i+1}.  Reading a cycle
        at the free columns is one to one on ker d_i, so that image has
        rank d_{i+1}, and the ranks decide two cases with no quotient
        elimination: if d_{i+1} is zero, H_i is all of k^m; if the kernel of
        d_{i+1} is cached (H_{i+1} computes it) and gives rank d_{i+1} = m,
        H_i is zero.  Any other image is eliminated.  No kernel of d_{i+1}
        is computed only to decide, and the d∘d check runs on every space.
        """
        h = self._homology.get(i)
        if h is None:
            field = self.complex.ring.field
            if self.space(i).dim == 0:
                h = StrandSpace(ExactMatrix.zeros(field, 0, 0))
            else:
                image = self.op(i + 1)
                if not (self.op(i) @ image).is_zero():
                    raise WellDefinednessError(f"d_{i} d_{i + 1} != 0 in internal degree {self.d}")
                free = self._kernel_of(i)[1]
                above = self._kernels.get(i + 1)
                if image.is_zero():
                    h = StrandSpace(ExactMatrix.zeros(field, len(free), 0))
                elif above is not None and image.cols - len(above[1]) == len(free):
                    h = StrandSpace._zero(field, len(free))
                else:
                    h = StrandSpace(image.take_rows(free))
            self._homology[i] = h
        return h


def homology_table(c, i_range, window, *, k_used: int = 0) -> HilbertTable:
    """dim H_i at each (i, d) of the ranges, every entry stabilized with the given k_used.

    Each degree reads i from the top down, so H_i finds the kernel of
    d_{i+1} that H_{i+1} computed (see :meth:`StrandContext.homology`).
    """
    entries = {}
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    for d in degree_window(window):
        ctx = StrandContext(c, d)
        for i in range(i_hi, i_lo - 1, -1):
            entries[i, d] = TableEntry(ctx.homology(i).dim, True, k_used)
    return HilbertTable(entries)


def coset_level_map(f, ctx_src: StrandContext, ctx_dst: StrandContext, i: int) -> ExactMatrix:
    """The component f_i in coset coordinates, from the source term's strand to the target's."""
    return _coset_map(
        f.component(i), ctx_src.complex.module(i), ctx_dst.complex.module(i), ctx_src.d
    )


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
        found = []
        for i in range(i_hi, i_lo - 1, -1):  # from the top, as homology_table reads
            hs = ctx_src.homology(i)
            ht = ctx_dst.homology(i)
            if hs.dim != ht.dim:
                found.append((i, d))
                continue
            if hs.dim == 0:
                continue
            mat = homology_induced_matrix(f, ctx_src, ctx_dst, i)
            if rank(mat) != hs.dim:
                found.append((i, d))
        mismatches += reversed(found)
    return CheckReport(mismatches, compared=(i_hi - i_lo + 1) * len(degree_window(window)))
