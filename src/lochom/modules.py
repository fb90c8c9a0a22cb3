"""Twisted free modules, homogeneous maps, presented modules, and strands.

Twist convention, fixed globally: R(a)_d = R_{a+d}, so the generator of
R(-t) sits in internal degree t.  A map F -> G of internal degree t with
F = (+)R(a_j) and G = (+)R(b_i) must have entry (i, j) zero or homogeneous of
degree t + b_i - a_j; this is enforced at construction, and it is exactly what
makes every strand matrix well typed.  A map stores its nonzero entries only,
as a read-only mapping (i, j) -> Poly, so identities, zero maps, block assemblies,
composites and strand matrices cost the nonzero entries, not rank^2.

Modules are always presented (a free module is the cokernel of the empty
presentation) so that one elimination of a presentation strand computes any
strand; a quotient strand whose strands one variable down are cached is read
off them instead (see :func:`strand`).  A twist or direct sum of modules also
records its summands, and its strands are direct sums of theirs, so each
summand strand is eliminated once.
Strand spaces are cached per module.  The coset map of a module map, the
matrix it induces on two strands, is built projected and never assembles
the strand matrix (see :func:`_coset_map`): each nonzero entry gives one
block, the projection of the target's part M_D restricted to one generator
times multiplication by the entry, dim M_D x dim R_s, cached on the base
module next to its strands (where M_D is full, the multiplication block
scattered into that generator's rows).  ``exact._mult_block`` builds these
blocks and ``ExactMatrix.assemble`` places them, as it places the ring's
cached blocks (``rings.mult_matrix``) in a strand matrix
(presentation strands, ambients that are no module map), which is
assembled per call and kept by nothing.  Blocks, strand matrices and
projections are stored by ``exact``'s storage rule, so the block and strand
caches hold only the nonzero entries of the large sparse ones, such as
those of monomial data.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from types import MappingProxyType
from typing import Iterable, NamedTuple

import numpy as np

from .errors import NonHomogeneousError
from .exact import ExactMatrix, StrandSpace, _coset_columns, _Frozen, _mult_block, rank
from .rings import GradedRing, Poly, _scatter_rows, monomial_basis, mult_matrix

__all__ = [
    "FreeModule",
    "GradedMap",
    "PresentedModule",
    "HilbertTable",
    "TableEntry",
    "CheckReport",
    "strand",
    "mult_operator",
    "annihilator_strand",
    "hilbert_row",
]


class FreeModule(_Frozen):
    """F = (+)_j R(a_j); ``twists`` lists the a_j in generator order."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring: GradedRing, twists: Iterable[int]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "twists", tuple(int(t) for t in twists))

    @property
    def rank(self) -> int:
        return len(self.twists)

    def strand_dim(self, d: int) -> int:
        return sum(len(monomial_basis(self.ring, d + a)) for a in self.twists)

    def strand_block_dims(self, d: int):
        return [len(monomial_basis(self.ring, d + a)) for a in self.twists]

    def twisted(self, n: int) -> "FreeModule":
        return FreeModule(self.ring, tuple(a + n for a in self.twists))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.twists == other.twists
        )

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"FreeModule{self.twists}"


def free_module_sum(modules: Iterable[FreeModule]) -> FreeModule:
    modules = list(modules)
    ring = modules[0].ring
    twists: list[int] = []
    for m in modules:
        if m.ring != ring:
            raise ValueError("summands over different rings")
        twists.extend(m.twists)
    return FreeModule(ring, twists)


class GradedMap(_Frozen):
    """Homogeneous matrix of polynomials between twisted free modules.

    ``entries`` maps ``(row, col)`` to the nonzero entries only; a missing key
    is a zero entry.  The constructor takes that dict, or the rows of the
    matrix as a sequence of ``target.rank`` sequences of ``source.rank``
    polynomials, and drops the zero entries either way.
    """

    __slots__ = ("source", "target", "entries", "internal_degree")

    def __init__(self, source: FreeModule, target: FreeModule, entries, internal_degree: int = 0):
        if source.ring != target.ring:
            raise ValueError("source and target over different rings")
        ring = source.ring
        if not isinstance(entries, (dict, MappingProxyType)):
            rows = [tuple(row) for row in entries]
            if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
                raise ValueError(
                    f"entry matrix must be {target.rank}x{source.rank}, "
                    f"got {len(rows)}x{len(rows[0]) if rows else 0}"
                )
            entries = {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row)}
        nonzero = {}
        row_twists, col_twists = target.twists, source.twists
        n_rows, n_cols = len(row_twists), len(col_twists)
        for (i, j), e in entries.items():
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise ValueError(f"entry ({i},{j}) lies outside the {n_rows}x{n_cols} matrix")
            if e.ring != ring:
                raise ValueError("entry over the wrong ring")
            if e.is_zero():
                continue
            deg = e.degree()
            want = internal_degree + row_twists[i] - col_twists[j]
            if deg != want:
                raise NonHomogeneousError(
                    f"entry ({i},{j}) has degree {deg}, expected {want}"
                )
            nonzero[i, j] = e
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "entries", MappingProxyType(nonzero))
        object.__setattr__(self, "internal_degree", int(internal_degree))

    @property
    def ring(self) -> GradedRing:
        return self.source.ring

    @classmethod
    def identity(cls, module: FreeModule) -> "GradedMap":
        one = module.ring.one()
        return cls(module, module, {(i, i): one for i in range(module.rank)})

    @classmethod
    def zero(cls, source: FreeModule, target: FreeModule) -> "GradedMap":
        return cls(source, target, {})

    def is_zero_map(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and self.source == other.source
            and self.target == other.target
            and self.internal_degree == other.internal_degree
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.source, self.target, self.internal_degree))

    def __repr__(self):
        return (
            f"GradedMap({self.target.rank}x{self.source.rank}, "
            f"deg {self.internal_degree})"
        )

    # -- algebra ---------------------------------------------------------------
    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other (matrix product self * other)."""
        if other.target != self.source:
            raise ValueError("composition endpoint mismatch")
        return GradedMap(
            other.source,
            self.target,
            _product_entries(self, other),
            self.internal_degree + other.internal_degree,
        )

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if (
            self.source != other.source
            or self.target != other.target
            or self.internal_degree != other.internal_degree
        ):
            raise ValueError("sum endpoint mismatch")
        total = dict(self.entries)
        for key, b in other.entries.items():
            a = total.get(key)
            total[key] = b if a is None else a + b
        return GradedMap(self.source, self.target, total, self.internal_degree)

    def scale(self, c) -> "GradedMap":
        scaled = {key: e.scale(c) for key, e in self.entries.items()}
        return GradedMap(self.source, self.target, scaled, self.internal_degree)

    def __neg__(self) -> "GradedMap":
        return self.scale(-1)

    def twisted(self, n: int) -> "GradedMap":
        """The same entries between source(n) and target(n)."""
        return GradedMap(
            self.source.twisted(n), self.target.twisted(n), self.entries, self.internal_degree
        )

    def tensor(self, other: "GradedMap") -> "GradedMap":
        """Kronecker product; generator (p, q) of F (x) G is at index p*rank(G)+q."""
        if self.ring != other.ring:
            raise ValueError("tensor over different rings")
        src = _tensor_module(self.source, other.source)
        tgt = _tensor_module(self.target, other.target)
        rows, cols = other.target.rank, other.source.rank
        product = {
            (p * rows + q, p2 * cols + q2): a * b
            for (p, p2), a in self.entries.items()
            for (q, q2), b in other.entries.items()
        }
        return GradedMap(src, tgt, product, self.internal_degree + other.internal_degree)

    # -- strands -----------------------------------------------------------------
    def strand_matrix(self, d: int) -> ExactMatrix:
        """Matrix of F_d -> G_{d+internal_degree} on monomial strand bases,
        assembled per call from the ring's cached blocks and kept by nothing."""
        src_dims = self.source.strand_block_dims(d)
        tgt_dims = self.target.strand_block_dims(d + self.internal_degree)
        blocks = {(i, j): mult_matrix(e, d + self.source.twists[j]) for (i, j), e in self.entries.items()}
        return ExactMatrix.assemble(self.ring.field, blocks, tgt_dims, src_dims)


def _product_entries(f: GradedMap | None, g: GradedMap | None) -> dict:
    """The nonzero entries (i, j) -> Poly of the matrix product f g, with no
    map built and no degree checked; None stands for a zero map."""
    if f is None or g is None:
        return {}
    g_rows: dict = {}
    for (k, j), b in g.entries.items():
        g_rows.setdefault(k, []).append((j, b))
    product: dict = {}
    for (i, k), a in f.entries.items():
        for j, b in g_rows.get(k, ()):
            ab = a * b
            acc = product.get((i, j))
            product[i, j] = ab if acc is None else acc + ab
    return {key: e for key, e in product.items() if not e.is_zero()}


def _tensor_module(a: FreeModule, b: FreeModule) -> FreeModule:
    return FreeModule(a.ring, tuple(x + y for x in a.twists for y in b.twists))


def graded_map_from_blocks(
    source_blocks: list[FreeModule],
    target_blocks: list[FreeModule],
    blocks: dict,
    internal_degree: int = 0,
) -> GradedMap:
    """Assemble a map from a sparse dict (target_block, source_block) -> GradedMap."""
    if not source_blocks and not target_blocks:
        raise ValueError("graded_map_from_blocks needs at least one block module")
    ring = (source_blocks[0] if source_blocks else target_blocks[0]).ring
    source = free_module_sum(source_blocks) if source_blocks else FreeModule(ring, ())
    target = free_module_sum(target_blocks) if target_blocks else FreeModule(ring, ())
    tgt_off = [0]
    for m in target_blocks:
        tgt_off.append(tgt_off[-1] + m.rank)
    src_off = [0]
    for m in source_blocks:
        src_off.append(src_off[-1] + m.rank)
    entries = {}
    for (bi, bj), blk in blocks.items():
        if blk.source != source_blocks[bj] or blk.target != target_blocks[bi]:
            raise ValueError("block endpoints do not match the block decomposition")
        r0, c0 = tgt_off[bi], src_off[bj]
        for (i, j), e in blk.entries.items():
            entries[r0 + i, c0 + j] = e
    return GradedMap(source, target, entries, internal_degree)


class PresentedModule(_Frozen):
    """M = coker(presentation: F1 -> F0), with strands cached per degree.

    ``parts`` records what a module built by :meth:`twisted` or
    :func:`module_sum` is a direct sum of: a flat tuple of ``(base, shift)``
    pairs with M = (+) base(shift) and every base built directly from a
    presentation (with no parts).  Equality and hash use the presentation
    only.
    """

    __slots__ = ("presentation", "parts", "_strand_cache", "_block_cache")

    def __init__(self, presentation: GradedMap):
        if presentation.internal_degree != 0:
            raise ValueError("presentations must have internal degree 0")
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "parts", ())
        object.__setattr__(self, "_strand_cache", {})
        object.__setattr__(self, "_block_cache", {})

    @classmethod
    def free(cls, module: FreeModule) -> "PresentedModule":
        empty = FreeModule(module.ring, ())
        return cls(GradedMap.zero(empty, module))

    @classmethod
    def quotient(cls, target: FreeModule, relation_columns) -> "PresentedModule":
        """Quotient of a free module by homogeneous relation columns.

        Each relation is a list of Polys (one per target generator); source
        twists are inferred from the entry degrees.
        """
        ring = target.ring
        columns = [list(col) for col in relation_columns]
        src_twists = []
        for col in columns:
            if len(col) != target.rank:
                raise ValueError("relation length must equal the number of generators")
            twist = None
            for i, e in enumerate(col):
                if e.is_zero():
                    continue
                t = target.twists[i] - e.degree()
                if twist is None:
                    twist = t
                elif twist != t:
                    raise NonHomogeneousError(
                        "relation column mixes degrees; source twist is ambiguous"
                    )
            src_twists.append(0 if twist is None else twist)
        source = FreeModule(ring, src_twists)
        entries = {(i, j): e for j, col in enumerate(columns) for i, e in enumerate(col)}
        return cls(GradedMap(source, target, entries))

    @property
    def ring(self) -> GradedRing:
        return self.presentation.ring

    @property
    def generators(self) -> FreeModule:
        return self.presentation.target

    @property
    def relations(self) -> FreeModule:
        return self.presentation.source

    def twisted(self, n: int) -> "PresentedModule":
        parts = tuple((base, t + n) for base, t in self.parts) or ((self, n),)
        return _with_parts(self.presentation.twisted(n), parts)

    def __eq__(self, other):
        return isinstance(other, PresentedModule) and self.presentation == other.presentation

    def __hash__(self):
        return hash(self.presentation)

    def __repr__(self):
        return (
            f"PresentedModule(gens {self.generators.twists}, "
            f"rels {self.relations.twists})"
        )


def module_sum(modules) -> PresentedModule:
    """(+)_p M_p as a presented module (block-diagonal presentation)."""
    modules = list(modules)
    if len(modules) == 1:
        return modules[0]
    blocks = {(p, p): m.presentation for p, m in enumerate(modules)}
    presentation = graded_map_from_blocks(
        [m.relations for m in modules], [m.generators for m in modules], blocks
    )
    return _with_parts(presentation, tuple(part for m in modules for part in m.parts or ((m, 0),)))


def _with_parts(presentation: GradedMap, parts) -> PresentedModule:
    module = PresentedModule(presentation)
    object.__setattr__(module, "parts", parts)
    return module


def module_sum_twisted(module: PresentedModule, twists) -> PresentedModule:
    """(+)_p M(t_p) as a presented module (block-diagonal presentation)."""
    return module_sum([module.twisted(t) for t in twists])


def strand(module: PresentedModule, d: int) -> StrandSpace:
    """M_d = (F0)_d / im((F1)_d) with the deterministic coset basis.

    Strands are cached per module.  A module with recorded parts takes the
    direct sum of the strands base_{d+shift} of its parts, cached on each
    base, so one base in one degree is eliminated once however many sums,
    twists and complexes it occurs in; the result is the space one
    elimination of the block-diagonal presentation strand would give.

    A base module with relations takes one of two routes to the same space.
    When its strands M_{d-w_j} one variable down are all cached, and the
    unknowns of Macaulay's inverse system (their dims plus the generators of
    degree d) are at most half of dim (F0)_d, it reads M_d off them
    (:meth:`StrandSpace._from_below`): the image of the relations in degree d
    is the sum of the x_j-multiples of the images below and of the relations
    of degree exactly d.  Otherwise it eliminates the presentation strand.
    Both give the reduced echelon basis of the same annihilator, which is
    unique, so the route leaves no trace in the space.  Nothing recurses: a
    strand whose lower strands are not cached is eliminated directly.
    """
    cached = module._strand_cache.get(d)
    if cached is not None:
        return cached
    pres = module.presentation
    if module.parts:
        space = StrandSpace.direct_sum(strand(base, d + t) for base, t in module.parts)
    elif pres.source.rank == 0:
        space = StrandSpace(
            ExactMatrix.zeros(module.ring.field, pres.target.strand_dim(d), 0)
        )
    else:
        space = _strand_from_below(module, d)
        if space is None:
            space = StrandSpace(pres.strand_matrix(d))
    module._strand_cache[d] = space
    return space


def _strand_from_below(module: PresentedModule, d: int) -> StrandSpace | None:
    """M_d by the inverse system of the cached M_{d-w_j}, or None where the
    direct elimination is due (see :func:`strand`)."""
    ring, gens, pres = module.ring, module.generators, module.presentation
    below = [module._strand_cache.get(d - w) for w in ring.weights]
    if None in below:
        return None
    dims = gens.strand_block_dims(d)
    n = sum(dims)
    unknowns = sum(sp.dim for sp in below) + sum(d + a == 0 for a in gens.twists)
    if not n or 2 * unknowns > n:
        return None

    def lift(exp, lower):
        # the coordinate in (F0)_d of x^exp times each coordinate of (F0)_lower
        out, start = [], 0
        for a, dim in zip(gens.twists, dims):
            # an empty block adds no rows; skipping it keeps _rank_table off
            # the degrees below -1 it cannot take
            if monomial_basis(ring, lower + a):
                out.append(start + _scatter_rows(ring, exp, lower + a, d + a))
            start += dim
        return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)

    var = [tuple(int(i == j) for i in range(ring.nvars)) for j in range(ring.nvars)]
    sources = np.full((ring.nvars, n), -1, dtype=np.int64)
    for j, w in enumerate(ring.weights):
        up = lift(var[j], d - w)
        sources[j, up] = np.arange(up.size)
    # phi through x_j and through x_k differ by a functional that kills the
    # relations two variables down, so they agree wherever both divide once
    # they agree at x_j x_k times the coset coordinates of that strand (at
    # x_j x_k times all its coordinates when it is not cached)
    checks = []
    for j, k in combinations(range(ring.nvars), 2):
        lower = d - ring.weights[j] - ring.weights[k]
        up = lift(tuple(map(add, var[j], var[k])), lower)
        sub = module._strand_cache.get(lower)
        checks.append((j, k, up if sub is None else up[list(sub.coset_cols)]))
    # the relations of degree exactly d, as columns of (F0)_d
    top = [k for k, b in enumerate(pres.source.twists) if b == -d]
    column = {k: c for c, k in enumerate(top)}
    entries = {(i, column[k]): e for (i, k), e in pres.entries.items() if k in column}
    relations = GradedMap(FreeModule(ring, [-d] * len(top)), gens, entries).strand_matrix(d)
    return StrandSpace._from_below(below, sources, checks, relations)


def _coset_map(f: GradedMap, source: PresentedModule, target: PresentedModule, d: int) -> ExactMatrix:
    """The matrix f induces from source_d to target_{d+deg f} on coset bases.

    It is ``induced_map`` of the strand matrix A of f, but A is never
    assembled: ``ExactMatrix.assemble`` places Q A from one block per nonzero
    entry (i, j).  Each part (B, t) of the target has one row block, holding
    the projection of B restricted to the rows of generator i times
    multiplication by the entry (:func:`_projected_block`), dim B x
    dim R_{d+a_j}, cached on B; where B's strand is full (Q = I) that is the
    multiplication block scattered into the rows of generator i.  Entries
    that meet in one row block and column block are summed.  Q A then takes
    the check and column pick of ``induced_map``; only a zero target strand
    or source ambient, which leave nothing to check, give the zero matrix.
    """
    if f.source != source.generators or f.target != target.generators:
        raise ValueError("the map does not go between the generators of the modules")
    field, deg = f.ring.field, f.internal_degree
    src, dst = strand(source, d), strand(target, d + deg)
    if dst.dim == 0 or src.ambient_dim == 0:
        return ExactMatrix.zeros(field, dst.dim, src.dim)
    # per target generator: its part's row block, base and strand, and its
    # index in the base
    place, row_dims = [], []
    for base, t in target.parts or ((target, 0),):
        space = strand(base, d + deg + t)
        place.extend((len(row_dims), base, space, i) for i in range(base.generators.rank))
        row_dims.append(space.dim)
    col_dims = f.source.strand_block_dims(d)
    blocks: dict = {}
    for (i, j), e in f.entries.items():
        if not col_dims[j]:
            continue
        row, base, space, gen = place[i]
        block = _projected_block(base, space, gen, e, d + f.source.twists[j])
        prior = blocks.get((row, j))
        blocks[row, j] = block if prior is None else prior + block
    return _coset_columns(src, ExactMatrix.assemble(field, blocks, row_dims, col_dims))


def _projected_block(base: PresentedModule, space: StrandSpace, gen: int, e: Poly, s: int) -> ExactMatrix:
    """Q_i m_e: the projection of ``space`` = B_D (I where B_D is full)
    restricted to the rows of generator ``gen``, times multiplication by e
    from R_s, cached on B.

    Each term of e scatters R_s into the rows of generator ``gen`` in
    (F0)_D, and ``exact._mult_block`` sums the columns of the projection at
    those rows; no multiplication matrix is built.
    """
    key = (gen, e.key(), s)
    block = base._block_cache.get(key)
    if block is None:
        ring, top = base.ring, s + e.degree()
        dims = base.generators.strand_block_dims(top - base.generators.twists[gen])
        start = sum(dims[:gen])
        terms = [(start + _scatter_rows(ring, exp, s, top), c) for exp, c in e.terms.items()]
        block = _mult_block(ring.field, space.ambient_dim, len(monomial_basis(ring, s)), terms, space)
        base._block_cache[key] = block
    return block


def mult_operator(module: PresentedModule, f: Poly, d: int) -> ExactMatrix:
    """Matrix of multiplication by homogeneous f from M_d to M_{d+deg f}."""
    deg = f.degree()
    if deg is None:
        deg = 0
    gens = module.generators
    diagonal = GradedMap(gens, gens, {(i, i): f for i in range(gens.rank)}, deg)
    return _coset_map(diagonal, module, module, d)


def annihilator_strand(module: PresentedModule, f: Poly, d: int) -> StrandSpace:
    """(0 :_M f)_d in the coordinates of the kernel basis of multiplication
    by f from M_d to M_{d+deg f}: the full space k^m, m = dim ker."""
    op = mult_operator(module, f, d)
    return StrandSpace(ExactMatrix.zeros(module.ring.field, op.cols - rank(op), 0))


class TableEntry(NamedTuple):
    dim: int
    stabilized: bool
    k_used: int


class HilbertTable(_Frozen):
    """Map (homological index i, internal degree d) -> (dim, stabilized, k_used),
    fixed at construction, where every dim is checked to be >= 0; ``entries``
    is a read-only mapping."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        object.__setattr__(self, "entries", MappingProxyType(dict(entries or {})))
        for key, val in self.entries.items():
            if val.dim < 0:
                raise ValueError(f"negative dimension at {key}")

    def get(self, i: int, d: int) -> TableEntry:
        return self.entries[(i, d)]

    def dim(self, i: int, d: int) -> int:
        return self.entries[(i, d)].dim

    def items(self):
        return sorted(self.entries.items())

    def dims(self) -> dict:
        return {key: entry.dim for key, entry in self.entries.items()}

    def __eq__(self, other):
        return isinstance(other, HilbertTable) and self.entries == other.entries

    def same_dims(self, other: "HilbertTable") -> bool:
        return self.dims() == other.dims()

    def to_records(self):
        return [
            {
                "i": i,
                "d": d,
                "dim": e.dim,
                "stabilized": e.stabilized,
                "k_used": e.k_used,
            }
            for (i, d), e in self.items()
        ]

    def __repr__(self):
        nz = {k: e.dim for k, e in self.items() if e.dim}
        return f"HilbertTable({nz})"


class CheckReport:
    """Outcome of a cell-by-cell comparison of two computations.

    ``mismatches`` lists the cells where the two disagree, ``skipped`` the
    cells left out (unstabilized entries, or cells with no expected value),
    ``compared`` counts the cells compared, and ``twist`` is the twist the
    comparison is made under, if any.
    """

    __slots__ = ("passed", "mismatches", "skipped", "compared", "twist")

    def __init__(self, mismatches, skipped=(), compared: int = 0, twist: int | None = None):
        self.passed = not mismatches
        self.mismatches = tuple(mismatches)
        self.skipped = tuple(skipped)
        self.compared = compared
        self.twist = twist

    @classmethod
    def compare(cls, table: HilbertTable, expected, twist: int | None = None) -> "CheckReport":
        """Compare each cell of ``table``, in (i, d) order, with ``expected(i, d)``.

        A cell that is unstabilized, or whose expected value is None, is
        skipped; every other cell is compared, and one whose dim differs is
        recorded as the mismatch (i, d, dim, expected).
        """
        mismatches = []
        skipped = []
        for (i, d), entry in table.items():
            want = expected(i, d) if entry.stabilized else None
            if want is None:
                skipped.append((i, d))
            elif entry.dim != want:
                mismatches.append((i, d, entry.dim, want))
        return cls(mismatches, skipped, len(table.entries) - len(skipped), twist)

    def __repr__(self):
        status = "pass" if self.passed else f"fail {list(self.mismatches)}"
        return f"CheckReport({status}, compared={self.compared}, twist={self.twist})"


def degree_window(window) -> range:
    lo, hi = int(window[0]), int(window[1])
    return range(lo, hi + 1)


def hilbert_row(module: PresentedModule, window) -> HilbertTable:
    return HilbertTable(
        {(0, d): TableEntry(strand(module, d).dim, True, 0) for d in degree_window(window)}
    )
